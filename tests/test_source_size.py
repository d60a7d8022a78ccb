"""Every module of the package stays under 4,096 parser tokens.

The parser's token buffer doubles past 4,096 entries, so compiling a
larger module without a bytecode cache raises the peak memory of the
process; in the benchmark that reads as a memory regression.
"""
import tokenize
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "bbsl2"
TOKEN_LIMIT = 4096
SKIPPED = {tokenize.COMMENT, tokenize.NL, tokenize.ENCODING}


def parser_tokens(path: Path) -> int:
    with path.open("rb") as fh:
        return sum(1 for tok in tokenize.tokenize(fh.readline) if tok.type not in SKIPPED)


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_module_under_token_limit(path):
    assert parser_tokens(path) < TOKEN_LIMIT
