"""Stage bookkeeping shared by the recognition pipelines."""
from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any

from .blackbox import BlackBoxGroup


@dataclass
class StageInfo:
    name: str
    samples_used: int
    elapsed_ms: float
    ok: bool

    def as_json(self) -> dict:
        return {
            "name": self.name,
            "samples_used": self.samples_used,
            "elapsed_ms": round(self.elapsed_ms, 3),
            "ok": self.ok,
        }


class StageRecorder:
    """Collects per-stage sample counts and wall time for the run report."""

    def __init__(self, box: BlackBoxGroup):
        self.box = box
        self.stages: list[StageInfo] = []

    @contextmanager
    def stage(self, name: str):
        start = time.perf_counter()
        samples0 = self.box.stats["samples"]
        ok = False
        try:
            yield
            ok = True
        except BaseException as exc:
            # let failure reports name the stage and show the history so far
            exc.stages = self.stages
            raise
        finally:
            self.stages.append(
                StageInfo(
                    name=name,
                    samples_used=self.box.stats["samples"] - samples0,
                    elapsed_ms=(time.perf_counter() - start) * 1000.0,
                    ok=ok,
                )
            )


@dataclass
class RecognitionResult:
    """Everything a recognition run produces, ready for reporting."""

    frame: Any
    field: Any
    explicit: Any
    morphism: Any
    stages: list[StageInfo]
    verification: dict
    extras: dict = field(default_factory=dict)
