"""Constructive recognition of black box (P)SL2 over finite fields.

The package recovers standard generators, a Frobenius map, and an
explicit field inside a group given only by opaque strings, then
returns a verified isomorphism from (P)SL2 over a concrete field onto
the black box. A transparent matrix backend doubles as the test oracle.
"""
from .backend import MatrixBackend, MatrixBlackBox, make_matrix_blackbox
from .bbfield import BlackBoxField, build_field_on_U, ppd_prime
from .blackbox import BlackBoxGroup, ElementString, SubgroupBox, element_order
from .errors import ContractViolation, InputError, MonteCarloFailure
from .field import ExplicitField, explicit_isomorphism
from .frobenius import FrobeniusMap, frobenius_on_sl2
from .involutions import to_involution
from .sl2char2 import Char2Field, recognize, recover_char2
from .sl2odd import StandardFrame, SteinbergMorphism, find_standard_generators, recover_psl2
from .stages import RecognitionResult, StageInfo, StageRecorder

__all__ = [
    "BlackBoxField",
    "BlackBoxGroup",
    "Char2Field",
    "ContractViolation",
    "ElementString",
    "ExplicitField",
    "FrobeniusMap",
    "InputError",
    "MatrixBackend",
    "MatrixBlackBox",
    "MonteCarloFailure",
    "RecognitionResult",
    "StageInfo",
    "StageRecorder",
    "StandardFrame",
    "SteinbergMorphism",
    "SubgroupBox",
    "build_field_on_U",
    "element_order",
    "explicit_isomorphism",
    "find_standard_generators",
    "frobenius_on_sl2",
    "make_matrix_blackbox",
    "ppd_prime",
    "recognize",
    "recover_char2",
    "recover_psl2",
    "to_involution",
]
