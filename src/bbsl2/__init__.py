"""Constructive recognition of black box (P)SL2 over finite fields.

The package recovers standard generators, a Frobenius map, and an
explicit field inside a group given only by opaque strings, then
returns a verified isomorphism from (P)SL2 over a concrete field onto
the black box. A transparent matrix backend doubles as the test oracle.
"""
from .backend import MatrixBackend, MatrixBlackBox, make_matrix_blackbox
from .bbfield import BlackBoxField, build_field_on_U, ppd_prime
from .blackbox import (
    BlackBoxGroup,
    DirectProductBox,
    ElementString,
    SubgroupBox,
    element_order,
    global_exponent_gl,
)
from .errors import ContractViolation, InputError, MonteCarloFailure
from .field import ExplicitField, FieldIsomorphism, explicit_isomorphism
from .frobenius import FrobeniusMap, ShiftedBlackBox, build_shift_blackbox, frobenius_on_sl2
from .involutions import bray_centralizer, bray_element, to_involution
from .sl2char2 import Char2Field, recover_char2
from .sl2odd import StandardFrame, SteinbergMorphism, find_standard_generators, recover_psl2
from .stages import RecognitionResult, StageInfo, StageRecorder

__all__ = [
    "BlackBoxField",
    "BlackBoxGroup",
    "Char2Field",
    "ContractViolation",
    "DirectProductBox",
    "ElementString",
    "ExplicitField",
    "FieldIsomorphism",
    "FrobeniusMap",
    "InputError",
    "MatrixBackend",
    "MatrixBlackBox",
    "MonteCarloFailure",
    "RecognitionResult",
    "ShiftedBlackBox",
    "StageInfo",
    "StageRecorder",
    "StandardFrame",
    "SteinbergMorphism",
    "SubgroupBox",
    "bray_centralizer",
    "bray_element",
    "build_field_on_U",
    "build_shift_blackbox",
    "element_order",
    "explicit_isomorphism",
    "find_standard_generators",
    "frobenius_on_sl2",
    "global_exponent_gl",
    "make_matrix_blackbox",
    "ppd_prime",
    "recover_char2",
    "recover_psl2",
    "to_involution",
]
