"""Residue number system arithmetic with a generalized-divisor Barrett
reduction that runs entirely in residue form.

The package splits a large modular multiplication across pairwise coprime
word-sized channels, estimates the quotient with two divisor constants
chosen as subproducts of the channel moduli, and never reconstructs a big
integer between steps. See README.md for the mathematical background and
the command-line tool.
"""

from .barrett import (
    BarrettParams,
    RangeCase,
    estimate_quotient,
    final_correct,
    make_params,
    modmul,
)
from .base_extension import base_extend
from .errors import (
    CaseMismatch,
    ConditionViolation,
    DuplicateOrNonCoprime,
    EmptyKnownSet,
    InputOutOfRange,
    ModulusTooSmall,
    NotCoprime,
    OutOfRange,
    RnsBarrettError,
    SelectionFailed,
    SetMismatch,
)
from .modexp import bmm_modexp, final_result
from .paramfile import dumps as dump_params
from .paramfile import load as load_params
from .quotient import ModuliPartition, quotient_by_moduli_product
from .reference import (
    classic_barrett_quotient,
    montgomery_modmul,
    oracle_modexp,
    oracle_modmul,
)
from .rns import (
    ModuliSet,
    PartialResidueVector,
    ResidueVector,
    decode_crt,
    encode,
    make_moduli_set,
)
from .rns_barrett import (
    RnsBarrettContext,
    StepTrace,
    bmm,
    make_context,
    trace_bmm,
)
from .selection import select_context

__version__ = "0.1.0"

__all__ = [
    "BarrettParams",
    "CaseMismatch",
    "ConditionViolation",
    "DuplicateOrNonCoprime",
    "EmptyKnownSet",
    "InputOutOfRange",
    "ModuliPartition",
    "ModuliSet",
    "ModulusTooSmall",
    "NotCoprime",
    "OutOfRange",
    "PartialResidueVector",
    "RangeCase",
    "ResidueVector",
    "RnsBarrettContext",
    "RnsBarrettError",
    "SelectionFailed",
    "SetMismatch",
    "StepTrace",
    "base_extend",
    "bmm",
    "bmm_modexp",
    "classic_barrett_quotient",
    "decode_crt",
    "dump_params",
    "encode",
    "estimate_quotient",
    "final_correct",
    "final_result",
    "load_params",
    "make_context",
    "make_moduli_set",
    "make_params",
    "modmul",
    "montgomery_modmul",
    "oracle_modexp",
    "oracle_modmul",
    "quotient_by_moduli_product",
    "select_context",
    "trace_bmm",
]
