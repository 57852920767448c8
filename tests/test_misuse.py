"""Misuse at public entry points raises TypeError, never a wrong value.

One row per entry point and misuse: a non-integer where an integer is
due, or an int or a partial vector where a full vector is due.
"""

import pytest

from rnsbarrett import (
    ModuliPartition,
    PartialResidueVector,
    make_moduli_set,
    make_params,
    modmul,
    quotient_by_moduli_product,
)

EX_SET = make_moduli_set([4, 5, 7, 11])
EX_PART = ModuliPartition(EX_SET, (0, 1))
EX_PARAMS = make_params(21, 20, 24)

MISUSE = {
    "quotient-of-int": lambda: quotient_by_moduli_product(5, EX_PART),
    "quotient-of-float": lambda: quotient_by_moduli_product(5.0, EX_PART),
    "quotient-of-partial": lambda: quotient_by_moduli_product(
        PartialResidueVector({2: 5, 3: 8}, EX_SET), EX_PART
    ),
    "modmul-float-a": lambda: modmul(3.5, 2, EX_PARAMS),
    "modmul-float-b": lambda: modmul(2, 3.5, EX_PARAMS),
}


@pytest.mark.parametrize("call", MISUSE.values(), ids=MISUSE.keys())
def test_misuse_is_a_type_error(call):
    with pytest.raises(TypeError):
        call()
