"""Misuse at public entry points raises TypeError or ValueError, never a wrong value.

One row per entry point and misuse: a non-integer where an integer is
due, an int or a partial vector where a full vector is due, something
other than a moduli set where a set is due, or a negative exponent.
"""

import pytest

from rnsbarrett import (
    ModuliPartition,
    PartialResidueVector,
    ResidueVector,
    encode,
    final_correct,
    make_context,
    make_moduli_set,
    make_params,
    modmul,
    oracle_modexp,
    quotient_by_moduli_product,
)

EX_SET = make_moduli_set([4, 5, 7, 11])
EX_PART = ModuliPartition(EX_SET, (0, 1))
EX_PARAMS = make_params(21, 20, 24)

MISUSE = {
    "quotient-of-int": (TypeError, lambda: quotient_by_moduli_product(5, EX_PART)),
    "quotient-of-float": (TypeError, lambda: quotient_by_moduli_product(5.0, EX_PART)),
    "quotient-of-partial": (
        TypeError,
        lambda: quotient_by_moduli_product(PartialResidueVector({2: 5, 3: 8}, EX_SET), EX_PART),
    ),
    "modmul-float-a": (TypeError, lambda: modmul(3.5, 2, EX_PARAMS)),
    "modmul-float-b": (TypeError, lambda: modmul(2, 3.5, EX_PARAMS)),
    "params-float-modulus": (TypeError, lambda: make_params(21.0, 20, 24)),
    "params-float-g": (TypeError, lambda: make_params(21, 20.0, 24)),
    "params-float-h": (TypeError, lambda: make_params(21, 20, 24.0)),
    "final-correct-float": (TypeError, lambda: final_correct(3.5, 21)),
    "oracle-negative-exponent": (ValueError, lambda: oracle_modexp(2, -1, 21)),
    "encode-on-a-list": (TypeError, lambda: encode(5, [4, 5, 7])),
    "vector-on-a-str": (TypeError, lambda: ResidueVector((1, 2, 3, 4), "x")),
    "partial-on-a-str": (TypeError, lambda: PartialResidueVector({0: 1}, "x")),
    "partition-of-a-str": (TypeError, lambda: ModuliPartition("x", (0,))),
    "context-on-a-str": (TypeError, lambda: make_context("x", 21, (0, 1), (0, 2))),
}


@pytest.mark.parametrize("error, call", MISUSE.values(), ids=MISUSE.keys())
def test_misuse_is_a_type_error(error, call):
    with pytest.raises(error):
        call()
