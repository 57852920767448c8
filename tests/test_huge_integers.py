"""Named errors whose operands are too long for ``str()``.

CPython 3.11, and 3.10.7 and later 3.10 releases, refuse to render
integers of more than ``sys.int_max_str_digits`` decimal digits (4300 by
default). Failure texts render their integers through ``errors.int_text``,
so such an operand still raises the package's named error, not a
``ValueError`` from formatting.
"""

import sys

import pytest

from rnsbarrett import (
    ConditionViolation,
    InputOutOfRange,
    OutOfRange,
    RangeCase,
    encode,
    make_context_from_divisors,
    make_params,
    modmul,
    select_context,
)
from rnsbarrett.errors import int_text

HUGE = (1 << 8000) - 1  # 2409 digits; its square has 4817, past the default limit


@pytest.fixture(scope="module")
def ctx8192():
    # 267 channels of 62-bit moduli; M has 16499 bits, about 4967 digits.
    return select_context((1 << 8191) + 1, RangeCase.CASE2, 62)


@pytest.mark.skipif(
    not hasattr(sys, "set_int_max_str_digits"),
    reason="this interpreter renders integers of any length",
)
def test_int_text_past_the_limit():
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    try:
        assert int_text(HUGE) == str(HUGE)
        assert int_text(HUGE * HUGE) == "<16000-bit integer>"
        assert int_text(-HUGE * HUGE) == "-<16000-bit integer>"
    finally:
        sys.set_int_max_str_digits(limit)


def test_int_text_small():
    assert int_text(0) == "0"
    assert int_text(-21) == "-21"
    assert int_text(1 << 100) == str(1 << 100)


def test_make_params_with_huge_modulus():
    with pytest.raises(ConditionViolation) as info:
        make_params(HUGE, 1, 1)
    assert str(info.value) == f"1*n^2 <= g*h fails: 1 < {int_text(HUGE * HUGE)}"


def test_modmul_with_huge_operand():
    params = make_params(21, 20, 28)
    with pytest.raises(InputOutOfRange) as info:
        modmul(HUGE * HUGE, 1, params)
    assert str(info.value) == f"operand {int_text(HUGE * HUGE)} not in [0, 21)"


def test_encode_product_of_wide_context(ctx8192):
    ms = ctx8192.mset
    with pytest.raises(OutOfRange) as info:
        encode(ms.product, ms)
    product = int_text(ms.product)
    assert str(info.value) == f"{product} is not in [0, {product})"


def test_divisor_of_wide_context(ctx8192):
    ms = ctx8192.mset
    with pytest.raises(ConditionViolation) as info:
        make_context_from_divisors(ms, ctx8192.params.modulus, ms.product + 1, 1)
    assert str(info.value) == (
        f"g | M fails: {int_text(ms.product + 1)} does not divide {int_text(ms.product)}"
    )
