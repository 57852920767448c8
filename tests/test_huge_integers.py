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
    DuplicateOrNonCoprime,
    InputOutOfRange,
    ModulusTooSmall,
    NotCoprime,
    OutOfRange,
    RangeCase,
    bmm_modexp,
    encode,
    make_context,
    make_moduli_set,
    make_params,
    modmul,
    montgomery_modmul,
    select_context,
)
from rnsbarrett.errors import int_text

HUGE = (1 << 8000) - 1  # 2409 digits; its square has 4817, past the default limit


@pytest.fixture(scope="module")
def ctx8192():
    # 267 channels of 62-bit moduli; M has 16499 bits, about 4967 digits.
    return select_context((1 << 8191) + 1, RangeCase.CASE2, 62)


@pytest.fixture(scope="module")
def ctx14400():
    # 115 channels at the default word size; 3*N, the case-2 input bound,
    # has 4335 digits.
    return select_context((1 << 14399) + 1, RangeCase.CASE2)


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


def test_capacity_of_wide_context(ctx8192):
    # h takes every channel outside g, so g*h = M and 9*h*n >= M.
    ms = ctx8192.mset
    n, g = ctx8192.params.modulus, ctx8192.params.g
    h_indices = [i for i in range(len(ms)) if i not in ctx8192.g_indices]
    with pytest.raises(ConditionViolation) as info:
        make_context(ms, n, ctx8192.g_indices, h_indices, RangeCase.CASE2)
    bound = int_text(9 * (ms.product // g) * n)
    assert str(info.value) == (
        f"capacity 9*h*n < M fails: {bound} >= {int_text(ms.product)}"
    )


def test_modexp_base_past_the_bound(ctx14400):
    limit = 3 * ctx14400.params.modulus
    with pytest.raises(InputOutOfRange) as info:
        bmm_modexp(encode(limit, ctx14400.mset), 3, ctx14400)
    assert str(info.value) == f"decoded base not below {int_text(limit)}"


def test_montgomery_with_shared_factor():
    n, r = 2 * HUGE * HUGE, 1 << 16010
    with pytest.raises(NotCoprime) as info:
        montgomery_modmul(1, 1, n, r)
    assert str(info.value) == f"gcd({int_text(n)}, {int_text(r)}) != 1"


def test_moduli_set_with_huge_moduli():
    wide = 2 * HUGE * HUGE
    with pytest.raises(DuplicateOrNonCoprime) as info:
        make_moduli_set([wide, 6])
    assert str(info.value) == f"moduli 6 and {int_text(wide)} share a factor"
    with pytest.raises(ModulusTooSmall) as info:
        make_moduli_set([5, -wide])
    assert str(info.value) == f"modulus {int_text(-wide)} is smaller than 2"
