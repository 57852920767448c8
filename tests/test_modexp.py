"""Residue-form exponentiation against the big-integer oracle."""

import random

import pytest

import rnsbarrett.modexp
from rnsbarrett import (
    CaseMismatch,
    InputOutOfRange,
    PartialResidueVector,
    RangeCase,
    SetMismatch,
    bmm_modexp,
    decode_crt,
    encode,
    final_result,
    make_context,
    make_moduli_set,
    oracle_modexp,
    select_context,
)
from rnsbarrett.modexp import MAX_WIDTH, window_plan

from helpers import coprime_below, crt_weights, layout, random_context


def case2_context():
    return select_context(21, RangeCase.CASE2)


def test_exponent_one_returns_base():
    ctx = case2_context()
    y = bmm_modexp(encode(20, ctx.mset), 1, ctx)
    assert decode_crt(y) == 20
    assert final_result(y, ctx) == 20


def test_exponent_zero_returns_one():
    ctx = case2_context()
    y = bmm_modexp(encode(2, ctx.mset), 0, ctx)
    assert y == encode(1, ctx.mset)
    assert final_result(y, ctx) == 1


def test_golden_20_to_13():
    ctx = case2_context()
    y = bmm_modexp(encode(20, ctx.mset), 13, ctx)
    assert final_result(y, ctx) == 20  # 20 is -1 there, and 13 is odd


def test_open_cases_rejected():
    ms = make_moduli_set([4, 5, 7, 11])
    ctx = make_context(ms, 21, (0, 1), (0, 2), RangeCase.CASE1)
    with pytest.raises(CaseMismatch):
        bmm_modexp(encode(20, ms), 3, ctx)


def test_negative_exponent_rejected():
    ctx = case2_context()
    with pytest.raises(ValueError):
        bmm_modexp(encode(2, ctx.mset), -1, ctx)


@pytest.mark.parametrize("exponent", [2.0, 1.5])
def test_non_integer_exponent_rejected(exponent):
    ctx = case2_context()
    with pytest.raises(TypeError):
        bmm_modexp(encode(2, ctx.mset), exponent, ctx)


@pytest.mark.parametrize("word_bits", [30, 254])
@pytest.mark.parametrize("exponent", [0, 1, 2])
def test_foreign_or_partial_base_rejected_at_every_exponent(word_bits, exponent):
    n = random.Random(7).getrandbits(256) | 1 << 255 | 1
    ctx = select_context(n, RangeCase.CASE2, word_bits)
    ms = ctx.mset
    foreign = make_moduli_set(coprime_below((1 << word_bits) - 5, 4))
    with pytest.raises(SetMismatch):
        bmm_modexp(encode(3, foreign), exponent, ctx)
    partial = PartialResidueVector(dict(enumerate(encode(3, ms).values)), ms)
    with pytest.raises(TypeError):
        bmm_modexp(partial, exponent, ctx)


def test_oversized_base_rejected():
    ctx = case2_context()
    base = 3 * 21  # not below input_bound * n
    with pytest.raises(InputOutOfRange):
        bmm_modexp(encode(base, ctx.mset), 3, ctx)


def test_case4_also_works():
    rng = random.Random(44)
    ctx = random_context(rng, cases=(4,), max_bits=40)
    n = ctx.params.modulus
    for _ in range(20):
        x = rng.randrange(2 * n)
        e = rng.randrange(1 << 20)
        y = bmm_modexp(encode(x, ctx.mset), e, ctx, check_intermediates=True)
        assert final_result(y, ctx) == oracle_modexp(x, e, n)


def test_random_against_oracle():
    rng = random.Random(45)
    for _ in range(60):
        ctx = random_context(rng, cases=(2,), max_bits=48)
        n = ctx.params.modulus
        x = rng.randrange(3 * n)
        e = rng.randrange(1 << 32)
        y = bmm_modexp(encode(x, ctx.mset), e, ctx)
        assert decode_crt(y) < 3 * n
        assert final_result(y, ctx) == oracle_modexp(x, e, n)


def test_final_result_reduces_representatives():
    ctx = case2_context()
    n = 21
    assert final_result(encode(23, ctx.mset), ctx) == 2
    assert final_result(encode(0, ctx.mset), ctx) == 0
    assert final_result(encode(2 * n + 5, ctx.mset), ctx) == 5


def test_final_result_refuses_a_partial_vector():
    ctx = select_context(97, RangeCase.CASE2)
    partial = PartialResidueVector(dict(enumerate(encode(5, ctx.mset).values)), ctx.mset)
    with pytest.raises(TypeError):
        final_result(partial, ctx)


def test_final_result_refuses_a_vector_of_another_set():
    ctx = select_context(97, RangeCase.CASE2)
    other = select_context(10**7 + 19, RangeCase.CASE2)
    with pytest.raises(SetMismatch):
        final_result(encode(10**6, other.mset), ctx)
    # A result left on a grouped context's pass set is accepted.
    grouped = select_context((1 << 255) + 95, RangeCase.CASE2, 30)
    n = grouped.params.modulus
    pass_set = layout(grouped).pass_set
    y = bmm_modexp(encode(n - 1, pass_set), 65537, grouped)
    assert y.mset is pass_set
    assert final_result(y, grouped) == pow(n - 1, 65537, n)


def hac_passes(exponent: int, width: int) -> int:
    """Passes of Alg. 14.85 at ``width``, walking the exponent bit by bit."""
    bit = [(exponent >> i) & 1 for i in range(exponent.bit_length())]
    passes = 1 << (width - 1) if width > 1 else 0
    first = True
    i = len(bit) - 1
    while i >= 0:
        if not bit[i]:
            passes += 1
            i -= 1
            continue
        low = max(i - width + 1, 0)
        while not bit[low]:
            low += 1
        if not first:
            passes += (i - low + 1) + 1
        first = False
        i = low - 1
    return passes


def right_to_left_passes(exponent: int) -> int:
    """Passes of the binary chain scanned from the low bit upward."""
    return exponent.bit_length() - 1 + bin(exponent >> 1).count("1")


@pytest.fixture
def passes(monkeypatch):
    """Counts every ``bmm`` call that ``bmm_modexp`` makes."""
    count = [0]
    real = rnsbarrett.modexp.bmm

    def counting(a, b, ctx):
        count[0] += 1
        return real(a, b, ctx)

    monkeypatch.setattr(rnsbarrett.modexp, "bmm", counting)
    return count


def test_65537_stays_binary(passes):
    ctx = case2_context()
    y = bmm_modexp(encode(5, ctx.mset), 65537, ctx)
    assert final_result(y, ctx) == pow(5, 65537, 21)
    assert passes[0] == 17
    assert window_plan(65537)[0] == 1


def test_exponents_zero_and_one_make_no_pass(passes):
    # At 30-bit words the channels fall into groups, and still no base is
    # combined into the pass set.
    n = random.Random(30).getrandbits(256) | 1 << 255 | 1
    grouped = select_context(n, RangeCase.CASE2, 30)
    assert layout(grouped).grouped
    for ctx in (case2_context(), grouped):
        x = encode(20, ctx.mset)
        assert bmm_modexp(x, 0, ctx) == encode(1, ctx.mset)
        assert bmm_modexp(x, 1, ctx) is x
    assert passes[0] == 0


def test_64_bit_exponents_take_the_fewest_passes(passes):
    rng = random.Random(64)
    n = rng.getrandbits(512) | 1 << 511 | 1
    ctx = select_context(n, RangeCase.CASE2)
    for _ in range(12):
        x = rng.randrange(3 * n)
        e = rng.getrandbits(64) | 1 << 63
        passes[0] = 0
        y = bmm_modexp(encode(x, ctx.mset), e, ctx)
        assert final_result(y, ctx) == pow(x, e, n)
        width = window_plan(e)[0]
        assert passes[0] == hac_passes(e, width)
        assert passes[0] == min(hac_passes(e, w) for w in range(1, MAX_WIDTH + 1))
        assert passes[0] <= right_to_left_passes(e)


def test_windows_rebuild_the_exponent():
    rng = random.Random(66)
    for e in [1, 2, 3, 65537] + [rng.getrandbits(rng.randint(1, 700)) | 1
                                  for _ in range(200)]:
        width, windows = window_plan(e)
        assert 1 <= width <= MAX_WIDTH
        rebuilt = 0
        for value, end in windows:
            assert value & 1 and value < 1 << width
            rebuilt += value << (e.bit_length() - end)
        assert rebuilt == e


def _width_changes(limit=500):
    """``k`` at which the chosen width for ``2^k - 1`` changes."""
    changes, last = [], None
    for k in range(1, limit):
        width = window_plan((1 << k) - 1)[0]
        if width != last:
            changes.append(k)
            last = width
    return changes


@pytest.mark.parametrize("case", [2, 4])
def test_small_exponents_against_pow(case):
    rng = random.Random(600 + case)
    ctx = random_context(rng, cases=(case,), max_bits=40)
    n = ctx.params.modulus
    bound = ctx.params.case.input_bound * n
    for e in range(601):
        x = rng.randrange(bound)
        y = bmm_modexp(encode(x, ctx.mset), e, ctx, check_intermediates=True)
        assert final_result(y, ctx) == pow(x, e, n), e


@pytest.mark.parametrize("case", [2, 4])
def test_exponents_at_width_changes_against_pow(case):
    rng = random.Random(700 + case)
    ctx = random_context(rng, cases=(case,), max_bits=40)
    n = ctx.params.modulus
    bound = ctx.params.case.input_bound * n
    changes = _width_changes()
    widths = {window_plan((1 << k) - 1)[0] for k in changes}
    assert widths == set(range(1, MAX_WIDTH + 1))
    for k in changes:
        for e in {(1 << j) + d for j in (k - 1, k) for d in (-1, 0, 1)}:
            x = rng.randrange(bound)
            y = bmm_modexp(encode(x, ctx.mset), e, ctx, check_intermediates=True)
            assert final_result(y, ctx) == pow(x, e, n), e


@pytest.mark.parametrize("case", [RangeCase.CASE2, RangeCase.CASE4], ids=["case2", "case4"])
@pytest.mark.parametrize("word_bits", [8, 16, 30, 62, 126, 254])
def test_checked_chain_against_pow_at_every_word_size(word_bits, case):
    # Below 254-bit words the chain runs on the pass set, and the check
    # decodes its vectors there: the pass set's weights are computed then.
    rng = random.Random(word_bits)
    bits = 96 if word_bits == 8 else 512
    n = rng.getrandbits(bits) | 1 << (bits - 1) | 1
    ctx = select_context(n, case, word_bits)
    pass_set = layout(ctx).pass_set
    assert layout(ctx).grouped == (word_bits < 254)
    assert crt_weights(pass_set) is None
    limit = ctx.params.input_limit
    exponents = [2, 3, 65537, rng.getrandbits(64), rng.getrandbits(64) | 1 << 63]
    for e in exponents:
        x = rng.randrange(limit)
        y = bmm_modexp(encode(x, ctx.mset), e, ctx, check_intermediates=True)
        assert y.mset is ctx.mset
        assert decode_crt(y) < limit
        assert final_result(y, ctx) == pow(x, e, n), e
    assert crt_weights(pass_set) is not None


def test_check_intermediates_covers_the_table(monkeypatch):
    rng = random.Random(67)
    n = rng.getrandbits(128) | 1 << 127 | 1
    ctx = select_context(n, RangeCase.CASE2)
    e = rng.getrandbits(64) | 1 << 63
    width = window_plan(e)[0]
    assert width > 1
    out_of_range = encode(ctx.params.case.input_bound * n, ctx.mset)
    x = encode(rng.randrange(n), ctx.mset)
    real = rnsbarrett.modexp.bmm
    for bad in range(1, (1 << (width - 1)) + 1):
        calls = [0]

        def corrupting(a, b, ctx):
            calls[0] += 1
            return out_of_range if calls[0] == bad else real(a, b, ctx)

        monkeypatch.setattr(rnsbarrett.modexp, "bmm", corrupting)
        with pytest.raises(AssertionError):
            bmm_modexp(x, e, ctx, check_intermediates=True)
        assert calls[0] == bad
