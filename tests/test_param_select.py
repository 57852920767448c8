"""Parameter selection: soundness, determinism, and honest failure."""

import hashlib
import random
from math import gcd, prod

import pytest

from rnsbarrett import RangeCase, SelectionFailed, select_context
from rnsbarrett.selection import MAX_MODULI, MAX_WORD_BITS, _next_coprime


def assert_sound(ctx, n, case):
    p = ctx.params
    assert p.modulus == n
    assert p.case is case
    g, h, m = p.g, p.h, ctx.mset.product
    if case.divisor_factor == 2:
        assert 2 * g < n
    else:
        assert g < n
    goal = case.product_factor * n * n
    assert g * h > goal if case.strict_product else g * h >= goal
    assert m % g == 0 and m % h == 0
    assert case.capacity_factor * h * n < m


@pytest.mark.parametrize("case", list(RangeCase))
@pytest.mark.parametrize("n", [3, 21, 97, 1009, (1 << 31) - 1, (1 << 61) - 1])
def test_soundness_grid(case, n):
    for word_bits in (8, 16, 30):
        ctx = select_context(n, case, word_bits)
        assert_sound(ctx, n, case)


def test_tiny_modulus_case1():
    ctx = select_context(2, RangeCase.CASE1, 4)
    assert_sound(ctx, 2, RangeCase.CASE1)
    assert ctx.params.g == 1  # nothing below 2 to multiply into g


def test_large_modulus_small_words():
    n = (1 << 127) - 1
    ctx = select_context(n, RangeCase.CASE2, 30)
    assert_sound(ctx, n, RangeCase.CASE2)


def test_64bit_prime_case2():
    n = (1 << 64) - (1 << 32) + 1
    ctx = select_context(n, RangeCase.CASE2, 30)
    assert_sound(ctx, n, RangeCase.CASE2)


def test_deterministic():
    a = select_context(1009, RangeCase.CASE2, 16)
    b = select_context(1009, RangeCase.CASE2, 16)
    assert a == b


def test_halved_g_impossible_for_two():
    # 2*g < 2 has no positive solution
    with pytest.raises(SelectionFailed):
        select_context(2, RangeCase.CASE3, 16)


def test_candidate_pool_can_run_out():
    # 4-bit words cannot span a 128-bit modulus
    with pytest.raises(SelectionFailed):
        select_context((1 << 127) - 1, RangeCase.CASE1, 4)


@pytest.mark.parametrize(
    "bits, stage", [(6, "while building h"), (4, "while extending capacity")]
)
def test_candidate_pool_names_the_stage_that_ran_out(bits, stage):
    # With 4-bit words the pool is a handful of coprime values below 16.
    with pytest.raises(SelectionFailed, match=f"below 2\\^4 {stage}$"):
        select_context((1 << bits) - 1, RangeCase.CASE4, 4)


def test_moduli_budget_can_run_out():
    # 16-bit words need about 263 moduli for g and as many for h at 4200 bits
    with pytest.raises(SelectionFailed, match=f"budget of {MAX_MODULI} moduli"):
        select_context((1 << 4200) - 1, RangeCase.CASE1, 16)


def test_argument_validation():
    with pytest.raises(ValueError):
        select_context(1, RangeCase.CASE1, 16)
    with pytest.raises(ValueError):
        select_context(21, RangeCase.CASE1, 3)
    with pytest.raises(ValueError):
        select_context(21, RangeCase.CASE1, MAX_WORD_BITS + 1)
    ctx = select_context(21, RangeCase.CASE1, MAX_WORD_BITS)
    assert ctx.mset.moduli[-1].bit_length() == MAX_WORD_BITS


def test_case_by_number():
    ctx = select_context(21, 1, 4)
    assert ctx.params.case is RangeCase.CASE1
    assert_sound(ctx, 21, RangeCase.CASE1)


@pytest.mark.parametrize(
    "bits, case, word_bits, shape, ends, digest",
    [
        (256, 1, 16, (33, 16, 16), (63221, 65535),
         "1dcf504a272de6fa1036fcbfe386d359"),
        (512, 3, 24, (45, 22, 22), (89, 16777215),
         "f0e920824437dfcd66000d49baaa0fe8"),
        (1024, 2, 16, (130, 64, 65), (64483, 65535),
         "2920354c604f87e429f844ff8ea6dba6"),
        (2048, 4, 30, (139, 69, 69), (73, 1073741823),
         "5df11286170a0b47874ae77fad50872e"),
        # Every candidate is below 256, so the chosen moduli include the
        # primes the walk prefilters with.
        (8, 1, 6, (5, 2, 2), (2, 63),
         "acf49603a86a0c636dd471d8a594af70"),
        (32, 2, 6, (14, 5, 7), (17, 63),
         "2d5b85c433136232cd99f6d269cda8ef"),
        (96, 3, 8, (27, 12, 14), (137, 255),
         "eedf5e0e33886e41ee81cf9f14a4c1b3"),
    ],
)
def test_selection_is_pinned(bits, case, word_bits, shape, ends, digest):
    # The search must keep choosing exactly these moduli and index sets;
    # the digest covers the full moduli tuple, g_indices and h_indices.
    n = random.Random(bits).getrandbits(bits) | (1 << (bits - 1)) | 1
    ctx = select_context(n, case, word_bits)
    moduli = ctx.mset.moduli
    assert (len(moduli), len(ctx.g_indices), len(ctx.h_indices)) == shape
    assert (moduli[0], moduli[-1]) == ends
    key = repr((moduli, ctx.g_indices, ctx.h_indices)).encode()
    assert hashlib.sha256(key).hexdigest()[:32] == digest


def test_next_coprime_matches_plain_walk():
    # The small-prime prefilter must not change the walk: against products
    # of primes below and above 256, every candidate lands where a plain
    # gcd walk lands.
    primes = [p for p in range(2, 1 << 12) if all(p % d for d in range(2, p))]
    below = [p for p in primes if p < 256]
    above = [p for p in primes if p > 256]
    rng = random.Random(256)
    for _ in range(200):
        factors = rng.sample(below, rng.randrange(len(below) + 1))
        factors += rng.sample(above, rng.randrange(40))
        product = prod(factors)
        small = prod(p for p in factors if p < 256)
        for candidate in (rng.randrange(2, 1 << 12), rng.randrange(2, 1 << 30)):
            plain = candidate
            while gcd(plain, product) != 1:
                plain -= 1
            assert _next_coprime(candidate, product, small) == plain
