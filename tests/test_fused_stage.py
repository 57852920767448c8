"""The fused divide-and-extend stage against a one-modulus-at-a-time peel.

Each stage runs as one pass of the packed accumulator over plain lists:
the quotient hands its residues to base extension keyed by channel, a
zero-seeded extension reads the lane sums directly, and each residue is
written at its channel index. The reference (``helpers.reference_quotient``
and ``reference_extend``) divides by one modulus at a time and evaluates
mixed-radix digits by Horner's rule, sharing no code with the kernel.
"""

import random
from math import prod

import pytest

from rnsbarrett import (
    ModuliPartition,
    PartialResidueVector,
    RangeCase,
    base_extend,
    decode_crt,
    encode,
    make_context,
    make_moduli_set,
    modmul,
    quotient_by_moduli_product,
    select_context,
    trace_bmm,
)

from helpers import (
    divisor_product,
    reference_extend,
    reference_pass,
    reference_peel,
    reference_quotient,
    remaining_indices,
    seeded_extend,
    to_mixed_radix,
)

# Mersenne primes, every one but the first wider than 64 bits.
WIDE_SET = make_moduli_set([(1 << 61) - 1, (1 << 89) - 1, (1 << 107) - 1, (1 << 127) - 1])
SMALL_H_SET = make_moduli_set([3, 5, 7, 11, 13, 1009])
# A 2048-bit modulus on 16-bit words takes more than 255 channels.
CTX_WIDE_N = select_context(
    random.Random(2048).getrandbits(2048) | (1 << 2047) | 1, RangeCase.CASE2, 16
)


def check_partition(part: ModuliPartition, samples):
    ms = part.mset
    rng = random.Random(len(ms.moduli))
    for x in samples:
        values = encode(x, ms).values
        q = quotient_by_moduli_product(encode(x, ms), part)
        expected = reference_quotient(ms, values, part.divisor_indices)
        assert q.values == expected
        assert tuple(q.values) == remaining_indices(part)
        full = reference_extend(ms, expected)
        assert base_extend(q).values == full
        fill = {i: rng.randrange(ms.moduli[i]) for i in part.divisor_indices}
        assert seeded_extend(q, fill).values == full
        assert full == encode(x // divisor_product(part), ms).values


def test_stages_above_255_channels():
    ms = CTX_WIDE_N.mset
    assert len(ms.moduli) > 255
    rng = random.Random(258)
    samples = [0, ms.product - 1, rng.randrange(ms.product)]
    for indices in (CTX_WIDE_N.g_indices, CTX_WIDE_N.h_indices):
        part = ModuliPartition(ms, indices)
        check_partition(part, samples)


def test_wide_mersenne_set_every_partition():
    ms = WIDE_SET
    rng = random.Random(127)
    samples = [0, 1, ms.product - 1] + [rng.randrange(ms.product) for _ in range(3)]
    n = len(ms.moduli)
    for mask in range(1, (1 << n) - 1):
        check_partition(ModuliPartition(ms, [i for i in range(n) if mask >> i & 1]), samples)


@pytest.mark.parametrize(
    "ctx",
    [
        make_context(SMALL_H_SET, 40, (), (0, 1, 2, 3, 4), RangeCase.CASE2),
        make_context(SMALL_H_SET, 300, (0, 1, 2), (0, 1, 3, 4), RangeCase.CASE1),
        # Fully overlapping: every g channel is also an h channel.
        make_context(SMALL_H_SET, 300, (0, 1, 2), (0, 1, 2, 3, 4), RangeCase.CASE1),
        make_context(WIDE_SET, (1 << 100) + 277, (0,), (2, 3), RangeCase.CASE2),
        CTX_WIDE_N,
    ],
    ids=["unit-g", "overlapping", "fully-overlapping", "wide", "258-channels"],
)
def test_pass_rows_match_reference(ctx):
    ms = ctx.mset
    rng = random.Random(len(ms.moduli))
    limit = ctx.params.case.input_bound * ctx.params.modulus
    count = 2 if len(ms.moduli) > 100 else 20
    pairs = [(limit - 1, limit - 1)] + [
        (rng.randrange(limit), rng.randrange(limit)) for _ in range(count)
    ]
    for a, b in pairs:
        tr = trace_bmm(encode(a, ms), encode(b, ms), ctx)
        x, d_partial, d_full, e, q_partial, q_full, c = reference_pass(
            encode(a, ms), encode(b, ms), ctx
        )
        assert tr.x.values == x
        assert tr.d_partial.values == d_partial
        assert tr.d_full.values == d_full
        assert tr.e.values == e
        assert tr.q_partial.values == q_partial
        assert tr.q_full.values == q_full
        assert tr.c.values == c
        assert decode_crt(tr.c) == modmul(a, b, ctx.params)


@pytest.mark.parametrize(
    "ms", [SMALL_H_SET, WIDE_SET, CTX_WIDE_N.mset], ids=["small", "wide", "258-channels"]
)
def test_hand_built_partial_with_keys_out_of_order(ms):
    rng = random.Random(3)
    n = len(ms.moduli)
    known = sorted(rng.sample(range(n), max(1, n // 2)), reverse=True)
    x = rng.randrange(prod(ms.moduli[i] for i in known))
    values = {i: x % ms.moduli[i] for i in known}  # inserted descending
    assert list(values) == known
    partial = PartialResidueVector(values, ms)
    expected = reference_extend(ms, values)
    assert expected == encode(x, ms).values
    assert base_extend(partial).values == expected
    fill = {i: rng.randrange(ms.moduli[i]) for i in range(n) if i not in values}
    assert seeded_extend(partial, fill).values == expected


@pytest.mark.parametrize(
    "ms", [SMALL_H_SET, WIDE_SET, CTX_WIDE_N.mset], ids=["small", "wide", "258-channels"]
)
def test_to_mixed_radix_matches_reference(ms):
    rng = random.Random(4)
    for x in (0, ms.product - 1, rng.randrange(ms.product)):
        rv = encode(x, ms)
        digits = to_mixed_radix(rv)
        assert list(digits) == reference_peel(ms, list(rv.values), range(len(ms.moduli)))
        assert decode_crt(rv) == x
