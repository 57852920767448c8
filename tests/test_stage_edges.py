"""Quotient, base extension and bmm at the edges of their shapes.

Each stage is compared with an oracle that shares no code with channel
peeling: ``encode`` of the big-integer result for the stages, the scalar
``barrett.modmul`` for ``bmm``. The shapes are the ones the peeling rows
handle specially: one-channel divisor and remaining sets, g = 1, g and h
overlapping, h leaving a single channel, 62-bit moduli, moduli wider than
64 bits, and the smallest capacity margin in each range case. The packed
accumulator of the peeling is checked at its worst case, every digit at
its largest, against exact per-lane sums and a one-modulus-at-a-time peel,
over channel moduli and over the group products narrow word sizes peel.
"""

import random
from math import prod

import pytest

from rnsbarrett import (
    ModuliPartition,
    PartialResidueVector,
    RangeCase,
    base_extend,
    bmm,
    decode_crt,
    encode,
    make_context,
    make_moduli_set,
    modmul,
    quotient_by_moduli_product,
    select_context,
    trace_bmm,
)
from rnsbarrett.barrett import capacity_condition

from helpers import (
    check_rows,
    divisor_product,
    layout,
    partition_rows,
    partitions,
    peel_division,
    peel_rows,
    reference_peel,
    remaining_indices,
    run_peel,
)

EX_SET = make_moduli_set([4, 5, 7, 11])
WORD30_SET = make_moduli_set(
    [(1 << 30) - 1, (1 << 30) - 3, (1 << 30) - 5, (1 << 30) - 35, (1 << 30) - 41]
)
# Mersenne primes, every one but the first wider than 64 bits.
WIDE_SET = make_moduli_set([(1 << 61) - 1, (1 << 89) - 1, (1 << 107) - 1, (1 << 127) - 1])
SMALL_H_SET = make_moduli_set([3, 5, 7, 11, 13, 1009])
WORD62_SET = select_context((1 << 255) + 95, RangeCase.CASE2, 62).mset


def check_stages(part: ModuliPartition, rng: random.Random, count: int = 50):
    ms = part.mset
    samples = [0, 1, ms.product - 1] + [rng.randrange(ms.product) for _ in range(count)]
    for x in samples:
        q = quotient_by_moduli_product(encode(x, ms), part)
        expected = x // divisor_product(part)
        assert q.values == {i: expected % ms.moduli[i] for i in remaining_indices(part)}
        assert base_extend(q) == encode(expected, ms)
        # Rows built per call give what the partition's rows give.
        assert base_extend(PartialResidueVector(q.values, ms)) == encode(expected, ms)


def check_bmm(ctx, rng: random.Random, count: int = 30):
    limit = ctx.params.case.input_bound * ctx.params.modulus
    top = limit - 1
    pairs = [(top, top), (top, 0), (top, 1), (0, 0)]
    pairs += [(top, rng.randrange(limit)) for _ in range(count)]
    pairs += [(rng.randrange(limit), rng.randrange(limit)) for _ in range(count)]
    for a, b in pairs:
        got = bmm(encode(a, ctx.mset), encode(b, ctx.mset), ctx)
        assert decode_crt(got) == modmul(a, b, ctx.params)


@pytest.mark.parametrize("ms", [EX_SET, WORD30_SET, WIDE_SET], ids=["ex", "word30", "wide"])
def test_one_channel_divisor_and_remaining_sets(ms):
    rng = random.Random(len(ms.moduli))
    n = len(ms.moduli)
    for i in range(n):
        check_stages(ModuliPartition(ms, (i,)), rng, 10)
        check_stages(ModuliPartition(ms, tuple(j for j in range(n) if j != i)), rng, 10)


def test_unit_g():
    ctx = make_context(SMALL_H_SET, 40, (), (0, 1, 2, 3, 4), RangeCase.CASE2)
    assert ctx.params.g == 1
    check_bmm(ctx, random.Random(1))


def test_overlapping_g_and_h():
    ctx = make_context(SMALL_H_SET, 300, (0, 1, 2), (0, 1, 3, 4), RangeCase.CASE1)
    assert set(ctx.g_indices) & set(ctx.h_indices) == {0, 1}
    check_bmm(ctx, random.Random(2))
    check_stages(ModuliPartition(ctx.mset, ctx.h_indices), random.Random(3))


@pytest.mark.parametrize(
    "case, modulus, g_indices", [(1, 300, (0, 1, 2)), (2, 100, (0, 1)), (3, 301, (0, 1, 2))]
)
def test_h_leaves_one_channel(case, modulus, g_indices):
    ctx = make_context(SMALL_H_SET, modulus, g_indices, (0, 1, 2, 3, 4), case)
    assert len(ctx.h_indices) == len(ctx.mset.moduli) - 1
    check_bmm(ctx, random.Random(case))


# Contexts with minimal capacity margin: c*h*N < M holds, and fails at N + 1.
# One per case and shape, from a search over moduli in {4, 7, 9, 11, 13, 17,
# 19, 23, 25}, each with the most operand pairs up to 4000.
MINIMAL_MARGIN = [
    # case, shape, moduli, g_indices, h_indices, N
    (1, "g1", (7, 9, 11, 17, 25), (), (2, 3, 4), 62),
    (1, "disjoint", (7, 9, 19, 25), (1,), (2, 3), 62),
    (1, "overlap", (7, 9, 11, 25), (3,), (2, 3), 62),
    (2, "g1", (9, 11, 17, 19, 25), (), (0, 3, 4), 20),
    (2, "disjoint", (9, 11, 17, 25), (2,), (0, 3), 20),
    (2, "overlap", (11, 13, 17, 25), (1,), (1, 3), 20),
    (3, "g1", (7, 13, 17, 23, 25), (), (1, 3, 4), 59),
    (3, "disjoint", (7, 17, 19, 25), (1,), (2, 3), 59),
    (3, "overlap", (7, 13, 17, 25), (3,), (1, 3), 59),
    (4, "g1", (9, 13, 17, 19, 25), (), (2, 3, 4), 29),
    (4, "disjoint", (9, 13, 23, 25), (1,), (2, 3), 29),
    (4, "overlap", (4, 7, 9, 17, 25), (2,), (0, 2, 4), 29),
]


@pytest.mark.parametrize(
    "case, shape, moduli, g_indices, h_indices, modulus",
    MINIMAL_MARGIN,
    ids=[f"case{row[0]}-{row[1]}" for row in MINIMAL_MARGIN],
)
def test_minimal_capacity_margin(case, shape, moduli, g_indices, h_indices, modulus):
    ms = make_moduli_set(moduli)
    ctx = make_context(ms, modulus, g_indices, h_indices, case)
    p = ctx.params
    overlap = set(g_indices) & set(h_indices)
    assert shape == ("g1" if p.g == 1 else "overlap" if overlap else "disjoint")
    assert capacity_condition(modulus, p.h, ms.product, p.case).holds
    assert not capacity_condition(modulus + 1, p.h, ms.product, p.case).holds
    vectors = [encode(a, ms) for a in range(p.input_limit)]
    for a, va in enumerate(vectors):
        for b, vb in enumerate(vectors):
            assert decode_crt(bmm(va, vb, ctx)) == modmul(a, b, p)


def test_word_bits_62():
    rng = random.Random(62)
    ctx = select_context(rng.getrandbits(256) | (1 << 255) | 1, RangeCase.CASE2, 62)
    assert ctx.mset.moduli[-1].bit_length() == 62
    check_bmm(ctx, rng)
    check_stages(ModuliPartition(ctx.mset, ctx.g_indices), rng)
    check_stages(ModuliPartition(ctx.mset, ctx.h_indices), rng)


def test_moduli_wider_than_64_bits():
    ctx = make_context(WIDE_SET, (1 << 100) + 277, (0,), (2, 3), RangeCase.CASE2)
    # Groups hold up to 254 bits: the pass set takes h's 107 + 127 bits as
    # one modulus. Partitions built on their own peel the channels; the
    # context's own tables are checked as ``test_shared_tables.SHARED["wide"]``.
    assert [m.bit_length() for m in layout(ctx).pass_set.moduli] == [61, 89, 234]
    for part in (ModuliPartition(WIDE_SET, (0,)), ModuliPartition(WIDE_SET, (2, 3))):
        for rows in partition_rows(part):
            check_rows(WIDE_SET.moduli, rows)
    check_bmm(ctx, random.Random(64))


@pytest.mark.parametrize(
    "ctx",
    [
        make_context(EX_SET, 21, (0, 1), (0, 2)),
        make_context(SMALL_H_SET, 40, (), (0, 1, 2, 3, 4), RangeCase.CASE2),
        make_context(SMALL_H_SET, 300, (0, 1, 2), (0, 1, 2, 3, 4), RangeCase.CASE1),
        select_context((1 << 127) + 45, RangeCase.CASE4, 30),
    ],
    ids=["example4", "unit-g", "h-all-but-one", "case4-128bit"],
)
def test_trace_rows_are_the_public_stages(ctx):
    # Every trace row equals the public stage functions applied by hand, on
    # partitions built here rather than the context's own.
    ms = ctx.mset
    rng = random.Random(5)
    limit = ctx.params.case.input_bound * ctx.params.modulus
    for a, b in [(limit - 1, limit - 1)] + [
        (rng.randrange(limit), rng.randrange(limit)) for _ in range(20)
    ]:
        tr = trace_bmm(encode(a, ms), encode(b, ms), ctx)
        x = encode(a, ms) * encode(b, ms)
        assert tr.x == x
        if ctx.g_indices:
            d_partial = quotient_by_moduli_product(x, ModuliPartition(ms, ctx.g_indices))
        else:
            d_partial = PartialResidueVector(dict(enumerate(x.values)), ms)
        assert tr.d_partial == d_partial
        assert tr.d_full == base_extend(d_partial)
        assert tr.e == tr.d_full * ctx.mu_rv
        q_partial = quotient_by_moduli_product(tr.e, ModuliPartition(ms, ctx.h_indices))
        assert tr.q_partial == q_partial
        assert tr.q_full == base_extend(q_partial)
        assert tr.c == x - tr.q_full * ctx.n_rv
        assert decode_crt(tr.c) == modmul(a, b, ctx.params)



def split_on_channels(ctx, partial) -> dict:
    """A pass-set partial vector's residues on its groups' channels."""
    moduli, members = ctx.mset.moduli, layout(ctx).members
    return {i: r % moduli[i] for j, r in partial.values.items() for i in members[j]}


def default_context(bits: int):
    return select_context((1 << (bits - 1)) + 95, RangeCase.CASE2)


g1_row = MINIMAL_MARGIN[0]
PARTIALS = {
    "default256": default_context(256),
    "default1024": default_context(1024),
    **{
        f"grouped{word_bits}": select_context((1 << (bits - 1)) + 95, RangeCase.CASE2, word_bits)
        for word_bits, bits in ((8, 96), (16, 256), (30, 512), (62, 1024), (126, 2048))
    },
    "example4": make_context(EX_SET, 21, (0, 1), (0, 2)),
    "case1-g1": make_context(make_moduli_set(g1_row[2]), g1_row[5], g1_row[3], g1_row[4], 1),
}


@pytest.mark.parametrize("ctx", PARTIALS.values(), ids=PARTIALS.keys())
def test_trace_partials_hold_the_channels_outside_their_divisors(ctx):
    # Each partial holds exactly the channels outside its divisor, and on
    # them the pass-set quotient split into channels here, and the exact
    # quotient of the integers.
    ms, lay, p = ctx.mset, layout(ctx), ctx.params
    g_part, h_part = partitions(ctx)
    top = p.input_limit - 1
    tr = trace_bmm(encode(top, ms), encode(top, ms), ctx)
    for partial, divisor in ((tr.d_partial, ctx.g_indices), (tr.q_partial, ctx.h_indices)):
        assert partial.mset is ms
        assert sorted(partial.values) == [i for i in range(len(ms)) if i not in divisor]
    x = top * top
    d, x_on_pass = x // p.g, encode(x, lay.pass_set)
    if g_part is None:
        assert tr.d_partial.values == dict(enumerate(tr.x.values))
        d_full = x_on_pass
    else:
        d_partial = quotient_by_moduli_product(x_on_pass, g_part)
        assert tr.d_partial.values == split_on_channels(ctx, d_partial)
        d_full = base_extend(d_partial)
    assert tr.d_partial.values == {i: d % ms.moduli[i] for i in tr.d_partial.values}
    e = d * p.mu
    q_partial = quotient_by_moduli_product(d_full * lay.mu, h_part)
    assert tr.q_partial.values == split_on_channels(ctx, q_partial)
    assert tr.q_partial.values == {i: e // p.h % ms.moduli[i] for i in tr.q_partial.values}


def peel_sets(n: int):
    """Peel orders over n channels: each channel alone, ascending and
    descending halves, and all but the last channel."""
    half = tuple(range(0, n, 2))
    return [(i,) for i in range(n)] + [half, half[::-1], tuple(range(n - 1))]


def group_moduli(word_bits: int, bits: int) -> tuple:
    """The group moduli of a selected context's pass set."""
    lay = layout(select_context((1 << (bits - 1)) + 95, RangeCase.CASE2, word_bits))
    assert max(map(len, lay.members)) > 1
    return lay.pass_set.moduli


# Channel moduli, then group products: at 8-bit words each role is one group
# of at most 14 channels, and at 16, 30, 62 and 126 bits groups hold up to
# 15, 8, 4 and 2 channels.
PEELED = {
    "word30": WORD30_SET.moduli,
    "word62": WORD62_SET.moduli,
    "wide": WIDE_SET.moduli,
    **{
        f"grouped{word_bits}": group_moduli(word_bits, bits)
        for word_bits, bits in ((8, 96), (16, 256), (30, 512), (62, 1024), (126, 2048))
    },
}


@pytest.mark.parametrize("moduli", PEELED.values(), ids=PEELED.keys())
def test_packed_lanes_hold_worst_case_sums(moduli):
    # Every digit at p_l - 1, run through the accumulator as the kernel runs
    # it: the lane read before each digit and the rest lanes left at the end
    # are their exact sums, below 2**width, and nothing spills above the
    # top lane. Residues p_i - 1 on every channel encode the product minus
    # one, and the peel divides and extends it exactly.
    for peel in peel_sets(len(moduli)):
        rest = [i for i in range(len(moduli)) if i not in peel]
        rows = peel_rows(moduli, peel, rest)
        peeled = [moduli[k] for k in peel]
        digits = [p - 1 for p in peeled]
        width = rows.lane_bits

        def exact(m, count):
            return sum(d * (prod(peeled[:l]) % m) for l, d in enumerate(digits[:count]))

        acc = 0
        for j, lanes in enumerate(rows.lanes):
            column = sum(lane << (width * i) for i, lane in enumerate(lanes))
            pending = exact(peeled[j], j)
            assert pending < 1 << width
            assert acc & ((1 << width) - 1) == pending
            acc = (acc >> width) + digits[j] * column
            assert acc >> (width * (len(digits) - 1 - j + len(rest))) == 0
        expected = [exact(moduli[i], len(digits)) for i in rest]
        assert all(s < 1 << width for s in expected)
        assert acc >> (width * len(rest)) == 0
        assert [acc >> (width * i) & ((1 << width) - 1) for i in range(len(rest))] == expected
        top = [m - 1 for m in moduli]
        quotient = (prod(moduli) - 1) // prod(peeled)
        assert run_peel(moduli, peel, rest, top) == [quotient % moduli[i] for i in rest]
        known = prod(peeled) - 1
        assert run_peel(moduli, peel, rest, top, divide=False) == [known % moduli[i] for i in rest]


@pytest.mark.parametrize(
    "ms",
    [EX_SET, WORD30_SET, WORD62_SET, WIDE_SET],
    ids=["ex", "word30", "word62", "wide"],
)
def test_peel_of_all_maximal_residues_matches_reference(ms):
    # Residues m_i - 1 encode M - 1, whose mixed-radix digits are all
    # maximal, so every lane sum is as large as the kernel ever sees.
    top = [m - 1 for m in ms.moduli]
    for peel in peel_sets(len(ms.moduli)):
        got = list(top)
        expected = list(top)
        peel_division(ms, got, peel)
        reference_peel(ms, expected, peel)
        assert got == expected
        assert [i for i, v in enumerate(got) if v is None] == sorted(peel)
