"""The two peel tables a context shares between its divide-and-extend stages.

With x the channels in neither g nor h, a context with disjoint, nonempty
g and h builds two tables: one peels g + x and extends to h, one peels
h + x and extends to g. Each is one stage's extension, and its first
columns, the same integer objects, are the other stage's divide rows
(``helpers.check_layout``). The tables are over the context's pass set,
whose moduli are groups of channels; every context here groups several
narrow channels. Divide rows are compared with rows built on their own
over the same pass set, quotients with integer division, and the edge
shapes run whole passes against scalar ``modmul`` and the
one-modulus-at-a-time reference in ``helpers``.
"""

import random
from importlib import resources
from math import isqrt

import pytest

from rnsbarrett import (
    RangeCase,
    RnsBarrettContext,
    base_extend,
    encode,
    load_params,
    make_context,
    make_moduli_set,
    make_params,
    quotient_by_moduli_product,
    select_context,
)
from rnsbarrett.barrett import capacity_condition

from helpers import (
    build,
    carries_extension,
    case2_context,
    channels,
    check_layout,
    check_pass,
    coprime_below,
    divisor_product,
    layout,
    operand_pairs,
    partitions,
    peel_rows,
    reordered,
)

# Mersenne primes, every one but the first wider than 64 bits.
WIDE_SET = make_moduli_set([(1 << 61) - 1, (1 << 89) - 1, (1 << 107) - 1, (1 << 127) - 1])
SMALL_H_SET = make_moduli_set([3, 5, 7, 11, 13, 1009])


def odd_modulus(seed: int, bits: int) -> int:
    return random.Random(seed).getrandbits(bits) | (1 << (bits - 1)) | 1


SHARED = {
    "256-30": select_context(odd_modulus(256, 256), RangeCase.CASE2, 30),
    "1024-16": select_context(odd_modulus(1024, 1024), RangeCase.CASE2, 16),
    "2048-30": select_context(odd_modulus(2048, 2048), RangeCase.CASE2, 30),
    "256-62": select_context(odd_modulus(62, 256), RangeCase.CASE4, 62),
    "wide": make_context(WIDE_SET, (1 << 100) + 277, (0,), (2, 3), RangeCase.CASE2),
}
# g and h overlap in example4, and g = 1 in unit-g: each builds its own tables.
EXAMPLE4 = load_params(resources.files("rnsbarrett").joinpath("data/example4.json"))
UNIT_G = make_context(SMALL_H_SET, 40, (), (0, 1, 2, 3, 4), RangeCase.CASE2)


def outside(ctx) -> tuple[int, ...]:
    """x: the channels in neither g nor h, ascending."""
    inside = set(ctx.g_indices) | set(ctx.h_indices)
    return tuple(i for i in range(len(ctx.mset.moduli)) if i not in inside)


@pytest.mark.parametrize("ctx", SHARED.values(), ids=SHARED.keys())
def test_divide_rows_are_a_prefix_of_the_other_extension(ctx):
    lay = layout(ctx)
    assert lay.grouped and lay.g.shares and lay.h.shares
    check_layout(ctx)


@pytest.mark.parametrize("ctx", SHARED.values(), ids=SHARED.keys())
def test_divide_rows_match_standalone_rows(ctx):
    lay = layout(ctx)
    moduli = lay.pass_set.moduli
    # The shared head holds the lanes and inverses of rows built on their
    # own in its rest order, in lanes at most a byte wider.
    for stage in (lay.g, lay.h):
        head = stage.divide
        alone = peel_rows(moduli, head.peel, head.rest)
        assert alone.lane_bits <= head.lane_bits <= alone.lane_bits + 8
        assert head._replace(lane_bits=alone.lane_bits) == alone


@pytest.mark.parametrize("ctx", SHARED.values(), ids=SHARED.keys())
def test_quotient_carries_the_extension_table(ctx):
    ms, lay = ctx.mset, layout(ctx)
    pass_set = lay.pass_set
    x = encode(pass_set.product - 1, pass_set)
    for part, stage in zip(partitions(ctx), (lay.g, lay.h)):
        head = stage.divide
        # The quotient holds its residues on the divide rows' rest groups
        # and hands on the extension rows; split, they are the quotient's
        # residues on those groups' channels.
        q = quotient_by_moduli_product(x, part)
        assert list(q.values) == list(head.rest)
        quotient = (ms.product - 1) // divisor_product(part)
        assert list(q.values.values()) == [quotient % pass_set.moduli[j] for j in head.rest]
        assert carries_extension(q, part)
        split = {i: r % ms.moduli[i] for j, r in q.values.items() for i in lay.members[j]}
        assert split == {i: quotient % ms.moduli[i] for i in channels(ctx, head.rest)}


# Every stage partition of the shared, example4 and unit-g contexts.
EVERY_STAGE = [
    pytest.param(part, id=f"{name}-{stage}")
    for name, ctx in {**SHARED, "example4": EXAMPLE4, "unit-g": UNIT_G}.items()
    for stage, part in zip("gh", partitions(ctx))
    if part is not None
]


@pytest.mark.parametrize("part", EVERY_STAGE)
def test_extension_ignores_the_quotients_key_order(part):
    # base_extend writes each residue at its channel index, so a quotient
    # whose dicts iterate in any order extends to the same vector.
    ms = part.mset
    rng = random.Random(len(ms.moduli))
    for value in (ms.product - 1, rng.randrange(ms.product)):
        q = quotient_by_moduli_product(encode(value, ms), part)
        want = encode(value // divisor_product(part), ms)

        def shuffled(items):
            items = list(items)
            rng.shuffle(items)
            return items

        for order in (reversed, shuffled):
            assert base_extend(reordered(q, dict(order(q.values.items())))) == want


@pytest.mark.parametrize("ctx", SHARED.values(), ids=SHARED.keys())
def test_inverse_storage(ctx):
    wide = ctx.mset.moduli[-1] >= 1 << 63
    assert wide == (ctx is SHARED["wide"])
    lay = layout(ctx)
    for stage in (lay.g, lay.h):
        for rows in (stage.divide, stage.extend):
            assert type(rows.inverse) is tuple


EDGES = {
    "one-g": build(10007, RangeCase.CASE2, [9973], [13, 17, 19, 23], [11]),
    "one-h": build(10007, RangeCase.CASE4, [4, 7, 11, 13], [200087], [17]),
    "one-g-one-h": build(1000, RangeCase.CASE1, [997], [1009], [3]),
    # Four 61-bit divisor channels are one group of 244 bits, and one term
    # below its squared modulus fits 488-bit lanes; the shared table also
    # peels x, and two terms need a 489-bit lane sum.
    "lane-crossing": case2_context(coprime_below((1 << 61) - 1, 12), 4),
}


@pytest.mark.parametrize("ctx", EDGES.values(), ids=EDGES.keys())
def test_edge_shapes_share_tables_and_match(ctx):
    assert outside(ctx) and layout(ctx).g.shares
    check_layout(ctx)
    check_pass(ctx, operand_pairs(ctx, len(ctx.mset.moduli)))


def test_lane_crossing_context_widens_shared_lanes():
    ctx = EDGES["lane-crossing"]
    lay = layout(ctx)
    assert len(ctx.g_indices) == 4 and len(outside(ctx)) >= 1
    assert channels(ctx, lay.g.divisor) == ctx.g_indices
    assert ctx.mset.moduli[-1] < 1 << 61
    assert max(lay.pass_set.moduli).bit_length() == 244
    head = lay.g.divide
    assert head.lane_bits == 496
    assert peel_rows(lay.pass_set.moduli, head.peel, sorted(head.rest)).lane_bits == 488


def test_no_channel_outside_g_and_h():
    # make_context rejects every such context: with M = g*h the capacity
    # condition c*h*n < M needs g > n, which the divisor condition forbids.
    # Built directly, a pass is still exact while every intermediate stays
    # below M, which operands below sqrt(g*n) ensure.
    ms = make_moduli_set([7, 11, 13, 17, 19, 23])
    modulus, g_indices, h_indices = 1000, (0, 1), (2, 3, 4, 5)
    params = make_params(modulus, 7 * 11, 13 * 17 * 19 * 23, RangeCase.CASE1)
    assert not capacity_condition(modulus, params.h, ms.product, params.case).holds
    ctx = RnsBarrettContext(ms, params, g_indices, h_indices)
    assert outside(ctx) == ()
    check_layout(ctx)
    limit = isqrt(params.g * modulus)
    rng = random.Random(6)
    pairs = [(limit - 1, limit - 1), (0, 0)]
    pairs += [(rng.randrange(limit), rng.randrange(limit)) for _ in range(40)]
    check_pass(ctx, pairs)


def test_overlapping_and_unit_g_contexts_build_their_own_tables():
    assert set(EXAMPLE4.g_indices) & set(EXAMPLE4.h_indices)
    # example4's channels are one per group; unit-g's h is one group.
    assert not layout(EXAMPLE4).grouped
    assert layout(UNIT_G).g is None and layout(UNIT_G).members == ((5,), (0, 1, 2, 3, 4))
    for ctx in (EXAMPLE4, UNIT_G):
        assert not layout(ctx).h.shares
        check_layout(ctx)
        check_pass(ctx, operand_pairs(ctx, 4))
