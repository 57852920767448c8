"""The two peel tables a context shares between its divide-and-extend stages.

With x the channels in neither g nor h, a context with disjoint, nonempty
g and h builds two tables: one peels g + x and extends to h, one peels
h + x and extends to g. Each is one stage's extension, and its first
columns, one per group of g (or h) and the same integer objects, are the
other stage's divide rows. The tables are over the context's pass set,
whose moduli are groups of channels (``rns.ChannelGroups``); every
context here groups several narrow channels. The structural tests check
that sharing against rows built on their own over the same pass set; the edge shapes run whole passes against
scalar ``modmul`` and the one-modulus-at-a-time reference in ``helpers``.
"""

import random
from importlib import resources
from math import isqrt, prod

import pytest

from rnsbarrett import (
    PartialResidueVector,
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
from rnsbarrett.rns import PeelRows

from helpers import (
    build,
    channels,
    check_pass,
    coprime_below,
    divisor_product,
    operand_pairs,
    remaining_indices,
)

# Mersenne primes, every one but the first wider than 64 bits.
WIDE_SET = make_moduli_set([(1 << 61) - 1, (1 << 89) - 1, (1 << 107) - 1, (1 << 127) - 1])
SMALL_H_SET = make_moduli_set([3, 5, 7, 11, 13, 1009])


def odd_modulus(seed: int, bits: int) -> int:
    return random.Random(seed).getrandbits(bits) | (1 << (bits - 1)) | 1


def lane_crossing_context():
    # Four 61-bit divisor channels are one group of 244 bits, and one term
    # below its squared modulus fits 488-bit lanes; the shared table also
    # peels x, and two terms need a 489-bit lane sum.
    moduli = coprime_below((1 << 61) - 1, 12)
    g_moduli = moduli[:4]
    modulus = prod(g_moduli) + 12345
    h_moduli, rest = [], moduli[4:]
    while prod(g_moduli) * prod(h_moduli) < 9 * modulus**2:
        h_moduli.append(rest.pop(0))
    x_moduli = []
    while 9 * prod(h_moduli) * modulus >= prod(g_moduli + h_moduli + x_moduli):
        x_moduli.append(rest.pop(0))
    return build(modulus, RangeCase.CASE2, g_moduli, h_moduli, x_moduli)


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


def stages(ctx):
    """Each stage's partition with the other stage's, g-stage first."""
    g_part, h_part = ctx._g_partition, ctx._h_partition
    return [(g_part, h_part), (h_part, g_part)]


def covered(ctx, ids) -> tuple[int, ...]:
    """The channels of the pass-set indices ``ids``, ascending."""
    return tuple(sorted(channels(ctx, ids)))


def lanes(value: int, width: int, count: int) -> list[int]:
    """The low ``count`` lanes of a packed integer; nothing may sit above."""
    assert value >> (width * count) == 0
    return [value >> (width * i) & ((1 << width) - 1) for i in range(count)]


@pytest.mark.parametrize("ctx", SHARED.values(), ids=SHARED.keys())
def test_divide_rows_are_a_prefix_of_the_other_extension(ctx):
    x = outside(ctx)
    g_part, h_part = ctx._g_partition, ctx._h_partition
    assert covered(ctx, g_part.divisor_indices) == ctx.g_indices
    assert covered(ctx, h_part.divisor_indices) == ctx.h_indices
    for part, other in stages(ctx):
        head, table = part.divide_rows, other.extend_rows
        assert part.mset is other.mset is ctx._pass_set is not ctx.mset
        k = len(head.peel)
        assert head.peel == part.divisor_indices
        assert head.peel == table.peel[:k]
        assert covered(ctx, table.peel[k:]) == x
        assert table.rest == other.divisor_indices
        assert head.rest == table.peel[k:] + table.rest
        assert covered(ctx, head.rest) == tuple(sorted(x + channels(ctx, other.divisor_indices)))
        assert len(head.columns) == k
        assert all(a is b for a, b in zip(head.columns, table.columns))
        assert head.width == table.width
        assert head.inverses[:k] == table.inverses[:k]
    # Two tables per context: every column object belongs to one of them,
    # one per group of g and of h and two per group of x.
    columns = {
        id(c)
        for part in (g_part, h_part)
        for rows in (part.divide_rows, part.extend_rows)
        for c in rows.columns
    }
    g_groups, h_groups = len(g_part.divide_rows.peel), len(h_part.divide_rows.peel)
    x_groups = len(h_part.extend_rows.peel) - g_groups
    assert len(columns) == g_groups + h_groups + 2 * x_groups


@pytest.mark.parametrize("ctx", SHARED.values(), ids=SHARED.keys())
def test_divide_rows_match_standalone_rows(ctx):
    for part, _ in stages(ctx):
        moduli = part.mset.moduli
        head = part.divide_rows
        alone = PeelRows(moduli, head.peel, sorted(head.rest))
        k = len(alone.peel)
        assert sorted(head.rest) == list(alone.rest)
        assert alone.width <= head.width <= alone.width + 8
        # Lane position of each rest group in the shared layout.
        slot = {i: t for t, i in enumerate(head.rest)}
        for l, (shared, own) in enumerate(zip(head.columns, alone.columns, strict=True)):
            later = k - 1 - l
            shared_lanes = lanes(shared, head.width, later + len(head.rest))
            own_lanes = lanes(own, alone.width, later + len(alone.rest))
            assert shared_lanes[:later] == own_lanes[:later]
            assert [shared_lanes[later + slot[i]] for i in alone.rest] == own_lanes[later:]
        assert head.inverses[:k] == alone.inverses[:k]
        assert [head.inverses[k + slot[i]] for i in alone.rest] == list(alone.inverses[k:])


@pytest.mark.parametrize("ctx", SHARED.values(), ids=SHARED.keys())
def test_quotient_carries_the_extension_table(ctx):
    ms, pass_set = ctx.mset, ctx._pass_set
    x = encode(pass_set.product - 1, pass_set)
    for part, _ in stages(ctx):
        head, table = part.divide_rows, part.extend_rows
        moduli = pass_set.moduli
        # The quotient holds its residues on the divide rows' rest groups
        # and hands on the extension rows; split, they are the quotient's
        # residues on those groups' channels.
        q = quotient_by_moduli_product(x, part)
        assert list(q.values) == list(head.rest)
        quotient = (ms.product - 1) // divisor_product(part)
        assert list(q.values.values()) == [quotient % moduli[j] for j in head.rest]
        assert q._extend is table
        members = ctx._groups.members
        split = {i: r % ms.moduli[i] for j, r in q.values.items() for i in members[j]}
        assert split == {i: quotient % ms.moduli[i] for i in channels(ctx, head.rest)}


# Every stage partition of the shared, example4 and unit-g contexts.
EVERY_STAGE = [
    pytest.param(part, id=f"{name}-{stage}")
    for name, ctx in {**SHARED, "example4": EXAMPLE4, "unit-g": UNIT_G}.items()
    for stage, part in (("g", ctx._g_partition), ("h", ctx._h_partition))
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
        rows = q._extend

        def shuffled(items):
            items = list(items)
            rng.shuffle(items)
            return items

        for order in (reversed, shuffled):
            values = dict(order(q.values.items()))
            reordered = PartialResidueVector._reduced(values, ms, rows)
            assert base_extend(reordered) == want


@pytest.mark.parametrize("ctx", SHARED.values(), ids=SHARED.keys())
def test_inverse_storage(ctx):
    wide = ctx.mset.moduli[-1] >= 1 << 63
    assert wide == (ctx is SHARED["wide"])
    for part, _ in stages(ctx):
        for rows in (part.divide_rows, part.extend_rows):
            assert type(rows.inverses) is tuple


EDGES = {
    "one-g": build(10007, RangeCase.CASE2, [9973], [13, 17, 19, 23], [11]),
    "one-h": build(10007, RangeCase.CASE4, [4, 7, 11, 13], [200087], [17]),
    "one-g-one-h": build(1000, RangeCase.CASE1, [997], [1009], [3]),
    "lane-crossing": lane_crossing_context(),
}


@pytest.mark.parametrize("ctx", EDGES.values(), ids=EDGES.keys())
def test_edge_shapes_share_tables_and_match(ctx):
    g_part, h_part = ctx._g_partition, ctx._h_partition
    assert outside(ctx)
    g_groups, h_groups = len(g_part.divide_rows.peel), len(h_part.divide_rows.peel)
    assert h_part.extend_rows.columns[:g_groups] == g_part.divide_rows.columns
    assert g_part.extend_rows.columns[:h_groups] == h_part.divide_rows.columns
    check_pass(ctx, operand_pairs(ctx, len(ctx.mset.moduli)))


def test_lane_crossing_context_widens_shared_lanes():
    ctx = EDGES["lane-crossing"]
    ms = ctx.mset
    part = ctx._g_partition
    assert len(ctx.g_indices) == 4 and len(outside(ctx)) >= 1
    assert channels(ctx, part.divisor_indices) == ctx.g_indices
    assert ms.moduli[-1] < 1 << 61
    assert max(ctx._pass_set.moduli).bit_length() == 244
    assert part.divide_rows.width == 496
    rest = sorted(part.divide_rows.rest)
    assert PeelRows(part.mset.moduli, part.divide_rows.peel, rest).width == 488


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
    assert ctx._h_partition.extend_rows.columns == ctx._g_partition.divide_rows.columns
    assert channels(ctx, ctx._g_partition.divide_rows.rest) == h_indices
    limit = isqrt(params.g * modulus)
    rng = random.Random(6)
    pairs = [(limit - 1, limit - 1), (0, 0)]
    pairs += [(rng.randrange(limit), rng.randrange(limit)) for _ in range(40)]
    check_pass(ctx, pairs)


def test_overlapping_and_unit_g_contexts_build_their_own_tables():
    assert set(EXAMPLE4.g_indices) & set(EXAMPLE4.h_indices)
    assert UNIT_G._g_partition is None
    # example4's channels are one per group; unit-g's h is one group.
    assert EXAMPLE4._groups is None and EXAMPLE4._pass_set is EXAMPLE4.mset
    assert UNIT_G._groups.members == ((5,), (0, 1, 2, 3, 4))
    for ctx in (EXAMPLE4, UNIT_G):
        for part in (ctx._g_partition, ctx._h_partition):
            if part is None:
                continue
            # Each partition builds its own tables over the pass set.
            assert part.mset is ctx._pass_set
            moduli = part.mset.moduli
            divisors, remaining = part.divide_rows.peel, part.divide_rows.rest
            assert divisors == part.divisor_indices
            assert remaining == remaining_indices(part)
            for rows, alone in (
                (part.divide_rows, PeelRows(moduli, divisors, remaining)),
                (part.extend_rows, PeelRows(moduli, remaining, divisors)),
            ):
                assert (rows.peel, rows.rest) == (alone.peel, alone.rest)
                assert rows.width == alone.width
                assert rows.columns == alone.columns
        check_pass(ctx, operand_pairs(ctx, 4))
