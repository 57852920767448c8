"""Peeling groups of channels as one digit each.

Within each role (g, h and x, or a partition's divisor and surviving
channels) a group takes the next channel while the bit lengths of its
members add up to at most ``DEFAULT_WORD_BITS``. At that default word size
every group is one channel, so a context's tables are the tables over its
channels and a pass neither combines nor splits residues; narrower
channels are peeled in groups. Passes over grouped tables are compared with
scalar ``modmul``, the one-modulus-at-a-time reference in ``helpers`` and
``pow``, none of which groups anything.
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
    bmm_modexp,
    encode,
    final_result,
    make_context,
    make_moduli_set,
    quotient_by_moduli_product,
    select_context,
    trace_bmm,
)
from rnsbarrett.quotient import DEFAULT_WORD_BITS, ChannelGroups
from rnsbarrett.rns import PeelRows

from helpers import build, channels, check_pass, coprime_below, operand_pairs


def odd_modulus(bits: int) -> int:
    return random.Random(bits).getrandbits(bits) | 1 << (bits - 1) | 1


def roles(ctx) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
    """Each role's channels and its indices into the tables, for a context
    with disjoint, nonempty g and h: g, h, then x."""
    g_part, h_part = ctx._g_partition, ctx._h_partition
    g_ids, h_ids = g_part.divide_rows.peel, h_part.divide_rows.peel
    x_ids = h_part.extend_rows.peel[len(g_ids):]
    inside = set(ctx.g_indices) | set(ctx.h_indices)
    x = tuple(i for i in range(len(ctx.mset.moduli)) if i not in inside)
    return [(ctx.g_indices, g_ids), (ctx.h_indices, h_ids), (x, x_ids)]


def check_group_rule(part, role_list):
    """Groups cut each role in order, greedily, at most one default word each."""
    moduli = part.mset.moduli

    def bits(group):
        return sum(moduli[i].bit_length() for i in group)

    for role, ids in role_list:
        assert channels(part, ids) == role
        groups = [channels(part, (j,)) for j in ids]
        for group in groups:
            assert len(group) == 1 or bits(group) <= DEFAULT_WORD_BITS
        for group, after in zip(groups, groups[1:]):
            assert bits(group) + moduli[after[0]].bit_length() > DEFAULT_WORD_BITS
    if part.groups is not None:
        assert part.groups.moduli == tuple(
            prod(moduli[i] for i in group) for group in part.groups.members
        )


DEFAULT = {
    f"{bits}-case{case.value}": select_context(odd_modulus(bits), case)
    for bits in (256, 512, 1024, 2048, 4096)
    for case in RangeCase
}


@pytest.mark.parametrize("ctx", DEFAULT.values(), ids=DEFAULT.keys())
def test_default_contexts_peel_the_channels_tables(ctx):
    # Every group is one channel, and the tables are the ones built over
    # the channels themselves: g + x extending to h, h + x extending to g,
    # and the first |g| or |h| columns of those as the divide rows.
    ms = ctx.mset
    g_part, h_part = ctx._g_partition, ctx._h_partition
    assert g_part.groups is None and h_part.groups is None
    (g, _), (h, _), (x, _) = roles(ctx)
    check_group_rule(g_part, roles(ctx))
    extend_h = PeelRows(ms.moduli, g + x, h)
    extend_g = PeelRows(ms.moduli, h + x, g)
    for rows, want in (
        (h_part.extend_rows, extend_h),
        (g_part.extend_rows, extend_g),
        (g_part.divide_rows, extend_h.head(ms.moduli, len(g))),
        (h_part.divide_rows, extend_g.head(ms.moduli, len(h))),
    ):
        assert (rows.peel, rows.rest) == (want.peel, want.rest)
        assert rows.columns == want.columns
        assert rows.width == want.width
        assert rows.inverses == want.inverses


def test_default_pass_runs_no_combine_or_split(monkeypatch):
    def refuse(*args):
        raise AssertionError("a pass over one-channel groups combined or split")

    monkeypatch.setattr(ChannelGroups, "combine", refuse)
    monkeypatch.setattr(ChannelGroups, "split", refuse)
    for name in ("256-case2", "2048-case4"):
        ctx = DEFAULT[name]
        check_pass(ctx, operand_pairs(ctx, 1, 3))
        n = ctx.params.modulus
        assert final_result(bmm_modexp(encode(n - 1, ctx.mset), 65537, ctx), ctx) == pow(
            n - 1, 65537, n
        )
    # An ad-hoc extension peels the channels too.
    ms = DEFAULT["2048-case2"].mset
    known = {i: 7 for i in range(0, len(ms.moduli), 2)}
    assert base_extend(PartialResidueVector(known, ms)) == encode(7, ms)


# The benchmark's four shapes: N bits, word bits, channels, groups.
SHAPES = [(256, 30, 19, 5), (2048, 30, 139, 19), (512, 30, 36, 7), (1024, 16, 130, 11)]


@pytest.mark.parametrize("bits, word_bits, count, group_count", SHAPES)
def test_narrow_words_peel_one_digit_per_group(bits, word_bits, count, group_count):
    ctx = select_context(odd_modulus(bits), RangeCase.CASE2, word_bits)
    g_part, h_part = ctx._g_partition, ctx._h_partition
    assert g_part.groups is h_part.groups
    assert len(ctx.mset.moduli) == count
    assert len(g_part.groups.members) == group_count
    check_group_rule(g_part, roles(ctx))
    # Two divide-and-extend stages each peel every group once: 38 digits
    # instead of 278 for a 2048-bit N on 30-bit words.
    digits = sum(
        len(rows.peel)
        for part in (g_part, h_part)
        for rows in (part.divide_rows, part.extend_rows)
    )
    assert digits == 2 * group_count


@pytest.mark.parametrize("word_bits", [8, 16, 30, 62, 126, 254])
def test_standalone_partitions_follow_the_group_rule(word_bits):
    ctx = select_context((1 << 95) + 1, RangeCase.CASE2, word_bits)
    ms = ctx.mset
    n = len(ms.moduli)
    rng = random.Random(word_bits)
    for divisors in (ctx.g_indices, ctx.h_indices, tuple(range(0, n, 3))):
        part = ModuliPartition(ms, divisors)
        rest = tuple(i for i in range(n) if i not in part.divisor_indices)
        check_group_rule(
            part,
            [(part.divisor_indices, part.divide_rows.peel), (rest, part.divide_rows.rest)],
        )
        assert part.divide_rows.peel == part.extend_rows.rest
        assert part.divide_rows.rest == part.extend_rows.peel
        for value in (0, ms.product - 1, rng.randrange(ms.product)):
            q = value // prod(ms.moduli[i] for i in part.divisor_indices)
            partial = quotient_by_moduli_product(encode(value, ms), part)
            assert partial.values == {i: q % ms.moduli[i] for i in rest}
            assert base_extend(partial) == encode(q, ms)


WORD30 = coprime_below((1 << 30) - 1, 40)


def case2_context(g_size: int):
    """Case 2 over 30-bit moduli with g of ``g_size`` channels; h and x as
    small as the product and capacity conditions allow."""
    g_moduli = WORD30[:g_size]
    modulus = prod(g_moduli) + 12345
    rest = WORD30[g_size:]
    h_moduli = []
    while prod(g_moduli) * prod(h_moduli) < 9 * modulus**2:
        h_moduli.append(rest.pop(0))
    x_moduli = []
    while 9 * prod(h_moduli) * modulus >= prod(g_moduli + h_moduli + x_moduli):
        x_moduli.append(rest.pop(0))
    return build(modulus, RangeCase.CASE2, g_moduli, h_moduli, x_moduli)


def overlapping_context():
    # g's three channels are in h too, so each stage groups its own split.
    g_moduli = WORD30[:3]
    modulus = prod(g_moduli) + 12345
    h_moduli = g_moduli + WORD30[3:4]
    x_moduli = WORD30[4:8]
    ms = make_moduli_set(h_moduli + x_moduli)
    where = {m: i for i, m in enumerate(ms.moduli)}
    return make_context(
        ms,
        modulus,
        sorted(where[m] for m in g_moduli),
        sorted(where[m] for m in h_moduli),
        RangeCase.CASE2,
    )


def unit_g_context():
    modulus = prod(WORD30[:2]) + 12345
    h_moduli = WORD30[2:7]
    x_moduli = WORD30[7:10]
    return build(modulus, RangeCase.CASE2, [], h_moduli, x_moduli)


def narrow_g_context(bits: int, narrow_bits: int):
    # At 30-bit words the last g modulus is narrow; it is channel 0, so it
    # starts the first group of g, which then holds 8 or 9 channels.
    ctx = select_context(odd_modulus(bits), RangeCase.CASE2, 30)
    assert ctx.mset.moduli[0].bit_length() == narrow_bits
    assert ctx.g_indices[0] == 0
    assert ctx._g_partition.groups.members[0][0] == 0
    return ctx


# g of 1 to 9 channels ends a group after every position of a group of 8.
GROUPED = {f"g{size}": case2_context(size) for size in range(1, 10)}
GROUPED["narrow-g-21"] = narrow_g_context(261, 21)
GROUPED["narrow-g-5"] = narrow_g_context(275, 5)
GROUPED["unit-g"] = unit_g_context()
GROUPED["overlapping"] = overlapping_context()


@pytest.mark.parametrize("ctx", GROUPED.values(), ids=GROUPED.keys())
def test_grouped_passes_match_scalar_modmul_and_pow(ctx):
    parts = [p for p in (ctx._g_partition, ctx._h_partition) if p is not None]
    assert all(p.groups is not None for p in parts)
    check_pass(ctx, operand_pairs(ctx, len(ctx.mset.moduli), 8))
    ms = ctx.mset
    n = ctx.params.modulus
    limit = ctx.params.case.input_bound * n
    rng = random.Random(n)
    for x, e in [(limit - 1, 65537), (rng.randrange(limit), rng.getrandbits(24) | 1)]:
        assert final_result(bmm_modexp(encode(x, ms), e, ctx), ctx) == pow(x, e, n)
    a, b = encode(limit - 1, ms), encode(rng.randrange(limit), ms)
    assert trace_bmm(a, b, ctx).c == bmm(a, b, ctx)


def test_group_boundaries_fall_at_every_position():
    last = set()
    for size in range(1, 10):
        part = GROUPED[f"g{size}"]._g_partition
        group = channels(part, part.divide_rows.peel[-1:])
        last.add(len(group))
        assert len(channels(part, part.divide_rows.peel)) == size
    assert last == set(range(1, 9))
