"""Passes over groups of channels, one digit per group.

Channels have four roles: in g only, in h only, in both, in neither.
Within each role a group takes the next channel while the bit lengths of
its members add up to at most ``DEFAULT_WORD_BITS``, and a context whose
channels fall into groups runs its pass on the group moduli, its pass set:
it combines the channel product once on entry and splits the result once
on exit. ``bmm`` also takes two operands already on the pass set and then
neither combines nor splits, so ``bmm_modexp`` combines its base once and
splits its result once for any exponent of at least 2. At the default
word size every group is one channel, so the pass set is the context's
own set and a pass neither combines nor splits.
Grouped passes are compared with scalar ``modmul``, the
one-modulus-at-a-time reference in ``helpers`` and ``pow``, none of which
groups anything, and each context's groups and tables are checked by
``helpers.check_layout``.
"""

import random
from itertools import chain
from math import gcd, prod

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from rnsbarrett import (
    ModuliPartition,
    PartialResidueVector,
    RangeCase,
    ResidueVector,
    SelectionFailed,
    SetMismatch,
    base_extend,
    bmm,
    bmm_modexp,
    decode_crt,
    encode,
    final_result,
    make_context,
    make_moduli_set,
    modmul,
    quotient_by_moduli_product,
    select_context,
    trace_bmm,
)
from rnsbarrett.selection import DEFAULT_WORD_BITS

from helpers import (
    build,
    case2_context,
    channel_groups,
    channels,
    check_group_rule,
    check_layout,
    check_pass,
    coprime_below,
    count_group_calls,
    groups_of,
    layout,
    operand_pairs,
    partition_rows,
    registered,
    to_pass_set,
)


def odd_modulus(bits: int) -> int:
    return random.Random(bits).getrandbits(bits) | 1 << (bits - 1) | 1


DEFAULT = {
    f"{bits}-case{case.value}": select_context(odd_modulus(bits), case)
    for bits in (256, 512, 1024, 2048, 4096)
    for case in RangeCase
}


@pytest.mark.parametrize("ctx", DEFAULT.values(), ids=DEFAULT.keys())
def test_default_contexts_peel_the_channels_tables(ctx):
    # Every group is one channel, so the pass runs on the context's own set
    # and its two tables are built over the channels themselves.
    assert not layout(ctx).grouped
    check_layout(ctx)


def test_default_pass_runs_no_combine_or_split(monkeypatch):
    calls = count_group_calls(monkeypatch)
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
    assert calls == {"combine": 0, "split": 0}


# The benchmark's four shapes: N bits, word bits, channels, groups.
SHAPES = [(256, 30, 19, 5), (2048, 30, 139, 19), (512, 30, 36, 7), (1024, 16, 130, 11)]


@pytest.mark.parametrize("bits, word_bits, count, group_count", SHAPES)
def test_narrow_words_peel_one_digit_per_group(bits, word_bits, count, group_count):
    ctx = select_context(odd_modulus(bits), RangeCase.CASE2, word_bits)
    check_layout(ctx)
    lay = layout(ctx)
    assert len(ctx.mset.moduli) == count
    assert len(lay.members) == len(lay.pass_set.moduli) == group_count
    # Two divide-and-extend stages each peel every group once: 38 digits
    # instead of 278 for a 2048-bit N on 30-bit words.
    digits = sum(len(s.divide.peel) + len(s.extend.peel) for s in (lay.g, lay.h))
    assert digits == 2 * group_count


@pytest.mark.parametrize("word_bits", [8, 16, 30, 62, 126, 254])
def test_standalone_partitions_follow_the_group_rule(word_bits):
    # A partition built on its own peels the channels of its set. Grouping
    # a divisor role and the rest role gives a pass set on which a
    # partition peels their groups; both give exact quotients and
    # extensions.
    ctx = select_context((1 << 95) + 1, RangeCase.CASE2, word_bits)
    ms = ctx.mset
    n = len(ms.moduli)
    rng = random.Random(word_bits)
    for divisors in (ctx.g_indices, ctx.h_indices, tuple(range(0, n, 3))):
        rest = tuple(i for i in range(n) if i not in divisors)
        part = ModuliPartition(ms, divisors)
        divide, extend = partition_rows(part)
        assert divide.peel == extend.rest == divisors
        assert divide.rest == extend.peel == rest
        grouping = groups_of(ms, divisors, ())
        pass_set, ids = grouping.pass_set, grouping.g
        rest_ids = tuple(j for j in range(len(pass_set.moduli)) if j not in ids)
        check_group_rule(ms, grouping, divisors, ())
        assert sorted(i for j in ids for i in grouping.members[j]) == list(divisors)
        grouped = ModuliPartition(pass_set, ids)
        divide, extend = partition_rows(grouped)
        assert divide.peel == extend.rest == ids
        assert divide.rest == extend.peel == rest_ids
        for value in (0, ms.product - 1, rng.randrange(ms.product)):
            q = value // prod(ms.moduli[i] for i in divisors)
            partial = quotient_by_moduli_product(encode(value, ms), part)
            assert partial.values == {i: q % ms.moduli[i] for i in rest}
            assert base_extend(partial) == encode(q, ms)
            partial = quotient_by_moduli_product(encode(value, pass_set), grouped)
            assert partial.values == {j: q % pass_set.moduli[j] for j in rest_ids}
            assert base_extend(partial) == encode(q, pass_set)


WORD30 = coprime_below((1 << 30) - 1, 40)


def overlapping_context():
    # g's three channels are in h too: one group inside both g and h.
    g_moduli = WORD30[:3]
    modulus = prod(g_moduli) + 12345
    return build(modulus, RangeCase.CASE2, g_moduli, g_moduli + WORD30[3:4], WORD30[4:8])


def unit_g_context():
    modulus = prod(WORD30[:2]) + 12345
    h_moduli = WORD30[2:7]
    x_moduli = WORD30[7:10]
    return build(modulus, RangeCase.CASE2, [], h_moduli, x_moduli)


def narrow_g_context(bits: int, narrow_bits: int):
    # At 30-bit words the last g modulus is narrow; it is channel 0, so it
    # starts a group of g, which then holds 8 or 9 channels.
    ctx = select_context(odd_modulus(bits), RangeCase.CASE2, 30)
    assert ctx.mset.moduli[0].bit_length() == narrow_bits
    assert ctx.g_indices[0] == 0
    assert next(group for group in layout(ctx).members if 0 in group)[0] == 0
    return ctx


# g of 1 to 9 channels ends a group after every position of a group of 8.
GROUPED = {f"g{size}": case2_context(WORD30, size) for size in range(1, 10)}
GROUPED["narrow-g-21"] = narrow_g_context(261, 21)
GROUPED["narrow-g-5"] = narrow_g_context(275, 5)
GROUPED["unit-g"] = unit_g_context()
GROUPED["overlapping"] = overlapping_context()


@pytest.mark.parametrize("ctx", GROUPED.values(), ids=GROUPED.keys())
def test_grouped_passes_match_scalar_modmul_and_pow(ctx):
    assert layout(ctx).grouped
    check_layout(ctx)
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
        ctx = GROUPED[f"g{size}"]
        cut = sorted(channels(ctx, (j,)) for j in layout(ctx).g.divisor)
        last.add(len(cut[-1]))
        assert sum(map(len, cut)) == size
    assert last == set(range(1, 9))


@pytest.fixture
def group_calls(monkeypatch):
    return count_group_calls(monkeypatch)


def test_grouped_bmm_combines_once_and_splits_once(group_calls):
    for ctx in GROUPED.values():
        ms = ctx.mset
        limit = ctx.params.input_limit
        # A wide operand splits through the set's groups when it is encoded,
        # so both are encoded outside the counted window.
        a, b = encode(limit - 1, ms), encode(limit - 2, ms)
        before = dict(group_calls)
        c = bmm(a, b, ctx)
        assert group_calls == {name: count + 1 for name, count in before.items()}
        assert decode_crt(c) == modmul(limit - 1, limit - 2, ctx.params)


def test_grouped_modexp_combines_once_and_splits_once(group_calls):
    # The whole chain, table included, runs on the pass set; exponents 0
    # and 1 run no pass and so neither combine nor split.
    rng = random.Random(64)
    for ctx in GROUPED.values():
        n = ctx.params.modulus
        x = rng.randrange(ctx.params.input_limit)
        base = encode(x, ctx.mset)
        e = rng.getrandbits(64) | 1 << 63
        before = dict(group_calls)
        assert bmm_modexp(base, 0, ctx) == encode(1, ctx.mset)
        assert bmm_modexp(base, 1, ctx) is base
        assert group_calls == before
        y = bmm_modexp(base, e, ctx)
        assert group_calls == {name: count + 1 for name, count in before.items()}
        assert final_result(y, ctx) == pow(x, e, n)


@pytest.mark.parametrize("ctx", GROUPED.values(), ids=GROUPED.keys())
def test_pass_set_operands_skip_the_combine_and_the_split(ctx):
    ms = ctx.mset
    limit = ctx.params.input_limit
    rng = random.Random(limit)
    for x, y in [(limit - 1, limit - 2), (rng.randrange(limit), rng.randrange(limit))]:
        a, b = encode(x, ms), encode(y, ms)
        pa, pb = to_pass_set(ctx, a), to_pass_set(ctx, b)
        assert pa.mset is layout(ctx).pass_set
        assert bmm(pa, pb, ctx) == to_pass_set(ctx, bmm(a, b, ctx))
        assert trace_bmm(pa, pb, ctx) == trace_bmm(a, b, ctx)
    e = rng.getrandbits(64) | 1 << 63
    assert bmm_modexp(pa, e, ctx) == to_pass_set(ctx, bmm_modexp(a, e, ctx))


def test_grouped_bmm_refuses_foreign_operands():
    ctx = GROUPED["g3"]
    ms = ctx.mset
    foreign = make_moduli_set(coprime_below((1 << 29) - 1, len(ms.moduli)))
    assert len(foreign.moduli) == len(ms.moduli)
    a, b = encode(5, foreign), encode(7, ms)
    # A pass-set vector of another context on the same channels whose g
    # and h group them differently: as many group moduli, not the same.
    other = make_context(ms, ctx.params.modulus, (5, 6, 7), (0, 1, 2, 3), RangeCase.CASE2)
    pass_set, other_set = layout(ctx).pass_set, layout(other).pass_set
    assert len(other_set.moduli) == len(pass_set.moduli) and other_set != pass_set
    regrouped = to_pass_set(other, b)
    # One operand on the channels, the other on the pass set.
    p = to_pass_set(ctx, b)
    for x, y in ((a, b), (b, a), (a, a), (b, p), (p, b), (regrouped, p), (p, regrouped)):
        with pytest.raises(SetMismatch):
            bmm(x, y, ctx)
        with pytest.raises(SetMismatch):
            trace_bmm(x, y, ctx)
    with pytest.raises(SetMismatch):
        bmm_modexp(regrouped, 2, ctx)


@pytest.mark.parametrize("word_bits", [30, 254])
def test_bmm_refuses_a_partial_operand(word_bits):
    # A partial vector that knows every channel is still not an operand:
    # at every word size both passes raise TypeError, never a wrong C.
    ctx = select_context(odd_modulus(256), RangeCase.CASE2, word_bits)
    ms = ctx.mset
    assert layout(ctx).grouped == (word_bits < DEFAULT_WORD_BITS)
    partial = PartialResidueVector(dict(enumerate(encode(12345, ms).values)), ms)
    whole = encode(678, ms)
    for a, b in ((partial, whole), (whole, partial)):
        for run in (bmm, trace_bmm):
            with pytest.raises(TypeError):
                run(a, b, ctx)
    assert decode_crt(bmm(encode(12345, ms), whole, ctx)) == 12345 * 678


@pytest.mark.parametrize("word_bits", [8, 16, 30, 62, 126, 254])
def test_mu_and_n_channel_views_are_their_encodings(word_bits):
    # mu and N are stored once, on the pass set; their channel views are
    # the encodings a context stored before grouping.
    for bits in (96,) if word_bits == 8 else (96, 512):
        for case in RangeCase:
            ctx = select_context(odd_modulus(bits), case, word_bits)
            lay = layout(ctx)
            assert ctx.mu_rv == encode(ctx.params.mu, ctx.mset)
            assert ctx.n_rv == encode(ctx.params.modulus, ctx.mset)
            assert lay.mu == encode(ctx.params.mu, lay.pass_set)
            assert lay.n == encode(ctx.params.modulus, lay.pass_set)
            assert word_bits < DEFAULT_WORD_BITS or not lay.grouped


def pool(word_bits: int) -> list[int]:
    return coprime_below((1 << word_bits) - 1, 48)


NARROW_EDGES = {
    # Case 2 over word_bits-bit moduli, the last `shared` channels of g also
    # in h; g = 1 when g_count is 0.
    f"{word_bits}-{name}": case2_context(pool(word_bits), g_count, shared)
    for word_bits, g_count in ((8, 6), (16, 4), (30, 3), (62, 2))
    for name, shared in (("g-in-h", g_count), ("g-half-in-h", g_count // 2))
}
NARROW_EDGES.update(
    (f"{word_bits}-unit-g", case2_context(pool(word_bits), 0)) for word_bits in (8, 16, 30, 62)
)


@pytest.mark.parametrize("ctx", NARROW_EDGES.values(), ids=NARROW_EDGES.keys())
def test_narrow_overlapping_and_unit_g_contexts(ctx):
    g, h = set(ctx.g_indices), set(ctx.h_indices)
    assert not g or g & h
    assert layout(ctx).grouped
    check_layout(ctx)
    check_pass(ctx, operand_pairs(ctx, len(ctx.mset.moduli), 8))


@settings(max_examples=100, deadline=None)
@given(
    word_bits=st.integers(8, 126),
    bits=st.integers(64, 1024),
    case=st.sampled_from(list(RangeCase)),
    seed=st.integers(0, 2**32),
)
def test_any_word_size_matches_modmul_and_the_reference(word_bits, bits, case, seed):
    n = random.Random(seed).getrandbits(bits) | 1 << (bits - 1) | 1
    try:
        ctx = select_context(n, case, word_bits)
    except SelectionFailed:
        assume(False)
    check_pass(ctx, operand_pairs(ctx, seed, 2))


@st.composite
def grouped_sets(draw):
    """Coprime moduli of 8 to 126 bits and any partition of them into groups."""
    moduli, product = [], 1
    for bits in draw(st.lists(st.integers(8, 126), min_size=2, max_size=12)):
        m = draw(st.integers(1 << (bits - 1), (1 << bits) - 1))
        while gcd(m, product) != 1:
            m -= 1
        moduli.append(m)
        product *= m
    ms = make_moduli_set(moduli)
    order = draw(st.permutations(range(len(moduli))))
    cuts = draw(st.lists(st.booleans(), min_size=len(moduli) - 1, max_size=len(moduli) - 1))
    members = [[order[0]]]
    for i, cut in zip(order[1:], cuts):
        if cut:
            members.append([])
        members[-1].append(i)
    return channel_groups(ms, members)


@settings(max_examples=200, deadline=None)
@given(groups=grouped_sets(), data=st.data())
def test_channel_groups_round_trip_any_partition(groups, data):
    ms, pass_set = groups.channels, groups.pass_set
    assert pass_set.product == ms.product and registered(pass_set) is None
    assert sorted(chain.from_iterable(groups.members)) == list(range(len(ms)))
    x = data.draw(st.integers(0, ms.product - 1))
    rv = encode(x, ms)
    grouped = groups.combine(rv.values)
    assert groups.split(grouped) == rv
    assert grouped == encode(decode_crt(rv), pass_set) == encode(x, pass_set)
    # combine takes any integers congruent to the residues.
    lifted = [v + k * m for v, m, k in zip(rv.values, ms.moduli, range(len(ms)))]
    assert groups.combine(lifted) == grouped
    assert groups.split(ResidueVector(grouped.values, pass_set)) == rv
