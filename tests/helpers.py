"""Shared generators and reference computations for the test suite.

This is the one test file that reads the package's private layout: a
context's pass set and groups, its stages' peel tables, a set's registered
groups and decode weights. ``layout`` and the functions beside it report
these as plain data, so a change of layout is restated here alone.
"""

import random
import re
from itertools import chain
from math import gcd, prod
from operator import is_
from typing import NamedTuple

from rnsbarrett import (
    ModuliSet,
    PartialResidueVector,
    RangeCase,
    ResidueVector,
    SelectionFailed,
    bmm,
    decode_crt,
    encode,
    make_context,
    make_moduli_set,
    modmul,
    select_context,
    trace_bmm,
)
from rnsbarrett.rns import _WIDE, ChannelGroups, PeelRows, _peel
from rnsbarrett.rns_barrett import _group
from rnsbarrett.selection import DEFAULT_WORD_BITS

# Distinct prime powers: any subset is pairwise coprime.
COPRIME_POOL = (4, 9, 25, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def coprime_below(top: int, count: int) -> list[int]:
    """The ``count`` largest integers up to ``top`` coprime to each other."""
    chosen, product = [], 1
    while len(chosen) < count:
        if gcd(top, product) == 1:
            chosen.append(top)
            product *= top
        top -= 1
    return chosen


def random_modulus(rng: random.Random, max_bits: int, min_value: int = 2) -> int:
    bits = rng.randint(2, max_bits)
    lo = max(min_value, 1 << (bits - 1))
    hi = 1 << bits
    if lo >= hi:
        lo = min_value
        hi = max(min_value + 1, hi)
    return rng.randrange(lo, hi)


def random_context(rng: random.Random, cases=(1, 2, 3, 4), max_bits=128):
    """A valid random reduction context; deterministic for a seeded rng."""
    while True:
        case = RangeCase(rng.choice(cases))
        n = random_modulus(rng, max_bits, min_value=3 if case.divisor_factor == 2 else 2)
        lo = min(30, max(8, n.bit_length() // 4))
        word_bits = rng.randint(lo, 30)
        try:
            return select_context(n, case, word_bits)
        except SelectionFailed:
            continue


def build(modulus, case, g_moduli, h_moduli, x_moduli):
    """``make_context`` over g, h and x, with g and h given by their moduli."""
    ms = make_moduli_set({*g_moduli, *h_moduli, *x_moduli})
    where = {m: i for i, m in enumerate(ms.moduli)}
    return make_context(
        ms,
        modulus,
        sorted(where[m] for m in g_moduli),
        sorted(where[m] for m in h_moduli),
        case,
    )


def case2_context(pool, g_count: int, shared: int = 0):
    """Case 2 with g the first ``g_count`` moduli of ``pool``, the last
    ``shared`` of them also in h, and h and x taken from the rest of the
    pool, as few as the product and capacity conditions allow."""
    g_moduli = pool[:g_count]
    modulus = prod(g_moduli or pool[:2]) + 12345
    rest = pool[g_count:]
    h_moduli = g_moduli[g_count - shared:] if shared else []
    while prod(g_moduli) * prod(h_moduli) < 9 * modulus**2:
        h_moduli.append(rest.pop(0))
    x_moduli = []
    while 9 * prod(h_moduli) * modulus >= prod({*g_moduli, *h_moduli, *x_moduli}):
        x_moduli.append(rest.pop(0))
    return build(modulus, RangeCase.CASE2, g_moduli, h_moduli, x_moduli)


def peel_division(ms, current, peel) -> None:
    """Divide out the listed moduli in place, through ``rns._peel``.

    ``current`` is a mutable length-n list of residues; None marks channels
    that are already gone. Peeled entries become None and surviving entries
    the residues of the quotient by the peeled moduli, which those channels
    alone determine.
    """
    peel = tuple(peel)
    rest = [i for i, v in enumerate(current) if v is not None and i not in peel]
    values = run_peel(ms.moduli, peel, rest, current)
    for k in peel:
        current[k] = None
    for i, v in zip(rest, values):
        current[i] = v


def seeded_extend(partial, fill: dict) -> ResidueVector:
    """``base_extend`` by the seeded arithmetic, through ``rns._peel``.

    Each unknown channel i is seeded with ``fill[i]``. Peeling the known
    moduli leaves there the seeded vector's quotient q = (s - S) * P^-1
    mod m_i, where S is the positional sum of the peeled digits and P the
    product of the known moduli, so s - q * P is S mod m_i, whatever the
    seed s was.
    """
    ms = partial.mset
    moduli = ms.moduli
    values = partial.values
    rest = [i for i in range(len(moduli)) if i not in values]
    quotient = run_peel(moduli, sorted(values), rest, {**values, **fill})
    place = prod(moduli[k] for k in values)
    extended = {i: (fill[i] - q * place) % moduli[i] for i, q in zip(rest, quotient)}
    return ResidueVector(tuple({**values, **extended}[i] for i in range(len(moduli))), ms)


def divisor_product(part) -> int:
    """The product of a partition's divisor moduli."""
    return prod(part.mset.moduli[i] for i in part.divisor_indices)


def remaining_indices(part) -> tuple:
    """The channels a partition does not divide out, ascending."""
    return tuple(i for i in range(len(part.mset.moduli)) if i not in part.divisor_indices)


def channels(ctx, ids) -> tuple:
    """The channels, in order, of the pass-set indices ``ids`` of a context."""
    members = _members(ctx._groups, ctx.mset)
    return tuple(i for j in ids for i in members[j])


# The layout of contexts, sets and peel tables, as plain data. Only this
# file names the private layout: test_layout fails on LAYOUT_NAMES elsewhere.
LAYOUT_NAMES = re.compile(
    r"\._pass_set\b|\._groups\b|\._g_partition\b|\._h_partition\b|\._mu\b|\._n\b"
    r"|\._extend\b|\._crt_weights\b|\.divide_rows\b|\.extend_rows\b|\.columns\b"
    r"|\.width\b|\.inverses\b|\b_WIDE\b|\b_group\b|\b_peel\b|\bPeelRows\b|\bChannelGroups\b"
)
# An operand of at least WIDE on a set with registered groups is reduced
# once per group modulus, then split into channels.
WIDE = _WIDE


class Rows(NamedTuple):
    """A peel table (``rns.PeelRows``) that peels ``peel`` and updates
    ``rest``: ``lanes[l]`` are column l's lanes, lowest first, and
    ``inverse`` the stored inverses."""

    peel: tuple[int, ...]
    rest: tuple[int, ...]
    lane_bits: int
    lanes: tuple[tuple[int, ...], ...]
    inverse: tuple[int, ...]


def _rows(table: PeelRows) -> Rows:
    width, mask = table.width, (1 << table.width) - 1
    lanes = []
    for l, column in enumerate(table.columns):
        later = len(table.peel) + len(table.rest) - 1 - l
        assert column >> (width * later) == 0, "a lane sits above the last channel"
        lanes.append(tuple(column >> (width * i) & mask for i in range(later)))
    return Rows(table.peel, table.rest, width, tuple(lanes), table.inverses)


def peel_rows(moduli, peel, rest, k=None) -> Rows:
    """The table that peels ``peel`` and keeps ``rest``, built on its own;
    with ``k``, its head that peels ``peel[:k]``."""
    table = PeelRows(moduli, peel, rest)
    return _rows(table if k is None else table.head(moduli, k))


def partition_rows(part) -> tuple[Rows, Rows]:
    """A partition's divide rows and extend rows."""
    return _rows(part.divide_rows), _rows(part.extend_rows)


def run_peel(moduli, peel, rest, values, divide=True) -> list[int]:
    """``rns._peel`` on the table that peels ``peel`` and keeps ``rest``."""
    return _peel(PeelRows(moduli, peel, rest), moduli, values, divide)


class Stage(NamedTuple):
    """A stage over the pass set. ``shares``: each divide-row column is the
    same object as the other stage's matching extend-row column (which
    shows nothing for a column below 257, an int Python caches)."""

    divisor: tuple[int, ...]
    divide: Rows
    extend: Rows
    shares: bool


class Layout(NamedTuple):
    """A context's pass set, its own set unless ``grouped``; the channels
    ``members[j]`` of each pass-set modulus; its stages, ``g`` None for
    g = 1; and ``mu`` and ``n`` as stored, on the pass set."""

    pass_set: ModuliSet
    grouped: bool
    members: tuple[tuple[int, ...], ...]
    g: Stage | None
    h: Stage
    mu: ResidueVector
    n: ResidueVector


def _members(groups, ms) -> tuple[tuple[int, ...], ...]:
    return tuple((i,) for i in range(len(ms))) if groups is None else groups.members


def partitions(ctx) -> tuple:
    """A context's g- and h-stage partitions; the first is None for g = 1."""
    return ctx._g_partition, ctx._h_partition


def layout(ctx) -> Layout:
    """A context's layout, as plain data."""
    g_part, h_part = partitions(ctx)

    def stage(part, other):
        if part is None:
            return None
        head = part.divide_rows.columns
        table = () if other is None else other.extend_rows.columns
        shares = len(head) <= len(table) and all(map(is_, head, table))
        return Stage(part.divisor_indices, *partition_rows(part), shares)

    groups = ctx._groups
    return Layout(
        ctx._pass_set, groups is not None, _members(groups, ctx.mset),
        stage(g_part, h_part), stage(h_part, g_part), ctx._mu, ctx._n,
    )


class Groups(NamedTuple):
    """``members[j]`` are the channels of ``pass_set``'s modulus j; ``g``
    and ``h`` index ``pass_set``."""

    pass_set: ModuliSet
    members: tuple[tuple[int, ...], ...]
    g: tuple[int, ...] = ()
    h: tuple[int, ...] = ()


def groups_of(ms, g_indices, h_indices) -> Groups:
    """The groups a context with this g and h would run its pass on."""
    pass_set, g_ids, h_ids, groups = _group(ms, g_indices, h_indices)
    return Groups(pass_set, _members(groups, ms), tuple(g_ids), tuple(h_ids))


def registered(ms) -> Groups | None:
    """The groups the first grouped context on ``ms`` registered, or None."""
    groups = ms._groups
    return None if groups is None else Groups(groups.pass_set, groups.members)


def to_pass_set(ctx, rv: ResidueVector) -> ResidueVector:
    """A grouped context's channel vector, combined into its pass set."""
    return ctx._groups.combine(rv.values)


def channel_groups(ms, members) -> ChannelGroups:
    """``ms``'s channels taken as the groups ``members``, any partition."""
    return ChannelGroups(ms, members)


def carries_extension(partial, part) -> bool:
    """Whether a quotient carries its partition's extend rows."""
    return partial._extend is part.extend_rows


def reordered(partial, values: dict) -> PartialResidueVector:
    """``partial`` with ``values``, in their order, and the rows it carries."""
    return PartialResidueVector._reduced(values, partial.mset, partial._extend)


def crt_weights(ms):
    """A set's decode weights, None before its first decode."""
    return ms._crt_weights


def count_group_calls(monkeypatch) -> dict:
    """Counts, from now on, each combine into a pass set and split out of one."""
    calls = {"combine": 0, "split": 0}
    for name in calls:
        original = getattr(ChannelGroups, name)

        def counted(self, values, name=name, original=original):
            calls[name] += 1
            return original(self, values)

        monkeypatch.setattr(ChannelGroups, name, counted)
    return calls


def refuse_peeling(monkeypatch) -> None:
    """Make building a peel table, and peeling, raise AssertionError."""

    def refuse(*args, **kwargs):
        raise AssertionError("reached the peel machinery")

    monkeypatch.setattr("rnsbarrett.rns.PeelRows", refuse)
    monkeypatch.setattr("rnsbarrett.rns._peel", refuse)


def check_group_rule(ms, grouping, g_indices, h_indices) -> None:
    """Groups cut each role (g only, h only, both, neither) in ascending
    order, greedily, at most one default word each, and the pass set's
    moduli are their products; ``grouping`` is a Layout or Groups."""
    moduli, members, pass_set = ms.moduli, grouping.members, grouping.pass_set
    in_g, in_h = set(g_indices), set(h_indices)

    def bits(group):
        return sum(moduli[i].bit_length() for i in group)

    assert sorted(chain.from_iterable(members)) == list(range(len(moduli)))
    cuts = {}
    for group in sorted(members):
        roles = {(i in in_g, i in in_h) for i in group}
        assert len(roles) == 1, "a group straddles g or h"
        cuts.setdefault(roles.pop(), []).append(group)
    for role, cut in cuts.items():
        assert list(chain.from_iterable(cut)) == [
            i for i in range(len(moduli)) if (i in in_g, i in in_h) == role
        ]
        for group in cut:
            assert len(group) == 1 or bits(group) <= DEFAULT_WORD_BITS
        for group, after in zip(cut, cut[1:]):
            assert bits(group) + moduli[after[0]].bit_length() > DEFAULT_WORD_BITS
    assert pass_set.moduli == tuple(prod(moduli[i] for i in group) for group in members)
    assert (pass_set is ms) == (len(members) == len(moduli))


def check_rows(moduli, rows: Rows, lane_bits=None) -> None:
    """Each lane and inverse against its definition, and the lane width:
    ``lane_bits``, or for a table built for its own peel, K terms below
    (max modulus - 1)**2 rounded up to whole bytes."""
    peeled = [moduli[k] for k in rows.peel]
    targets = peeled + [moduli[i] for i in rows.rest]
    bound = len(peeled) * (max(moduli) - 1) ** 2
    assert rows.lane_bits == (lane_bits or (bound.bit_length() + 7) // 8 * 8)
    places = [1]
    for p in peeled:
        places.append(places[-1] * p)
    assert rows.lanes == tuple(
        tuple(place % m for m in targets[l + 1:]) for l, place in enumerate(places[:-1])
    )
    assert type(rows.inverse) is tuple
    assert rows.inverse == tuple(
        pow(places[min(j, len(peeled))], -1, m) for j, m in enumerate(targets)
    )


def check_layout(ctx) -> None:
    """The groups follow the group rule, and the stages' tables are the
    ones ``quotient._stage_partitions`` decides, checked lane by lane.

    With g nonempty and disjoint from h, and x the groups in neither, one
    table peels g + x and extends to h, one peels h + x and extends to g,
    and the first columns of each, the same objects, are the other stage's
    divide rows. Otherwise each stage has two tables of its own.
    """
    lay = layout(ctx)
    moduli = lay.pass_set.moduli
    check_group_rule(ctx.mset, lay, ctx.g_indices, ctx.h_indices)
    assert lay.grouped == (lay.pass_set is not ctx.mset)
    assert all(part is None or part.mset is lay.pass_set for part in partitions(ctx))
    assert (lay.g is None) == (ctx.params.g == 1)
    shared = lay.g is not None and not set(lay.g.divisor) & set(lay.h.divisor)
    for stage, other, divisor in ((lay.g, lay.h, ctx.g_indices), (lay.h, lay.g, ctx.h_indices)):
        if stage is None:
            continue
        assert tuple(sorted(channels(ctx, stage.divisor))) == divisor
        rest = tuple(j for j in range(len(moduli)) if j not in stage.divisor)
        assert stage.shares == shared and stage.divide.peel == stage.divisor
        if shared:
            x = tuple(j for j in rest if j not in other.divisor)
            table = other.extend
            assert (table.peel, table.rest) == (stage.divisor + x, other.divisor)
            assert stage.divide.rest == x + other.divisor
            check_rows(moduli, stage.divide, table.lane_bits)
        else:
            assert stage.divide.rest == rest
            assert (stage.extend.peel, stage.extend.rest) == (rest, stage.divisor)
            check_rows(moduli, stage.divide)
        check_rows(moduli, stage.extend)


def garner(rv: ResidueVector) -> tuple[list[int], int]:
    """Mixed-radix digits of the encoded integer x, and x itself.

    Garner's recurrence over the moduli in ascending order: with x_i the
    integer the first i channels encode and P_i the product of their
    moduli, digit d_i = (v_i - x_i) * P_i^-1 mod m_i and x_{i+1} = x_i +
    d_i * P_i. Each x_i is below P_i, so x needs no final reduction.
    """
    digits = []
    x, place = 0, 1
    for v, m in zip(rv.values, rv.mset.moduli):
        d = (v - x) * pow(place, -1, m) % m
        digits.append(d)
        x += d * place
        place *= m
    return digits, x


def to_mixed_radix(rv: ResidueVector) -> tuple[int, ...]:
    """Digits d_i with x = d_0 + d_1 * m_0 + d_2 * m_0 * m_1 + ...

    The moduli are taken in ascending order and each d_i is below m_i.
    """
    return tuple(garner(rv)[0])


def reference_peel(ms, current, peel):
    """One modulus at a time: subtract the digit, multiply by the inverse.

    ``current`` is a length-n list with None on channels already gone; it
    is updated in place like ``peel_division``. Returns the digits.
    """
    moduli = ms.moduli
    digits = []
    for k in peel:
        digit = current[k]
        digits.append(digit)
        current[k] = None
        for i, v in enumerate(current):
            if v is not None:
                current[i] = (v - digit) * pow(moduli[k], -1, moduli[i]) % moduli[i]
    return digits


def reference_quotient(ms, values, divisors) -> dict:
    """Residues of x // prod(divisor moduli) on the other channels."""
    current = list(values)
    reference_peel(ms, current, divisors)
    return {i: v for i, v in enumerate(current) if v is not None}


def reference_extend(ms, known: dict) -> tuple:
    """Residues on every channel of the integer the known channels encode.

    Its mixed-radix digits over the known moduli come from a one-at-a-time
    peel; each unknown channel then evaluates them by Horner's rule.
    """
    moduli = ms.moduli
    peel = sorted(known)
    digits = reference_peel(ms, [known.get(i) for i in range(len(moduli))], peel)
    out = []
    for i, m in enumerate(moduli):
        r = 0
        for d, k in zip(reversed(digits), reversed(peel)):
            r = (r * moduli[k] + d) % m
        out.append(r)
    return tuple(out)


def reference_pass(a: ResidueVector, b: ResidueVector, ctx):
    """Every row of a multiply-reduce pass, from the reference stages."""
    ms = ctx.mset
    moduli = ms.moduli

    def channelwise(op, u, v):
        return tuple(op(s, t) % m for s, t, m in zip(u, v, moduli))

    x = channelwise(int.__mul__, a.values, b.values)
    if ctx.g_indices:
        d_partial = reference_quotient(ms, x, ctx.g_indices)
        d_full = reference_extend(ms, d_partial)
    else:
        d_partial = dict(enumerate(x))
        d_full = x
    e = channelwise(int.__mul__, d_full, ctx.mu_rv.values)
    q_partial = reference_quotient(ms, e, ctx.h_indices)
    q_full = reference_extend(ms, q_partial)
    c = channelwise(int.__sub__, x, channelwise(int.__mul__, q_full, ctx.n_rv.values))
    return x, d_partial, d_full, e, q_partial, q_full, c


def check_pass(ctx, pairs):
    """bmm against scalar modmul, every trace row against the reference."""
    ms = ctx.mset
    for a, b in pairs:
        ea, eb = encode(a, ms), encode(b, ms)
        assert decode_crt(bmm(ea, eb, ctx)) == modmul(a, b, ctx.params)
        tr = trace_bmm(ea, eb, ctx)
        x, d_partial, d_full, e, q_partial, q_full, c = reference_pass(ea, eb, ctx)
        assert tr.x.values == x
        assert tr.d_partial.values == d_partial
        assert tr.d_full.values == d_full
        assert tr.e.values == e
        assert tr.q_partial.values == q_partial
        assert tr.q_full.values == q_full
        assert tr.c.values == c


def operand_pairs(ctx, seed: int, count: int = 25):
    """The largest operands, zero, and ``count`` random pairs below the input bound."""
    rng = random.Random(seed)
    limit = ctx.params.case.input_bound * ctx.params.modulus
    top = limit - 1
    return [(top, top), (top, 0), (0, 0)] + [
        (rng.randrange(limit), rng.randrange(limit)) for _ in range(count)
    ]
