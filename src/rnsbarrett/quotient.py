"""Exact quotients by moduli subproducts, computed entirely channel-wise.

Floor-dividing by a product of moduli is the same as floor-dividing by each
of them in turn. Peeling the divisor moduli pulls off the mixed-radix
digits of the dividend over them, and the quotient on each surviving
channel is the dividend minus those digits' positional sum, times the
inverse of the divisor product. In Garner form all those sums run in one
packed accumulator (``rns._peel``, the package's one peel loop) fed by
columns of prefix products that the partition precomputes. Neither the
quotient nor base extension depends on how a product is factored, so a
stage peels groups of channels (``ChannelGroups``) as single digits: k
divisor groups out of n cost k multiply-adds on an integer that shrinks by
one w-bit lane per digit, from n-1 lanes to n-k (see ``rns.PeelRows`` for
w), then one small multiply-add per surviving group. At the default word
size a group is one channel; at 30-bit words a 2048-bit pass peels 38
digits instead of 278. The result is known only on the surviving
channels; that is still a complete description, since the quotient is
smaller than the product of the surviving moduli.

A stage is one pass over plain sequences: the peel indexes the dividend's
residues directly, and the result carries the partition's extension rows
and its group residues, so the base extension that follows builds no rows
and combines nothing.

Which tables a context's two stages use is decided in one place,
``_stage_partitions``: a context whose g is nonempty and disjoint from h
shares two tables between its stages, not four.
"""

from dataclasses import dataclass, field
from itertools import chain, islice
from math import prod
from operator import itemgetter, mul

from .errors import SetMismatch
from .rns import (
    ModuliSet,
    PartialResidueVector,
    PeelRows,
    ResidueVector,
    _peel,
)

# The default word size of ``selection``, and the most bits of moduli a peel
# group holds, so at the default every group is one channel.
DEFAULT_WORD_BITS = 254


class ChannelGroups:
    """Channels peeled as groups, one digit per group.

    ``members`` holds each group's channel indices and ``moduli`` its
    modulus, the product of its members' moduli; both are indexed by group.
    ``combine`` turns channel residues into group residues by the remainder
    theorem, with one weight per channel computed here, and ``split`` turns
    group residues back into channel ones.
    Instances are immutable in use and safe to share between threads.
    """

    __slots__ = ("members", "moduli", "_channel_moduli", "_get", "_weights", "_sizes")

    def __init__(self, channel_moduli, members):
        self.members = tuple(map(tuple, members))
        self.moduli = tuple(prod(channel_moduli[i] for i in g) for g in self.members)
        self._channel_moduli = channel_moduli
        self._get = itemgetter(*chain.from_iterable(self.members))
        # Mod P, a value is sum v_i * w_i over its residues v_i mod the
        # members m_i, with w_i = c_i * (c_i^-1 mod m_i) and c_i = P / m_i:
        # 1 for a group of one channel.
        self._weights = tuple(
            p // m * pow(p // m, -1, m)
            for group, p in zip(self.members, self.moduli)
            for m in map(channel_moduli.__getitem__, group)
        )
        self._sizes = tuple(map(len, self.members))

    def combine(self, values) -> list[int]:
        """Values congruent to the group residues of the channel ``values``.

        Indexed by group. A group's sum is not reduced by its modulus:
        ``rns._peel`` reduces every value it reads.
        """
        terms = map(mul, self._get(values), self._weights)
        return [sum(islice(terms, size)) for size in self._sizes]

    def split(self, pairs) -> dict[int, int]:
        """Residues keyed by channel, of every member of each ``(group, residue)``."""
        moduli, members = self._channel_moduli, self.members
        return {i: r % moduli[i] for j, r in pairs for i in members[j]}


def _group(mset: ModuliSet, roles):
    """The moduli peel tables index, each role's indices into them, the groups.

    Within each role (channel indices in peel order) a group takes the next
    channel while its members' bit lengths sum to at most
    ``DEFAULT_WORD_BITS``, so a channel at least that wide is a group of
    its own. When every group is one channel the groups are None and the
    tables index the set's own moduli by channel.
    """
    moduli = mset.moduli
    members, ids = [], []
    for role in roles:
        first = len(members)
        width = DEFAULT_WORD_BITS  # each role starts a group
        for i in role:
            bits = moduli[i].bit_length()
            if width + bits > DEFAULT_WORD_BITS:
                members.append([])
                width = 0
            members[-1].append(i)
            width += bits
        ids.append(tuple(range(first, len(members))))
    if len(members) == sum(map(len, roles)):
        return moduli, tuple(map(tuple, roles)), None
    groups = ChannelGroups(moduli, members)
    return groups.moduli, tuple(ids), groups


def _sorted_indices(n: int, indices, name: str) -> tuple[int, ...]:
    """``indices`` ascending; raises ValueError on a repeat or one outside 0..n-1."""
    idx = tuple(sorted(indices))
    if len(set(idx)) != len(idx):
        raise ValueError(f"duplicate index in {name}")
    if idx and (idx[0] < 0 or idx[-1] >= n):
        raise ValueError(f"{name} out of range 0..{n - 1}")
    return idx


def _split(mset: ModuliSet, divisor_indices) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Sorted divisor indices and the ascending rest; raises ValueError."""
    n = len(mset.moduli)
    idx = _sorted_indices(n, divisor_indices, "divisor indices")
    if not idx:
        raise ValueError("divisor index set is empty")
    if len(idx) == n:
        raise ValueError("divisor set must leave at least one channel")
    divisors = set(idx)
    return idx, tuple(i for i in range(n) if i not in divisors)


@dataclass(slots=True, unsafe_hash=True)
class ModuliPartition:
    """Split of a moduli set into divisor channels and surviving channels.

    The divisor indices select the moduli whose product is divided out; they
    may be any nonempty proper subset, not necessarily a prefix. Peeling
    happens in ascending index order, the divisor and the surviving
    channels each cut into ``groups``, or one channel at a time when that
    is None (the result does not depend on the order or the grouping).

    A pass reads two ``PeelRows``: ``divide_rows`` peel the divisor
    channels and update the surviving ones (the quotient), and
    ``extend_rows`` peel the surviving channels and update the divisor ones
    (the base extension of that quotient). Construction builds both tables,
    with the surviving channels ascending in both.
    A context with disjoint g and h builds its two partitions over two
    shared tables instead (``_stage_partitions``); there the surviving
    channels come in another order. Nothing assigns to a partition once it
    is built.
    """

    mset: ModuliSet
    divisor_indices: tuple[int, ...]
    divide_rows: PeelRows = field(init=False, repr=False, compare=False)
    extend_rows: PeelRows = field(init=False, repr=False, compare=False)
    groups: ChannelGroups | None = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        idx, remaining = _split(self.mset, self.divisor_indices)
        self.divisor_indices = idx
        moduli, (divisors, rest), self.groups = _group(self.mset, (idx, remaining))
        self.divide_rows = PeelRows(moduli, divisors, rest)
        self.extend_rows = PeelRows(moduli, rest, divisors)


def _stage_partitions(
    mset: ModuliSet, g_indices, h_indices
) -> tuple[ModuliPartition | None, ModuliPartition]:
    """The g- and h-stage partitions of one context; None for g = 1.

    With g nonempty and disjoint from h, and x the channels in neither,
    the table that peels g + x and extends to h is the h-stage's
    extension, and its head of g's groups is the g-stage's divide rows;
    the table that peels h + x and extends to g serves the other way
    round. Both stages peel the same groups of g, h and x. Otherwise each
    partition builds its own two tables.
    """
    if not g_indices or not set(g_indices).isdisjoint(h_indices):
        g_part = ModuliPartition(mset, g_indices) if g_indices else None
        return g_part, ModuliPartition(mset, h_indices)
    g, g_rest = _split(mset, g_indices)
    h = _split(mset, h_indices)[0]
    in_h = set(h)
    x = tuple(i for i in g_rest if i not in in_h)
    moduli, (g_ids, h_ids, x_ids), groups = _group(mset, (g, h, x))
    extend_h = PeelRows(moduli, g_ids + x_ids, h_ids)
    extend_g = PeelRows(moduli, h_ids + x_ids, g_ids)

    def stage(idx, ids, divide_from, extend_rows):
        part = object.__new__(ModuliPartition)
        part.mset = mset
        part.divisor_indices = idx
        part.divide_rows = divide_from.head(moduli, len(ids))
        part.extend_rows = extend_rows
        part.groups = groups
        return part

    return stage(g, g_ids, extend_h, extend_g), stage(h, h_ids, extend_g, extend_h)


def quotient_by_moduli_product(
    x: ResidueVector, part: ModuliPartition
) -> PartialResidueVector:
    """Residues of x // P on the surviving channels, P the divisor moduli's product.

    The quotient is exact floor division of the encoded integer, and since
    it is below the product of the surviving moduli the returned partial
    vector determines it uniquely. Divisor-channel residues are consumed by
    the peeling and are deliberately absent from the result, which carries
    the partition's ``extend_rows`` and group residues so that
    ``base_extend`` builds no rows.
    """
    mset = part.mset
    if x.mset is not mset and x.mset != mset:
        raise SetMismatch("partition and vector use different moduli sets")
    rows = part.divide_rows
    groups = part.groups
    if groups is None:
        values = dict(zip(rows.rest, _peel(rows, mset.moduli, x.values)))
        return PartialResidueVector._reduced(
            values, mset, (part.extend_rows, None, values)
        )
    known = dict(zip(rows.rest, _peel(rows, groups.moduli, groups.combine(x.values))))
    return PartialResidueVector._reduced(
        groups.split(known.items()), mset, (part.extend_rows, groups, known)
    )
