"""Moduli sets, residue vectors, and conversions between integer forms.

An integer in [0, M) is represented by its remainders modulo n pairwise
coprime moduli whose product is M. Addition, subtraction and multiplication
then act channel by channel with no carries between channels. Decoding back
to an ordinary integer sums the remainder theorem's terms with one weight
below its modulus per channel, which each moduli set computes on its first
decode and keeps. Narrow channels can be taken in groups, each with the
product of its members as modulus (``ChannelGroups``); a set's groups,
once a context registers them, also serve its wide encodes.

Moduli must be at least 2 and pairwise coprime; ``select_context`` picks
them just below a power of two, 2**254 by default. Moduli, the product M
and any decoded integer are ordinary Python integers of arbitrary size.
"""

from dataclasses import dataclass, field
from itertools import chain, combinations, islice, repeat
from math import gcd, lcm, prod
from operator import index, itemgetter, mod, mul, sub

from .errors import (
    DuplicateOrNonCoprime,
    EmptyKnownSet,
    ModulusTooSmall,
    OutOfRange,
    SetMismatch,
    int_text,
)

# Operands below _WIDE are encoded one channel at a time even on a set
# with groups: reducing by the group moduli first only breaks even near
# 512 bits, and is slower below.
_WIDE = 1 << 1024


class ModuliSet:
    """An ascending tuple of pairwise coprime moduli and their product.

    Construction validates and multiplies, nothing else. The inverses that
    channel peeling needs depend on which channels are peeled, so they live
    in ``PeelRows``, which each context or ``ModuliPartition`` builds once
    and ad-hoc ``base_extend`` calls build per call.

    Two slots start empty and are filled later: ``_crt_weights`` by the
    first ``decode_crt`` of the set, ``_groups`` by the first context built
    on it whose channels fall into groups; nothing else changes after
    construction. Within the package, a context's pass set is decoded only
    by a checked ``bmm_modexp`` chain, whose first decode fills its
    weights. Instances are safe to share between threads: two
    threads that fill a slot at once leave either value, and any grouping
    of a set gives the same residues.
    """

    __slots__ = ("moduli", "product", "_crt_weights", "_groups")

    def __init__(self, moduli):
        if not moduli:
            raise ModulusTooSmall("a moduli set needs at least one modulus")
        for m in moduli:
            if m < 2:
                raise ModulusTooSmall(f"modulus {int_text(m)} is smaller than 2")
        ordered = tuple(sorted(moduli))
        product = prod(ordered)
        # Pairwise coprime exactly when the lcm is the whole product; the
        # pairwise scan runs only to name the offending pair.
        if lcm(*ordered) != product:
            for a, b in combinations(ordered, 2):
                if gcd(a, b) != 1:
                    raise DuplicateOrNonCoprime(
                        f"moduli {int_text(a)} and {int_text(b)} share a factor"
                    )
        self.moduli = ordered
        self.product = product
        self._crt_weights = None
        self._groups = None

    @classmethod
    def _coprime(cls, ordered: tuple[int, ...], product: int) -> "ModuliSet":
        """Ascending, pairwise coprime moduli and their product; skips validation."""
        ms = object.__new__(cls)
        ms.moduli, ms.product, ms._crt_weights, ms._groups = ordered, product, None, None
        return ms

    def __len__(self) -> int:
        return len(self.moduli)

    def __eq__(self, other) -> bool:
        if not isinstance(other, ModuliSet):
            return NotImplemented
        return self.moduli == other.moduli

    def __hash__(self) -> int:
        return hash(self.moduli)

    def __repr__(self) -> str:
        return f"ModuliSet({list(self.moduli)})"


def _moduli(ms) -> tuple[int, ...]:
    """``ms.moduli``; raises TypeError unless ``ms`` is a ModuliSet."""
    try:
        return ms.moduli
    except AttributeError:
        raise TypeError(f"expected a ModuliSet, not {type(ms).__name__}") from None


def make_moduli_set(moduli) -> ModuliSet:
    """Validate and build a ModuliSet, sorting the moduli ascending."""
    return ModuliSet(moduli)


@dataclass(slots=True, unsafe_hash=True)
class ResidueVector:
    """Channel-wise remainders of one integer, tied to a ModuliSet.

    Nothing assigns to a vector after construction, so it hashes by value.
    """

    values: tuple[int, ...]
    mset: ModuliSet

    def __post_init__(self):
        moduli = _moduli(self.mset)
        self.values = tuple(map(index, self.values))
        if len(self.values) != len(moduli):
            raise ValueError(
                f"expected {len(moduli)} residues, got {len(self.values)}"
            )
        for v, m in zip(self.values, moduli):
            if not 0 <= v < m:
                raise ValueError(f"residue {v} out of range for modulus {m}")

    @classmethod
    def _reduced(cls, values: tuple[int, ...], mset: ModuliSet) -> "ResidueVector":
        """A vector whose values are reduced by construction; skips validation."""
        rv = object.__new__(cls)
        rv.values = values
        rv.mset = mset
        return rv

    def _channelwise(self, op, other: "ResidueVector") -> "ResidueVector":
        # Anything else, a partial vector or an int, raises TypeError.
        if not isinstance(other, ResidueVector):
            return NotImplemented
        mset = self.mset
        if other.mset is not mset and other.mset != mset:
            raise SetMismatch("residue vectors belong to different moduli sets")
        return ResidueVector._reduced(
            tuple(map(mod, map(op, self.values, other.values), mset.moduli)), mset
        )

    def __sub__(self, other: "ResidueVector") -> "ResidueVector":
        return self._channelwise(sub, other)

    def __mul__(self, other: "ResidueVector") -> "ResidueVector":
        return self._channelwise(mul, other)


@dataclass(slots=True)
class PartialResidueVector:
    """Residues known only at a subset of channel positions.

    Positions are 0-based indices into the moduli tuple. This is the output
    shape of the channel-wise quotient, which determines the result only on
    the channels whose moduli were not divided out, and the input shape of
    base extension. Keeping the unknown channels structurally absent (rather
    than filled with stale numbers) prevents them from being read by
    accident.
    """

    values: dict[int, int]
    mset: ModuliSet
    # The rows a quotient hands base extension; see ``_reduced``.
    _extend: "PeelRows | None" = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        self.values = {index(i): index(v) for i, v in dict(self.values).items()}
        if not self.values:
            raise EmptyKnownSet("a partial residue vector needs at least one residue")
        moduli = _moduli(self.mset)
        for i, v in self.values.items():
            if not 0 <= i < len(moduli):
                raise ValueError(f"channel index {i} out of range")
            if not 0 <= v < moduli[i]:
                raise ValueError(f"residue {v} out of range for modulus {moduli[i]}")

    @classmethod
    def _reduced(
        cls, values: dict[int, int], mset: ModuliSet, extend=None
    ) -> "PartialResidueVector":
        """A nonempty vector reduced by construction; skips validation.

        ``extend``, if given, is the ``PeelRows`` that peel the channels
        ``values`` holds and extend to the others.
        """
        prv = object.__new__(cls)
        prv.values = values
        prv.mset = mset
        prv._extend = extend
        return prv


class ChannelGroups:
    """A moduli set's channels taken as groups, and the two residue forms.

    ``channels`` is the channel set and ``pass_set`` the set of the group
    moduli, each the product of its members' moduli; ``members`` holds each
    group's channel indices, in the order of ``pass_set.moduli``.
    ``combine`` turns channel residues into a pass-set vector by the
    remainder theorem, with one weight per channel computed here; ``split``
    turns a pass-set vector back into a channel one. Which channels form a
    group is the rule of ``rns_barrett._group``, beside the context.
    Instances are immutable in use and safe to share between threads.
    """

    __slots__ = ("channels", "pass_set", "members", "_get", "_weights", "_sizes", "_owner")

    def __init__(self, channels: ModuliSet, members):
        moduli = channels.moduli
        by_modulus = sorted((prod(moduli[i] for i in group), tuple(group)) for group in members)
        self.channels = channels
        # Products of disjoint sets of coprime moduli are coprime.
        self.pass_set = ModuliSet._coprime(tuple(p for p, _ in by_modulus), channels.product)
        self.members = tuple(group for _, group in by_modulus)
        self._get = itemgetter(*chain.from_iterable(self.members))
        # Mod P, a value is sum v_i * w_i over its residues v_i mod the
        # members m_i, with w_i = c_i * (c_i^-1 mod m_i) and c_i = P / m_i:
        # 1 for a group of one channel.
        self._weights = tuple(
            p // m * pow(p // m, -1, m)
            for group, p in zip(self.members, self.pass_set.moduli)
            for m in map(moduli.__getitem__, group)
        )
        self._sizes = tuple(map(len, self.members))
        owner = [0] * len(moduli)
        for j, group in enumerate(self.members):
            for i in group:
                owner[i] = j
        self._owner = itemgetter(*owner)

    def combine(self, values) -> ResidueVector:
        """The pass-set vector of ``values``, indexed by channel, each any
        integer congruent to its channel's residue."""
        terms = map(mul, self._get(values), self._weights)
        pass_set = self.pass_set
        return ResidueVector._reduced(
            tuple(sum(islice(terms, size)) % p for size, p in zip(self._sizes, pass_set.moduli)),
            pass_set,
        )

    def split(self, rv: ResidueVector) -> ResidueVector:
        """The channel vector of the pass-set vector ``rv``."""
        channels = self.channels
        return ResidueVector._reduced(
            tuple(map(mod, self._owner(rv.values), channels.moduli)), channels
        )


def encode(x: int, ms: ModuliSet) -> ResidueVector:
    """Residues of x on every channel. Requires an integer 0 <= x < M.

    Reducing x by each modulus walks every word of x once per channel:
    139 channels times 69 30-bit words for a 2048-bit x on 30-bit moduli.
    On a set whose channels a context has grouped (``ModuliSet._groups``),
    an x of at least ``_WIDE`` (2**1024) is instead reduced once per group
    modulus and split into channels, as a grouped pass ends: 19 reductions
    of x at that shape, then 139 of remainders of at most 254 bits. Every
    other encode, including all at the default word size, takes one
    reduction per channel. Raises TypeError for a non-integer x or an
    ``ms`` that is not a ModuliSet.
    """
    x = index(x)
    try:
        if x < 0 or x >= ms.product:
            raise OutOfRange(f"{int_text(x)} is not in [0, {int_text(ms.product)})")
        groups = ms._groups
    except AttributeError:
        raise TypeError(f"encode needs a ModuliSet, not {type(ms).__name__}") from None
    if groups is not None and x >= _WIDE:
        return groups.split(encode(x, groups.pass_set))
    return ResidueVector._reduced(tuple(map(mod, repeat(x), ms.moduli)), ms)


def decode_crt(rv: ResidueVector) -> int:
    """The unique integer in [0, M) with the vector's residues.

    Sums y_i * M / m_i with y_i = v_i * w_i mod m_i, without any stored
    cofactor: the sum is folded over the prefix products of the moduli,
    each step scaling the terms so far by the next modulus and adding the
    new term times the product of the moduli before it. The sum is exact
    and reduced modulo M once at the end. The weights w_i = (M / m_i)^-1
    mod m_i are computed on the set's first decode and kept in it. Raises
    TypeError unless ``rv`` is a ResidueVector.
    """
    if not isinstance(rv, ResidueVector):
        raise TypeError(f"decode_crt needs a ResidueVector, not {type(rv).__name__}")
    ms = rv.mset
    weights = ms._crt_weights
    if weights is None:
        # M / m_i mod m_i is (M mod m_i^2) / m_i: each weight reduces M by
        # a two-channel modulus instead of dividing it by a one-channel one.
        product = ms.product
        weights = ms._crt_weights = tuple(
            pow(product % (m * m) // m, -1, m) for m in ms.moduli
        )
    total, place = 0, 1
    for v, w, m in zip(rv.values, weights, ms.moduli):
        total = total * m + v * w % m * place
        place *= m
    return total % place


class PeelRows:
    """Packed columns for peeling an ordered set of channels.

    ``moduli`` is what the channel indices index, a set's moduli: the
    channels', or a context's pass set of group products
    (``ChannelGroups``). Peeling the moduli p_0, p_1,
    ... (the moduli at ``peel``, in that order) pulls off the mixed-radix
    digits d_0, d_1, ... of the encoded integer x, with place values
    P_0 = 1, P_1 = p_0, P_2 = p_0 * p_1, and so on. Digit j and the residue
    of the final quotient on each ``rest`` channel are both residues of x
    minus its already known digits, divided by a prefix product:

        d_j = (x_j - sum_{l<j} d_l * P_l) * P_j^-1       mod p_j
        q_i = (x_i - sum_{l<K} d_l * P_l) * P_K^-1       mod m_i

    ``columns`` holds one packed integer per peeled l, whose lanes
    (``width`` bits each, lowest first) are P_l mod p_j for each j > l in
    peel order, then P_l mod m_i for each rest channel. Each term of a lane
    sum is below (max modulus - 1)**2, so with ``width`` the bit length of
    K times that bound, rounded up to whole bytes, no lane sum carries into
    the next. ``inverses`` is a tuple of P_j^-1 mod p_j, then P_K^-1 mod
    m_i. A peel costs one packed multiply-add per peeled channel, whatever
    its width, so a pass pays per digit: a pass set of groups of narrow
    channels takes a fraction of the steps of the channels.

    Column l's lanes do not depend on which of the later channels are
    peeled, so the first k columns of these rows are also the columns of
    rows that peel only ``peel[:k]`` and keep the others, in the same
    order, ahead of ``rest``; ``head`` builds those rows over the same
    integers. Instances are immutable in use and safe to share between
    threads.
    """

    __slots__ = ("peel", "rest", "columns", "width", "inverses")

    def __init__(self, moduli, peel, rest):
        self.peel = tuple(peel)
        self.rest = tuple(rest)
        peeled = [moduli[k] for k in self.peel]
        # The largest modulus bounds every entry; ``moduli`` need not be
        # ascending.
        size = ((len(peeled) * (max(moduli) - 1) ** 2).bit_length() + 7) // 8
        self.width = 8 * size
        # ``lanes`` holds P_l mod each channel not yet peeled, the one about
        # to be peeled first; one map per peeled modulus steps l. Every
        # column's lanes go into one flat list, packed in one pass.
        targets = peeled + [moduli[i] for i in self.rest]
        lanes = [1] * len(targets)
        flat, inverses, ends = [], [], []
        for q in peeled:
            inverses.append(pow(lanes[0], -1, q))
            del lanes[0], targets[0]
            flat += lanes
            ends.append(len(flat) * size)
            lanes = list(map(mod, map(mul, lanes, repeat(q)), targets))
        packed = memoryview(
            b"".join(map(int.to_bytes, flat, repeat(size), repeat("little")))
        )
        self.columns = tuple(
            int.from_bytes(packed[start:end], "little")
            for start, end in zip([0, *ends], ends)
        )
        inverses.extend(map(pow, lanes, repeat(-1), targets))
        self.inverses = tuple(inverses)

    def head(self, moduli, k: int) -> "PeelRows":
        """Rows that peel ``peel[:k]``, keeping ``peel[k:] + rest``.

        ``moduli`` is the sequence these rows were built over. The columns
        are this table's first k, the same integer objects, and the width
        is this table's, which may be a byte wider than rows built for k
        channels need. The first k inverses are this table's too; only the
        rest inverses P_k^-1 mod m_i are computed here.
        On the channels of ``peel[k:]`` each is a modular inverse. On this
        table's rest channels it is the stored P_K^-1 times the tail
        product of ``peel[k:]``, since P_K is P_k times that tail.
        """
        rows = object.__new__(PeelRows)
        rows.peel = self.peel[:k]
        rows.rest = self.peel[k:] + self.rest
        rows.columns = self.columns[:k]
        rows.width = self.width
        kept = [moduli[i] for i in self.peel[k:]]
        place = prod(moduli[i] for i in rows.peel)
        tail = prod(kept)
        rest = [moduli[i] for i in self.rest]
        rows.inverses = (
            *self.inverses[:k],
            *map(pow, repeat(place), repeat(-1), kept),
            *(
                inverse * (tail % t) % t
                for inverse, t in zip(self.inverses[len(self.peel):], rest)
            ),
        )
        return rows


def _peel(rows: PeelRows, moduli, values, divide=True) -> list[int]:
    """Peel ``rows.peel`` in one pass of the packed accumulator.

    ``values[k]`` is the residue on channel k, or any integer congruent to
    it, for every peeled channel and, when ``divide`` is true, every rest
    channel (a tuple, list or dict keyed by channel index). Each digit is read off the accumulator's lowest
    lane, which holds the sum that digit subtracts; the accumulator then
    drops that lane and adds digit times column. The digits are not kept:
    after the K-th one the accumulator holds the sum S_i = sum_l d_l * P_l
    on every rest channel. Returns one value per rest channel, in rest
    order:

    - if ``divide``, the quotient residue (values[i] - S_i) * P_K^-1 mod m_i;
    - otherwise S_i mod m_i. The digits' positional sum is the integer the
      peeled residues encode (taken below their product), so these are its
      residues on the rest channels: its base extension.

    This is the package's only peel loop; the two stages and ad-hoc
    ``base_extend`` calls run through it.
    """
    width = rows.width
    mask = (1 << width) - 1
    inverses = iter(rows.inverses)
    acc = 0
    # The K-long columns go first, so zip stops without taking a rest inverse.
    for column, k, inverse in zip(rows.columns, rows.peel, inverses):
        acc = (acc >> width) + (values[k] - (acc & mask)) * inverse % moduli[k] * column
    lanes = range(0, width * len(rows.rest), width)
    if divide:
        return [
            (values[i] - (acc >> shift & mask)) * inverse % moduli[i]
            for i, shift, inverse in zip(rows.rest, lanes, inverses)
        ]
    return [(acc >> shift & mask) % moduli[i] for i, shift in zip(rows.rest, lanes)]
