"""Exact quotients by moduli subproducts, computed entirely channel-wise.

Floor-dividing by a product of moduli is the same as floor-dividing by each
of them in turn. Peeling the divisor moduli pulls off the mixed-radix
digits of the dividend over them, and the quotient on each surviving
channel is the dividend minus those digits' positional sum, times the
inverse of the divisor product. In Garner form all those sums run in one
packed accumulator (``rns._peel``, the package's one peel loop) fed by
columns of prefix products that the partition precomputes. Peeling k
divisor moduli out of n costs k multiply-adds on an integer that shrinks
by one w-bit lane per digit, from n-1 lanes to n-k (see ``rns.PeelRows``
for w), then one small multiply-add per surviving modulus. The result is
known only on the surviving channels; that is still a complete
description, since the quotient is smaller than the product of the
surviving moduli.

A ``ModuliPartition`` peels the moduli of its set, one per digit. A
context's stages are built over its pass set (``rns_barrett``), whose
moduli may be groups of narrow channels, so there a digit peels a group.

A stage is one pass over plain sequences: the peel indexes the dividend's
residues directly, and the result carries the partition's extension rows,
so the base extension that follows builds no rows.

Which tables a context's two stages use is decided in one place,
``_stage_partitions``: a context whose g is nonempty and disjoint from h
shares two tables between its stages, not four.
"""

from dataclasses import dataclass, field

from .errors import SetMismatch
from .rns import ModuliSet, PartialResidueVector, PeelRows, ResidueVector, _moduli, _peel


def _sorted_indices(n: int, indices, name: str) -> tuple[int, ...]:
    """``indices`` ascending; raises ValueError on a repeat or one outside 0..n-1."""
    idx = tuple(sorted(indices))
    if len(set(idx)) != len(idx):
        raise ValueError(f"duplicate index in {name}")
    if idx and (idx[0] < 0 or idx[-1] >= n):
        raise ValueError(f"{name} out of range 0..{n - 1}")
    return idx


def _split(mset: ModuliSet, divisor_indices) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Sorted divisor indices and the ascending rest; raises ValueError,
    and TypeError unless ``mset`` is a ModuliSet."""
    n = len(_moduli(mset))
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
    happens in ascending index order, one modulus of the set per digit (the
    result does not depend on the order).

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

    def __post_init__(self):
        idx, remaining = _split(self.mset, self.divisor_indices)
        self.divisor_indices = idx
        moduli = self.mset.moduli
        self.divide_rows = PeelRows(moduli, idx, remaining)
        self.extend_rows = PeelRows(moduli, remaining, idx)


def _stage_partitions(
    mset: ModuliSet, g_indices, h_indices
) -> tuple[ModuliPartition | None, ModuliPartition]:
    """The g- and h-stage partitions of one pass set; None for g = 1.

    With g nonempty and disjoint from h, and x the moduli in neither, the
    table that peels g + x and extends to h is the h-stage's extension,
    and its head of g's moduli is the g-stage's divide rows; the table
    that peels h + x and extends to g serves the other way round.
    Otherwise each partition builds its own two tables.
    """
    if not g_indices or not set(g_indices).isdisjoint(h_indices):
        g_part = ModuliPartition(mset, g_indices) if g_indices else None
        return g_part, ModuliPartition(mset, h_indices)
    g, g_rest = _split(mset, g_indices)
    h = _split(mset, h_indices)[0]
    in_h = set(h)
    x = tuple(i for i in g_rest if i not in in_h)
    moduli = mset.moduli
    extend_h = PeelRows(moduli, g + x, h)
    extend_g = PeelRows(moduli, h + x, g)

    def stage(idx, divide_from, extend_rows):
        part = object.__new__(ModuliPartition)
        part.mset = mset
        part.divisor_indices = idx
        part.divide_rows = divide_from.head(moduli, len(idx))
        part.extend_rows = extend_rows
        return part

    return stage(g, extend_h, extend_g), stage(h, extend_g, extend_h)


def quotient_by_moduli_product(
    x: ResidueVector, part: ModuliPartition
) -> PartialResidueVector:
    """Residues of x // P on the surviving channels, P the divisor moduli's product.

    The quotient is exact floor division of the encoded integer, and since
    it is below the product of the surviving moduli the returned partial
    vector determines it uniquely. Divisor-channel residues are consumed by
    the peeling and are deliberately absent from the result, which carries
    the partition's ``extend_rows`` so that ``base_extend`` builds no rows.
    Raises TypeError unless x is a ResidueVector.
    """
    if not isinstance(x, ResidueVector):
        raise TypeError(
            f"quotient_by_moduli_product needs a ResidueVector, not {type(x).__name__}"
        )
    mset = part.mset
    if x.mset is not mset and x.mset != mset:
        raise SetMismatch("partition and vector use different moduli sets")
    rows = part.divide_rows
    values = dict(zip(rows.rest, _peel(rows, mset.moduli, x.values)))
    return PartialResidueVector._reduced(values, mset, part.extend_rows)
