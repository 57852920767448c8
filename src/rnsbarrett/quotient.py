"""Exact quotients by moduli subproducts, computed entirely channel-wise.

Floor-dividing by a product of moduli is the same as floor-dividing by each
of them in turn. Peeling the divisor moduli pulls off the mixed-radix
digits of the dividend over them, and the quotient on each surviving
channel is the dividend minus those digits' positional sum, times the
inverse of the divisor product. In Garner form all those sums run in one
packed accumulator (``rns._peel``, the package's one peel loop) fed by
columns of prefix products that the partition precomputes: k
multiply-adds for k divisor channels out of n, on an integer that shrinks
by one w-bit lane per digit, from n-1 lanes to n-k (see ``rns.PeelRows``
for the lane width w), then one small multiply-add per surviving channel.
The result is known only on the surviving channels; that is still a
complete description, since the quotient is smaller than the product of
the surviving moduli.

A stage is one pass over plain sequences: the peel indexes the dividend's
residue tuple directly, and the quotient's residues come out as a list in
ascending channel order, which is the peel order of the partition's
extension rows. The result carries that list and those rows, so the base
extension that follows neither builds rows nor rearranges residues.
"""

from dataclasses import dataclass, field
from math import prod

from .errors import PartitionMismatch
from .rns import (
    ModuliSet,
    PartialResidueVector,
    PeelRows,
    ResidueVector,
    _peel,
)


@dataclass(frozen=True)
class ModuliPartition:
    """Split of a moduli set into divisor channels and surviving channels.

    The divisor indices select the moduli whose product is divided out; they
    may be any nonempty proper subset, not necessarily a prefix. Peeling
    happens in ascending index order (the result does not depend on the
    order).

    Construction builds the two ``PeelRows`` every pass reads:
    ``divide_rows`` peel the divisor channels and update the surviving ones
    (the quotient), and ``extend_rows`` peel the surviving channels and
    update the divisor ones (the base extension of that quotient), whose
    ``order`` puts the extension's output back in channel order.
    """

    mset: ModuliSet
    divisor_indices: tuple[int, ...]
    remaining_indices: tuple[int, ...] = field(init=False)
    divisor_product: int = field(init=False)
    remaining_product: int = field(init=False)
    divide_rows: PeelRows = field(init=False, repr=False, compare=False)
    extend_rows: PeelRows = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        n = len(self.mset.moduli)
        idx = tuple(sorted(self.divisor_indices))
        if len(set(idx)) != len(idx):
            raise ValueError("duplicate divisor index")
        if not idx:
            raise ValueError("divisor index set is empty")
        if idx[0] < 0 or idx[-1] >= n:
            raise ValueError(f"divisor index out of range 0..{n - 1}")
        if len(idx) == n:
            raise ValueError("divisor set must leave at least one channel")
        divisors = set(idx)
        remaining = tuple(i for i in range(n) if i not in divisors)
        object.__setattr__(self, "divisor_indices", idx)
        object.__setattr__(self, "remaining_indices", remaining)
        object.__setattr__(
            self, "divisor_product", prod(self.mset.moduli[i] for i in idx)
        )
        object.__setattr__(
            self, "remaining_product", self.mset.product // self.divisor_product
        )
        object.__setattr__(self, "divide_rows", PeelRows(self.mset, idx, remaining))
        object.__setattr__(self, "extend_rows", PeelRows(self.mset, remaining, idx))


def quotient_by_moduli_product(
    x: ResidueVector, part: ModuliPartition
) -> PartialResidueVector:
    """Residues of x // divisor_product on the surviving channels.

    The quotient is exact floor division of the encoded integer, and since
    it is below ``remaining_product`` the returned partial vector determines
    it uniquely. Divisor-channel residues are consumed by the peeling and
    are deliberately absent from the result, which carries the partition's
    ``extend_rows`` and its own residues as a list in their peel order, so
    that ``base_extend`` builds and rearranges nothing.
    """
    mset = part.mset
    if x.mset is not mset and x.mset != mset:
        raise PartitionMismatch("partition and vector use different moduli sets")
    rows = part.divide_rows
    quotient = _peel(rows, mset.moduli, x.values)[1]
    return PartialResidueVector._reduced(
        dict(zip(rows.rest, quotient)), mset, part.extend_rows, quotient
    )
