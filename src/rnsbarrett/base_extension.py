"""Extension of residues from a subset of channels to all channels.

When an integer x is smaller than the product P of the moduli on its known
channels, those residues determine it completely, so the missing channels
can be filled in without ever reconstructing x as a big integer.

The trick: seed the unknown channels with arbitrary values (zeros in
production) and peel the known moduli as in the quotient routine. The peel
digits depend only on the known residues and are the mixed-radix digits of
x over the known moduli, so their positional sum is x itself. Whatever
integer x' the seeded vector happened to represent therefore satisfies
x' = q * P + x, where q is the final peeled quotient, whose residue every
unknown channel is left holding. Subtracting q * P channel-wise from the
seed values yields the true residues, and the arbitrary seed cancels
exactly.

The peel runs in Garner form (``rns.PeelRows``): one multiply-add per known
channel on a packed accumulator that holds the pending sums of every later
known channel and every unknown channel, and drops one w-bit lane per
digit. With n-k known channels out of n that is n-k multiply-adds, on
integers shrinking from n-1 lanes to k. Together with the quotient that
produced the known residues, a divide-and-extend stage costs n packed
multiply-adds; its only small arithmetic is one mulmod per channel.
"""

from .errors import EmptyKnownSet
from .rns import PartialResidueVector, PeelRows, ResidueVector, _peel_division


def base_extend(x: PartialResidueVector, *, fill: dict | None = None) -> ResidueVector:
    """Full residue vector agreeing with x on every channel.

    The caller must guarantee that the encoded integer is below the product
    of the known-channel moduli; that bound is not detectable here, and a
    violation silently yields the residues of the value reduced into that
    range. Call sites in this package document why their quotients satisfy
    the bound.

    ``fill`` overrides the seed values on unknown channels and exists so
    tests can demonstrate that the seed does not influence the result; leave
    it alone in production code.
    """
    ms = x.mset
    moduli = ms.moduli
    n = len(moduli)
    values = x.values
    if not values:
        raise EmptyKnownSet("nothing to extend from")
    if len(values) == n:
        return ResidueVector._reduced(tuple(values[i] for i in range(n)), ms)

    rows = x._extend_rows
    if rows is None:
        rows = PeelRows(ms, x.known, [i for i in range(n) if i not in values])
    seeds = [fill[i] for i in rows.rest] if fill is not None else [0] * len(rows.rest)
    out = [values.get(i) for i in range(n)]
    for i, s in zip(rows.rest, seeds):
        out[i] = s
    current = list(out)

    _peel_division(ms, current, rows.peel, rows)

    for i, s, product in zip(rows.rest, seeds, rows.products):
        out[i] = (s - current[i] * product) % moduli[i]
    return ResidueVector._reduced(tuple(out), ms)
