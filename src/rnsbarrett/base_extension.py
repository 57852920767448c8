"""Extension of residues from a subset of channels to all channels.

When an integer x is smaller than the product P of the moduli on its known
channels, those residues determine it completely, so the missing channels
can be filled in without ever reconstructing x as a big integer.

The trick: seed each unknown channel i with an arbitrary value s and peel
the known moduli as in the quotient routine. The peel digits depend only
on the known residues and are the mixed-radix digits of x over the known
moduli, so their positional sum S is x itself. The peel leaves channel i
holding the final quotient q = (s - S) * P^-1 mod m_i, and subtracting
q * P from the seed gives

    s - ((s - S) * P^-1 mod m_i) * P  ==  s - (s - S)  ==  S  (mod m_i),

the true residue x mod m_i, whatever s was: the seed cancels exactly.

With a zero seed the whole seed-and-subtract step collapses to S mod m_i,
and S on channel i is exactly the lane sum sum_l d_l * (P_l mod m_i) that
the peel's packed accumulator already holds. So extension reads the
unknown channels' lane sums after the last digit and reduces each once,
with no seed, no quotient and no multiply by P. The seeded arithmetic
lives in the tests (``helpers.seeded_extend``), which show that the seed
does not matter.

The peel runs in Garner form (``rns.PeelRows``): one multiply-add per
known modulus on a packed accumulator that holds the pending sums of every
later known modulus and every unknown one, and drops one w-bit lane per
digit. With n-k known moduli out of n that is n-k multiply-adds, on
integers shrinking from n-1 lanes to k. Each residue is then written at its
channel index. Together with its quotient, a stage costs n packed
multiply-adds and one small step per modulus. A context's pass hands this
stage vectors over its pass set (``rns.ChannelGroups``), so at narrow
word sizes a modulus is a group of channels and n counts groups.
"""

from .errors import EmptyKnownSet
from .rns import PartialResidueVector, PeelRows, ResidueVector, _peel


def base_extend(x: PartialResidueVector) -> ResidueVector:
    """Full residue vector agreeing with x on every channel.

    The caller must guarantee that the encoded integer is below the product
    of the known-channel moduli; that bound is not detectable here, and a
    violation silently yields the residues of the value reduced into that
    range. Call sites in this package document why their quotients satisfy
    the bound. Raises TypeError unless x is a PartialResidueVector.
    """
    try:
        rows = x._extend
    except AttributeError:
        raise TypeError(
            f"base_extend needs a PartialResidueVector, not {type(x).__name__}"
        ) from None
    ms = x.mset
    moduli = ms.moduli
    n = len(moduli)
    values = x.values
    if not values:
        raise EmptyKnownSet("nothing to extend from")
    if rows is None:
        rows = PeelRows(moduli, tuple(values), [i for i in range(n) if i not in values])
    full = [0] * n
    for i, v in values.items():
        full[i] = v
    for i, v in zip(rows.rest, _peel(rows, moduli, values, divide=False)):
        full[i] = v
    return ResidueVector._reduced(tuple(full), ms)
