"""Shared generators and reference computations for the test suite."""

import random
from math import gcd, prod

from rnsbarrett import (
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
from rnsbarrett.rns import PeelRows, _peel

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
    """``make_context`` over g + h + x, with g and h given by their moduli."""
    ms = make_moduli_set(g_moduli + h_moduli + x_moduli)
    where = {m: i for i, m in enumerate(ms.moduli)}
    return make_context(
        ms,
        modulus,
        sorted(where[m] for m in g_moduli),
        sorted(where[m] for m in h_moduli),
        case,
    )


def peel_division(ms, current, peel) -> None:
    """Divide out the listed moduli in place, through ``rns._peel``.

    ``current`` is a mutable length-n list of residues; None marks channels
    that are already gone. Peeled entries become None and surviving entries
    the residues of the quotient by the peeled moduli, which those channels
    alone determine.
    """
    peel = tuple(peel)
    rest = [i for i, v in enumerate(current) if v is not None and i not in peel]
    values = _peel(PeelRows(ms.moduli, peel, rest), ms.moduli, current)
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
    rows = PeelRows(moduli, sorted(values), rest)
    quotient = _peel(rows, moduli, {**values, **fill})
    place = prod(moduli[k] for k in rows.peel)
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
    if ctx._groups is None:
        return tuple(ids)
    return tuple(i for j in ids for i in ctx._groups.members[j])


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
