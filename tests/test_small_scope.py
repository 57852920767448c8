"""Every valid context over small moduli, checked on every product.

The small-scope hypothesis (D. Jackson, *Software Abstractions*, 2006):
most faults show on some small instance, so check all small instances
instead of a sample of large ones. The universe is every pairwise coprime
set of two or more moduli from ``POOL`` whose product M is at most
``SCALE`` times the case's capacity factor c, every g and h over it (g may
be 1 and may overlap h; h leaves a channel), and every modulus n that the
case's three conditions accept. Scaling the bound by c gives every case
contexts of each shape; a context whose n + 1 fails the capacity condition
is one with minimal capacity margin.

A pass reads its operands only through their product x = a*b, so one pair
per distinct product covers every operand pair in [0, input_bound*n)^2.
Each pass is checked against exact integers, through ``trace_bmm``:

- c is ``barrett.modmul``'s result;
- the quotient q undershoots x // n by at most the case's slack;
- x, d_full, e and q_full decode to x, d = x // g, e = d * mu and
  q = e // h, so none of them wrapped past M;
- d and q are below the product of the moduli they are extended from.
"""

import itertools
from functools import cache
from math import gcd, isqrt, prod

from rnsbarrett import (
    RangeCase,
    decode_crt,
    encode,
    make_context,
    make_moduli_set,
    modmul,
    trace_bmm,
)

POOL = (2, 3, 4, 5, 7, 9, 11, 13)
SCALE = 600


def moduli_sets(limit: int):
    """Pairwise coprime sets of two or more moduli from POOL with product <= limit."""
    for size in range(2, len(POOL) + 1):
        for moduli in itertools.combinations(POOL, size):
            if prod(moduli) <= limit and all(
                gcd(a, b) == 1 for a, b in itertools.combinations(moduli, 2)
            ):
                yield make_moduli_set(moduli)


def valid_contexts():
    """(case, moduli set, g indices, h indices, n) for every valid context."""
    for case in RangeCase:
        for ms in moduli_sets(SCALE * case.capacity_factor):
            n = len(ms.moduli)
            # g = M would need c*h*n < M < n; h must leave a channel.
            subsets = [s for k in range(n) for s in itertools.combinations(range(n), k)]
            for g_idx in subsets:
                g = prod(ms.moduli[i] for i in g_idx)
                for h_idx in subsets[1:]:
                    h = prod(ms.moduli[i] for i in h_idx)
                    for modulus in range(2, isqrt(g * h) + 1):
                        if (
                            case.divisor_holds(modulus, g)
                            and case.product_holds(g * h, case.product_floor(modulus))
                            and case.capacity_holds(
                                case.capacity_bound(modulus, h), ms.product
                            )
                        ):
                            yield case, ms, g_idx, h_idx, modulus


@cache
def one_pair_per_product(limit: int) -> tuple[tuple[int, int], ...]:
    """One operand pair in [0, limit)^2 for each distinct product."""
    pairs = {}
    for a in range(limit):
        for b in range(a, limit):
            pairs.setdefault(a * b, (a, b))
    return tuple(pairs.values())


def test_every_small_context_keeps_the_pass_invariants():
    shapes, minimal_margin = set(), set()
    contexts = checked = 0
    for case, ms, g_idx, h_idx, modulus in valid_contexts():
        ctx = make_context(ms, modulus, g_idx, h_idx, case)
        p = ctx.params
        contexts += 1
        shape = "g=1" if not g_idx else "overlap" if set(g_idx) & set(h_idx) else "disjoint"
        shapes.add((case, shape))
        if not case.capacity_holds(case.capacity_bound(modulus + 1, p.h), ms.product):
            minimal_margin.add(case)
        for a, b in one_pair_per_product(p.input_limit):
            x = a * b
            tr = trace_bmm(encode(a, ms), encode(b, ms), ctx)
            d = x // p.g
            e = d * p.mu
            q = e // p.h
            assert decode_crt(tr.c) == modmul(a, b, p) == x - q * modulus
            assert 0 <= x // modulus - q <= case.quotient_slack
            assert decode_crt(tr.x) == x
            assert decode_crt(tr.d_full) == d
            assert decode_crt(tr.e) == e
            assert decode_crt(tr.q_full) == q
            if g_idx:
                assert d < prod(ms.moduli[i] for i in tr.d_partial.values)
            assert q < prod(ms.moduli[i] for i in tr.q_partial.values)
            checked += 1
    assert shapes == {(c, s) for c in RangeCase for s in ("g=1", "overlap", "disjoint")}
    assert minimal_margin == set(RangeCase)
    assert (contexts, checked) == (2377, 37703)
