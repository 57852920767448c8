"""Deterministic construction of a working moduli set for a given modulus.

The conditions leave wide freedom, so this module just has to find one
valid configuration, not a good one. Strategy: walk candidate moduli
downward from 2**word_bits - 1, keeping only values coprime to everything
chosen so far. First grow g as large as its case bound allows, then grow h
until g*h clears the product bound, then append further moduli until the
capacity condition holds. The result is revalidated by ``make_context``,
so a bug here cannot hand out an unsound context.

Coprimality is one gcd against the running product of the chosen moduli,
thousands of bits at large moduli. Most rejected candidates share a prime
below 256 with a chosen modulus, so the walk first takes a gcd against the
product of just those primes (at most 335 bits) and runs the long gcd only
on the candidates that pass. A hit of the short gcd is a true common
factor, so the walk picks exactly the moduli the long gcd alone would.
"""

from math import gcd

from .barrett import RangeCase
from .errors import ConditionViolation, SelectionFailed
from .rns import make_moduli_set
from .rns_barrett import DEFAULT_WORD_BITS, RnsBarrettContext, make_context

# Largest moduli set a search may build before giving up.
MAX_MODULI = 512

# The largest word size a search accepts. A pass is fastest around the
# default, DEFAULT_WORD_BITS, and the range conditions do not depend on the
# channel width.
MAX_WORD_BITS = 1024


def _primorial(limit: int) -> int:
    """The product of the primes below ``limit``."""
    product = 1
    for n in range(2, limit):
        if gcd(n, product) == 1:  # no smaller prime divides n
            product *= n
    return product


# The primes below 256, whose product has 335 bits.
_SMALL_PRIMES = _primorial(256)


def _next_coprime(candidate: int, product: int, small: int) -> int:
    """The largest integer up to ``candidate`` coprime to ``product``.

    ``small`` is the product of the primes in ``_SMALL_PRIMES`` that divide
    ``product``. A candidate sharing one of them is rejected by a short gcd
    against ``small``; only the others take the long gcd against
    ``product``. Returns 1 (or less) when no candidate of at least 2 is left.
    """
    while gcd(candidate, small) != 1 or gcd(candidate, product) != 1:
        candidate -= 1
    return candidate


def select_context(
    modulus: int, case=RangeCase.CASE1, word_bits: int = DEFAULT_WORD_BITS
) -> RnsBarrettContext:
    """Pick moduli near 2**word_bits and divisor index sets for the modulus.

    Deterministic: the same arguments always yield the same context.
    ``word_bits`` must be in [4, ``MAX_WORD_BITS``]. Raises SelectionFailed
    when no admissible g exists (N = 2 in cases 3 and 4), or when the
    candidate pool or the budget of ``MAX_MODULI`` moduli runs out, which
    at the default word size takes a modulus of tens of thousands of bits.
    """
    case = RangeCase(case)
    if modulus < 2:
        raise ValueError(f"modulus must be at least 2, got {modulus}")
    if not 4 <= word_bits <= MAX_WORD_BITS:
        raise ValueError(
            f"word_bits must be in [4, {MAX_WORD_BITS}], got {word_bits}"
        )

    top = (1 << word_bits) - 1

    g_cap = case.max_g(modulus)
    if g_cap < 1:
        raise SelectionFailed(
            f"no admissible g exists for modulus {modulus} under case {case.value}"
        )

    # ``product`` is the product of ``chosen``; g and h never share a modulus.
    # ``small`` is the product of the primes below 256 that divide it.
    chosen: list[int] = []
    product = small = 1

    def take(cand: int) -> None:
        nonlocal product, small
        chosen.append(cand)
        product *= cand
        # cand is coprime to product, so it brings only new small primes.
        small *= gcd(cand, _SMALL_PRIMES)
        if len(chosen) > MAX_MODULI:
            raise SelectionFailed(f"exceeded budget of {MAX_MODULI} moduli")

    def grow(holds, stage: str) -> None:
        """Take candidates from ``cand`` down until ``holds()``."""
        nonlocal cand
        while not holds():
            cand = _next_coprime(cand, product, small)
            if cand < 2:
                raise SelectionFailed(
                    f"ran out of coprime candidates below 2^{word_bits} while {stage}"
                )
            take(cand)
            cand -= 1

    cand = top
    while True:
        # Candidates above g_cap // g would overshoot the bound; skip them.
        cand = _next_coprime(min(cand, g_cap // product), product, small)
        if cand < 2:
            break
        take(cand)
        cand -= 1
    g_value = product
    g_moduli = list(chosen)

    # Here product == g * h, so the condition is tested only when h grows.
    floor = case.product_floor(modulus)
    cand = top
    grow(lambda: case.product_holds(product, floor), "building h")
    h_moduli = chosen[len(g_moduli):]
    capacity_bound = case.capacity_bound(modulus, product // g_value)
    grow(lambda: case.capacity_holds(capacity_bound, product), "extending capacity")

    ms = make_moduli_set(chosen)
    where = {m: i for i, m in enumerate(ms.moduli)}
    try:
        return make_context(
            ms,
            modulus,
            tuple(sorted(where[m] for m in g_moduli)),
            tuple(sorted(where[m] for m in h_moduli)),
            case,
        )
    except ConditionViolation as exc:  # pragma: no cover - search invariant
        raise SelectionFailed(f"search produced an invalid context: {exc}") from exc
