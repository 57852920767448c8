"""Big-integer baselines used as test oracles and benchmark yardsticks.

Everything here works on ordinary Python integers with direct division and
shares no code with the residue pipeline, so agreement between the two is
evidence rather than tautology. None of it is meant to be fast.
"""

from math import gcd

from .errors import NotCoprime, int_text


def oracle_modmul(a: int, b: int, n: int) -> int:
    """(a * b) mod n, the straightforward way."""
    return (a * b) % n


def oracle_modexp(base: int, exponent: int, n: int) -> int:
    """base**exponent mod n by square-and-multiply, high bit first.

    Plain binary square-and-multiply on integers, one bit at a time: no
    windows, no table of odd powers and no residues, so it shares nothing
    with ``bmm_modexp``'s sliding windows over residue vectors and the two
    act as independent checks on each other. Raises ValueError for a
    negative exponent, as ``bmm_modexp`` does.
    """
    if exponent < 0:
        raise ValueError("exponent must be nonnegative")
    result = 1 % n
    base %= n
    for bit in bin(exponent)[2:]:
        result = result * result % n
        if bit == "1":
            result = result * base % n
    return result


def classic_barrett_quotient(x: int, n: int, a_bits: int, b_bits: int) -> int:
    """Power-of-two Barrett estimate of x // n, implemented with shifts.

    This is the g = 2**a_bits, h = 2**b_bits special case of the general
    estimate; the usual accuracy guarantee needs 2**a_bits < n and
    n*n <= 2**(a_bits + b_bits), with x below 2**(a_bits + b_bits).
    """
    mu = (1 << (a_bits + b_bits)) // n
    return ((x >> a_bits) * mu) >> b_bits


def montgomery_modmul(a: int, b: int, n: int, r: int) -> int:
    """(a * b * r^-1) mod n as a representative in [0, 2*n).

    Standard reduction: fold in the multiple of n that zeroes the product
    modulo r, then divide by r exactly. Requires gcd(n, r) = 1, r > n and
    a, b < n; only the coprimality is checked.
    """
    if gcd(n, r) != 1:
        raise NotCoprime(f"gcd({int_text(n)}, {int_text(r)}) != 1")
    n_neg_inv = (-pow(n, -1, r)) % r
    product = a * b
    folding = (product % r) * n_neg_inv % r
    return (product + folding * n) // r
