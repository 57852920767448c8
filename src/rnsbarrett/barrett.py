"""Barrett-style modular reduction with two general scaling divisors.

Classic Barrett reduction replaces division by the modulus n with one
precomputed reciprocal and two divisions by powers of two. Both of those
divisors can in fact be arbitrary positive integers g and h: with
mu = g*h // n, the estimate

    q_hat = ((x // g) * mu) // h

never exceeds the true quotient x // n and undershoots by a bounded amount
whenever g and h satisfy the conditions of the chosen range case. Freeing
the divisors from powers of two is what lets the residue pipeline in
``rns_barrett`` pick them as subproducts of its moduli.

Each range case is one row of ``RangeCase``, which holds every constant
of the case: the input and output bounds as multiples of n, the factors
d, f and c of its three inequalities

    d*g < n        f*n^2 <= g*h (or <)        c*h*n < M

where M is the moduli product of a residue context, and the worst
undershoot of the quotient estimate. g and h need not be coprime, and
g = 1 is allowed. The rules are stated once here, as one predicate per
inequality, which ``make_params``, ``make_context``, the CLI's ``params``
table and ``select_context`` all read.
"""

from dataclasses import dataclass
from enum import Enum
from operator import index
from typing import NamedTuple

from .errors import ConditionViolation, InputOutOfRange, int_text


class RangeCase(Enum):
    """One (input range, output range) regime and every constant of its rules."""

    def __new__(cls, number, *constants):
        obj = object.__new__(cls)
        obj._value_ = number
        (obj.input_bound, obj.output_bound, obj.divisor_factor, obj.product_factor,
         obj.strict_product, obj.capacity_factor, obj.quotient_slack) = constants
        return obj

    # number, k_in, k_out, d, f, f*n^2 < g*h strictly, c, estimate undershoot
    CASE1 = (1, 1, 3, 1, 1, False, 1, 2)
    CASE2 = (2, 3, 3, 1, 9, False, 9, 2)
    CASE3 = (3, 1, 2, 2, 2, False, 2, 1)
    CASE4 = (4, 2, 2, 2, 8, True, 4, 1)

    @property
    def closed(self) -> bool:
        """Inputs and outputs share one range, so calls can be chained."""
        return self.input_bound == self.output_bound

    # One predicate per inequality. A bound that depends on n alone is its
    # own method, so that a search over g and h computes it once.
    def divisor_holds(self, modulus: int, g: int) -> bool:
        """d*g < n."""
        return self.divisor_factor * g < modulus

    def max_g(self, modulus: int) -> int:
        """The largest g with d*g < n: the divisor condition solved for g."""
        return (modulus - 1) // self.divisor_factor

    def product_floor(self, modulus: int) -> int:
        """f*n^2."""
        return self.product_factor * modulus * modulus

    def product_holds(self, gh: int, floor: int) -> bool:
        """f*n^2 <= g*h, or < where strict, with ``floor`` = f*n^2."""
        return gh > floor if self.strict_product else gh >= floor

    def capacity_bound(self, modulus: int, h: int) -> int:
        """c*h*n."""
        return self.capacity_factor * h * modulus

    @staticmethod
    def capacity_holds(bound: int, product: int) -> bool:
        """c*h*n < M, with ``bound`` = c*h*n and ``product`` = M."""
        return bound < product


class Condition(NamedTuple):
    """One inequality of a range case, evaluated for concrete values.

    ``name`` is the inequality in lower-case notation (``"2*g < n"``);
    ``failure`` is the text a ConditionViolation carries, empty when the
    inequality holds.
    """

    name: str
    holds: bool
    failure: str

    def require(self) -> None:
        """Raise ConditionViolation with ``failure`` unless the inequality holds."""
        if not self.holds:
            raise ConditionViolation(self.failure)


def _condition(name, holds, left, relation, right, label="", scale="") -> Condition:
    """``name`` evaluated; only a failure renders ``scale*left relation right``."""
    failure = "" if holds else (
        f"{label}{name} fails: {scale}{int_text(left)} {relation} {int_text(right)}"
    )
    return Condition(name, holds, failure)


def divisor_condition(modulus: int, g: int, case: RangeCase) -> Condition:
    """d*g < n, written g < n when d = 1."""
    d = "" if case.divisor_factor == 1 else f"{case.divisor_factor}*"
    return _condition(f"{d}g < n", case.divisor_holds(modulus, g), g, ">=", modulus, scale=d)


def product_condition(modulus: int, g: int, h: int, case: RangeCase) -> Condition:
    """f*n^2 <= g*h, or f*n^2 < g*h where the case is strict."""
    floor = case.product_floor(modulus)
    gh = g * h
    relation, failed = ("<", "<=") if case.strict_product else ("<=", "<")
    name = f"{case.product_factor}*n^2 {relation} g*h"
    return _condition(name, case.product_holds(gh, floor), gh, failed, floor)


def capacity_condition(modulus: int, h: int, product: int, case: RangeCase) -> Condition:
    """c*h*n < M, with M a moduli product.

    It keeps every intermediate of a residue-form pass below M.
    """
    bound = case.capacity_bound(modulus, h)
    name = f"{case.capacity_factor}*h*n < M"
    holds = case.capacity_holds(bound, product)
    return _condition(name, holds, bound, ">=", product, "capacity ")


@dataclass(frozen=True, slots=True)
class BarrettParams:
    """Validated reduction constants for one modulus and range case."""

    modulus: int
    g: int
    h: int
    mu: int
    case: RangeCase

    @property
    def input_limit(self) -> int:
        """Operands must lie in [0, input_limit): input_bound * modulus."""
        return self.case.input_bound * self.modulus


def make_params(modulus: int, g: int, h: int, case=RangeCase.CASE1) -> BarrettParams:
    """Check the case conditions and precompute mu = g*h // modulus.

    Raises ConditionViolation naming the first inequality that fails, and
    TypeError unless modulus, g and h are integers.
    """
    modulus, g, h = index(modulus), index(g), index(h)
    case = RangeCase(case)
    if modulus < 2:
        raise ConditionViolation(f"n >= 2 fails: n = {int_text(modulus)}")
    if g < 1 or h < 1:
        raise ConditionViolation(
            f"divisors must be positive: g = {int_text(g)}, h = {int_text(h)}"
        )
    divisor_condition(modulus, g, case).require()
    product_condition(modulus, g, h, case).require()
    return BarrettParams(modulus, g, h, g * h // modulus, case)


def estimate_quotient(x: int, p: BarrettParams) -> int:
    """Estimate x // modulus from below.

    For x in the admissible range (x below the case's input product bound,
    hence below g*h), the true quotient exceeds the estimate by at most
    ``p.case.quotient_slack``. The range is the caller's contract; nothing
    is checked here.
    """
    return (x // p.g) * p.mu // p.h


def modmul(a: int, b: int, p: BarrettParams) -> int:
    """a*b reduced modulo p.modulus into [0, output_bound * modulus).

    No final correction is applied, so the result is a bounded
    representative rather than the canonical remainder; feed it to
    ``final_correct`` when the canonical value is needed. Raises TypeError
    unless a and b are integers.
    """
    a = index(a)
    b = index(b)
    limit = p.input_limit
    if not 0 <= a < limit:
        raise InputOutOfRange(f"operand {int_text(a)} not in [0, {int_text(limit)})")
    if not 0 <= b < limit:
        raise InputOutOfRange(f"operand {int_text(b)} not in [0, {int_text(limit)})")
    x = a * b
    return x - estimate_quotient(x, p) * p.modulus


def final_correct(c: int, modulus: int) -> int:
    """Reduce a representative in [0, 3*modulus) to [0, modulus).

    Two conditional subtractions; anything already reduced passes through.
    Raises TypeError unless c is an integer.
    """
    c = index(c)
    if c >= modulus:
        c -= modulus
    if c >= modulus:
        c -= modulus
    return c
