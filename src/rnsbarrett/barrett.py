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

Range cases (n is the modulus):

    case 1: inputs < n    outputs < 3n    g < n     n^2   <= g*h
    case 2: inputs < 3n   outputs < 3n    g < n     9n^2  <= g*h
    case 3: inputs < n    outputs < 2n    2g < n    2n^2  <= g*h
    case 4: inputs < 2n   outputs < 2n    2g < n    8n^2  <  g*h

Cases 1 and 2 guarantee a quotient estimate within 2 of the truth, cases 3
and 4 within 1. Cases 2 and 4 are closed (inputs and outputs occupy the
same range), which chained multiplication needs. g and h need not be
coprime, and g = 1 is allowed. The divisor and product inequalities, and
the residue context's capacity condition c*h*n < M (c = 1, 9, 2, 4), are
stated once here as named checks that ``make_params``, ``make_context``
and the CLI's ``params`` table read.
"""

from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple

from .errors import ConditionViolation, InputOutOfRange, int_text


class RangeCase(Enum):
    """One (input range, output range) regime and its divisor conditions."""

    def __new__(cls, number, input_bound, output_bound, product_factor, capacity_factor):
        obj = object.__new__(cls)
        obj._value_ = number
        obj.input_bound = input_bound
        obj.output_bound = output_bound
        obj.product_factor = product_factor
        obj.capacity_factor = capacity_factor
        return obj

    #        number, k_in, k_out, product factor, capacity factor
    CASE1 = (1, 1, 3, 1, 1)
    CASE2 = (2, 3, 3, 9, 9)
    CASE3 = (3, 1, 2, 2, 2)
    CASE4 = (4, 2, 2, 8, 4)

    @property
    def halves_g(self) -> bool:
        """Whether the case requires 2*g < n instead of g < n."""
        return self.value in (3, 4)

    @property
    def strict_product(self) -> bool:
        """Whether the g*h lower bound is strict (case 4 only)."""
        return self.value == 4

    @property
    def closed(self) -> bool:
        """Inputs and outputs share one range, so calls can be chained."""
        return self.input_bound == self.output_bound

    @property
    def quotient_slack(self) -> int:
        """Worst-case undershoot of the quotient estimate."""
        return 2 if self.value in (1, 2) else 1


class Condition(NamedTuple):
    """One inequality of a range case, evaluated for concrete values.

    ``name`` is the inequality in lower-case notation (``"2*g < n"``);
    ``failure`` is the text a ConditionViolation carries, empty when the
    inequality holds.
    """

    name: str
    holds: bool
    failure: str


def divisor_condition(modulus: int, g: int, case: RangeCase) -> Condition:
    """g < n, or 2*g < n in cases 3 and 4."""
    if case.halves_g:
        holds = 2 * g < modulus
        failure = (
            "" if holds else f"2*g < n fails: 2*{int_text(g)} >= {int_text(modulus)}"
        )
        return Condition("2*g < n", holds, failure)
    holds = g < modulus
    failure = "" if holds else f"g < n fails: {int_text(g)} >= {int_text(modulus)}"
    return Condition("g < n", holds, failure)


def product_condition(modulus: int, g: int, h: int, case: RangeCase) -> Condition:
    """f*n^2 <= g*h, strict in case 4, with f the case's product factor."""
    floor_bound = case.product_factor * modulus * modulus
    gh = g * h
    if case.strict_product:
        name = f"{case.product_factor}*n^2 < g*h"
        holds = gh > floor_bound
        failure = (
            "" if holds else f"{name} fails: {int_text(gh)} <= {int_text(floor_bound)}"
        )
    else:
        name = f"{case.product_factor}*n^2 <= g*h"
        holds = gh >= floor_bound
        failure = (
            "" if holds else f"{name} fails: {int_text(gh)} < {int_text(floor_bound)}"
        )
    return Condition(name, holds, failure)


def capacity_condition(modulus: int, h: int, product: int, case: RangeCase) -> Condition:
    """c*h*n < M, with c the case's capacity factor and M a moduli product.

    It keeps every intermediate of a residue-form pass below M.
    """
    name = f"{case.capacity_factor}*h*n < M"
    bound = case.capacity_factor * h * modulus
    holds = bound < product
    failure = (
        "" if holds
        else f"capacity {name} fails: {int_text(bound)} >= {int_text(product)}"
    )
    return Condition(name, holds, failure)


@dataclass(frozen=True, slots=True)
class BarrettParams:
    """Validated reduction constants for one modulus and range case."""

    modulus: int
    g: int
    h: int
    mu: int
    case: RangeCase


def make_params(modulus: int, g: int, h: int, case=RangeCase.CASE1) -> BarrettParams:
    """Check the case conditions and precompute mu = g*h // modulus.

    Raises ConditionViolation naming the first inequality that fails.
    """
    case = RangeCase(case)
    if modulus < 2:
        raise ConditionViolation(f"n >= 2 fails: n = {int_text(modulus)}")
    if g < 1 or h < 1:
        raise ConditionViolation(
            f"divisors must be positive: g = {int_text(g)}, h = {int_text(h)}"
        )
    for condition in (
        divisor_condition(modulus, g, case),
        product_condition(modulus, g, h, case),
    ):
        if not condition.holds:
            raise ConditionViolation(condition.failure)
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
    ``final_correct`` when the canonical value is needed.
    """
    limit = p.case.input_bound * p.modulus
    if not 0 <= a < limit:
        raise InputOutOfRange(f"operand {int_text(a)} not in [0, {int_text(limit)})")
    if not 0 <= b < limit:
        raise InputOutOfRange(f"operand {int_text(b)} not in [0, {int_text(limit)})")
    x = a * b
    return x - estimate_quotient(x, p) * p.modulus


def final_correct(c: int, modulus: int) -> int:
    """Reduce a representative in [0, 3*modulus) to [0, modulus).

    Two conditional subtractions; anything already reduced passes through.
    """
    if c >= modulus:
        c -= modulus
    if c >= modulus:
        c -= modulus
    return c
