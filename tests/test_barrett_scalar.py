"""Scalar generalized Barrett reduction: goldens, bounds, and conditions."""

import random
import re
from pathlib import Path

import pytest

from rnsbarrett import (
    ConditionViolation,
    InputOutOfRange,
    RangeCase,
    estimate_quotient,
    final_correct,
    make_params,
    modmul,
)
from rnsbarrett.barrett import capacity_condition, divisor_condition, product_condition


def random_case_instance(rng, case):
    """(params, a, b) satisfying the case's divisor and range conditions."""
    n = rng.randrange(3 if case.divisor_factor == 2 else 2, 1 << 128)
    if case.divisor_factor == 2:
        g = rng.randrange(1, (n - 1) // 2 + 1)
    else:
        g = rng.randrange(1, n)
    goal = case.product_factor * n * n
    h_min = goal // g + 1 if case.strict_product else -(-goal // g)
    h = h_min + rng.randrange(0, h_min // 7 + 2)
    params = make_params(n, g, h, case)
    bound = case.input_bound * n
    return params, rng.randrange(bound), rng.randrange(bound)


class TestRangeCase:
    def test_bounds_table(self):
        assert [(c.input_bound, c.output_bound) for c in RangeCase] == [
            (1, 3), (3, 3), (1, 2), (2, 2),
        ]

    def test_factors(self):
        assert [c.product_factor for c in RangeCase] == [1, 9, 2, 8]
        assert [c.capacity_factor for c in RangeCase] == [1, 9, 2, 4]
        assert [c.closed for c in RangeCase] == [False, True, False, True]
        assert [c.quotient_slack for c in RangeCase] == [2, 2, 1, 1]

    def test_lookup_by_number(self):
        assert RangeCase(3) is RangeCase.CASE3

    @pytest.mark.parametrize("case", list(RangeCase))
    def test_solved_divisor_bound_matches_predicate(self, case):
        for n in range(2, 201):
            g_max = case.max_g(n)
            for g in range(1, n + 2):
                assert case.divisor_holds(n, g) == (g <= g_max)
                assert divisor_condition(n, g, case).holds == (g <= g_max)

    def test_readme_table_matches_rows(self):
        """README's "Range cases" table states what the rows and conditions hold."""
        text = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
        table = text.split("## Range cases", 1)[1].split("\n\n", 2)[1]
        rows = [line.split("|")[1:-1] for line in table.splitlines()[2:]]

        def times(k: int, symbol: str) -> str:
            return symbol if k == 1 else f"{k}{symbol}"

        def readme_form(name: str) -> str:  # "2*g < n" -> "2g < N"
            return re.sub(r"\b1\*|(?<=\d)\*", "", name).replace("n", "N")

        assert [int(row[0]) for row in rows] == [c.value for c in RangeCase]
        for row, case in zip(rows, RangeCase):
            inputs, outputs, bounds, capacity, error = (cell.strip() for cell in row[1:])
            assert inputs == f"`< {times(case.input_bound, 'N')}`"
            assert outputs == f"`< {times(case.output_bound, 'N')}`"
            names = divisor_condition(7, 1, case).name, product_condition(7, 1, 1, case).name
            assert bounds == ", ".join(f"`{readme_form(name)}`" for name in names)
            assert capacity == f"`{readme_form(capacity_condition(7, 1, 1, case).name)}`"
            assert error == f"at most {case.quotient_slack}"


class TestMakeParams:
    def test_golden_mu_values(self):
        assert make_params(21, 20, 24).mu == 22
        assert make_params(21, 1, 600).mu == 28
        assert make_params(21, 10, 89).mu == 42

    def test_g_bound_violation(self):
        with pytest.raises(ConditionViolation, match="g < n"):
            make_params(21, 21, 24)

    def test_product_bound_violation(self):
        with pytest.raises(ConditionViolation, match="n\\^2 <= g\\*h"):
            make_params(21, 20, 22)

    def test_case3_half_g(self):
        with pytest.raises(ConditionViolation, match="2\\*g < n"):
            make_params(21, 11, 1000, RangeCase.CASE3)
        make_params(21, 10, 89, RangeCase.CASE3)  # 2*441 <= 890

    def test_case4_strict_product(self):
        # 8 * 441 = 3528 exactly: equality is not enough for case 4
        with pytest.raises(ConditionViolation, match="8\\*n\\^2 < g\\*h"):
            make_params(21, 8, 441, RangeCase.CASE4)
        make_params(21, 8, 442, RangeCase.CASE4)

    def test_case_accepted_by_number(self):
        assert make_params(21, 20, 24 * 9, 2).case is RangeCase.CASE2

    def test_tiny_modulus_rejected(self):
        with pytest.raises(ConditionViolation, match="n >= 2"):
            make_params(1, 1, 10)

    @pytest.mark.parametrize("case", list(RangeCase))
    def test_named_conditions_decide_acceptance(self, case):
        # make_params accepts exactly when both named conditions hold, and
        # otherwise raises the first failing condition's text.
        n = 21
        goal = case.product_factor * n * n
        for g in range(1, n + 2):
            for h in {goal // g - 1, goal // g, goal // g + 1, goal // g + 2} - {0}:
                checks = [divisor_condition(n, g, case), product_condition(n, g, h, case)]
                failed = [c for c in checks if not c.holds]
                assert all((c.failure == "") == c.holds for c in checks)
                if failed:
                    with pytest.raises(ConditionViolation) as info:
                        make_params(n, g, h, case)
                    assert str(info.value) == failed[0].failure
                else:
                    assert make_params(n, g, h, case).mu == g * h // n

    def test_mu_exact(self):
        rng = random.Random(2)
        for _ in range(200):
            p, _, _ = random_case_instance(rng, RangeCase.CASE1)
            assert p.mu == p.g * p.h // p.modulus


class TestEstimate:
    def test_golden_steps(self):
        for (g, h), steps in {(20, 24): (19, 418, 17), (10, 89): (38, 1596, 17)}.items():
            p = make_params(21, g, h)
            d = 380 // p.g
            e = d * p.mu
            assert (d, e, e // p.h) == steps
            assert estimate_quotient(380, p) == e // p.h

    def test_zero(self):
        assert estimate_quotient(0, make_params(21, 20, 24)) == 0

    @pytest.mark.parametrize("case", list(RangeCase))
    def test_error_bound_random(self, case):
        rng = random.Random(case.value)
        for _ in range(2000):
            p, a, b = random_case_instance(rng, case)
            x = a * b
            err = x // p.modulus - estimate_quotient(x, p)
            assert 0 <= err <= case.quotient_slack

    @pytest.mark.parametrize("case", [RangeCase.CASE2, RangeCase.CASE4])
    def test_error_bound_bulk(self, case):
        # cases 1 and 3 get their 100k sweep in the acceptance suite
        rng = random.Random(50 + case.value)
        for _ in range(100_000):
            p, a, b = random_case_instance(rng, case)
            x = a * b
            err = x // p.modulus - estimate_quotient(x, p)
            assert 0 <= err <= case.quotient_slack

    def test_degenerate_g_one(self):
        rng = random.Random(10)
        for _ in range(500):
            n = rng.randrange(2, 1 << 64)
            h = n * n + rng.randrange(n)
            p = make_params(n, 1, h)
            a, b = rng.randrange(n), rng.randrange(n)
            x = a * b
            assert estimate_quotient(x, p) == x * p.mu // h
            assert 0 <= x // n - estimate_quotient(x, p) <= 2

    def test_shared_factor_divisors_allowed(self):
        # g and h deliberately share a factor; nothing requires coprimality.
        rng = random.Random(12)
        for _ in range(500):
            n = rng.randrange(16, 1 << 64)
            c = rng.randrange(2, 1 << 16)
            g = c * rng.randrange(1, max(2, n // c))
            if g >= n or g < 1:
                continue
            h = c * (-(-(n * n) // (g * c)) + rng.randrange(4))
            if g * h < n * n:
                continue
            p = make_params(n, g, h)
            a, b = rng.randrange(n), rng.randrange(n)
            x = a * b
            assert 0 <= x // n - estimate_quotient(x, p) <= 2


class TestModmul:
    def test_goldens(self):
        assert modmul(20, 19, make_params(21, 20, 24)) == 23
        assert modmul(0, 17, make_params(21, 20, 24)) == 0
        assert modmul(20, 19, make_params(21, 1, 600)) == 23

    def test_rejects_out_of_range(self):
        p = make_params(21, 20, 24)
        with pytest.raises(InputOutOfRange):
            modmul(21, 3, p)
        with pytest.raises(InputOutOfRange):
            modmul(3, -1, p)

    @pytest.mark.parametrize("case", list(RangeCase))
    def test_congruence_and_range(self, case):
        rng = random.Random(20 + case.value)
        for _ in range(1000):
            p, a, b = random_case_instance(rng, case)
            c = modmul(a, b, p)
            assert c % p.modulus == a * b % p.modulus
            assert 0 <= c < case.output_bound * p.modulus


class TestFinalCorrect:
    def test_goldens(self):
        assert final_correct(23, 21) == 2
        assert final_correct(2, 21) == 2
        assert final_correct(44, 21) == 2

    def test_random(self):
        rng = random.Random(30)
        for _ in range(500):
            n = rng.randrange(2, 1 << 96)
            c = rng.randrange(3 * n)
            assert final_correct(c, n) == c % n
