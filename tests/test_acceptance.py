"""Acceptance suite: one test per criterion, one printed line per criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as they
pass. Each criterion asserts exact values or zero-violation bounds plus its
runtime ceiling.
"""

import itertools
import json
import random
import subprocess
import sys
import time
from contextlib import contextmanager
from math import prod
from pathlib import Path

from rnsbarrett import (
    PartialResidueVector,
    ModuliPartition,
    RangeCase,
    base_extend,
    bmm,
    bmm_modexp,
    classic_barrett_quotient,
    decode_crt,
    encode,
    estimate_quotient,
    final_correct,
    final_result,
    make_context,
    make_moduli_set,
    make_params,
    modmul,
    oracle_modexp,
    quotient_by_moduli_product,
    trace_bmm,
)

from helpers import (
    COPRIME_POOL,
    divisor_product,
    random_context,
    remaining_indices,
    seeded_extend,
)


@contextmanager
def criterion(number: int, label: str):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"[acceptance] criterion {number} ({label}): FAIL")
        raise
    print(f"[acceptance] criterion {number} ({label}): "
          f"PASS ({time.perf_counter() - start:.2f}s)")


def _best_of(runs, fn) -> float:
    best = float("inf")
    for _ in range(runs):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def test_criterion_1_scalar_worked_examples():
    with criterion(1, "scalar worked examples"):
        expected = {
            (20, 24): (22, 19, 418),
            (1, 600): (28, 380, 10640),
            (10, 89): (42, 38, 1596),
        }

        def compute():
            for (g, h), (mu, d_want, e_want) in expected.items():
                p = make_params(21, g, h)
                assert p.mu == mu
                d = 380 // p.g
                e = d * p.mu
                q = e // p.h
                assert (d, e, q) == (d_want, e_want, 17)
                assert estimate_quotient(380, p) == q
                c = modmul(20, 19, p)
                assert c == 23
                assert final_correct(c, 21) == 2

        compute()
        assert _best_of(3, compute) < 1e-3


def test_criterion_2_rns_worked_example():
    with criterion(2, "residue-form worked example"):
        ms = make_moduli_set([4, 5, 7, 11])
        ctx = make_context(ms, 21, (0, 1), (0, 2))
        a, b = encode(20, ms), encode(19, ms)

        def compute():
            tr = trace_bmm(a, b, ctx)
            assert tr.x.values == (0, 0, 2, 6)
            assert tr.d_partial.values == {2: 5, 3: 8}
            assert tr.d_full.values == (3, 4, 5, 8)
            assert tr.e.values == (2, 4, 4, 10)
            assert tr.q_partial.values == {1: 2, 3: 6}
            assert tr.q_full.values == (1, 2, 3, 6)
            assert tr.c.values == (3, 3, 2, 1)
            assert decode_crt(tr.c) == 23

        compute()
        assert _best_of(3, compute) < 1e-3


def _random_scalar_instance(rng, case):
    bits = rng.randint(2, 128)
    n = rng.randrange(max(2, 1 << (bits - 1)), 1 << bits)
    if case.divisor_factor == 2:
        n = max(n, 3)
        g = rng.randrange(1, (n - 1) // 2 + 1)
    else:
        g = rng.randrange(1, n)
    goal = case.product_factor * n * n
    h = -(-goal // g) + rng.randrange(16)
    return make_params(n, g, h, case), n


def test_criterion_3_quotient_error_bounds():
    with criterion(3, "quotient estimate error bounds"):
        start = time.perf_counter()
        rng = random.Random(103)
        for case, slack, count in (
            (RangeCase.CASE1, 2, 100_000),
            (RangeCase.CASE3, 1, 100_000),
        ):
            for _ in range(count):
                p, n = _random_scalar_instance(rng, case)
                x = rng.randrange(n) * rng.randrange(n)
                err = x // n - estimate_quotient(x, p)
                assert 0 <= err <= slack
        assert time.perf_counter() - start <= 60


def test_criterion_4_rns_scalar_agreement():
    with criterion(4, "residue and scalar paths agree exactly"):
        start = time.perf_counter()
        rng = random.Random(104)
        for _ in range(10_000):
            ctx = random_context(rng, max_bits=128)
            bound = ctx.params.case.input_bound * ctx.params.modulus
            a, b = rng.randrange(bound), rng.randrange(bound)
            got = decode_crt(bmm(encode(a, ctx.mset), encode(b, ctx.mset), ctx))
            assert got == modmul(a, b, ctx.params)
        assert time.perf_counter() - start <= 120


def test_criterion_5_quotient_exhaustive():
    with criterion(5, "channel quotient exhaustive over a 4-moduli ring"):
        start = time.perf_counter()
        ms = make_moduli_set([11, 13, 17, 23])
        assert ms.product <= 100_000
        partitions = [
            (part, divisor_product(part), remaining_indices(part))
            for size in (1, 2, 3)
            for sub in itertools.combinations(range(4), size)
            for part in [ModuliPartition(ms, sub)]
        ]
        assert len(partitions) == 14
        moduli = ms.moduli
        for x in range(ms.product):
            rv = encode(x, ms)
            for part, divisor, remaining in partitions:
                q = x // divisor
                got = quotient_by_moduli_product(rv, part)
                for i in remaining:
                    assert got.values[i] == q % moduli[i]
        assert time.perf_counter() - start <= 60


def test_criterion_6_base_extension_seed_independence():
    with criterion(6, "base extension ignores seed values"):
        start = time.perf_counter()
        rng = random.Random(106)
        for _ in range(10_000):
            ms = make_moduli_set(rng.sample(COPRIME_POOL, rng.randint(2, 8)))
            n = len(ms.moduli)
            known = sorted(rng.sample(range(n), rng.randint(1, n - 1)))
            x = rng.randrange(prod(ms.moduli[i] for i in known))
            partial = PartialResidueVector(
                {i: x % ms.moduli[i] for i in known}, ms
            )
            fill = {
                i: rng.randrange(ms.moduli[i])
                for i in range(n) if i not in set(known)
            }
            zero_seeded = base_extend(partial)
            assert zero_seeded == seeded_extend(partial, fill)
            assert zero_seeded == encode(x, ms)
        assert time.perf_counter() - start <= 30


def test_criterion_7_modexp_end_to_end():
    with criterion(7, "exponentiation against the oracle"):
        start = time.perf_counter()
        rng = random.Random(107)
        done = 0
        while done < 1_000:
            ctx = random_context(rng, cases=(2,), max_bits=48)
            n = ctx.params.modulus
            x = rng.randrange(3 * n)
            e = rng.randrange(1 << 64)
            y = bmm_modexp(encode(x, ctx.mset), e, ctx, check_intermediates=True)
            assert decode_crt(y) < 3 * n
            assert final_result(y, ctx) == oracle_modexp(x, e, n)
            done += 1
        assert time.perf_counter() - start <= 120


def test_criterion_8_classic_specialization():
    with criterion(8, "power-of-two divisors reproduce classic estimates"):
        rng = random.Random(108)
        for _ in range(10_000):
            n = rng.randrange(4, 1 << 64)
            a_bits = rng.randrange(0, n.bit_length() - 1)
            b_bits = 2 * n.bit_length() - a_bits + rng.randrange(8)
            p = make_params(n, 1 << a_bits, 1 << b_bits)
            x = rng.randrange(min(n * n, 1 << (a_bits + b_bits)))
            assert classic_barrett_quotient(x, n, a_bits, b_bits) == \
                estimate_quotient(x, p)


def test_criterion_9_benchmark_report():
    # The repository benchmark, traced for half a second, reports the
    # residue pass beside scalar Barrett, Montgomery and the builtin %.
    run_py = Path(__file__).resolve().parents[1] / "perfbench" / "run.py"
    with criterion(9, "benchmark report generates"):
        out = subprocess.run(
            [sys.executable, str(run_py), "--workload", "mul-256", "--seed", "1",
             "--seconds", "0.5", "--trace", "1"],
            capture_output=True, text=True, check=True, timeout=120,
        ).stdout
        result = json.loads(out.splitlines()[-1])
        assert result["correct"] and result["failed"] == 0
        for name in ("rns_barrett.bmm_us", "barrett.scalar_modmul_us",
                     "reference.montgomery_modmul_us",
                     "reference.builtin_mulmod_us", "ratio.bmm_per_montgomery"):
            assert result["metrics"][name]["value"] > 0
