"""The residue-form multiplier against its scalar twin and worked values."""

import random
from importlib import resources

import pytest

import rnsbarrett.rns_barrett
from rnsbarrett import (
    ConditionViolation,
    RangeCase,
    SetMismatch,
    bmm,
    decode_crt,
    encode,
    load_params,
    make_context,
    make_moduli_set,
    modmul,
    trace_bmm,
)

from helpers import random_context

EX_SET = make_moduli_set([4, 5, 7, 11])


def example_context():
    return make_context(EX_SET, 21, (0, 1), (0, 2))


class TestMakeContext:
    def test_golden_precomputation(self):
        ctx = example_context()
        assert ctx.params.g == 20
        assert ctx.params.h == 28
        assert ctx.params.mu == 26
        assert ctx.mu_rv.values == (2, 1, 5, 4)
        assert ctx.n_rv.values == (1, 1, 0, 10)

    def test_capacity_violation(self):
        small = make_moduli_set([4, 5, 7])  # product 140 < 28 * 21
        with pytest.raises(ConditionViolation, match="capacity"):
            make_context(small, 21, (0, 1), (0, 2))

    def test_scalar_conditions_checked(self):
        with pytest.raises(ConditionViolation, match="g < n"):
            make_context(EX_SET, 19, (0, 1, 2), (3,))

    def test_index_validation(self):
        with pytest.raises(ValueError):
            make_context(EX_SET, 21, (0, 9), (0, 2))
        with pytest.raises(ValueError):
            make_context(EX_SET, 21, (0, 0), (0, 2))

    def test_overlapping_divisors_allowed(self):
        ctx = example_context()
        assert set(ctx.g_indices) & set(ctx.h_indices) == {0}


class TestBmm:
    def test_golden_product(self):
        ctx = example_context()
        c = bmm(encode(20, EX_SET), encode(19, EX_SET), ctx)
        assert c.values == (3, 3, 2, 1)
        assert decode_crt(c) == 23

    def test_zero_operand(self):
        ctx = example_context()
        c = bmm(encode(0, EX_SET), encode(19, EX_SET), ctx)
        assert c == encode(0, EX_SET)

    def test_representative_pinned_by_scalar(self):
        ctx = example_context()
        expected = modmul(13, 17, ctx.params)
        assert expected == 11  # 221 = 10 * 21 + 11
        c = bmm(encode(13, EX_SET), encode(17, EX_SET), ctx)
        assert decode_crt(c) == expected

    def test_context_mismatch(self):
        ctx = example_context()
        other = make_moduli_set([3, 5, 8, 11])
        with pytest.raises(SetMismatch):
            bmm(encode(20, other), encode(19, other), ctx)

    def test_trace_golden_rows(self):
        ctx = example_context()
        tr = trace_bmm(encode(20, EX_SET), encode(19, EX_SET), ctx)
        assert tr.x.values == (0, 0, 2, 6)
        assert tr.d_partial.values == {2: 5, 3: 8}
        assert tr.d_full.values == (3, 4, 5, 8)
        assert tr.e.values == (2, 4, 4, 10)
        assert tr.q_partial.values == {1: 2, 3: 6}
        assert tr.q_full.values == (1, 2, 3, 6)
        assert tr.c.values == (3, 3, 2, 1)

    def test_trace_zero_rows(self):
        ctx = example_context()
        tr = trace_bmm(encode(0, EX_SET), encode(0, EX_SET), ctx)
        assert tr.x.values == (0, 0, 0, 0)
        assert tr.c.values == (0, 0, 0, 0)
        assert set(tr.d_partial.values.values()) == {0}

    def test_stages_called_through_module_names(self, monkeypatch):
        # The benchmark's per-stage spans wrap these two module attributes;
        # a pass that bypassed them would silently drop out of its trace.
        calls = {"quotient_by_moduli_product": 0, "base_extend": 0}
        for name in calls:
            original = getattr(rnsbarrett.rns_barrett, name)

            def counted(*args, _name=name, _original=original, **kwargs):
                calls[_name] += 1
                return _original(*args, **kwargs)

            monkeypatch.setattr(rnsbarrett.rns_barrett, name, counted)
        ctx = load_params(resources.files("rnsbarrett").joinpath("data/example4.json"))
        c = bmm(encode(20, ctx.mset), encode(19, ctx.mset), ctx)
        assert c.values == (3, 3, 2, 1)
        assert calls == {"quotient_by_moduli_product": 2, "base_extend": 2}

    def test_unit_g_context(self):
        # g = 1 skips the first quotient entirely
        ms = make_moduli_set([9, 11, 13])
        ctx = make_context(ms, 5, (), (0, 1), RangeCase.CASE1)
        assert ctx.params.g == 1
        for a in range(5):
            for b in range(5):
                got = decode_crt(bmm(encode(a, ms), encode(b, ms), ctx))
                assert got == modmul(a, b, ctx.params)


class TestAgainstScalar:
    @pytest.mark.parametrize("case_number", [1, 2, 3, 4])
    def test_same_representative(self, case_number):
        rng = random.Random(100 + case_number)
        for _ in range(2000):
            ctx = random_context(rng, cases=(case_number,), max_bits=128)
            n = ctx.params.modulus
            bound = ctx.params.case.input_bound * n
            for _ in range(5):
                a, b = rng.randrange(bound), rng.randrange(bound)
                got = decode_crt(bmm(encode(a, ctx.mset), encode(b, ctx.mset), ctx))
                assert got == modmul(a, b, ctx.params)

    def test_intermediates_are_exact_integers(self):
        # Decoded trace rows must equal the true big-integer intermediates,
        # which is precisely the no-wrap guarantee of the capacity condition.
        rng = random.Random(77)
        for _ in range(40):
            ctx = random_context(rng, max_bits=80)
            p = ctx.params
            n = p.modulus
            bound = p.case.input_bound * n
            a, b = rng.randrange(bound), rng.randrange(bound)
            tr = trace_bmm(encode(a, ctx.mset), encode(b, ctx.mset), ctx)
            x = a * b
            d = x // p.g
            e = d * p.mu
            q = e // p.h
            assert decode_crt(tr.x) == x
            assert decode_crt(tr.d_full) == d
            assert decode_crt(tr.e) == e
            assert decode_crt(tr.q_full) == q
            assert decode_crt(tr.c) == x - q * n
            # both extensions stayed inside their contract
            m = ctx.mset.product
            assert d < m // p.g
            assert q < m // p.h
