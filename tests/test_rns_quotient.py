"""Channel-wise quotients by moduli subproducts against big-int division."""

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rnsbarrett import (
    ModuliPartition,
    ResidueVector,
    SetMismatch,
    decode_crt,
    encode,
    make_moduli_set,
    quotient_by_moduli_product,
)

from helpers import (
    COPRIME_POOL,
    divisor_product,
    groups_of,
    partition_rows,
    peel_division,
    remaining_indices,
)

EX_SET = make_moduli_set([4, 5, 7, 11])


class TestPartition:
    def test_products(self):
        part = ModuliPartition(EX_SET, (0, 1))
        # A partition peels the moduli of its own set. The moduli are
        # narrow, so a pass with g and h these two sides would run on two
        # groups; the grouping lives in the context's pass set.
        assert groups_of(EX_SET, (0, 1), (2, 3)).members == ((0, 1), (2, 3))
        divide, extend = partition_rows(part)
        assert divide.peel == extend.rest == (0, 1)
        assert divide.rest == extend.peel == (2, 3)

    def test_non_prefix_subset(self):
        part = ModuliPartition(EX_SET, (2, 0))
        assert part.divisor_indices == (0, 2)
        assert partition_rows(part)[0].peel == (0, 2)

    def test_rejects_bad_subsets(self):
        with pytest.raises(ValueError):
            ModuliPartition(EX_SET, ())
        with pytest.raises(ValueError):
            ModuliPartition(EX_SET, (0, 1, 2, 3))
        with pytest.raises(ValueError):
            ModuliPartition(EX_SET, (0, 4))
        with pytest.raises(ValueError):
            ModuliPartition(EX_SET, (1, 1))

    def test_mismatch(self):
        other = make_moduli_set([3, 5, 8])
        with pytest.raises(SetMismatch):
            quotient_by_moduli_product(encode(1, other), ModuliPartition(EX_SET, (0,)))


class TestQuotient:
    def test_golden_380_by_20(self):
        q = quotient_by_moduli_product(encode(380, EX_SET), ModuliPartition(EX_SET, (0, 1)))
        assert q.values == {2: 5, 3: 8}

    def test_zero(self):
        q = quotient_by_moduli_product(encode(0, EX_SET), ModuliPartition(EX_SET, (1, 2)))
        assert q.values == {0: 0, 3: 0}

    def test_golden_494_by_28(self):
        q = quotient_by_moduli_product(encode(494, EX_SET), ModuliPartition(EX_SET, (0, 2)))
        assert q.values == {1: 2, 3: 6}

    def test_exhaustive_small_set(self):
        ms = make_moduli_set([3, 4, 5, 7])
        indices = range(4)
        partitions = [
            ModuliPartition(ms, sub)
            for size in (1, 2, 3)
            for sub in itertools.combinations(indices, size)
        ]
        for x in range(ms.product):
            rv = encode(x, ms)
            for part in partitions:
                expected = x // divisor_product(part)
                got = quotient_by_moduli_product(rv, part)
                for i in remaining_indices(part):
                    assert got.values[i] == expected % ms.moduli[i]

    def test_intermediate_quotients_track_iterated_division(self):
        rng = random.Random(5)
        for _ in range(200):
            x = rng.randrange(EX_SET.product)
            current = list(encode(x, EX_SET).values)
            q = x
            for k in (0, 2, 3):
                peel_division(EX_SET, current, [k])
                q //= EX_SET.moduli[k]
                alive = [i for i, v in enumerate(current) if v is not None]
                sub = make_moduli_set([EX_SET.moduli[i] for i in alive])
                got = decode_crt(ResidueVector(tuple(current[i] for i in alive), sub))
                assert q < sub.product
                assert got == q

    def test_peel_order_does_not_matter(self):
        rng = random.Random(9)
        for _ in range(200):
            x = rng.randrange(EX_SET.product)
            assert (x // 4) // 7 == (x // 7) // 4 == x // 28
            first = list(encode(x, EX_SET).values)
            second = list(first)
            peel_division(EX_SET, first, [0, 2])
            peel_division(EX_SET, second, [2, 0])
            assert first == second

    @given(
        st.lists(st.sampled_from(COPRIME_POOL), min_size=2, max_size=6, unique=True),
        st.data(),
    )
    @settings(deadline=None)
    def test_oracle_property(self, moduli, data):
        ms = make_moduli_set(moduli)
        n = len(ms.moduli)
        size = data.draw(st.integers(min_value=1, max_value=n - 1))
        subset = tuple(
            data.draw(
                st.lists(
                    st.integers(min_value=0, max_value=n - 1),
                    min_size=size,
                    max_size=size,
                    unique=True,
                )
            )
        )
        x = data.draw(st.integers(min_value=0, max_value=ms.product - 1))
        part = ModuliPartition(ms, subset)
        got = quotient_by_moduli_product(encode(x, ms), part)
        expected = x // divisor_product(part)
        assert tuple(sorted(got.values)) == remaining_indices(part)
        for i in remaining_indices(part):
            assert got.values[i] == expected % ms.moduli[i]
