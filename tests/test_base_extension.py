"""Base extension against direct encoding, with seed-independence checks."""

import random
from itertools import permutations
from math import prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rnsbarrett import (
    EmptyKnownSet,
    PartialResidueVector,
    base_extend,
    encode,
    make_moduli_set,
)

from helpers import COPRIME_POOL, seeded_extend

EX_SET = make_moduli_set([4, 5, 7, 11])


def test_golden_extend_19():
    # 19 < 7 * 11, known on the last two channels
    partial = PartialResidueVector({2: 5, 3: 8}, EX_SET)
    assert base_extend(partial).values == (3, 4, 5, 8)


def test_golden_extend_17():
    # 17 < 5 * 11, known on a non-adjacent pair
    partial = PartialResidueVector({1: 2, 3: 6}, EX_SET)
    assert base_extend(partial).values == (1, 2, 3, 6)


def test_full_vector_is_a_type_error():
    with pytest.raises(TypeError, match="PartialResidueVector"):
        base_extend(encode(5, EX_SET))


def test_full_known_passthrough():
    partial = PartialResidueVector({0: 3, 1: 3, 2: 2, 3: 1}, EX_SET)
    assert base_extend(partial).values == (3, 3, 2, 1)


def test_empty_known_set_rejected():
    with pytest.raises(EmptyKnownSet):
        PartialResidueVector({}, EX_SET)


def test_partial_vector_validation():
    with pytest.raises(ValueError):
        PartialResidueVector({0: 4}, EX_SET)
    with pytest.raises(ValueError):
        PartialResidueVector({7: 1}, EX_SET)


def test_exhaustive_small_ring():
    ms = make_moduli_set([3, 4, 5])
    subsets = [(0,), (1,), (2,), (0, 1), (0, 2), (1, 2)]
    for known in subsets:
        bound = prod(ms.moduli[i] for i in known)
        for x in range(bound):
            partial = PartialResidueVector({i: x % ms.moduli[i] for i in known}, ms)
            assert base_extend(partial) == encode(x, ms)


def test_hand_built_vector_in_any_key_order():
    # Rows built per call peel the known channels in the dict's own order.
    ms = make_moduli_set([3, 4, 5, 7])
    for known in permutations(range(4), 3):
        bound = prod(ms.moduli[i] for i in known)
        for x in range(0, bound, 7):
            partial = PartialResidueVector({i: x % ms.moduli[i] for i in known}, ms)
            assert list(partial.values) == list(known)
            assert base_extend(partial) == encode(x, ms)


def test_seed_values_do_not_matter():
    rng = random.Random(3)
    for _ in range(300):
        ms = make_moduli_set(rng.sample(COPRIME_POOL, rng.randint(2, 6)))
        n = len(ms.moduli)
        known = sorted(rng.sample(range(n), rng.randint(1, n - 1)))
        bound = prod(ms.moduli[i] for i in known)
        x = rng.randrange(bound)
        partial = PartialResidueVector({i: x % ms.moduli[i] for i in known}, ms)
        fill = {
            i: rng.randrange(ms.moduli[i]) for i in range(n) if i not in set(known)
        }
        zero_seeded = base_extend(partial)
        random_seeded = seeded_extend(partial, fill)
        assert zero_seeded == random_seeded
        assert zero_seeded == encode(x, ms)


@given(
    st.lists(st.sampled_from(COPRIME_POOL), min_size=2, max_size=6, unique=True),
    st.data(),
)
@settings(deadline=None)
def test_oracle_property(moduli, data):
    ms = make_moduli_set(moduli)
    n = len(ms.moduli)
    size = data.draw(st.integers(min_value=1, max_value=n - 1))
    known = data.draw(
        st.lists(
            st.integers(min_value=0, max_value=n - 1),
            min_size=size,
            max_size=size,
            unique=True,
        )
    )
    bound = prod(ms.moduli[i] for i in known)
    x = data.draw(st.integers(min_value=0, max_value=bound - 1))
    partial = PartialResidueVector({i: x % ms.moduli[i] for i in known}, ms)
    assert base_extend(partial) == encode(x, ms)
