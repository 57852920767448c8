"""Encoding: run-by-run reduction of wide operands, and integer-only input."""

import random
import sys
import threading
import tracemalloc
from math import gcd, prod

import pytest

from rnsbarrett import (
    EmptyKnownSet,
    OutOfRange,
    PartialResidueVector,
    RangeCase,
    ResidueVector,
    decode_crt,
    encode,
    make_moduli_set,
    select_context,
)
from rnsbarrett.rns import _RUN_BITS, _WIDE, _runs

from helpers import coprime_below

EX_SET = make_moduli_set([3, 5, 7])


def _selected(bits: int, word_bits: int):
    n = random.Random(bits).getrandbits(bits) | 1 << (bits - 1) | 1
    return select_context(n, RangeCase.CASE2, word_bits).mset


# Sets that select_context builds, at every word size that reaches the
# modulus within its budget. Word size 4 reaches no 256-bit modulus, and 16
# no 4096-bit one.
SETS = {
    f"{bits}-{word_bits}": _selected(bits, word_bits)
    for word_bits in (16, 30, 62, 126, 254, 1024)
    for bits in (256, 1024, 2048, 4096)
    if (word_bits, bits) != (16, 4096)
}
SETS["4-bit"] = make_moduli_set([11, 13, 14, 15])


def _thirty_bit_moduli_and(extra, count):
    """``extra`` and up to ``count`` 30-bit moduli coprime to it."""
    other = prod(extra)
    thirty = [m for m in coprime_below((1 << 30) - 1, count) if gcd(m, other) == 1]
    return make_moduli_set([*extra, *thirty])


# 4-bit moduli inside a run of 30-bit ones.
SETS["4-and-30-bit"] = _thirty_bit_moduli_and([11, 13, 14, 15], 60)
# Moduli just below 2**128: every run is four of them, a product of exactly
# 512 bits, and a fifth modulus would take it past the bound.
SETS["512-bit-runs"] = make_moduli_set(coprime_below((1 << 128) - 1, 24))
# Moduli wider than a run, each a run of its own, after 30-bit runs.
SETS["wide-tail"] = _thirty_bit_moduli_and([1 << _RUN_BITS, (1 << 521) - 1], 50)


def _probes(ms, rng):
    """Values below M around every edge the runs have."""
    probes = {0, 1, _WIDE - 1, _WIDE, ms.product - 1}
    runs = _runs(ms.moduli) or ((ms.product, len(ms)),)
    place = 1
    for product, _ in runs:
        place *= product
        for edge in (product, place):
            probes.update((edge - 1, edge, edge + 1))
    probes.update(rng.randrange(ms.product) for _ in range(20))
    probes.update(rng.randrange(_WIDE, ms.product) for _ in range(20) if _WIDE < ms.product)
    return sorted(x for x in probes if 0 <= x < ms.product)


class TestRuns:
    @pytest.mark.parametrize("ms", SETS.values(), ids=SETS.keys())
    def test_matches_one_reduction_per_modulus(self, ms):
        rng = random.Random(len(ms))
        for x in _probes(ms, rng):
            assert encode(x, ms).values == tuple(x % m for m in ms.moduli), x

    @pytest.mark.parametrize("ms", SETS.values(), ids=SETS.keys())
    def test_runs_cover_the_moduli_in_order(self, ms):
        runs = _runs(ms.moduli)
        if not runs:
            return
        start = 0
        for product, end in runs:
            assert start < end
            assert product == prod(ms.moduli[start:end])
            assert product.bit_length() <= _RUN_BITS or end - start == 1
            if end < len(ms):
                # The next modulus would not fit the run's width in bits.
                width = sum(m.bit_length() for m in ms.moduli[start:end + 1])
                assert width > _RUN_BITS
            start = end
        assert start == len(ms)
        assert len(ms) >= 3 * len(runs)

    def test_edge_shapes(self):
        runs = _runs(SETS["512-bit-runs"].moduli)
        assert [end for _, end in runs] == [4, 8, 12, 16, 20, 24]
        assert {product.bit_length() for product, _ in runs} == {_RUN_BITS}
        wide = SETS["wide-tail"]
        ends = [end for _, end in _runs(wide.moduli)]
        assert ends[-3:] == [len(wide) - 2, len(wide) - 1, len(wide)]

    def test_wide_moduli_get_no_runs(self):
        # At 254-bit moduli a run would be a pair, which measured slower than
        # one reduction per modulus.
        ms = SETS["2048-254"]
        x = ms.product - 1
        assert encode(x, ms).values == tuple(x % m for m in ms.moduli)
        assert ms._runs == ()

    def test_runs_are_built_on_the_first_wide_encode(self):
        ms = make_moduli_set(coprime_below((1 << 30) - 1, 139))
        assert ms._runs is None
        encode(_WIDE - 1, ms)
        assert ms._runs is None
        encode(_WIDE, ms)
        runs = ms._runs
        assert runs == _runs(ms.moduli) and len(runs) == 9
        encode(ms.product - 1, ms)
        assert ms._runs is runs

    def test_concurrent_first_encodes_agree(self):
        # Threads may race to fill a set's runs; each builds the same tuple,
        # so every encode is right whichever one is kept.
        sets = [make_moduli_set(coprime_below((1 << 30) - 1 - k, 60))
                for k in range(0, 200, 10)]
        values = [ms.product - 1 - k for k, ms in enumerate(sets)]
        wrong = []

        def encode_all():
            for ms, x in zip(sets, values):
                if encode(x, ms).values != tuple(x % m for m in ms.moduli):
                    wrong.append((ms, x))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=encode_all) for _ in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert wrong == []
        for ms in sets:
            assert ms._runs == _runs(ms.moduli)

    def test_first_wide_encode_retains_the_runs_only(self):
        # 139 moduli of 30 bits, as at a 2048-bit modulus: nine runs of a
        # 512-bit product and an index each, not a tuple of moduli per run.
        ms = make_moduli_set(coprime_below((1 << 30) - 1, 139))
        x = ms.product - 1
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            encode(x, ms)
            retained = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert len(ms._runs) == 9
        assert retained <= 1600


class TestIntegersOnly:
    def test_encode_refuses_a_float(self):
        with pytest.raises(TypeError):
            encode(2.5, EX_SET)
        wide = make_moduli_set(coprime_below((1 << 30) - 1, 139))
        with pytest.raises(TypeError):
            encode(1e300, wide)

    def test_encode_takes_an_index(self):
        class Index:
            def __index__(self):
                return 52

        assert encode(Index(), EX_SET) == encode(52, EX_SET)
        Index.__index__ = lambda self: 105
        with pytest.raises(OutOfRange):
            encode(Index(), EX_SET)

    def test_vector_refuses_a_float(self):
        with pytest.raises(TypeError):
            ResidueVector((1.0, 2, 3), EX_SET)

    def test_vector_stores_a_tuple(self):
        rv = ResidueVector([1, 2, 3], EX_SET)
        assert rv.values == (1, 2, 3)
        assert rv == encode(52, EX_SET)
        assert hash(rv) == hash(encode(52, EX_SET))
        assert decode_crt(rv) == 52 and type(decode_crt(rv)) is int

    def test_partial_vector_refuses_a_float(self):
        with pytest.raises(TypeError):
            PartialResidueVector({0: 1.0}, EX_SET)
        with pytest.raises(TypeError):
            PartialResidueVector({1.0: 1}, EX_SET)

    def test_partial_vector_refuses_an_empty_iterator(self):
        with pytest.raises(EmptyKnownSet):
            PartialResidueVector(iter([]), EX_SET)

    def test_partial_vector_stores_a_dict_of_ints(self):
        class Index:
            def __init__(self, value):
                self.value = value

            def __index__(self):
                return self.value

        partial = PartialResidueVector([(Index(2), Index(4))], EX_SET)
        assert partial.values == {2: 4}
        assert [type(v) for v in (*partial.values, *partial.values.values())] == [int, int]
