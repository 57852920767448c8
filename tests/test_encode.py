"""Encoding: wide operands through a context's channel groups, and integer-only input.

A context whose narrow channels fall into groups registers its groups on
its channel set, and an operand of at least ``helpers.WIDE`` (2**1024) on
that set is reduced once per group modulus, the product of channels of
one role, then split into channels. Every encode is compared with one
reduction per modulus, on registered sets, on sets no context has seen,
and on pass sets.
"""

import random
import sys
import threading
import tracemalloc
from math import gcd, prod

import pytest

from rnsbarrett import (
    EmptyKnownSet,
    ModuliSet,
    OutOfRange,
    PartialResidueVector,
    RangeCase,
    ResidueVector,
    decode_crt,
    encode,
    make_context,
    make_moduli_set,
    select_context,
)

from helpers import WIDE, coprime_below, count_group_calls, layout, registered

EX_SET = make_moduli_set([3, 5, 7])


def _odd(bits: int) -> int:
    return random.Random(bits).getrandbits(bits) | 1 << (bits - 1) | 1


def _selected(bits: int, word_bits: int):
    return select_context(_odd(bits), RangeCase.CASE2, word_bits).mset


# Sets that select_context builds, at every word size that reaches the
# modulus within its budget; below 254-bit words each is registered with
# its context's groups. Word size 4 reaches no 256-bit modulus, and 16 no
# 4096-bit one.
WORD_BITS = {
    f"{bits}-{word_bits}": (bits, word_bits)
    for word_bits in (16, 30, 62, 126, 254, 1024)
    for bits in (256, 1024, 2048, 4096)
    if (word_bits, bits) != (16, 4096)
}
SETS = {name: _selected(*shape) for name, shape in WORD_BITS.items()}
SETS["4-bit"] = make_moduli_set([11, 13, 14, 15])


def _thirty_bit_moduli_and(extra, count):
    """``extra`` and up to ``count`` 30-bit moduli coprime to it."""
    other = prod(extra)
    thirty = [m for m in coprime_below((1 << 30) - 1, count) if gcd(m, other) == 1]
    return make_moduli_set([*extra, *thirty])


# Sets no context has seen: 4-bit moduli among 30-bit ones, moduli just
# below 2**128, and two moduli wider than 512 bits after 30-bit ones.
SETS["4-and-30-bit"] = _thirty_bit_moduli_and([11, 13, 14, 15], 60)
SETS["512-bit-runs"] = make_moduli_set(coprime_below((1 << 128) - 1, 24))
SETS["wide-tail"] = _thirty_bit_moduli_and([1 << 512, (1 << 521) - 1], 50)


def _probes(ms, rng):
    """Values below M on both sides of ``WIDE``, and around each group
    modulus and each prefix product of them if ``ms`` has groups."""
    probes = {0, 1, WIDE - 1, WIDE, ms.product - 1}
    if registered(ms) is not None:
        place = 1
        for p in registered(ms).pass_set.moduli:
            place *= p
            for edge in (p, place):
                probes.update((edge - 1, edge, edge + 1))
    probes.update(rng.randrange(ms.product) for _ in range(20))
    probes.update(rng.randrange(WIDE, ms.product) for _ in range(20) if WIDE < ms.product)
    return sorted(x for x in probes if 0 <= x < ms.product)


def _check_encodes(ms, probes):
    for x in probes:
        assert encode(x, ms).values == tuple(x % m for m in ms.moduli), x


def _regroupable(bits: int):
    """A set no context has seen, with a case-2 and a case-1 choice of g
    and h on it that group its channels differently."""
    ctx = select_context(_odd(bits), RangeCase.CASE2, 30)
    n, g, h = ctx.params.modulus, ctx.g_indices, ctx.h_indices
    other = make_context(ModuliSet(ctx.mset.moduli), n, g[1:], h, RangeCase.CASE1)
    assert layout(other).members != layout(ctx).members
    return ModuliSet(ctx.mset.moduli), [(n, g, h, RangeCase.CASE2), (n, g[1:], h, RangeCase.CASE1)]


class TestRuns:
    """Groups a context registered on a set, and the wide encodes they serve."""

    @pytest.mark.parametrize("ms", SETS.values(), ids=SETS.keys())
    def test_matches_one_reduction_per_modulus(self, ms):
        # The set as built, the same moduli with no context, and the set's
        # pass set if it has groups.
        rng = random.Random(len(ms))
        probes = _probes(ms, rng)
        _check_encodes(ms, probes)
        _check_encodes(ModuliSet(ms.moduli), probes)
        if registered(ms) is not None:
            pass_set = registered(ms).pass_set
            assert registered(pass_set) is None
            _check_encodes(pass_set, probes)

    @pytest.mark.parametrize("name", SETS)
    def test_runs_cover_the_moduli_in_order(self, name):
        # A set gets groups from the narrow-word context built on it; each
        # group holds ascending channels whose moduli multiply to its group
        # modulus, and the groups cover every channel once.
        ms = SETS[name]
        groups = registered(ms)
        assert (groups is not None) == (name in WORD_BITS and WORD_BITS[name][1] < 254)
        if groups is None:
            return
        covered = sorted(i for group in groups.members for i in group)
        assert covered == list(range(len(ms)))
        for group, p in zip(groups.members, groups.pass_set.moduli):
            assert list(group) == sorted(group)
            assert p == prod(ms.moduli[i] for i in group)
        assert groups.pass_set.product == ms.product
        assert len(groups.members) < len(ms)

    def test_wide_moduli_get_no_groups(self):
        # At 254-bit words and wider every group is one channel, so no
        # context registers groups and a wide encode reduces per channel.
        for name in ("2048-254", "4096-1024"):
            ms = SETS[name]
            x = ms.product - 1
            assert encode(x, ms).values == tuple(x % m for m in ms.moduli)
            assert registered(ms) is None

    def test_wide_encodes_split_through_the_registered_groups(self, monkeypatch):
        calls = count_group_calls(monkeypatch)
        ctx = select_context(_odd(2048), RangeCase.CASE2, 30)
        ms, pass_set = ctx.mset, layout(ctx).pass_set
        groups = registered(ms)
        assert groups.pass_set is pass_set and groups.members == layout(ctx).members
        assert registered(pass_set) is None
        fresh = ModuliSet(ms.moduli)
        assert registered(fresh) is None
        for target, x, count in (
            (ms, WIDE - 1, 0),
            (ms, WIDE, 1),
            (ms, ms.product - 1, 1),
            (fresh, ms.product - 1, 0),
            (pass_set, ms.product - 1, 0),
        ):
            calls["split"] = 0
            assert encode(x, target).values == tuple(x % m for m in target.moduli)
            assert calls["split"] == count
        # A later context on the set keeps the first one's groups; a
        # context at the default word size registers none.
        again = make_context(ms, ctx.params.modulus, ctx.g_indices, ctx.h_indices, RangeCase.CASE2)
        assert layout(again).pass_set is not pass_set and registered(ms).pass_set is pass_set
        default = select_context(ctx.params.modulus, RangeCase.CASE2)
        assert not layout(default).grouped and registered(default.mset) is None

    def test_concurrent_first_encodes_agree(self):
        # Threads build contexts with two different groupings on shared
        # sets while others encode wide values on them. Either grouping
        # may be kept, and every encode is right whichever one is.
        shared = [_regroupable(bits) for bits in (600, 640, 672)]
        wrong = []

        def build(choice):
            for ms, specs in shared:
                n, g, h, case = specs[choice]
                make_context(ms, n, g, h, case)

        def encode_all():
            for _ in range(20):
                for ms, _ in shared:
                    x = ms.product - 1
                    if encode(x, ms).values != tuple(x % m for m in ms.moduli):
                        wrong.append((ms, x))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=build, args=(k % 2,)) for k in range(4)]
            threads += [threading.Thread(target=encode_all) for _ in range(2)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert wrong == []
        for ms, specs in shared:
            built = [layout(make_context(ModuliSet(ms.moduli), *spec)) for spec in specs]
            assert registered(ms).members in [lay.members for lay in built]
            _check_encodes(ms, [WIDE, ms.product - 1])

    def test_first_wide_encode_retains_nothing(self):
        # 139 moduli of 30 bits, as at a 2048-bit modulus. A set with no
        # context reduces per channel and a registered one splits through
        # the groups its context built, so neither first wide encode keeps
        # anything.
        grouped = select_context(_odd(2048), RangeCase.CASE2, 30).mset
        assert len(grouped) == 139 and registered(grouped) is not None
        for ms in (make_moduli_set(coprime_below((1 << 30) - 1, 139)), grouped):
            groups = registered(ms)
            x = ms.product - 1
            tracemalloc.start()
            try:
                before = tracemalloc.get_traced_memory()[0]
                encode(x, ms)
                retained = tracemalloc.get_traced_memory()[0] - before
            finally:
                tracemalloc.stop()
            assert registered(ms) == groups
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
