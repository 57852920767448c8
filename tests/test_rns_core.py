"""Moduli sets, residue vectors, decoding, and mixed-radix conversion."""

import random
import sys
import threading
import tracemalloc
from dataclasses import fields
from math import prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rnsbarrett import (
    DuplicateOrNonCoprime,
    ModuliPartition,
    ModulusTooSmall,
    OutOfRange,
    PartialResidueVector,
    RangeCase,
    ResidueVector,
    SetMismatch,
    base_extend,
    bmm,
    decode_crt,
    encode,
    make_context,
    make_moduli_set,
    quotient_by_moduli_product,
    select_context,
    trace_bmm,
)

from helpers import (
    COPRIME_POOL,
    check_rows,
    coprime_below,
    crt_weights,
    garner,
    groups_of,
    partition_rows,
    partitions,
    peel_rows,
    refuse_peeling,
    to_mixed_radix,
)

EX_SET = make_moduli_set([4, 5, 7, 11])
WORD30_SET = make_moduli_set(
    [(1 << 30) - 1, (1 << 30) - 3, (1 << 30) - 5, (1 << 30) - 35, (1 << 30) - 41]
)
WORD62_SET = make_moduli_set([(1 << 62) - d for d in (1, 3, 5, 9, 11)])
WORD64_SET = make_moduli_set([(1 << 64) - d for d in (1, 3, 5, 9, 15)])
# Mersenne primes, every one but the first wider than 64 bits.
WIDE_SET = make_moduli_set([(1 << 61) - 1, (1 << 89) - 1, (1 << 107) - 1, (1 << 127) - 1])


def _selected_sets():
    """The moduli set of every context ``select_context`` builds at 256 bits
    with 30-bit words, 1024 with 16 and 2048 with 30, one per range case."""
    sets = {}
    for bits, word_bits in ((256, 30), (1024, 16), (2048, 30)):
        n = random.Random(bits).getrandbits(bits) | 1 << (bits - 1) | 1
        for case in RangeCase:
            ctx = select_context(n, case, word_bits)
            sets[f"{bits}-{word_bits}-case{case.value}"] = ctx.mset
    return sets


DECODE_SETS = {
    "single-2": make_moduli_set([2]),
    "single-97": make_moduli_set([97]),
    "single-wide": make_moduli_set([(1 << 127) - 1]),
    "ex": EX_SET,
    "word62": WORD62_SET,
    "wide": WIDE_SET,
    **_selected_sets(),
}


def crt_reference(values, ms) -> int:
    """The remainder-theorem sum with weights and cofactors computed here."""
    big = ms.product
    return sum(
        v * pow(big // m, -1, m) * (big // m) for v, m in zip(values, ms.moduli)
    ) % big


def weights_reference(ms) -> tuple[int, ...]:
    """The decoding weights (M / m_i)^-1 mod m_i, from full-width cofactors."""
    return tuple(pow(ms.product // m, -1, m) for m in ms.moduli)


@st.composite
def decode_inputs(draw):
    ms = draw(st.sampled_from(list(DECODE_SETS.values())))
    values = draw(st.tuples(*(st.integers(0, m - 1) for m in ms.moduli)))
    return ms, values


coprime_sets = st.lists(
    st.sampled_from(COPRIME_POOL), min_size=1, max_size=6, unique=True
).map(make_moduli_set)


@st.composite
def set_and_value(draw):
    ms = draw(coprime_sets)
    x = draw(st.integers(min_value=0, max_value=ms.product - 1))
    return ms, x


class TestModuliSet:
    def test_product_golden(self):
        assert EX_SET.product == 1540

    def test_sorts_ascending(self):
        ms = make_moduli_set([11, 4, 7, 5])
        assert ms.moduli == (4, 5, 7, 11)
        assert ms == EX_SET

    def test_single_modulus(self):
        assert make_moduli_set([2]).product == 2

    def test_shared_factor_rejected(self):
        with pytest.raises(DuplicateOrNonCoprime):
            make_moduli_set([6, 10])

    def test_duplicate_rejected(self):
        with pytest.raises(DuplicateOrNonCoprime):
            make_moduli_set([5, 5])

    def test_too_small(self):
        with pytest.raises(ModulusTooSmall):
            make_moduli_set([4, 1])
        with pytest.raises(ModulusTooSmall):
            make_moduli_set([])

    def test_inverse_table(self):
        # Every partition's packed columns: lane j of column l is the product
        # of the first l peeled moduli, reduced mod the j-th modulus after
        # peeled modulus l (the later peeled moduli in peel order, then the
        # rest moduli); each stored inverse times its prefix product is 1
        # mod the modulus. Partitions peel the moduli of their set: the
        # channels of the ex, word30, word62, word64 and wide sets, and the
        # pass sets a context over each would run on, whose moduli are
        # groups of channels with bit lengths adding up to at most 254.
        parts = [ModuliPartition(EX_SET, sub) for sub in ((0,), (1, 3), (0, 1, 2))]
        for ms in (WORD30_SET, WORD62_SET, WORD64_SET):
            parts += [ModuliPartition(ms, sub) for sub in ((2,), (0, 3), (1, 2, 4))]
        parts += [ModuliPartition(WIDE_SET, sub) for sub in ((0,), (1, 3), (0, 1, 2))]
        for ms in (EX_SET, WORD30_SET, WORD62_SET, WORD64_SET, WIDE_SET):
            pass_set, _, g_ids, h_ids = groups_of(ms, (0, 3), (1, 2))
            assert len(pass_set.moduli) < len(ms.moduli)
            parts += [ModuliPartition(pass_set, g_ids), ModuliPartition(pass_set, h_ids)]
        for part in parts:
            moduli = part.mset.moduli
            rest_indices = tuple(
                i for i in range(len(moduli)) if i not in part.divisor_indices
            )
            divide, extend = partition_rows(part)
            assert (divide.peel, divide.rest) == (part.divisor_indices, rest_indices)
            assert (extend.peel, extend.rest) == (rest_indices, part.divisor_indices)
            check_rows(moduli, divide)
            check_rows(moduli, extend)

    @pytest.mark.parametrize(
        "moduli",
        [
            EX_SET.moduli,
            WORD30_SET.moduli,
            WORD62_SET.moduli,
            WIDE_SET.moduli,
            # Group products, then wider moduli: not ascending.
            groups_of(WORD30_SET, (1, 3), ()).pass_set.moduli + WIDE_SET.moduli[1:3],
        ],
        ids=["ex", "word30", "word62", "wide", "groups"],
    )
    def test_head_every_prefix(self, moduli):
        # ``head(moduli, k)`` for every k keeps the table's width, and its
        # lanes and inverses are their definitions: the first k inverses are
        # P_j^-1 mod p_j, every later one P_k^-1 mod its channel, in a tuple
        # at every width.
        n = len(moduli)
        for peel, rest in ((tuple(range(n)), ()), ((3, 0, 2), (1,)), ((n - 1, 1), (0, 2))):
            width = peel_rows(moduli, peel, rest).lane_bits
            for k in range(len(peel) + 1):
                rows = peel_rows(moduli, peel, rest, k)
                assert (rows.peel, rows.rest) == (peel[:k], peel[k:] + rest)
                check_rows(moduli, rows, width)

    def test_retains_no_full_width_state_per_channel(self):
        # 139 moduli of 30 bits, as at a 2048-bit modulus: the product is the
        # only full-width integer a set keeps; one more per channel would
        # add tens of KiB.
        moduli = coprime_below((1 << 30) - 1, 139)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            ms = make_moduli_set(moduli)
            retained = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert len(ms) == 139
        assert retained <= 4 * 1024


class TestEncodeDecode:
    def test_encode_goldens(self):
        assert encode(20, EX_SET).values == (0, 0, 6, 9)
        assert encode(380, EX_SET).values == (0, 0, 2, 6)
        assert encode(0, EX_SET).values == (0, 0, 0, 0)

    def test_encode_out_of_range(self):
        with pytest.raises(OutOfRange):
            encode(1540, EX_SET)
        with pytest.raises(OutOfRange):
            encode(-1, EX_SET)

    def test_decode_goldens(self):
        assert decode_crt(ResidueVector((3, 3, 2, 1), EX_SET)) == 23
        assert decode_crt(ResidueVector((0, 0, 0, 0), EX_SET)) == 0
        assert decode_crt(ResidueVector((1, 2, 3, 6), EX_SET)) == 17

    def test_decode_refuses_a_partial_vector(self):
        # Decoding a dict would zip its channel indices, not its residues.
        partial = PartialResidueVector({0: 1, 1: 2, 2: 3}, make_moduli_set([3, 5, 7]))
        with pytest.raises(TypeError, match="ResidueVector"):
            decode_crt(partial)

    def test_vector_validation(self):
        with pytest.raises(ValueError):
            ResidueVector((1, 2, 3), EX_SET)
        with pytest.raises(ValueError):
            ResidueVector((4, 0, 0, 0), EX_SET)

    def test_round_trip_exhaustive(self):
        ms = make_moduli_set([7, 9, 11, 13])
        for x in range(ms.product):
            assert decode_crt(encode(x, ms)) == x

    def test_round_trip_random_large(self):
        ms = make_moduli_set(COPRIME_POOL)
        rng = random.Random(11)
        for _ in range(500):
            x = rng.randrange(ms.product)
            assert decode_crt(encode(x, ms)) == x

    @given(set_and_value())
    def test_round_trip_property(self, pair):
        ms, x = pair
        assert decode_crt(encode(x, ms)) == x

    @given(decode_inputs())
    @settings(deadline=None)
    def test_decode_matches_independent_crt(self, pair):
        ms, values = pair
        rv = ResidueVector(values, ms)
        assert decode_crt(rv) == crt_reference(values, ms) == garner(rv)[1]

    @pytest.mark.parametrize("ms", DECODE_SETS.values(), ids=DECODE_SETS.keys())
    def test_decode_edge_values(self, ms):
        for x in (0, 1, ms.product - 1):
            rv = encode(x, ms)
            assert decode_crt(rv) == crt_reference(rv.values, ms) == x


    def test_weights_are_computed_once_per_set(self):
        ms = make_moduli_set(coprime_below((1 << 30) - 1, 19))
        assert crt_weights(ms) is None
        rng = random.Random(19)
        x, y = rng.randrange(ms.product), rng.randrange(ms.product)
        assert decode_crt(encode(x, ms)) == x
        weights = crt_weights(ms)
        assert weights == weights_reference(ms)
        assert decode_crt(encode(y, ms)) == y
        assert crt_weights(ms) is weights

    def test_first_decode_retains_one_word_per_channel(self):
        # 139 moduli of 30 bits, as at a 2048-bit modulus: the weights are
        # one small integer per channel, a full-width term per channel
        # would be tens of KiB.
        ms = make_moduli_set(coprime_below((1 << 30) - 1, 139))
        rv = encode(ms.product - 1, ms)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            decode_crt(rv)
            retained = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert len(crt_weights(ms)) == 139
        assert retained <= 8 * 1024

    def test_concurrent_first_decodes_agree(self):
        # Threads may race to fill a set's weights; each computes the same
        # tuple, so every decode is right whichever one is kept.
        sets = [make_moduli_set(coprime_below((1 << 30) - 1 - k, 40))
                for k in range(0, 200, 10)]
        values = [ms.product - 1 - k for k, ms in enumerate(sets)]
        wrong = []

        def decode_all():
            for ms, x in zip(sets, values):
                if decode_crt(encode(x, ms)) != x:
                    wrong.append((ms, x))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=decode_all) for _ in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert wrong == []
        for ms in sets:
            assert crt_weights(ms) == weights_reference(ms)


class TestElementwise:
    def test_mul_golden(self):
        a = ResidueVector((0, 0, 6, 9), EX_SET)
        b = ResidueVector((3, 4, 5, 8), EX_SET)
        assert (a * b).values == (0, 0, 2, 6)

    def test_sub_self_is_zero(self):
        a = ResidueVector((3, 3, 2, 1), EX_SET)
        assert (a - a).values == (0, 0, 0, 0)

    def test_set_mismatch(self):
        other = make_moduli_set([3, 5])
        with pytest.raises(SetMismatch):
            encode(1, EX_SET) * encode(1, other)

    @pytest.mark.parametrize("other", ["partial", "int"])
    def test_operand_that_is_not_a_vector_raises_type_error(self, other):
        # A partial vector on the right once zipped its dict's keys as
        # residues: * gave (0, 2, 6) and - gave (1, 1, 1) for these.
        ms = make_moduli_set([3, 5, 7])
        right = PartialResidueVector({0: 1, 1: 2, 2: 3}, ms) if other == "partial" else 3
        left = encode(52, ms)
        with pytest.raises(TypeError):
            left * right
        with pytest.raises(TypeError):
            left - right

    def test_homomorphism_random(self):
        ms = make_moduli_set([7, 9, 11, 13, 25])
        rng = random.Random(7)
        for _ in range(300):
            x = rng.randrange(ms.product)
            y = rng.randrange(ms.product)
            xe, ye = encode(x, ms), encode(y, ms)
            assert decode_crt(xe * ye) == x * y % ms.product
            assert decode_crt(xe - ye) == (x - y) % ms.product


class TestValueTypes:
    def test_vectors_have_no_instance_dict(self):
        ctx = make_context(EX_SET, 21, (0, 1), (0, 2))
        a, b = encode(20, EX_SET), encode(19, EX_SET)
        partial = quotient_by_moduli_product(a, ModuliPartition(EX_SET, (0, 1)))
        trace = trace_bmm(a, b, ctx)
        values = [
            a,
            bmm(a, b, ctx),
            a * b,
            a - b,
            ResidueVector._reduced((1, 2, 3, 4), EX_SET),
            partial,
            PartialResidueVector({0: 1}, EX_SET),
            base_extend(partial),
            ctx,
            ctx.params,
            partitions(ctx)[1],
            trace,
            *(getattr(trace, field.name) for field in fields(trace)),
        ]
        for value in values:
            assert not hasattr(value, "__dict__"), type(value).__name__

    def test_reduced_vector_memory(self):
        shared = (1, 2, 3, 4)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            vectors = [ResidueVector._reduced(shared, EX_SET) for _ in range(1000)]
            retained = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert len(vectors) == 1000
        assert retained <= 64 * 1000

    def test_hashability(self):
        def build():
            ctx = make_context(EX_SET, 21, (0, 1), (0, 2))
            return ctx, trace_bmm(encode(20, EX_SET), encode(19, EX_SET), ctx)

        (ctx, trace), (twin, twin_trace) = build(), build()
        hashable = [
            (ctx.mu_rv, twin.mu_rv),
            (ctx.params, twin.params),
            (partitions(ctx)[1], partitions(twin)[1]),
            (ctx, twin),
        ]
        for value, equal in hashable:
            assert value is not equal and value == equal
            assert hash(value) == hash(equal)
        assert trace == twin_trace
        for value in (trace.d_partial, trace):
            with pytest.raises(TypeError):
                hash(value)


class TestMixedRadix:
    def test_goldens(self):
        assert to_mixed_radix(encode(19, EX_SET)) == (3, 4, 0, 0)
        assert 3 + 4 * 4 + 0 * 20 + 0 * 140 == 19
        assert to_mixed_radix(encode(0, EX_SET)) == (0, 0, 0, 0)
        assert to_mixed_radix(encode(1539, EX_SET)) == (3, 4, 6, 10)

    @given(set_and_value())
    @settings(deadline=None)
    def test_reconstruction_property(self, pair):
        ms, x = pair
        digits = to_mixed_radix(encode(x, ms))
        for d, m in zip(digits, ms.moduli):
            assert 0 <= d < m
        assert sum(d * prod(ms.moduli[:i]) for i, d in enumerate(digits)) == x

    def test_decoders_build_no_peel_table(self, monkeypatch):
        # Decoding is one Garner loop, so the peel-digit comparisons in the
        # base-extension tests check the peel against an independent
        # algorithm.
        refuse_peeling(monkeypatch)
        for ms in DECODE_SETS.values():
            rv = encode(ms.product - 1, ms)
            assert decode_crt(rv) == ms.product - 1
            assert to_mixed_radix(rv) == tuple(m - 1 for m in ms.moduli)
