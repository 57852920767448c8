"""Moduli sets, residue vectors, decoding, and mixed-radix conversion."""

import random
from math import prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rnsbarrett import (
    ContextMismatch,
    DuplicateOrNonCoprime,
    ModuliPartition,
    ModulusTooSmall,
    OutOfRange,
    PartitionMismatch,
    ResidueVector,
    SetMismatch,
    decode_crt,
    encode,
    make_moduli_set,
    to_mixed_radix,
)

from helpers import COPRIME_POOL

EX_SET = make_moduli_set([4, 5, 7, 11])

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

    def test_crt_weights_identity(self):
        for ms in (EX_SET, make_moduli_set([3, 8, 11, 13, 25])):
            for w, m in zip(ms.crt_weights, ms.moduli):
                assert w * (ms.product // m) % m == 1

    def test_inverse_table(self):
        # Every partition's packed columns: lane j of column l is the product
        # of the first l peeled moduli, reduced mod the j-th channel after
        # peeled channel l (the later peeled channels in peel order, then the
        # rest channels); each stored inverse times its prefix product is 1
        # mod the channel; ``order`` maps the peel-then-rest layout back to
        # ascending channels. The sets span the packing boundaries: lanes of
        # at most 8 bytes (ex, word30), lanes wider than 8 bytes (word62),
        # 64-bit lanes whose inverses need a tuple (word64), and moduli above
        # 2**64, whose lanes are packed one at a time (wide).
        word30 = make_moduli_set(
            [(1 << 30) - 1, (1 << 30) - 3, (1 << 30) - 5, (1 << 30) - 35, (1 << 30) - 41]
        )
        word62 = make_moduli_set([(1 << 62) - d for d in (1, 3, 5, 9, 11)])
        word64 = make_moduli_set([(1 << 64) - d for d in (1, 3, 5, 9, 15)])
        wide = make_moduli_set(
            [(1 << 61) - 1, (1 << 89) - 1, (1 << 107) - 1, (1 << 127) - 1]
        )
        partitions = [ModuliPartition(EX_SET, sub) for sub in ((0,), (1, 3), (0, 1, 2))]
        for ms in (word30, word62, word64):
            partitions += [ModuliPartition(ms, sub) for sub in ((2,), (0, 3), (1, 2, 4))]
        partitions += [ModuliPartition(wide, sub) for sub in ((0,), (1, 3), (0, 1, 2))]
        for part in partitions:
            moduli = part.mset.moduli
            for rows in (part.divide_rows, part.extend_rows):
                peeled = [moduli[k] for k in rows.peel]
                rest = [moduli[i] for i in rows.rest]
                count = len(peeled)
                width = rows.width
                bound = (count * (moduli[-1] - 1) ** 2).bit_length()
                assert width == (bound + 7) // 8 * 8
                assert len(rows.columns) == count
                for l, column in enumerate(rows.columns):
                    targets = peeled[l + 1:] + rest
                    assert column >> (width * len(targets)) == 0
                    for i, m in enumerate(targets):
                        lane = column >> (width * i) & ((1 << width) - 1)
                        assert lane == prod(peeled[:l]) % m
                for j, m in enumerate(peeled):
                    assert rows.inverses[j] * prod(peeled[:j]) % m == 1
                for i, m in enumerate(rest):
                    assert rows.inverses[count + i] * prod(peeled) % m == 1
                if moduli[-1] < 1 << 63:
                    assert rows.inverses.typecode == "q"
                else:
                    assert type(rows.inverses) is tuple
                assert len(rows.inverses) == count + len(rest)
                # The permutation puts peel-then-rest values in channel order.
                layout = rows.peel + rows.rest
                assert [layout[t] for t in rows.order] == sorted(layout)
                assert not hasattr(rows, "products")


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


class TestElementwise:
    def test_mul_golden(self):
        a = ResidueVector((0, 0, 6, 9), EX_SET)
        b = ResidueVector((3, 4, 5, 8), EX_SET)
        assert (a * b).values == (0, 0, 2, 6)

    def test_add_identity(self):
        a = encode(123, EX_SET)
        assert (a + encode(0, EX_SET)).values == a.values

    def test_sub_self_is_zero(self):
        a = ResidueVector((3, 3, 2, 1), EX_SET)
        assert (a - a).values == (0, 0, 0, 0)

    def test_set_mismatch(self):
        other = make_moduli_set([3, 5])
        with pytest.raises(SetMismatch):
            encode(1, EX_SET) + encode(1, other)

    def test_mismatch_names_are_one_class(self):
        assert PartitionMismatch is SetMismatch
        assert ContextMismatch is SetMismatch

    def test_homomorphism_random(self):
        ms = make_moduli_set([7, 9, 11, 13, 25])
        rng = random.Random(7)
        for _ in range(300):
            x = rng.randrange(ms.product)
            y = rng.randrange(ms.product)
            xe, ye = encode(x, ms), encode(y, ms)
            assert decode_crt(xe * ye) == x * y % ms.product
            assert decode_crt(xe + ye) == (x + y) % ms.product
            assert decode_crt(xe - ye) == (x - y) % ms.product


class TestMixedRadix:
    def test_goldens(self):
        assert to_mixed_radix(encode(19, EX_SET)).digits == (3, 4, 0, 0)
        assert 3 + 4 * 4 + 0 * 20 + 0 * 140 == 19
        assert to_mixed_radix(encode(0, EX_SET)).digits == (0, 0, 0, 0)
        assert to_mixed_radix(encode(1539, EX_SET)).digits == (3, 4, 6, 10)

    @given(set_and_value())
    @settings(deadline=None)
    def test_reconstruction_property(self, pair):
        ms, x = pair
        digits = to_mixed_radix(encode(x, ms))
        for d, m in zip(digits.digits, ms.moduli):
            assert 0 <= d < m
        assert digits.value() == x
