"""Contexts across the range of word sizes, and the CLI at its default.

The peel groups change at the word sizes tested here: four channels of 63
bits fit one default word, three of 64 or 65 bits, two of 126, and from
254 bits on every channel is a group of its own. ``bmm`` is compared with
the scalar ``barrett.modmul`` and ``bmm_modexp`` with ``pow``, neither of
which shares code with channel peeling.
"""

import random

import pytest

from rnsbarrett import (
    RangeCase,
    bmm,
    bmm_modexp,
    decode_crt,
    encode,
    final_result,
    modmul,
    select_context,
)
from rnsbarrett.cli import main
from rnsbarrett.selection import DEFAULT_WORD_BITS, MAX_WORD_BITS

WORD_SIZES = (63, 64, 65, 126, DEFAULT_WORD_BITS, MAX_WORD_BITS)


def wide_context(word_bits: int, case: RangeCase):
    # About three words of N put several channels into each of g and h.
    rng = random.Random(word_bits)
    n = rng.getrandbits(3 * word_bits) | 1 << (3 * word_bits - 1) | 1
    ctx = select_context(n, case, word_bits)
    assert ctx.mset.moduli[-1].bit_length() == word_bits
    assert len(ctx.g_indices) > 1 and len(ctx.h_indices) > 1
    return ctx, rng


@pytest.mark.parametrize("case", list(RangeCase), ids=lambda c: f"case{c.value}")
@pytest.mark.parametrize("word_bits", WORD_SIZES)
def test_bmm_matches_scalar_modmul(word_bits, case):
    ctx, rng = wide_context(word_bits, case)
    limit = case.input_bound * ctx.params.modulus
    top = limit - 1
    pairs = [(top, top), (top, 0), (0, 0)]
    pairs += [(rng.randrange(limit), rng.randrange(limit)) for _ in range(6)]
    for a, b in pairs:
        got = bmm(encode(a, ctx.mset), encode(b, ctx.mset), ctx)
        assert decode_crt(got) == modmul(a, b, ctx.params)


# bmm_modexp needs a closed case: 2 or 4.
@pytest.mark.parametrize("case", [RangeCase.CASE2, RangeCase.CASE4],
                         ids=["case2", "case4"])
@pytest.mark.parametrize("word_bits", WORD_SIZES)
def test_bmm_modexp_matches_pow(word_bits, case):
    ctx, rng = wide_context(word_bits, case)
    n = ctx.params.modulus
    limit = case.input_bound * n
    for x, e in [(limit - 1, 3), (rng.randrange(limit), rng.getrandbits(24) | 1 << 23)]:
        y = bmm_modexp(encode(x, ctx.mset), e, ctx)
        assert final_result(y, ctx) == pow(x, e, n)


def cli(capsys, *argv) -> str:
    assert main(list(argv)) == 0
    return capsys.readouterr().out.strip()


def test_cli_default_word_size_small_moduli(capsys):
    for n in range(4, 65):
        rng = random.Random(n)
        for case in (1, 2, 3, 4):
            limit = RangeCase(case).input_bound * n
            a, b = rng.randrange(limit), rng.randrange(limit)
            out = cli(capsys, "modmul", "--modulus", str(n), "--case", str(case),
                      str(a), str(b))
            assert out == str(a * b % n), (n, case)
        for case in (2, 4):
            x = rng.randrange(RangeCase(case).input_bound * n)
            e = rng.randrange(1 << 16)
            out = cli(capsys, "modexp", "--modulus", str(n), "--case", str(case),
                      str(x), str(e))
            assert out == str(pow(x, e, n)), (n, case)


def test_cli_default_word_size_4096_bit_modulus(capsys):
    rng = random.Random(4096)
    n = rng.getrandbits(4096) | 1 << 4095 | 1
    for case in (1, 2, 3, 4):
        limit = RangeCase(case).input_bound * n
        a, b = rng.randrange(limit), rng.randrange(limit)
        out = cli(capsys, "modmul", "--modulus", str(n), "--case", str(case),
                  str(a), str(b))
        assert out == str(a * b % n)
    for case in (2, 4):
        x = rng.randrange(RangeCase(case).input_bound * n)
        out = cli(capsys, "modexp", "--modulus", str(n), "--case", str(case),
                  str(x), "65537")
        assert out == str(pow(x, 65537, n))
