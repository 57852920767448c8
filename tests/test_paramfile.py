"""Parameter file grammar: parsing, dumping, and index translation."""

import random

import pytest

from rnsbarrett import (
    ConditionViolation,
    RangeCase,
    dump_params,
    make_context,
    make_moduli_set,
    select_context,
)
from rnsbarrett.paramfile import loads

EXAMPLE_TEXT = """\
# comment lines and blanks are fine

moduli: 4, 5, 7, 11
N: 21
g_indices: 1, 2
h_indices: 1, 3
case: 1
"""


def test_parse_example():
    ctx = loads(EXAMPLE_TEXT)
    assert ctx.params.modulus == 21
    assert ctx.params.g == 20
    assert ctx.params.h == 28
    assert ctx.params.case.value == 1


def test_dump_then_parse_round_trip():
    ms = make_moduli_set([4, 5, 7, 11])
    ctx = make_context(ms, 21, (0, 1), (0, 2))
    assert loads(dump_params(ctx)) == ctx


def test_indices_follow_file_order():
    # same configuration, moduli listed unsorted; indices refer to file order
    text = (
        "moduli: 11, 4, 7, 5\nN: 21\n"
        "g_indices: 2, 4\nh_indices: 2, 3\ncase: 1\n"
    )
    ctx = loads(text)
    assert ctx.params.g == 20
    assert ctx.params.h == 28
    assert ctx.mset.moduli == (4, 5, 7, 11)


def test_empty_g_indices_means_unit_divisor():
    text = "moduli: 9, 11, 13\nN: 5\ng_indices:\nh_indices: 1, 2\ncase: 1\n"
    ctx = loads(text)
    assert ctx.params.g == 1


@pytest.mark.parametrize(
    "mangle",
    [
        lambda t: t.replace("N: 21\n", ""),             # missing key
        lambda t: t + "case: 2\n",                       # duplicate key
        lambda t: t + "word_bits: 4\n",                  # unknown key
        lambda t: t.replace("case: 1", "case: 9"),       # bad case number
        lambda t: t.replace("g_indices: 1, 2", "g_indices: 0, 2"),  # 1-based
        lambda t: t.replace("N: 21", "N: twenty"),       # bad integer
        lambda t: t.replace("moduli: 4, 5, 7, 11", "moduli:"),      # empty list
    ],
)
def test_malformed_files_raise_value_error(mangle):
    with pytest.raises(ValueError):
        loads(mangle(EXAMPLE_TEXT))


def test_unsound_configuration_raises_condition_violation():
    text = "moduli: 4, 5, 7\nN: 21\ng_indices: 1, 2\nh_indices: 1, 3\ncase: 1\n"
    with pytest.raises(ConditionViolation):
        loads(text)


def test_modulus_too_long_for_str_round_trips_in_hex():
    # 15,000 bits is past str()'s default limit of 4300 decimal digits.
    n = random.Random(15000).getrandbits(15000) | 1 << 14999 | 1
    ctx = select_context(n, RangeCase.CASE2)
    text = dump_params(ctx)
    assert f"N: {hex(n)}\n" in text
    assert loads(text) == ctx


def test_hex_integers_are_read():
    assert loads(EXAMPLE_TEXT.replace("N: 21", "N: 0x15")) == loads(EXAMPLE_TEXT)


@pytest.mark.parametrize(
    "token", ["1" * 5000, "1" * 4999 + "x"], ids=["valid-decimal", "malformed"]
)
def test_long_bad_integer_message_is_short(token):
    with pytest.raises(ValueError) as info:
        loads(EXAMPLE_TEXT.replace("N: 21", f"N: {token}"))
    assert len(str(info.value)) < 120
    assert str(info.value).startswith("N: ")
