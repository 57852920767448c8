"""Modular exponentiation by repeated residue-form multiply-reduce.

The exponent is scanned from the high bit downward in sliding windows over
odd powers (Menezes, van Oorschot and Vanstone, *Handbook of Applied
Cryptography*, Alg. 14.85). A window of width ``w`` is a run of at most
``w`` bits that starts and ends with a one; the zeros between windows are
single squarings. The table ``x, x^3, ..., x^(2^w - 1)`` costs one squaring
plus ``2^(w-1) - 1`` multiplies, the first window is a table lookup, and
each later window costs one multiply after the squarings that shift it in.

For each width from 1 to ``MAX_WIDTH`` the exact number of passes this
exponent needs is counted, which is cheap integer work against one pass,
and the smallest count wins, the smaller width on a tie. Short exponents
such as 65537 therefore stay binary, and the table holds at most
``2^(MAX_WIDTH-1)`` vectors.

Every multiplication is a ``bmm`` call, so the context must use a closed
range case (2 or 4); in the open cases the operands would drift out of the
admissible input range after the first squaring. Every table entry and
every chain value is a ``bmm`` output and so stays in that range. On a
context whose channels fall into groups, the base is combined into the
context's pass set once, every ``bmm`` of the table and the chain takes
and returns pass-set vectors, and the result is split into channels once
at the end.
"""

import re
from operator import index

from .barrett import final_correct
from .errors import CaseMismatch, InputOutOfRange, int_text
from .rns import ResidueVector, decode_crt, encode
from .rns_barrett import RnsBarrettContext, _check_operands, bmm

MAX_WIDTH = 6

# A window of width w: a one, then, greedily, up to w - 2 bits and a closing
# one. ``_WINDOW[w - 1].finditer`` over the binary digits yields the windows
# of Alg. 14.85 from the most significant one down, skipping the zeros.
_WINDOW = tuple(
    re.compile("1" if width == 1 else f"1(?:[01]{{0,{width - 2}}}1)?")
    for width in range(1, MAX_WIDTH + 1)
)


def _passes(digits: str, width: int) -> int:
    """``bmm`` passes at ``width``: the table, one squaring per bit below the
    first window, and one multiply per later window."""
    found = _WINDOW[width - 1].findall(digits)
    table = 1 << (width - 1) if width > 1 else 0
    return table + len(digits) - len(found[0]) + len(found) - 1


def window_plan(exponent: int) -> tuple[int, list[tuple[int, int]]]:
    """The width with the fewest passes for a positive ``exponent``, and its windows.

    On a tie the smaller width wins. Each window is ``(value, end)``, most
    significant first: ``value`` is odd and ``end`` is the index in
    ``format(exponent, "b")`` just past the window's lowest bit.
    """
    digits = format(exponent, "b")
    width = min(range(1, MAX_WIDTH + 1), key=lambda w: _passes(digits, w))
    windows = [(int(m[0], 2), m.end()) for m in _WINDOW[width - 1].finditer(digits)]
    return width, windows


def bmm_modexp(
    x: ResidueVector,
    exponent: int,
    ctx: RnsBarrettContext,
    *,
    check_intermediates: bool = False,
) -> ResidueVector:
    """Residues of a representative of x**exponent mod n.

    The result lies in [0, output_bound * n); use ``final_result`` for the
    canonical remainder. The decoded base must lie in [0, input_bound * n);
    it is decoded once and rejected if not, rather than silently reduced,
    because an out-of-range base is a caller bug this library cannot repair
    meaningfully.

    ``check_intermediates`` decodes every table entry and every chain value
    and raises AssertionError if one leaves the closed range; it exists for
    tests and costs one decode per multiply, on the pass set when the
    chain runs there. Raises TypeError for a non-integer exponent or a base
    that is not a ResidueVector, and SetMismatch for a base on another
    moduli set, whatever the exponent. Exponents 0 and 1 run no pass: 0
    gives ``encode(1, ctx.mset)`` and 1 the base itself. As with ``bmm``,
    a base on the context's pass set gives a result on it.
    """
    exponent = index(exponent)
    case = ctx.params.case
    if not case.closed:
        raise CaseMismatch(
            f"range case {case.value} is not closed under iteration; use case 2 or 4"
        )
    if exponent < 0:
        raise ValueError("exponent must be nonnegative")
    on = _check_operands(ctx, x)
    limit = ctx.params.input_limit
    if decode_crt(x) >= limit:
        raise InputOutOfRange(f"decoded base not below {int_text(limit)}")
    if exponent < 2:
        return x if exponent else encode(1, on)
    groups = None if on is ctx._pass_set else ctx._groups
    if groups is not None:
        x = groups.combine(x.values)

    def _checked(rv: ResidueVector) -> ResidueVector:
        if check_intermediates and decode_crt(rv) >= limit:
            raise AssertionError("intermediate left the closed range")
        return rv

    width, windows = window_plan(exponent)
    odd_powers = [x]
    if width > 1:
        square = _checked(bmm(x, x, ctx))
        for _ in range((1 << (width - 1)) - 1):
            odd_powers.append(_checked(bmm(odd_powers[-1], square, ctx)))

    value, done = windows[0]
    y = odd_powers[value >> 1]
    for value, end in windows[1:]:
        for _ in range(end - done):
            y = _checked(bmm(y, y, ctx))
        y = _checked(bmm(y, odd_powers[value >> 1], ctx))
        done = end
    for _ in range(exponent.bit_length() - done):
        y = _checked(bmm(y, y, ctx))
    return y if groups is None else groups.split(y)


def final_result(y: ResidueVector, ctx: RnsBarrettContext) -> int:
    """Decode and reduce into [0, n) with conditional subtractions.

    ``y`` is on the context's channels or its pass set, as ``bmm`` returns
    it. Raises TypeError unless it is a ResidueVector, and SetMismatch for
    a vector on another moduli set.
    """
    _check_operands(ctx, y)
    return final_correct(decode_crt(y), ctx.params.modulus)
