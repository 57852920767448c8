"""Modular exponentiation by repeated residue-form multiply-reduce.

The exponent is scanned from the low bit upward: one running square chain
and one accumulator, both living in residue form throughout. Every
multiplication is a ``bmm`` call, so the context must use a closed range
case (2 or 4); in the open cases the operands would drift out of the
admissible input range after the first squaring.
"""

from .barrett import final_correct
from .errors import CaseMismatch, InputOutOfRange
from .rns import ResidueVector, decode_crt, encode
from .rns_barrett import RnsBarrettContext, bmm


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

    ``check_intermediates`` decodes every intermediate operand and raises
    AssertionError if one leaves the closed range; it exists for tests and
    costs one decode per multiply.
    """
    case = ctx.params.case
    if not case.closed:
        raise CaseMismatch(
            f"range case {case.value} is not closed under iteration; use case 2 or 4"
        )
    if exponent < 0:
        raise ValueError("exponent must be nonnegative")
    limit = case.input_bound * ctx.params.modulus
    if decode_crt(x) >= limit:
        raise InputOutOfRange(f"decoded base not below {limit}")

    def _checked(rv: ResidueVector) -> ResidueVector:
        if check_intermediates and decode_crt(rv) >= limit:
            raise AssertionError("intermediate left the closed range")
        return rv

    y = x if exponent & 1 else encode(1, ctx.mset)
    power = x
    for j in range(1, exponent.bit_length()):
        power = _checked(bmm(power, power, ctx))
        if (exponent >> j) & 1:
            y = _checked(bmm(y, power, ctx))
    return y


def final_result(y: ResidueVector, ctx: RnsBarrettContext) -> int:
    """Decode and reduce into [0, n) with conditional subtractions."""
    return final_correct(decode_crt(y), ctx.params.modulus)
