"""Command-line front end: multiply, exponentiate, and generate parameters.

Exit codes: 0 on success, 1 for usage or parse problems and when standard
output is closed early (a broken pipe), 2 when the package refuses the
mathematics (a divisor or capacity condition fails, a parameter file's
moduli are too small or share a factor, or no parameter set can be found).

Each call builds its parser afresh, keeping nothing between calls, and
registers only the subparser of the command its first argument names:
every command when it names none, so the top-level help and usage errors
list them all. The two subparsers a call does not use were about half of
the time it spent building its parser.
"""

import argparse
import os
import sys

from .barrett import (
    RangeCase,
    capacity_condition,
    divisor_condition,
    final_correct,
    product_condition,
)
from .errors import RnsBarrettError, int_text, parse_int
from .modexp import bmm_modexp, final_result
from .paramfile import dumps as dump_params
from .paramfile import load as load_params
from .rns import decode_crt, encode
from .rns_barrett import RnsBarrettContext, StepTrace, trace_bmm
from .selection import DEFAULT_WORD_BITS, MAX_WORD_BITS, select_context


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _number(text: str) -> int:
    try:
        return parse_int(text)
    except ValueError as exc:
        raise _UsageError(str(exc)) from None


def _modmul_arguments(cmd: _Parser) -> None:
    cmd.add_argument("--modulus", required=True, help="the modulus N (decimal or 0x hex)")
    cmd.add_argument("--case", type=int, choices=(1, 2, 3, 4), default=None,
                     help="range case for automatic parameter selection (default 1)")
    cmd.add_argument("--params", metavar="FILE", default=None,
                     help="parameter file instead of automatic selection")
    cmd.add_argument("--trace", action="store_true",
                     help="print the residue vectors after every step")
    cmd.add_argument("--raw", action="store_true",
                     help="print the bounded representative, skipping final correction")
    cmd.add_argument("a", metavar="A", help="left operand")
    cmd.add_argument("b", metavar="B", help="right operand")
    cmd.set_defaults(func=_cmd_modmul)


def _modexp_arguments(cmd: _Parser) -> None:
    cmd.add_argument("--modulus", required=True, help="the modulus N")
    cmd.add_argument("--case", type=int, choices=(2, 4), default=None,
                     help="closed range case for selection (default 2)")
    cmd.add_argument("--params", metavar="FILE", default=None,
                     help="parameter file instead of automatic selection")
    cmd.add_argument("x", metavar="X", help="base")
    cmd.add_argument("e", metavar="E", help="exponent")
    cmd.set_defaults(func=_cmd_modexp)


def _params_arguments(cmd: _Parser) -> None:
    cmd.add_argument("--modulus", required=True, help="the modulus N")
    cmd.add_argument("--case", type=int, choices=(1, 2, 3, 4), default=1)
    cmd.add_argument("--word-bits", type=int, default=DEFAULT_WORD_BITS,
                     help=f"target bit size of the moduli "
                          f"(4..{MAX_WORD_BITS}, default {DEFAULT_WORD_BITS})")
    cmd.add_argument("--out", metavar="FILE", default=None,
                     help="output file; without it the document goes to stdout")
    cmd.set_defaults(func=_cmd_params)


# Each command's help text and the function that adds its arguments, in
# the order the top-level help lists them.
_COMMANDS = {
    "modmul": ("compute A*B mod N in residue form", _modmul_arguments),
    "modexp": ("compute X^E mod N in residue form", _modexp_arguments),
    "params": ("search parameters and write them to a file", _params_arguments),
}


def _build_parser(argv: list[str]) -> _Parser:
    """The parser for one call, with every command or only ``argv[0]``'s.

    When ``argv[0]`` names a command, argparse hands the rest of ``argv``
    to that command's subparser, so the others would never run. Without
    them the help and error texts stay the same: the top-level usage,
    which lists every command, is printed only when ``argv[0]`` names
    none, and then every command is registered.
    """
    parser = _Parser(prog="rns-barrett", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    names = argv[:1] if argv and argv[0] in _COMMANDS else _COMMANDS
    for name in names:
        help_text, add_arguments = _COMMANDS[name]
        add_arguments(sub.add_parser(name, help=help_text))
    return parser


def _require_modulus(args) -> int:
    n = _number(args.modulus)
    if n < 2:
        raise _UsageError(f"modulus must be at least 2, got {int_text(n)}")
    # Every printed result is below 3*N; int_text marks what str() refuses.
    if int_text(3 * n).startswith("<"):
        raise _UsageError(
            f"modulus {int_text(n)} is too long for its results to print in decimal"
        )
    return n


def _context_for(args, n: int, default_case: int) -> RnsBarrettContext:
    if args.params is not None:
        try:
            ctx = load_params(args.params)
        except OSError as exc:
            raise _UsageError(f"cannot read {args.params}: {exc}") from None
        except ValueError as exc:
            raise _UsageError(f"bad parameter file {args.params}: {exc}") from None
        if ctx.params.modulus != n:
            raise _UsageError(
                f"--modulus {int_text(n)} disagrees with parameter file "
                f"(N = {int_text(ctx.params.modulus)})"
            )
        if args.case is not None and args.case != ctx.params.case.value:
            raise _UsageError(
                f"--case {args.case} disagrees with parameter file "
                f"(case {ctx.params.case.value})"
            )
        return ctx
    case = RangeCase(args.case if args.case is not None else default_case)
    # One wide word size: where it fails (N = 2 in cases 3 and 4), the
    # reason is structural and no other width would succeed.
    return select_context(n, case, DEFAULT_WORD_BITS)


def _vector_text(values) -> str:
    return "(" + " ".join(str(v) for v in values) + ")"


def _partial_text(partial) -> str:
    n = len(partial.mset.moduli)
    shown = [str(partial.values[i]) if i in partial.values else "*" for i in range(n)]
    return "(" + " ".join(shown) + ")"


def _print_trace(ctx: RnsBarrettContext, trace: StepTrace) -> None:
    print(f"Step1  mu = {_vector_text(ctx.mu_rv.values)}")
    print(f"Step2  X = {_vector_text(trace.x.values)}")
    print(f"Step3a D = {_partial_text(trace.d_partial)}")
    print(f"Step3b D = {_vector_text(trace.d_full.values)}")
    print(f"Step4  E = {_vector_text(trace.e.values)}")
    print(f"Step5a Q = {_partial_text(trace.q_partial)}")
    print(f"Step5b Q = {_vector_text(trace.q_full.values)}")
    print(f"Step6  C = {_vector_text(trace.c.values)}")


def _cmd_modmul(args) -> int:
    n = _require_modulus(args)
    a = _number(args.a)
    b = _number(args.b)
    ctx = _context_for(args, n, default_case=1)
    limit = ctx.params.input_limit
    for name, value in (("A", a), ("B", b)):
        if not 0 <= value < limit:
            raise _UsageError(
                f"operand {name} = {int_text(value)} not in [0, {int_text(limit)})"
            )
    trace = trace_bmm(encode(a, ctx.mset), encode(b, ctx.mset), ctx)
    if args.trace:
        _print_trace(ctx, trace)
    value = decode_crt(trace.c)
    print(value if args.raw else final_correct(value, n))
    return 0


def _cmd_modexp(args) -> int:
    n = _require_modulus(args)
    x = _number(args.x)
    e = _number(args.e)
    if e < 0:
        raise _UsageError(f"exponent must be nonnegative, got {int_text(e)}")
    ctx = _context_for(args, n, default_case=2)
    limit = ctx.params.input_limit
    if not 0 <= x < limit:
        raise _UsageError(f"base X = {int_text(x)} not in [0, {int_text(limit)})")
    y = bmm_modexp(encode(x, ctx.mset), e, ctx)
    print(final_result(y, ctx))
    return 0


def _cmd_params(args) -> int:
    n = _require_modulus(args)
    if not 4 <= args.word_bits <= MAX_WORD_BITS:
        raise _UsageError(
            f"--word-bits must be in [4, {MAX_WORD_BITS}], got {args.word_bits}"
        )
    case = RangeCase(args.case)
    ctx = select_context(n, case, args.word_bits)

    g = ctx.params.g
    h = ctx.params.h
    m = ctx.mset.product
    print(f"moduli: {len(ctx.mset.moduli)}")
    # G is below N, which prints; H can be too long for str().
    print(f"G = {g}  (indices {', '.join(str(i + 1) for i in ctx.g_indices) or '-'})")
    print(f"H = {int_text(h)}  (indices {', '.join(str(i + 1) for i in ctx.h_indices)})")
    print(f"M: {m.bit_length()} bits")

    # The case inequalities print in the parameter file's upper-case
    # notation, with unit factors dropped.
    product = product_condition(n, g, h, case)
    divisor = divisor_condition(n, g, case)
    capacity = capacity_condition(n, h, m, case)
    checks = [
        (product.name.upper().replace("1*", ""), product.holds),
        (divisor.name.upper(), divisor.holds),
        ("G | M", m % g == 0),
        ("H | M", m % h == 0),
        (capacity.name.upper().replace("1*", ""), capacity.holds),
    ]
    print("conditions:")
    for name, ok in checks:
        print(f"  [{'ok' if ok else 'FAIL'}] {name}")

    document = dump_params(ctx)
    if args.out is None:
        print(document, end="")
    else:
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(document)
        except OSError as exc:
            raise _UsageError(f"cannot write {args.out}: {exc}") from None
        print(f"wrote {args.out}")
    return 0


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = _build_parser(argv)
    try:
        args = parser.parse_args(argv)
        code = args.func(args)
        # Flush here, so a closed pipe fails inside this try.
        sys.stdout.flush()
        return code
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except RnsBarrettError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # The reader went away (``| head``). Point stdout at devnull, so the
        # interpreter's flush at exit does not fail a second time.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 1


if __name__ == "__main__":
    sys.exit(main())
