"""The benchmark's workloads: inputs from a seed, set-up, one operation, oracle.

Every workload draws its moduli, operands and exponents from
``random.Random(seed)``. Moduli are odd and full-width. ``setup`` is the
library set-up a caller pays before its first operation (building the
context and encoding the operand pool); ``run`` is one operation; ``check``
compares one result with an oracle that shares no code with the residue
pipeline's reduction. See README.md in this directory for why each
workload exists.
"""

import contextlib
import io
import random
from collections.abc import Callable
from dataclasses import dataclass

from rnsbarrett.barrett import RangeCase, modmul
from rnsbarrett.cli import main as cli_main
from rnsbarrett.modexp import bmm_modexp, final_result
from rnsbarrett.rns import decode_crt, encode
from rnsbarrett.rns_barrett import RnsBarrettContext, bmm
from rnsbarrett.selection import select_context

CONTROL_PAIRS = 32
CONTROL_POWS = 4


def direct(name, fn, *args):
    """The untraced stand-in for ``Tracer.call``."""
    return fn(*args)


def random_modulus(bits: int, rng: random.Random) -> int:
    return rng.getrandbits(bits) | (1 << (bits - 1)) | 1


@dataclass
class State:
    ctx: RnsBarrettContext
    pool: list


class _Workload:
    """Shared shape; subclasses set the class attributes and ``__init__``."""

    name: str
    span: str  # the benchmark's span around one operation
    entry: Callable  # the library function one operation calls
    case: RangeCase
    word_bits: int
    modulus: int  # the modulus the set-up context and the controls use
    # Operation i runs input i % inputs; None when no input repeats.
    inputs: int | None

    def _control_inputs(self, rng: random.Random, pows=None) -> None:
        """Operand pairs, and (base, exponent) pairs unless given, for the controls."""
        limit = self.case.input_bound * self.modulus
        self.control_pairs = [
            (rng.randrange(limit), rng.randrange(limit)) for _ in range(CONTROL_PAIRS)
        ]
        bits = self.modulus.bit_length()
        self.control_pows = pows or [
            (rng.randrange(limit), random_modulus(bits, rng))
            for _ in range(CONTROL_POWS)
        ]

    def build_context(self, call=direct) -> RnsBarrettContext:
        return call("selection.select_context", select_context,
                    self.modulus, self.case, self.word_bits)

    def setup(self, call=direct) -> State:
        ctx = self.build_context(call)
        ms = ctx.mset
        pool = [tuple(call("rns.encode", encode, v, ms) for v in item)
                for item in self._pool_values()]
        return State(ctx, pool)


class MulWorkload(_Workload):
    """``bmm`` on a pool of pre-encoded random operand pairs below 3N."""

    span = "pass"
    entry = staticmethod(bmm)
    case = RangeCase.CASE2
    word_bits = 30

    def __init__(self, name: str, bits: int, pool: int, seed: int):
        rng = random.Random(seed)
        self.name = name
        self.inputs = pool
        self.modulus = random_modulus(bits, rng)
        limit = 3 * self.modulus
        self.pairs = [(rng.randrange(limit), rng.randrange(limit))
                      for _ in range(pool)]
        self._control_inputs(rng)

    def _pool_values(self):
        return self.pairs

    def run(self, state: State, i: int, fn):
        a, b = state.pool[i % len(state.pool)]
        return fn(a, b, state.ctx)

    def check(self, state: State, i: int, out, call=direct) -> bool:
        a, b = self.pairs[i % len(self.pairs)]
        return call("rns.decode", decode_crt, out) == modmul(a, b, state.ctx.params)


class ExpWorkload(_Workload):
    """``bmm_modexp`` on a pool of bases, each with its own random exponent."""

    span = "modexp"
    entry = staticmethod(bmm_modexp)
    case = RangeCase.CASE2
    word_bits = 30

    def __init__(self, name: str, bits: int, exponent_bits: int, inputs: int,
                 seed: int):
        rng = random.Random(seed)
        self.name = name
        self.inputs = inputs
        self.modulus = random_modulus(bits, rng)
        self.bases = [rng.randrange(3 * self.modulus) for _ in range(inputs)]
        self.exponents = [random_modulus(exponent_bits, rng) for _ in range(inputs)]
        self._control_inputs(
            rng, pows=list(zip(self.bases, self.exponents))[:CONTROL_POWS])

    def _pool_values(self):
        return [(x,) for x in self.bases]

    def run(self, state: State, i: int, fn):
        (x,) = state.pool[i % len(state.pool)]
        return fn(x, self.exponents[i % len(self.exponents)], state.ctx)

    def check(self, state: State, i: int, out, call=direct) -> bool:
        x = self.bases[i % len(self.bases)]
        e = self.exponents[i % len(self.exponents)]
        n = self.modulus
        bound = state.ctx.params.case.output_bound * n
        return (call("rns.decode", decode_crt, out) < bound
                and final_result(out, state.ctx) == pow(x, e, n))


class OneShotWorkload(_Workload):
    """In-process ``rns-barrett modmul`` with a new modulus on every call.

    The set-up builds the context the CLI's first word-bits rung would
    build for the first modulus, which is also the context the controls
    and ``context_kib`` use.
    """

    span = "cli"
    entry = staticmethod(cli_main)
    case = RangeCase.CASE1  # the CLI's default for modmul
    word_bits = 16  # the first rung of the CLI's word-bits ladder
    # Every call gets a modulus of its own, as separate CLI runs would; a
    # repeated one could hit a cache that a new process never has.
    inputs = None

    def __init__(self, name: str, bits: int, calls: int, seed: int):
        rng = random.Random(seed)
        self.name = name
        self.triples = []
        for _ in range(calls):
            n = random_modulus(bits, rng)
            self.triples.append((n, rng.randrange(n), rng.randrange(n)))
        self.argv = [["modmul", "--modulus", str(n), str(a), str(b)]
                     for n, a, b in self.triples]
        self.modulus = self.triples[0][0]
        self._control_inputs(rng)

    def _pool_values(self):
        _, a, b = self.triples[0]
        return [(a, b)]

    def run(self, state: State, i: int, fn):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = fn(self.argv[i % len(self.argv)])
        return code, out.getvalue()

    def check(self, state: State, i: int, out, call=direct) -> bool:
        n, a, b = self.triples[i % len(self.triples)]
        return out == (0, f"{a * b % n}\n")


WORKLOADS = {
    "mul-256": lambda seed: MulWorkload("mul-256", 256, 256, seed),
    "mul-2048": lambda seed: MulWorkload("mul-2048", 2048, 64, seed),
    # 64-bit exponents keep a call near 25 ms. With 512-bit ones a call took
    # 0.2-0.48 s, too long to fit the shared host's short quiet stretches,
    # and runs of the same code spread past the bound.
    "exp-512": lambda seed: ExpWorkload("exp-512", 512, 64, 8, seed),
    "oneshot-1024": lambda seed: OneShotWorkload("oneshot-1024", 1024, 2048, seed),
}


def channel_mulmods(n: int, g: int, h: int) -> int:
    """Channel multiply-reduce operations in one pass, from the cost model.

    ``n`` channels, ``g`` and ``h`` divisor channels. Three channel-wise
    products (A*B, D*mu, Q*N) cost n each. A divisor stage with k > 0
    channels peels k moduli, the j-th peel updating the n - j channels
    still alive, then base-extends from the n - k survivors, whose peels
    run over every channel, and corrects each of the k seeded channels
    once. g = 0 (g = 1 as an integer) skips the first stage.
    """

    def stage(k: int) -> int:
        if k == 0:
            return 0
        peel = k * n - k * (k + 1) // 2
        known = n - k
        return peel + known * n - known * (known + 1) // 2 + k

    return 3 * n + stage(g) + stage(h)
