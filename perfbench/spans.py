"""Timing spans for the traced run.

The traced run measures each layer of rnsbarrett by replacing, for its
duration only, the names through which one module of the package calls
another (``rnsbarrett.rns_barrett.base_extend`` and so on) with wrappers
that time the call. The benchmark's own calls into the package go through
``Tracer.call`` with a span name of their own. A span's duration is charged
to the span that was open when it started, so a layer's self time is its
span time minus the time of the spans it caused. Spans are aggregated by
name as they close and kept in memory.
"""

from contextlib import contextmanager
from importlib import import_module
from time import perf_counter_ns


class Tracer:
    """Per-name span aggregates and event counters of one traced run."""

    def __init__(self):
        self.spans: dict[str, list[int]] = {}  # name -> [calls, total ns, self ns]
        self.counters: dict[str, int] = {}
        self._open: list[list[int]] = []  # child ns of each open span, innermost last

    def call(self, name, fn, *args, **kwargs):
        """Run ``fn(*args, **kwargs)`` inside a span called ``name``."""
        children = [0]
        stack = self._open
        stack.append(children)
        start = perf_counter_ns()
        try:
            return fn(*args, **kwargs)
        finally:
            elapsed = perf_counter_ns() - start
            stack.pop()
            if stack:
                stack[-1][0] += elapsed
            agg = self.spans.get(name)
            if agg is None:
                agg = self.spans[name] = [0, 0, 0]
            agg[0] += 1
            agg[1] += elapsed
            agg[2] += elapsed - children[0]

    def count(self, name: str, amount: int) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount

    def wrap(self, name, fn, observe=None):
        """``fn`` timed as span ``name``; ``observe(tracer, args, result)`` runs after."""

        def traced(*args, **kwargs):
            result = self.call(name, fn, *args, **kwargs)
            if observe is not None:
                observe(self, args, result)
            return result

        return traced

    def calls(self, name: str) -> int:
        return self.spans.get(name, (0, 0, 0))[0]

    def total_us(self, name: str) -> float:
        return self.spans.get(name, (0, 0, 0))[1] / 1000

    def self_us(self, name: str) -> float:
        return self.spans.get(name, (0, 0, 0))[2] / 1000


def _channels_dropped(tracer, args, out):
    tracer.count("quotient.peel_steps", len(args[0].values) - len(out.values))


def _channels_known(tracer, args, out):
    tracer.count("base_extension.peel_steps", len(args[0].values))


# (owner, attribute, span name, observer, per-layer metrics that need the hook).
# The owner is "module" or "module:Class"; the attribute is the name one
# module of the package calls another through.
HOOKS = (
    ("rnsbarrett.rns_barrett", "quotient_by_moduli_product", "quotient",
     _channels_dropped,
     ("quotient.us_per_pass", "quotient.calls_per_pass", "quotient.peel_steps")),
    ("rnsbarrett.rns_barrett", "base_extend", "base_extension", _channels_known,
     ("base_extension.us_per_pass", "base_extension.calls_per_pass",
      "base_extension.peel_steps")),
    ("rnsbarrett.rns:ResidueVector", "__mul__", "rns.channel_op", None,
     ("rns.channel_ops_us",)),
    ("rnsbarrett.rns:ResidueVector", "__sub__", "rns.channel_op", None,
     ("rns.channel_ops_us",)),
    ("rnsbarrett.modexp", "bmm", "pass", None,
     ("modexp.bmm_calls", "modexp.self_us")),
    ("rnsbarrett.modexp", "encode", "rns.encode", None, ()),
    ("rnsbarrett.modexp", "decode_crt", "rns.decode", None, ()),
    ("rnsbarrett.cli", "select_context", "cli.select_context", None,
     ("cli.select_context_us", "cli.ladder_attempts")),
    ("rnsbarrett.cli", "trace_bmm", "pass", None, ("cli.trace_bmm_us",)),
    ("rnsbarrett.cli", "encode", "rns.encode", None, ()),
    ("rnsbarrett.cli", "decode_crt", "rns.decode", None, ()),
    ("rnsbarrett.selection", "make_moduli_set", "rns.moduli_set", None,
     ("rns.moduli_set_us",)),
)


def _resolve_owner(path: str):
    module_name, _, class_name = path.partition(":")
    owner = import_module(module_name)
    return getattr(owner, class_name) if class_name else owner


@contextmanager
def installed(tracer: Tracer, hooks=HOOKS):
    """Wrap every hook target that resolves; yield the hooks that did not.

    A target a refactor has removed is reported rather than fatal, so the
    run still finishes and only the metrics that depend on it go missing.
    Every original is put back on exit.
    """
    restore = []
    absent = []
    try:
        for owner_path, attr, span, observe, metrics in hooks:
            try:
                owner = _resolve_owner(owner_path)
            except (ImportError, AttributeError):
                owner = None
            original = vars(owner).get(attr) if owner is not None else None
            if not callable(original):
                absent.append((f"{owner_path}.{attr}", metrics))
                continue
            setattr(owner, attr, tracer.wrap(span, original, observe))
            restore.append((owner, attr, original))
        yield absent
    finally:
        for owner, attr, original in reversed(restore):
            setattr(owner, attr, original)
