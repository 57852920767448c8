"""Measurement, checking and reporting for one benchmark run.

``run.py`` is the entry point and documents the command line. Timings are
reported from the run's quietest moments, as ``timeit`` reports the best
repeat; ``timings`` says how. The reason is the machine, not the program.
On a shared 2-core host the speed of the same code moves by a factor of up
to 1.7, in episodes from milliseconds to over a minute, and quiet moments
are common but short. Whole-run medians then spread by 10 to 30 % between
runs of the same code, and a best-of figure spreads less the shorter the
quiet moment it needs (3 % for up to 30 ms, 13 % for 0.4 s, for a fixed
loop). The set-up is timed ``SETUP_REPEATS`` times at even points
of the run and reported as the median.
"""

import argparse
import gc
import json
import os
import platform
import statistics
import tracemalloc
from functools import partial
from pathlib import Path
from time import perf_counter_ns

from rnsbarrett.barrett import modmul
from rnsbarrett.reference import montgomery_modmul, oracle_modmul
from rnsbarrett.rns import encode
from rnsbarrett.rns_barrett import bmm

from perfbench.spans import Tracer, installed
from perfbench.workloads import WORKLOADS, channel_mulmods, direct

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPEATS = 9
WARM_UP_OPS = 3
WINDOW_OPS = 5
TRACE_SEGMENTS = 4


def _git_commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.is_file():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _nproc() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def timed_setup(wl, times: list):
    """One set-up of ``wl``; appends its wall time in seconds to ``times``."""
    start = perf_counter_ns()
    state = wl.setup()
    times.append((perf_counter_ns() - start) / 1e9)
    return state


def context_kib(wl) -> float:
    """Memory retained by one built context, from an untimed build."""
    gc.collect()
    tracemalloc.start()
    try:
        ctx = wl.build_context()
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    del ctx
    return retained / 1024


def closed_loop(wl, state, fn, seconds: float, first: int = 0):
    """Run operations ``first``, ``first + 1``, ... back to back for ``seconds``.

    Every result is kept; an operation that raises yields its exception as
    the result, which the check counts as a failure. A loop that starts at
    operation 0 warms up first. The cyclic garbage collector is off while
    the loop runs, as in ``timeit``, so a collection pass over the kept
    results does not land inside an operation. Returns the results and the
    latency of each operation in ns.
    """
    if first == 0:
        for i in range(WARM_UP_OPS):
            wl.run(state, i, fn)
    gc.collect()
    results, latencies = [], []
    run = wl.run
    gc.disable()
    try:
        now = perf_counter_ns()
        deadline = now + int(seconds * 1e9)
        i = first
        while now < deadline:
            try:
                out = run(state, i, fn)
            except Exception as exc:  # noqa: BLE001 - counted as a failed operation
                out = exc
            end = perf_counter_ns()
            latencies.append(end - now)
            results.append(out)
            now = end
            i += 1
    finally:
        gc.enable()
    return results, latencies


def failures(wl, state, results, call=direct, first: int = 0) -> set[int]:
    """Indices of results that raised or that the workload's oracle rejects.

    ``results[k]`` is the result of operation ``first + k``.
    """
    failed = set()
    for i, out in enumerate(results, first):
        try:
            ok = not isinstance(out, Exception) and wl.check(state, i, out, call)
        except Exception:  # noqa: BLE001 - a malformed result is a failure
            ok = False
        if not ok:
            failed.add(i)
    return failed


def timings(wl, latencies):
    """Throughput (1/s) and p50 and p90 latency (µs) of one loop's latencies.

    ``latencies[i]`` is the latency of operation ``i``. Where inputs
    repeat, each input's latency is the fastest of its repeats, and the
    figures describe those over the inputs; a quiet stretch one operation
    long is enough for an input. Where no input repeats, the figures come
    from the fastest windows instead.
    """
    if wl.inputs is None:
        return fastest_window(latencies)
    best = sorted(min(latencies[k::wl.inputs])
                  for k in range(min(wl.inputs, len(latencies))))
    return (len(best) / (sum(best) / 1e9),
            _percentile(best, 0.5) / 1000, _percentile(best, 0.9) / 1000)


def fastest_window(latencies):
    """Throughput (1/s) and p50 and p90 latency (µs) of the fastest windows.

    Every ``WINDOW_OPS`` consecutive operations form a window, and windows
    overlap; a shorter run is one window. Each figure is the best any
    window reached. Back-to-back operations fill a window, so its
    throughput is its operation count over the sum of its latencies. The
    percentiles interpolate between a window's samples, as
    ``statistics.quantiles(method="inclusive")`` does.
    """
    size = min(WINDOW_OPS, len(latencies))
    lowest_sum = lowest_p50 = lowest_p90 = float("inf")
    for start in range(len(latencies) - size + 1):
        part = sorted(latencies[start:start + size])
        lowest_sum = min(lowest_sum, sum(part))
        lowest_p50 = min(lowest_p50, _percentile(part, 0.5))
        lowest_p90 = min(lowest_p90, _percentile(part, 0.9))
    return size / (lowest_sum / 1e9), lowest_p50 / 1000, lowest_p90 / 1000


def _percentile(ordered, q):
    position = q * (len(ordered) - 1)
    low = int(position)
    if low + 1 == len(ordered):
        return ordered[low]
    return ordered[low] + (position - low) * (ordered[low + 1] - ordered[low])


def end_to_end(wl, seconds: float):
    """End-to-end metrics of one closed-loop run, no wrappers installed.

    The run is ``SETUP_REPEATS`` segments, each after one timed set-up, so
    the set-up median does not depend on the machine's speed at one
    moment. Each segment's results are checked, then dropped, before the
    next set-up.
    """
    setup_times = []
    state = timed_setup(wl, setup_times)
    kib = context_kib(wl)
    attempted, failed, latencies = 0, 0, []
    for segment in range(SETUP_REPEATS):
        if segment:
            timed_setup(wl, setup_times)
        results, lat = closed_loop(wl, state, wl.entry, seconds / SETUP_REPEATS,
                                   first=attempted)
        failed += len(failures(wl, state, results, first=attempted))
        attempted += len(results)
        latencies += lat
    ops_per_s, p50, p90 = timings(wl, latencies)
    metrics = {
        "ops_per_s": ops_per_s,
        "latency_us_p50": p50,
        "latency_us_p90": p90,
        "setup_s": statistics.median(setup_times),
        "context_kib": kib,
    }
    extra = {"latency_samples": len(latencies),
             "inputs": wl.inputs}
    return state.ctx, attempted, failed, metrics, extra


def _per_call_us(fn, args_list, budget_ns=40_000_000, repeats=5) -> float:
    """Best over ``repeats`` of the mean call time, cycling ``args_list``."""
    start = perf_counter_ns()
    fn(*args_list[0])
    first = max(perf_counter_ns() - start, 1)
    calls = max(1, min(budget_ns // first, 20_000))
    batch = [args_list[i % len(args_list)] for i in range(calls)]
    samples = []
    for _ in range(repeats):
        start = perf_counter_ns()
        for args in batch:
            fn(*args)
        samples.append((perf_counter_ns() - start) / calls)
    return min(samples) / 1000


def controls(wl, ctx) -> dict:
    """Per-call µs of ``bmm`` and of the baselines on the workload's modulus."""
    n = wl.modulus
    pairs = wl.control_pairs
    encoded = [(encode(a, ctx.mset), encode(b, ctx.mset)) for a, b in pairs]
    r = 1 << (n.bit_length() + 1)
    return {
        "bmm": _per_call_us(partial(bmm, ctx=ctx), encoded),
        "barrett.scalar_modmul_us": _per_call_us(partial(modmul, p=ctx.params), pairs),
        "reference.builtin_mulmod_us": _per_call_us(partial(oracle_modmul, n=n), pairs),
        "reference.montgomery_modmul_us": _per_call_us(
            partial(montgomery_modmul, n=n, r=r), pairs),
        "reference.pow_us": _per_call_us(partial(pow, mod=n), wl.control_pows),
    }


def layer_metrics(tracer, ctx) -> dict:
    """Per-layer values from the traced phase's spans and counters."""
    def per(value, count):
        return value / count if count else 0.0

    t = tracer
    passes = t.calls("pass")
    selections = t.calls("selection.select_context") + t.calls("cli.select_context")
    cli_calls = t.calls("cli")
    n, g, h = len(ctx.mset.moduli), len(ctx.g_indices), len(ctx.h_indices)
    return {
        "selection.select_context_us": per(
            t.total_us("selection.select_context") + t.total_us("cli.select_context"),
            selections),
        "selection.channels": n,
        "selection.g_channels": g,
        "selection.h_channels": h,
        "rns.moduli_set_us": per(t.total_us("rns.moduli_set"), t.calls("rns.moduli_set")),
        "rns.channel_ops_us": per(t.total_us("rns.channel_op"), passes),
        "rns.encode_us": per(t.total_us("rns.encode"), t.calls("rns.encode")),
        "rns.decode_us": per(t.total_us("rns.decode"), t.calls("rns.decode")),
        "quotient.us_per_pass": per(t.total_us("quotient"), passes),
        "quotient.calls_per_pass": per(t.calls("quotient"), passes),
        "quotient.peel_steps": per(t.counters.get("quotient.peel_steps", 0), passes),
        "base_extension.us_per_pass": per(t.total_us("base_extension"), passes),
        "base_extension.calls_per_pass": per(t.calls("base_extension"), passes),
        "base_extension.peel_steps": per(
            t.counters.get("base_extension.peel_steps", 0), passes),
        "rns_barrett.bmm_us": per(t.total_us("pass"), passes),
        "rns_barrett.self_us": per(t.self_us("pass"), passes),
        "pass.channel_mulmods": channel_mulmods(n, g, h),
        "modexp.bmm_calls": per(passes, t.calls("modexp")),
        "modexp.self_us": per(t.self_us("modexp"), t.calls("modexp")),
        "cli.call_us": per(t.total_us("cli"), cli_calls),
        "cli.select_context_us": per(t.total_us("cli.select_context"), cli_calls),
        "cli.ladder_attempts": per(t.calls("cli.select_context"), cli_calls),
        "cli.trace_bmm_us": per(t.total_us("pass"), cli_calls),
        "cli.self_us": per(t.self_us("cli"), cli_calls),
    }


def traced(wl, seconds: float):
    """Per-layer metrics, the controls, and the traced-against-untraced check.

    Untraced and traced segments alternate, so both kinds see the same
    machine speed and the overhead reads the wrappers, not the host.
    """
    state = wl.setup()
    tracer = Tracer()
    fn = tracer.wrap(wl.span, wl.entry)
    with installed(tracer) as absent:
        for _ in range(3):
            traced_state = wl.setup(tracer.call)
    plain, plain_lat, results, traced_lat = [], [], [], []
    for _ in range(TRACE_SEGMENTS):
        out, lat = closed_loop(wl, state, wl.entry, seconds / 2 / TRACE_SEGMENTS,
                               first=len(plain))
        plain += out
        plain_lat += lat
        with installed(tracer):
            out, lat = closed_loop(wl, traced_state, fn,
                                   seconds / 2 / TRACE_SEGMENTS, first=len(results))
        results += out
        traced_lat += lat
    plain_failed = failures(wl, state, plain)
    with installed(tracer):
        traced_failed = failures(wl, traced_state, results, tracer.call)
    compared = min(len(plain), len(results))
    mismatched = {i for i in range(compared) if results[i] != plain[i]}

    ctx = state.ctx
    base = controls(wl, ctx)
    metrics = layer_metrics(tracer, ctx)
    for name in ("barrett.scalar_modmul_us", "reference.builtin_mulmod_us",
                 "reference.montgomery_modmul_us", "reference.pow_us"):
        metrics[name] = base[name]
    op_plain_us = timings(wl, plain_lat)[1]
    metrics["trace.overhead_pct"] = 100 * (timings(wl, traced_lat)[1] / op_plain_us - 1)
    ratios = {
        "ratio.bmm_per_scalar_barrett": (base["bmm"], "barrett.scalar_modmul_us"),
        "ratio.bmm_per_builtin": (base["bmm"], "reference.builtin_mulmod_us"),
        "ratio.bmm_per_montgomery": (base["bmm"], "reference.montgomery_modmul_us"),
    }
    metrics["ratio.modexp_per_pow"] = 0.0  # only exp-512 makes modexp calls
    if wl.span == "modexp":
        ratios["ratio.modexp_per_pow"] = (op_plain_us, "reference.pow_us")
    for name, (rns_us, baseline) in ratios.items():
        metrics[name] = rns_us / base[baseline]

    missing = {m for _, needs in absent for m in needs}
    out = {name: value for name, value in metrics.items() if name not in missing}
    extra = {
        "absent": [target for target, _ in absent],
        "ratios": {name: {"rns_us": rns_us, "base": baseline, "base_us": base[baseline]}
                   for name, (rns_us, baseline) in ratios.items()},
        "compared": compared,
        "mismatched": len(mismatched),
        "latency_samples": len(plain_lat) + len(traced_lat),
    }
    failed = len(plain_failed) + len(traced_failed | mismatched)
    return ctx, len(plain) + len(results), failed, out, extra


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="rnsbarrett benchmark, one run")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    wl = WORKLOADS[args.workload](args.seed)
    run = traced if args.trace else end_to_end
    ctx, attempted, failed, metrics, extra = run(wl, args.seconds)

    record = {
        "workload": wl.name,
        "seed": args.seed,
        "trace": args.trace,
        "seconds": args.seconds,
        "python": platform.python_version(),
        "nproc": _nproc(),
        "commit": _git_commit(),
        "load": "closed loop, 1 process, 1 thread, 1 caller",
        "case": ctx.params.case.value,
        "word_bits": wl.word_bits,
        "modulus_bits": wl.modulus.bit_length(),
        "channels": len(ctx.mset.moduli),
        "g_channels": len(ctx.g_indices),
        "h_channels": len(ctx.h_indices),
        "fail_rate": failed / attempted,
        **extra,
    }
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    print("record: " + json.dumps(record, sort_keys=True))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0
