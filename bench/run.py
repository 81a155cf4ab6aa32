"""Benchmark for qsl2: three workloads, end-to-end metrics untraced, layers traced.

    python3 bench/run.py --workload certify|session|hopf|all --seed N --seconds S --trace 0|1

Run it from the root of a checkout; it imports the package from ./src.
With --workload all it runs the three in turn and prefixes each metric
with its workload's name.

Workloads (inputs come from bench/gen.py and the seed):
  certify  `qsl2 verify-basis` at l in {3, 4}, both sides, each certificate
           in a fresh interpreter (cold caches), exactly as a CLI user runs it.
  session  one process per replay runs a stream of random elements at
           l in {5, 7}: parse, decompose, JSON round trip, recompose,
           localize, clear denominators, print.
  hopf     coproduct and antipode of random elements at l in {4, 5}.

Untraced (--trace 0), the fixed work of a workload (one certificate round,
or one replay of the workload's op population in a fresh process) is
repeated until --seconds have passed, at least MIN_REPEATS[workload]
times.  Every time is divided by the host factor measured next to it
(bench/calib.py), because the host's speed drifts by tens of percent for
seconds at a time.  An op's
latency is the median over the repeats; wall_s is the median repeat.
setup_s is the median over fresh interpreters importing the package and
building the root data, SETUP_PROBES of them after each repeat, so that
the probes are spread over the run.  peak_rss_mb is the largest resident
set of a certificate process, or the median over replays.  Every process
of a run is pinned to one CPU.

Outputs are checked outside the timed work: certificates by their text,
session and hopf ops by a separate check pass whose output digest must
match every timed replay's.  For the default seed the digests must also
match bench/digests.json.

Traced (--trace 1), pairs of one untraced and one traced repeat of the
same fixed work run until --seconds have passed, at least MIN_TRACE_PAIRS
times.  The first traced repeat gives the per-layer counters and
host-corrected times (bench/tracer.py).  trace.wall_s is the median traced
repeat, trace.overhead_s the median over pairs of traced minus untraced,
and trace.wrapper_s the tracer's own cost estimated from its call counts.
A layer that bench/layers.json says a workload exercises must record spans.

The last line of output is one JSON object with the keys correct,
attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import compileall
import hashlib
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, BENCH)

import calib  # noqa: E402
import gen  # noqa: E402

WORKLOADS = ("certify", "session", "hopf")
# certificate rounds are few and long, so they need more repeats for a steady median
MIN_REPEATS = {"certify": 5, "session": 3, "hopf": 3}
MIN_TRACE_PAIRS = 3
SETUP_PROBES = 8
DEFAULT_SEED = 0
CHILD_TIMEOUT = 150
CALIBRATION_SAMPLES = 15


class HarnessError(RuntimeError):
    """The benchmark itself could not run; no result is printed."""


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    return env


def _child(cmd) -> tuple[float, subprocess.CompletedProcess]:
    start = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, env=_env(), capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT)
    return time.perf_counter() - start, proc


def _worker(*args) -> dict:
    _, proc = _child([sys.executable, os.path.join(BENCH, "worker.py"), *args])
    if proc.returncode != 0 or not proc.stdout.strip():
        raise HarnessError("worker %s failed (exit %d):\n%s" % (args, proc.returncode, proc.stderr))
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _percentile(values, p) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[p - 1]


def _load(name) -> dict:
    with open(os.path.join(BENCH, name), encoding="utf-8") as handle:
        return json.load(handle)


def setup_probes(workload) -> list[float]:
    """Host-corrected set-up times of SETUP_PROBES fresh interpreters."""
    probes = [_worker("setup", workload) for _ in range(SETUP_PROBES)]
    return [p["setup_s"] / p["host_factor"] for p in probes]


# ---------------------------------------------------------------------------
# certify


def _expected_monomials(l) -> int:
    # reduced monomials a^i b^j c^k d^m with i*m = 0 and exponents below l
    return l ** 3 + l ** 2 * (l - 1)


def check_certificate(l, side, code, text) -> list[str]:
    n = _expected_monomials(l)
    lines = text.splitlines()
    need = (
        "basis count: %d (expected %d)" % (l ** 3, l ** 3),
        "kernel dimension: 0",
        "decompose/oracle agreement: %d/%d" % (n, n),
        "verify-basis: PASS",
    )
    bad = ["l=%d %s: missing %r" % (l, side, line) for line in need if line not in lines]
    if code != 0:
        bad.append("l=%d %s: exit %d" % (l, side, code))
    return bad


def certify_round(cases, trace) -> dict:
    """Run each (l, side) certificate in its own interpreter."""
    times, outputs, traces, failures = {}, {}, [], []
    for l, side in cases:
        argv = ["--l", str(l), "--side", side, "verify-basis"]
        host = [calib.sample() for _ in range(CALIBRATION_SAMPLES)]
        if trace:
            elapsed, proc = _child([sys.executable, os.path.join(BENCH, "worker.py"), "cli", "--", *argv])
            if proc.returncode != 0 or not proc.stdout.strip():
                raise HarnessError("traced CLI failed:\n%s" % proc.stderr)
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            code, text = result["exit"], result["stdout"]
        else:
            elapsed, proc = _child([sys.executable, "-m", "qsl2.cli", *argv])
            code, text = proc.returncode, proc.stdout
        host += [calib.sample() for _ in range(CALIBRATION_SAMPLES)]
        factor = calib.factor(host)
        times[(l, side)] = elapsed / factor
        if trace:
            traces.append((result["trace"], factor))
        outputs[(l, side)] = text
        failures += check_certificate(l, side, code, text)
    return {"times": times, "outputs": outputs, "traces": traces, "failures": failures}


def _certify_digest(outputs) -> str:
    h = hashlib.sha256()
    for case in gen.CERTIFY_CASES:
        h.update(outputs[case].encode() + b"\0")
    return h.hexdigest()


def run_certify(seed, seconds, trace):
    rounds = gen.certify_rounds(seed)
    done, setup = [], []
    start = time.perf_counter()
    if trace:
        while len(done) < 2 * MIN_TRACE_PAIRS or time.perf_counter() - start < seconds:
            done.append(certify_round(next(rounds), trace=False))
            done.append(certify_round(next(rounds), trace=True))
    else:
        while len(done) < MIN_REPEATS["certify"] or time.perf_counter() - start < seconds:
            done.append(certify_round(next(rounds), trace=False))
            setup += setup_probes("certify")
    peak_rss = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0

    failures = [f for r in done for f in r["failures"]]
    expected = _load("digests.json")["certify"]
    for i, r in enumerate(done):
        if _certify_digest(r["outputs"]) != expected:
            failures.append("round %d: certificate output differs from bench/digests.json" % i)
    attempted = sum(len(r["times"]) for r in done)

    if trace:
        walls = [sum(r["times"].values()) for r in done]
        return attempted, failures, layer_metrics(done[1]["traces"], walls, "certify")

    lat_ms = [1e3 * statistics.median(r["times"][case] for r in done) for case in gen.CERTIFY_CASES]
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "wall_s": (statistics.median(sum(r["times"].values()) for r in done), "s"),
        "op_p50_ms": (statistics.median(lat_ms), "ms"),
        "op_p95_ms": (_percentile(lat_ms, 95), "ms"),
        "peak_rss_mb": (peak_rss, "MB"),
    }
    return attempted, failures, metrics


# ---------------------------------------------------------------------------
# session and hopf


def run_stream(workload, seed, seconds, trace):
    base = (workload, "--seed", str(seed))
    replays, setup = [], []
    start = time.perf_counter()
    if trace:
        while len(replays) < 2 * MIN_TRACE_PAIRS or time.perf_counter() - start < seconds:
            replays.append(_worker(*base))
            replays.append(_worker(*base, "--trace"))
    else:
        while len(replays) < MIN_REPEATS[workload] or time.perf_counter() - start < seconds:
            replays.append(_worker(*base))
            setup += setup_probes(workload)
    checked = _worker(*base, "--check")

    failures = list(checked["failures"])
    for i, r in enumerate(replays):
        failures += ["replay %d: %s" % (i, f) for f in r["failures"]]
        if r["digest"] != checked["digest"]:
            failures.append("replay %d: outputs differ from the check pass" % i)
    if seed == DEFAULT_SEED and checked["digest"] != _load("digests.json")[workload]:
        failures.append("outputs for the default seed differ from bench/digests.json")
    attempted = len(checked["latencies"]) * (len(replays) + 1)

    # a failed op has a NaN latency; it is already counted in failures
    corrected = [[t / f for t, f in zip(r["latencies"], r["host_factors"])] for r in replays]
    walls = [sum(t for t in c if not math.isnan(t)) for c in corrected]
    if trace:
        factor = statistics.median(replays[1]["host_factors"])
        return attempted, failures, layer_metrics([(replays[1]["trace"], factor)], walls, workload)

    per_op = ([t for t in op if not math.isnan(t)] for op in zip(*corrected))
    lat_ms = [1e3 * statistics.median(op) for op in per_op if op]
    if len(lat_ms) < 2:
        raise HarnessError("almost every op failed:\n%s" % "\n".join(failures[:20]))
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "wall_s": (statistics.median(walls), "s"),
        "op_p50_ms": (statistics.median(lat_ms), "ms"),
        "op_p95_ms": (_percentile(lat_ms, 95), "ms"),
        "peak_rss_mb": (statistics.median(r["peak_rss_mb"] for r in replays), "MB"),
    }
    return attempted, failures, metrics


# ---------------------------------------------------------------------------
# per-layer metrics from traces


def _merge_traces(traces) -> dict:
    """Sum the reports of [(trace, host factor)]; span times are host-corrected too."""
    merged = {"calls": {}, "total_s": {}, "self_s": {}, "counts": {}}
    for t, factor in traces:
        for key in merged:
            scale = 1 / factor if key.endswith("_s") else 1
            for name, v in t[key].items():
                merged[key][name] = merged[key].get(name, 0) + v * scale
    for key in ("rref_cells", "mono_mul_hits", "mono_mul_misses", "mono_mul_cache_size"):
        merged[key] = sum(t[key] for t, _ in traces)
    merged["wrapper_s"] = sum(t["wrapper_s"] / factor for t, factor in traces)
    merged["rref_max_cols"] = max(t["rref_max_cols"] for t, _ in traces)
    return merged


def layer_metrics(traces, walls, workload) -> dict:
    """Per-layer metrics from [(trace, host factor)] of one traced repeat.

    `walls` holds the host-corrected wall times of the untraced and traced
    repeats in turn: untraced, traced, untraced, traced, ...
    """
    t = _merge_traces(traces)
    calls, total, own, counts = t["calls"], t["total_s"], t["self_s"], t["counts"]
    hits, misses = t["mono_mul_hits"], t["mono_mul_misses"]

    layers = _load("layers.json")["layers"]
    spans = {layer: 0 for layer in layers}
    for name, n in calls.items():
        spans[name.split(".")[0]] += n
    spans["cyclo"] += sum(counts.values())
    spans["qalgebra"] += hits + misses
    silent = [layer for layer, info in layers.items()
              if workload in info["exercised_by"] and spans[layer] == 0]
    if silent:
        raise HarnessError("layers %s recorded no spans on %s; the tracer lost them" % (silent, workload))

    m = {
        "exactla.rref_calls": (calls.get("exactla.rref", 0), "count"),
        "exactla.rref_s": (total.get("exactla.rref", 0.0), "s"),
        "exactla.rref_cells": (t["rref_cells"], "count"),
        "exactla.rref_max_cols": (t["rref_max_cols"], "count"),
        "cyclo.mul_calls": (counts.get("cyclo.mul_calls", 0), "count"),
        "cyclo.inv_calls": (counts.get("cyclo.inv_calls", 0), "count"),
        "qalgebra.mono_mul_hits": (hits, "count"),
        "qalgebra.mono_mul_misses": (misses, "count"),
        "qalgebra.mono_mul_hit_ratio": (hits / (hits + misses) if hits + misses else 0.0, "ratio"),
        "qalgebra.mono_mul_cache_size": (t["mono_mul_cache_size"], "count"),
        "qalgebra.qmul_calls": (calls.get("qalgebra.qmul", 0), "count"),
        "qalgebra.qmul_self_s": (own.get("qalgebra.qmul", 0.0), "s"),
        "qalgebra.tensor_mul_calls": (calls.get("qalgebra.tensor_mul", 0), "count"),
        "qalgebra.coproduct_s": (total.get("qalgebra.coproduct", 0.0), "s"),
        "qalgebra.antipode_s": (total.get("qalgebra.antipode", 0.0), "s"),
        "frobenius.central_reduce_calls": (calls.get("frobenius.central_reduce", 0), "count"),
        "frobenius.central_reduce_self_s": (own.get("frobenius.central_reduce", 0.0), "s"),
        "frobenius.lift_calls": (calls.get("frobenius.lift", 0), "count"),
        "basis.eliminate_calls": (calls.get("basis.eliminate_a_family", 0)
                                  + calls.get("basis.eliminate_d_family", 0), "count"),
        "expr.parse_s": (total.get("expr.parse_qelement", 0.0), "s"),
        "expr.format_s": (sum(v for k, v in total.items() if k.startswith("expr.format_")), "s"),
        "cli.run_s": (total.get("cli.run", 0.0), "s"),
        "trace.wall_s": (statistics.median(walls[1::2]), "s"),
        "trace.overhead_s": (statistics.median(b - a for a, b in zip(walls[::2], walls[1::2])), "s"),
        "trace.wrapper_s": (t["wrapper_s"], "s"),
    }
    for name in ("decompose", "recompose", "localize", "clear_denominators",
                 "oracle_decompose", "verify_freeness"):
        m["basis.%s_self_s" % name] = (own.get("basis." + name, 0.0), "s")
    return m


# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="qsl2 benchmark")
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), required=True,
                        help="one workload, or all of them in turn")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "qsl2", "__init__.py")):
        print("error: no package at %s; run from the root of a qsl2 checkout" % SRC, file=sys.stderr)
        return 2
    # one CPU for this process and every child, so that the calibration loop
    # times the same CPU as the work it corrects
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    # the build step for pure Python: byte-compile once, outside any timing
    if not compileall.compile_dir(SRC, quiet=1) or not compileall.compile_dir(BENCH, quiet=1):
        print("error: byte-compiling the sources failed", file=sys.stderr)
        return 2

    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    attempted, failures, metrics = 0, [], {}
    for workload in workloads:
        try:
            if workload == "certify":
                n, bad, got = run_certify(args.seed, args.seconds, args.trace)
            else:
                n, bad, got = run_stream(workload, args.seed, args.seconds, args.trace)
        except (HarnessError, subprocess.TimeoutExpired, OSError, ValueError, KeyError) as err:
            print("error: %s" % err, file=sys.stderr)
            return 1
        for f in bad[:20]:
            print("FAILED %s" % f)
        print("%s seed=%d trace=%d: error_rate %d/%d = %.6g"
              % (workload, args.seed, args.trace, len(bad), n, len(bad) / n))
        for name, (value, unit) in got.items():
            print("  %-36s %16.6f %s" % (name, value, unit))
        prefix = workload + "." if len(workloads) > 1 else ""
        metrics.update((prefix + name, m) for name, m in got.items())
        attempted += n
        failures += bad
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
