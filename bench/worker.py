"""One benchmark process: a set-up probe, a replay of an op stream, or a traced CLI call.

    worker.py setup certify|session|hopf
    worker.py session|hopf --seed S [--trace] [--check]
    worker.py cli -- <qsl2 arguments>        (always traced)

Each mode prints one JSON object as its last line of output.  A replay
runs one pass over the workload's op population (bench/gen.py).  It
times every op and writes nothing else inside the timed section; it
hashes each op's outputs afterwards so that replays can be compared.
Before each op it times one calibration loop (bench/calib.py), and it
reports for each op the host factor of the loops around it.  With
--check it verifies every output instead; a check pass is never timed.
With --trace the tracer wraps the package first.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import os
import resource
import sys
import time
from contextlib import redirect_stdout
from fractions import Fraction

BENCH = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(BENCH), "src")
sys.path[:0] = [SRC, BENCH]

import calib  # noqa: E402
import gen  # noqa: E402


def _import_package():
    import qsl2

    if not os.path.abspath(qsl2.__file__).startswith(SRC + os.sep):
        raise ImportError("qsl2 imported from %s, not from %s" % (qsl2.__file__, SRC))


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _canonical(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


# ---------------------------------------------------------------------------
# set-up probe


def cmd_setup(workload):
    host = [calib.sample() for _ in range(8)]
    t0 = time.perf_counter()
    _import_package()
    import qsl2.cli  # noqa: F401  (the whole package, CLI included)
    from qsl2.cyclo import make_root_spec

    for l in gen.LS[workload]:
        make_root_spec(l)
    setup_s = time.perf_counter() - t0
    host += [calib.sample() for _ in range(8)]
    return {"setup_s": setup_s, "host_factor": calib.factor(host)}


def build_element(mods, spec, terms):
    """The element the generated terms denote, built without the parser."""
    cyclo, qalgebra = mods["cyclo"], mods["qalgebra"]
    out = {}
    for exps, (sign, kind, value) in terms:
        if kind == "r":
            z = cyclo.Cyclotomic.from_rational(spec.N, Fraction(value))
        else:
            z = cyclo.zeta_pow(spec, int(value))
        out[qalgebra.QMonomial(*exps)] = z if sign > 0 else -z
    return qalgebra.QElement(spec, out)


# ---------------------------------------------------------------------------
# session: parse, decompose, JSON round trip, recompose, localize, clear, print


def session_input(mods, spec, op):
    _, side, chart, terms = op
    return side, chart, gen.terms_text(terms)


def session_op(mods, spec, side, chart, text):
    expr, basis = mods["expr"], mods["basis"]
    x = expr.parse_qelement(text, spec)
    dec = basis.decompose(x, side)
    doc = json.loads(json.dumps(dec.to_json()))
    y = basis.recompose(basis.decomposition_from_json(doc, spec))
    le = basis.localize(x, chart)
    cleared, k = basis.clear_denominators(le)
    printed = expr.format_qelement(y)
    return x, dec, y, le, cleared, k, printed


def session_outputs(out) -> str:
    x, dec, y, le, cleared, k, printed = out
    return _canonical([dec.to_json(), y.to_json(), le.to_json(), cleared.to_json(), k, printed])


def session_check(mods, spec, op, out) -> list[str]:
    expr, frobenius, qalgebra = mods["expr"], mods["frobenius"], mods["qalgebra"]
    _, side, chart, terms = op
    x, dec, y, le, cleared, k, printed = out
    bad = []
    if x != build_element(mods, spec, terms):
        bad.append("parsed input differs from the generated terms")
    if dec.side != side or y != x:
        bad.append("recompose(decompose(x)) != x on the %s side" % side)
    gen_k = qalgebra.ClassicalElement.generator(spec, chart) ** k
    if k != le.max_power() or cleared != qalgebra.qmul(frobenius.lift(gen_k), x):
        bad.append("clear_denominators(localize(x, %s)) != lift(%s^K) x" % (chart, chart))
    if expr.parse_qelement(printed, spec) != x:
        bad.append("printed text does not parse back to x")
    return bad


# ---------------------------------------------------------------------------
# hopf: coproduct and antipode


def hopf_input(mods, spec, op):
    return (build_element(mods, spec, op[1]),)


def hopf_op(mods, spec, x):
    qalgebra = mods["qalgebra"]
    delta = qalgebra.coproduct(x)
    s = qalgebra.antipode(x)
    return x, delta, s


def _mono_json(m) -> list:
    return [m.a, m.b, m.c, m.d]


def hopf_outputs(out) -> str:
    x, delta, s = out
    tensor = [[_mono_json(m1), _mono_json(m2), z.to_json()] for (m1, m2), z in delta.sorted_terms()]
    return _canonical([tensor, s.to_json()])


def _counit_leg(mods, spec, delta, leg):
    """(eps (x) id) Delta when leg == 0, (id (x) eps) Delta when leg == 1."""
    acc = {}
    for pair, z in delta.terms.items():
        m = pair[leg]
        if m.b == 0 and m.c == 0:  # eps(a) = eps(d) = 1, eps(b) = eps(c) = 0
            keep = pair[1 - leg]
            acc[keep] = acc[keep] + z if keep in acc else z
    return mods["qalgebra"].QElement(spec, acc)


def hopf_check(mods, spec, op, out) -> list[str]:
    qalgebra, cyclo = mods["qalgebra"], mods["cyclo"]
    x, delta, s = out
    bad = []
    if _counit_leg(mods, spec, delta, 0) != x:
        bad.append("(eps (x) id) Delta(x) != x")
    if _counit_leg(mods, spec, delta, 1) != x:
        bad.append("(id (x) eps) Delta(x) != x")
    # S is the anti-automorphism a -> d, b -> -q^-1 b, c -> -q c, d -> a
    images = {
        "a": qalgebra.QElement.generator(spec, "d"),
        "b": qalgebra.QElement.generator(spec, "b") * (-cyclo.zeta_pow(spec, -1)),
        "c": qalgebra.QElement.generator(spec, "c") * (-cyclo.zeta_pow(spec, 1)),
        "d": qalgebra.QElement.generator(spec, "a"),
    }
    expected = qalgebra.QElement.zero(spec)
    for mono, z in x.terms.items():
        term = qalgebra.QElement.scalar(spec, z)
        for letter, e in reversed(list(zip("abcd", mono))):
            term = term * images[letter] ** e
        expected = expected + term
    if s != expected:
        bad.append("antipode(x) differs from the antimultiplicative extension")
    return bad


# ---------------------------------------------------------------------------
# replay loop

# workload -> (ops of one pass, untimed input step, timed op, output text, checks)
STREAMS = {
    "session": (gen.session_ops, session_input, session_op, session_outputs, session_check),
    "hopf": (gen.hopf_ops, hopf_input, hopf_op, hopf_outputs, hopf_check),
}


def cmd_replay(workload, seed, trace, check):
    _import_package()
    import qsl2.basis
    import qsl2.cyclo
    import qsl2.expr
    import qsl2.frobenius
    import qsl2.qalgebra

    mods = {
        "basis": qsl2.basis,
        "cyclo": qsl2.cyclo,
        "expr": qsl2.expr,
        "frobenius": qsl2.frobenius,
        "qalgebra": qsl2.qalgebra,
    }
    make_ops, prepare, run_op, outputs, check_op = STREAMS[workload]
    specs = {l: qsl2.cyclo.make_root_spec(l) for l in gen.LS[workload]}
    ops = make_ops(seed)

    tracer = None
    if trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()

    digest = hashlib.sha256()
    latencies = []
    host = []
    failures = []
    clock = time.perf_counter
    for i, op in enumerate(ops):
        spec = specs[op[0]]
        if not check:
            host.append(calib.sample())
        try:
            args = prepare(mods, spec, op)
            start = clock()
            out = run_op(mods, spec, *args)
            latencies.append(clock() - start)
        except Exception as err:  # noqa: BLE001 - an op failure is a result
            latencies.append(float("nan"))
            failures.append("op %d raised %s: %s" % (i, type(err).__name__, err))
            digest.update(b"error\n")
            continue
        digest.update(outputs(out).encode() + b"\n")
        if check:
            try:
                bad = check_op(mods, spec, op, out)
            except Exception as err:  # noqa: BLE001 - a crashing check is a failed check
                bad = ["check raised %s: %s" % (type(err).__name__, err)]
            if bad:
                failures.append("op %d: %s" % (i, "; ".join(bad)))
    peak = _peak_rss_mb()
    result = {
        "latencies": latencies,
        "host_factors": calib.local_factors(host) if host else None,
        "digest": digest.hexdigest(),
        "failures": failures,
        "peak_rss_mb": peak,
    }
    if tracer is not None:
        tracer.uninstall()
        result["trace"] = tracer.report()
    return result


# ---------------------------------------------------------------------------
# traced CLI call


def cmd_cli(argv):
    """`qsl2.cli.run(argv)` with the tracer installed; the CLI's output is returned."""
    _import_package()
    import qsl2.cli
    from tracer import Tracer

    tracer = Tracer()
    tracer.install()
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = qsl2.cli.run(argv)
    tracer.uninstall()
    return {"exit": code, "stdout": buf.getvalue(), "trace": tracer.report()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="mode", required=True)
    p = sub.add_parser("setup")
    p.add_argument("workload", choices=sorted(gen.LS))
    for name in ("session", "hopf"):
        p = sub.add_parser(name)
        p.add_argument("--seed", type=int, required=True)
        p.add_argument("--trace", action="store_true")
        p.add_argument("--check", action="store_true")
    p = sub.add_parser("cli")
    p.add_argument("argv", nargs=argparse.REMAINDER)
    args = parser.parse_args(argv)
    if args.mode == "setup":
        result = cmd_setup(args.workload)
    elif args.mode == "cli":
        cli_argv = args.argv[1:] if args.argv[:1] == ["--"] else args.argv
        result = cmd_cli(cli_argv)
    else:
        result = cmd_replay(args.mode, args.seed, args.trace, args.check)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
