"""Command-line front end.

    qsl2 --l L [--zeta-exp E] [--side left|right] [--format text|json] <command> ...

Commands: normalize, mul, coproduct, antipode, counit, decompose,
recompose, localize, ptable, closure, verify-basis, selftest.  Global
flags come before the command name.  `-` as an expression argument reads
from stdin.  Exit status: 0 success, 1 mathematical failure, 2 usage or
parse error.  When a reader closes stdout early (`qsl2 selftest | head`),
the process ends quietly on SIGPIPE, as cat does, where the platform has
that signal.  json is imported only where a command reads or writes it,
so text commands start without it.
"""

import argparse
import random
import sys
from fractions import Fraction
from functools import reduce

from .basis import (
    CHARTS,
    _index_tag,
    clear_denominators,
    decompose,
    decomposition_from_json,
    enumerate_basis,
    localize,
    recompose,
    verify_freeness,
)
from .cyclo import (
    Cyclotomic,
    RootSpec,
    json_int,
    make_root_spec,
    p_coeff,
    p_expansion,
    zeta_pow,
)
from .expr import (
    ExprSyntaxError,
    classical_monomial_text,
    format_classical,
    format_cyclotomic,
    format_qelement,
    format_tensor,
    format_terms,
    parse_qelement,
    quantum_monomial_text,
)
from .frobenius import (
    SIDES,
    central_reduce,
    closure_diagnostic,
    is_central,
    lift,
    module_recompose,
)
from .qalgebra import (
    EXPONENT_MAX,
    ClassicalElement,
    QElement,
    QMonomial,
    TensorElement,
    antipode,
    coproduct,
    counit,
    qelement_from_json,
    qmul,
    random_qelement,
    straighten,
    tensor_mul,
)


class _UsageError(ValueError):
    pass


# largest l: the field table is cheap (normalize "a*d" parses and prints in
# 0.006 s at l = 200 and 0.04 s at l = 500 on a 2-core machine), so the cap
# bounds the work that grows with l itself: ptable --k 200 takes 1.5 s at
# l = 200, and verify-basis solves for l^3 basis elements
L_MAX = 200


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qsl2",
        description="Exact engine for the quantum 2x2 coordinate ring at a root of unity.",
    )
    parser.add_argument("--l", type=int, default=None, metavar="L",
                        help="root parameter l >= 2 (required except for selftest)")
    parser.add_argument("--zeta-exp", type=int, default=1, dest="zeta_exp", metavar="E",
                        help="use q = zeta_N^E (default 1); E must be coprime to N")
    parser.add_argument("--side", choices=SIDES, default="left",
                        help="module side for decompose/verify-basis (default left)")
    parser.add_argument("--format", choices=("text", "json"), default="text", dest="fmt",
                        help="output format (default text)")
    parser.add_argument("--fixtures", default=None, metavar="PATH",
                        help="JSONL fixture file for verify-basis")
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")

    for name, doc in (
        ("normalize", "straighten an expression to the normal form"),
        ("coproduct", "apply the coproduct"),
        ("antipode", "apply the antipode"),
        ("counit", "apply the counit"),
        ("decompose", "write an element in the rank-l^3 module basis"),
    ):
        cmd = sub.add_parser(name, help=doc)
        cmd.add_argument("expr")
    cmd = sub.add_parser("mul", help="multiply two expressions")
    cmd.add_argument("expr")
    cmd.add_argument("expr2")
    cmd = sub.add_parser("recompose", help="rebuild an element from decomposition JSON")
    cmd.add_argument("doc", help="Decomposition JSON (or - for stdin)")
    cmd = sub.add_parser("localize", help="rewrite over the alpha or beta chart")
    cmd.add_argument("expr")
    cmd.add_argument("--chart", choices=CHARTS, required=True)
    cmd = sub.add_parser("ptable", help="coefficients of (bc)^j in a^k d^k")
    cmd.add_argument("--k", type=int, required=True)
    cmd = sub.add_parser("closure", help="diagnostic for q of a chosen order")
    cmd.add_argument("--order", type=int, required=True)
    cmd = sub.add_parser("verify-basis", help="freeness certificate / fixture check")
    cmd.add_argument("--degree-bound", type=int, default=2, dest="degree_bound")
    sub.add_parser("selftest", help="run the invariant suites at l in {2, 3}")
    return parser


def _bounded_l(l: int) -> int:
    if l > L_MAX:
        raise _UsageError("l must be <= %d (the --l limit), got %d" % (L_MAX, l))
    return l


def _spec(args):
    if args.l is None:
        raise _UsageError("--l is required for this command")
    return make_root_spec(_bounded_l(args.l), zeta_exponent=args.zeta_exp)


def _arg_text(args, value: str, whole: bool = False) -> str:
    """value, or for `-` the whole of stdin or its next non-blank line; the queue is per run."""
    if value != "-":
        return value
    if whole:
        return sys.stdin.read()
    if args.stdin_lines is None:
        args.stdin_lines = [line for line in sys.stdin.read().splitlines() if line.strip()][::-1]
    if not args.stdin_lines:
        raise _UsageError("empty stdin")
    return args.stdin_lines.pop()


def _emit(args, text: str, obj) -> None:
    if args.fmt == "json":
        import json

        print(json.dumps(obj, indent=2))
    else:
        print(text)


def _decomposition_text(dec) -> str:
    lines = []
    for word, g in dec.sorted_terms():
        lines.append("%s  %s : %s" % (_index_tag(word), quantum_monomial_text(word) or "1",
                                      format_classical(g)))
    return "\n".join(lines) if lines else "0"


def _localized_text(le) -> str:
    lines = ["chart %s" % le.chart]
    for mono, (g, k) in le.sorted_terms():
        coeff = format_classical(g)
        if k:
            coeff = "%s * %s^-%d" % (coeff if len(g.terms) == 1 else "(%s)" % coeff, le.chart, k)
        lines.append("%s : %s" % (quantum_monomial_text(mono) or "1", coeff))
    if not le.terms:
        lines.append("0")
    return "\n".join(lines)


def _det_line(spec, p: int, coeffs) -> str:
    pairs = ((None if j == 0 else "b^%d c^%d" % (j, j), z) for j, z in enumerate(coeffs) if not z.is_zero())
    return "a^%d d^%d = %s" % (p, p, format_terms(spec, pairs, times=" "))


def _closure_text(spec, report) -> str:
    yes = lambda flag: "yes" if flag else "no"
    lines = [
        "closure diagnostic: l=%d, root order %d (%s case)"
        % (report.l, report.order, "standard" if report.standard else "non-standard"),
        _det_line(spec, report.l, report.lth_det_coeffs),
    ]
    if report.power != report.l:
        lines.append(_det_line(spec, report.power, report.power_det_coeffs))
    lines += [
        "%d-th powers pairwise commute: %s" % (report.power, yes(report.powers_commute)),
        "%d-th powers central: %s" % (report.power, yes(report.powers_central)),
        "determinant relation closes: %s" % yes(report.determinant_closes),
        "coproduct closes" if report.coproduct_closes else "coproduct does not close",
    ]
    return "\n".join(lines)


def _closure_json(report) -> dict:
    return {
        "l": report.l,
        "order": report.order,
        "standard": report.standard,
        "power": report.power,
        "powers_commute": report.powers_commute,
        "powers_central": report.powers_central,
        "lth_determinant": [z.to_json() for z in report.lth_det_coeffs],
        "power_determinant": [z.to_json() for z in report.power_det_coeffs],
        "determinant_closes": report.determinant_closes,
        "coproduct_closes": report.coproduct_closes,
    }


def _cmd_verify_fixtures(args) -> int:
    import json

    failures = 0
    checked = 0
    lines_out = []
    try:
        handle = open(args.fixtures, "r", encoding="utf-8")
    except OSError as err:
        raise _UsageError("cannot read fixtures %s: %s" % (args.fixtures, err.strerror)) from None
    with handle:
        for lineno, line in enumerate(handle, start=1):
            if not line.strip():
                continue
            record = json.loads(line)
            if type(record) is not dict:
                raise _UsageError("line %d: expected a JSON object, got %s" % (lineno, type(record).__name__))
            try:
                l, given, want = record["l"], record["input"], record["expected"]
            except KeyError as err:
                raise _UsageError("line %d: missing field %s" % (lineno, err)) from None
            spec = make_root_spec(_bounded_l(json_int(l)), zeta_exponent=args.zeta_exp)
            x = qelement_from_json(given, spec)
            expected = decomposition_from_json(want, spec)
            got = decompose(x, expected.side)
            checked += 1
            if got.coefficients == expected.coefficients:
                lines_out.append("line %d: ok" % lineno)
            else:
                failures += 1
                lines_out.append("line %d: MISMATCH" % lineno)
    lines_out.append("%d checked, %d failed" % (checked, failures))
    _emit(args, "\n".join(lines_out), {"checked": checked, "failures": failures})
    return 1 if failures else 0


def _cmd_verify_basis(args) -> int:
    if args.fixtures is not None:
        return _cmd_verify_fixtures(args)
    spec = _spec(args)
    l = spec.l
    count = len(enumerate_basis(l))
    report = verify_freeness(l, args.side, args.degree_bound, zeta_exponent=args.zeta_exp)
    agree, total = report.oracle_agreement, report.monomials_checked
    ok = count == l**3 and report.certified
    text = "\n".join([
        "basis count: %d (expected %d)" % (count, l**3),
        "kernel dimension: %d" % report.kernel_dimension,
        "spanning: %s (%d monomials)" % ("yes" if report.all_decomposed else "no",
                                         report.monomials_checked),
        "decompose/oracle agreement: %d/%d" % (agree, total),
        "verify-basis: %s" % ("PASS" if ok else "FAIL"),
    ])
    _emit(args, text, {
        "l": l,
        "side": args.side,
        "degree_bound": args.degree_bound,
        "basis_count": count,
        "kernel_dimension": report.kernel_dimension,
        "spanning": report.all_decomposed,
        "oracle_agreement": [agree, total],
        "ok": ok,
    })
    return 0 if ok else 1


def run(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    args.stdin_lines = None
    try:
        return _dispatch(args)
    except ExprSyntaxError as err:
        print("parse error: %s" % err, file=sys.stderr)
        return 2
    except ValueError as err:  # _UsageError and json.JSONDecodeError are ValueErrors
        print("error: %s" % err, file=sys.stderr)
        return 2
    except RuntimeError as err:
        print("failure: %s" % err, file=sys.stderr)
        return 1


def _dispatch(args) -> int:
    cmd = args.command
    if cmd == "selftest":
        return _cmd_selftest(args)
    if cmd == "closure":
        if args.l is None:
            raise _UsageError("--l is required for this command")
        spec = RootSpec(_bounded_l(args.l), args.order, args.zeta_exp)
        report = closure_diagnostic(spec)
        _emit(args, _closure_text(spec, report), _closure_json(report))
        return 0
    if cmd == "verify-basis":
        return _cmd_verify_basis(args)

    spec = _spec(args)
    if cmd == "ptable":
        if args.k < 0:
            raise _UsageError("--k must be >= 0")
        if args.k > EXPONENT_MAX:
            raise _UsageError("--k must be <= %d (EXPONENT_MAX)" % EXPONENT_MAX)
        row = p_expansion(spec, args.k)
        if args.k <= spec.l:
            for j in range(args.k + 1):
                if row[j] != p_coeff(spec, args.k, j):
                    raise RuntimeError("p_expansion and p_coeff disagree at p[%d,%d]" % (args.k, j))
        text = "\n".join(
            "p[%d,%d] = %s" % (args.k, j, format_cyclotomic(spec, row[j]))
            for j in range(args.k + 1)
        )
        _emit(args, text, {"k": args.k, "coeffs": [z.to_json() for z in row]})
        return 0
    if cmd == "recompose":
        import json

        data = json.loads(_arg_text(args, args.doc, whole=True))
        element = recompose(decomposition_from_json(data, spec))
        _emit(args, format_qelement(element), element.to_json())
        return 0

    x = parse_qelement(_arg_text(args, args.expr), spec)
    if cmd == "normalize":
        _emit(args, format_qelement(x), x.to_json())
    elif cmd == "mul":
        y = parse_qelement(_arg_text(args, args.expr2), spec)
        z = qmul(x, y)
        _emit(args, format_qelement(z), z.to_json())
    elif cmd == "coproduct":
        t = coproduct(x)
        _emit(args, format_tensor(t), t.to_json())
    elif cmd == "antipode":
        y = antipode(x)
        _emit(args, format_qelement(y), y.to_json())
    elif cmd == "counit":
        z = counit(x)
        _emit(args, format_cyclotomic(spec, z), z.to_json())
    elif cmd == "decompose":
        dec = decompose(x, args.side)
        _emit(args, _decomposition_text(dec), dec.to_json())
    elif cmd == "localize":
        le = localize(x, args.chart)
        _emit(args, _localized_text(le), le.to_json())
    else:  # pragma: no cover
        raise _UsageError("unknown command %r" % cmd)
    return 0


# ---------------------------------------------------------------------------
# selftest


def _expect(ok: bool, what: str) -> None:
    """A selftest check that, unlike assert, also runs under python -O."""
    if not ok:
        raise AssertionError(what)


def _check_cyclotomic():
    rng = random.Random(11)
    # order 15 (phi = 8) inverts through a norm of seven conjugates
    for order in (3, 4, 5, 12, 15):
        zeta = Cyclotomic.zeta(order)
        elements = []
        for _ in range(6):
            z = Cyclotomic.zero(order)
            term = Cyclotomic.one(order)
            for _ in range(3):
                z = z + term * Fraction(rng.randrange(-4, 5))
                term = term * zeta
            elements.append(z)
        for x in elements:
            for y in elements:
                for w in elements:
                    _expect((x + y) * w == x * w + y * w, "distributivity in Q(zeta_%d)" % order)
            if not x.is_zero():
                _expect(x * x.inv() == Cyclotomic.one(order), "x * x^-1 == 1 in Q(zeta_%d)" % order)
        acc = Cyclotomic.one(order)
        for _ in range(order):
            acc = acc * zeta
        _expect(acc == Cyclotomic.one(order), "zeta^%d == 1" % order)


def _check_straightening():
    rng = random.Random(12)
    for l in (2, 3):
        spec = make_root_spec(l)
        q = zeta_pow(spec, 1)
        A, B, C, D = (QElement.generator(spec, ch) for ch in "abcd")
        _expect(qmul(A, B) == qmul(B, A) * q, "ab == q ba at l=%d" % l)
        _expect(qmul(A, C) == qmul(C, A) * q, "ac == q ca at l=%d" % l)
        _expect(qmul(B, D) == qmul(D, B) * q, "bd == q db at l=%d" % l)
        _expect(qmul(C, D) == qmul(D, C) * q, "cd == q dc at l=%d" % l)
        _expect(qmul(B, C) == qmul(C, B), "bc == cb at l=%d" % l)
        _expect(qmul(A, D) - qmul(D, A) == qmul(B, C) * (q - zeta_pow(spec, -1)),
                "ad - da == (q - q^-1) bc at l=%d" % l)
        _expect(qmul(A, D) - qmul(B, C) * q == QElement.one(spec), "ad - q bc == 1 at l=%d" % l)
        for _ in range(20):
            word = "".join(rng.choice("abcd") for _ in range(rng.randrange(0, 7)))
            whole = straighten(word, spec)
            cut = rng.randrange(0, len(word) + 1)
            _expect(whole == qmul(straighten(word[:cut], spec), straighten(word[cut:], spec)),
                    "straightening %r is multiplicative at l=%d" % (word, l))


def _check_product_rows():
    for l in (2, 3):
        spec = make_root_spec(l)
        for k in range(l + 1):
            row = p_expansion(spec, k)
            for j in range(k + 1):
                _expect(row[j] == p_coeff(spec, k, j), "p[%d,%d] row == closed form at l=%d" % (k, j, l))
        for j in range(1, l):
            _expect(p_coeff(spec, l, j).is_zero(), "p[%d,%d] == 0 at l=%d" % (l, j, l))


def _check_hopf():
    rng = random.Random(13)
    letter = {ch: QMonomial(*(int(ch == x) for x in "abcd")) for ch in "abcd"}
    for spec in (make_root_spec(2), make_root_spec(3), make_root_spec(4, zeta_exponent=3)):
        # Delta of each letter as defined: the reference route, with no cache and no mirror
        images = {ch: TensorElement(spec, {(letter[u], letter[v]): Cyclotomic.one(spec.N) for u, v in pairs})
                  for ch, pairs in zip("abcd", (("aa", "bc"), ("ab", "bd"), ("ca", "dc"), ("cb", "dd")))}
        words = ["a", "b", "c", "d"]
        for _ in range(10):
            word = "".join(rng.choice("abcd") for _ in range(rng.randrange(1, 4)))
            # with its transpose b<->c, so "Delta by letters" checks both members of each orbit pair
            words += [word, word.translate(str.maketrans("bc", "cb"))]
        for word in words:
            x = straighten(word, spec)
            t = coproduct(x)
            _expect(t == reduce(tensor_mul, map(images.get, word)), "Delta by letters on %r at l=%d" % (word, spec.l))
            left, right = {}, {}
            for (m1, m2), v in t.terms.items():
                for (n1, n2), w in coproduct(QElement.monomial(spec, m1)).terms.items():
                    key = (n1, n2, m2)
                    left[key] = left.get(key, Cyclotomic.zero(spec.N)) + v * w
                for (n1, n2), w in coproduct(QElement.monomial(spec, m2)).terms.items():
                    key = (m1, n1, n2)
                    right[key] = right.get(key, Cyclotomic.zero(spec.N)) + v * w
            _expect({k: v for k, v in left.items() if not v.is_zero()} ==
                    {k: v for k, v in right.items() if not v.is_zero()},
                    "coassociativity on %r at l=%d" % (word, spec.l))
            eps_left = QElement.zero(spec)
            eps_right = QElement.zero(spec)
            conv_left = QElement.zero(spec)
            conv_right = QElement.zero(spec)
            for (m1, m2), v in t.terms.items():
                e1 = QElement.monomial(spec, m1, v)
                eps_left = eps_left + QElement.monomial(spec, m2, v * counit(QElement.monomial(spec, m1)))
                eps_right = eps_right + QElement.monomial(spec, m1, v * counit(QElement.monomial(spec, m2)))
                conv_left = conv_left + qmul(antipode(e1), QElement.monomial(spec, m2))
                conv_right = conv_right + qmul(QElement.monomial(spec, m1, v), antipode(QElement.monomial(spec, m2)))
            _expect(eps_left == x and eps_right == x, "counit axiom on %r at l=%d" % (word, spec.l))
            unit_eps = QElement.scalar(spec, counit(x))
            _expect(conv_left == unit_eps and conv_right == unit_eps,
                    "antipode axiom on %r at l=%d" % (word, spec.l))


def _check_frobenius():
    rng = random.Random(14)
    for l in (2, 3):
        spec = make_root_spec(l)
        al, be, ga, de = (ClassicalElement.generator(spec, n)
                          for n in ("alpha", "beta", "gamma", "delta"))
        _expect(lift(al * de - be * ga) == QElement.one(spec),
                "lift(alpha delta - beta gamma) == 1 at l=%d" % l)
        _expect(is_central(lift(al)) == (l % 2 == 1), "a^l is central iff l is odd (l=%d)" % l)
        _expect(is_central(lift(be)) == (l % 2 == 1), "b^l is central iff l is odd (l=%d)" % l)
        for _ in range(6):
            g = al * Fraction(rng.randrange(-2, 3)) + be * ga * Fraction(rng.randrange(-2, 3))
            h = de * Fraction(rng.randrange(-2, 3)) + ClassicalElement.one(spec)
            _expect(lift(g * h) == qmul(lift(g), lift(h)), "lift is multiplicative at l=%d" % l)
        x = random_qelement(spec, rng)
        y = qmul(lift(al + be), x)
        _expect(module_recompose(central_reduce(y, "left")) == y, "central_reduce round trip at l=%d" % l)


def _check_basis():
    for l, side in ((2, "left"), (2, "right"), (3, "left")):
        _expect(verify_freeness(l, side, 2).certified,
                "freeness certificate and decompose == oracle on the %s side at l=%d" % (side, l))
    rng = random.Random(15)
    spec3 = make_root_spec(3)
    for _ in range(10):
        x = random_qelement(spec3, rng)
        for side in SIDES:
            _expect(recompose(decompose(x, side)) == x, "decompose round trip on the %s side at l=3" % side)


def _check_localization():
    rng = random.Random(16)
    spec = make_root_spec(3)
    al = ClassicalElement.generator(spec, "alpha")
    be = ClassicalElement.generator(spec, "beta")
    for _ in range(6):
        x = random_qelement(spec, rng)
        for chart, gen in (("alpha", al), ("beta", be)):
            cleared, k = clear_denominators(localize(x, chart))
            _expect(cleared == qmul(lift(gen**k), x), "%s chart clears to lift(%s^%d) x" % (chart, chart, k))


def _check_parser():
    rng = random.Random(17)
    spec = make_root_spec(3)
    _expect(format_qelement(parse_qelement("d*a", spec)) == "1 + q^-1*b*c", "d*a prints as 1 + q^-1*b*c")
    try:
        parse_qelement("a^(2", spec)
        raise AssertionError("expected a parse error")
    except ExprSyntaxError as err:
        _expect(err.position == 4, "parse error at position 4, not %d" % err.position)
    for l in (2, 3):
        sp = make_root_spec(l)
        for _ in range(15):
            x = random_qelement(sp, rng)
            _expect(parse_qelement(format_qelement(x), sp) == x, "print/parse round trip at l=%d" % l)


_SELFTEST_CHECKS = (
    ("cyclotomic arithmetic", _check_cyclotomic),
    ("straightening", _check_straightening),
    ("product rows", _check_product_rows),
    ("hopf axioms", _check_hopf),
    ("frobenius lift", _check_frobenius),
    ("basis decomposition", _check_basis),
    ("localization", _check_localization),
    ("parser roundtrip", _check_parser),
)


def _cmd_selftest(args) -> int:
    failures = 0
    results = []
    for name, check in _SELFTEST_CHECKS:
        try:
            check()
        except Exception as err:  # noqa: BLE001 - report and keep going
            failures += 1
            results.append({"name": name, "ok": False, "error": str(err)})
            if args.fmt == "text":
                print("FAIL %s: %s" % (name, err))
        else:
            results.append({"name": name, "ok": True})
            if args.fmt == "text":
                print("ok %s" % name)
    if args.fmt == "json":
        import json

        print(json.dumps({"ok": failures == 0, "checks": results}, indent=2))
    elif failures:
        print("%d of %d checks failed" % (failures, len(_SELFTEST_CHECKS)))
    return 1 if failures else 0


def main() -> int:
    import signal

    # a reader that closes stdout early (qsl2 ... | head) ends the process
    # quietly, as it ends cat, instead of raising BrokenPipeError
    if hasattr(signal, "SIGPIPE"):
        signal.signal(signal.SIGPIPE, signal.SIG_DFL)
    return run()


if __name__ == "__main__":
    sys.exit(main())
