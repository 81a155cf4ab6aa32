"""The rank-l^3 free module basis over the l-th-power subalgebra.

Generators (all exponents below l):

    family A:  a^m b^n c^s  with 1 <= m,  m <= s
    family D:  b^n c^s d^r  with 0 <= r,  s + r <= l - 1

which counts l^2(l-1)/2 + l^2(l+1)/2 = l^3 monomials.  Any other reduced
monomial is rewritten by one elimination relation, in its d-word and
a-word forms (k = l-r resp. k = l-m, p_{k,j} the product-row coefficients):

    b^n c^s d^r  = q^(r(n+s))  delta |> (a^k b^n c^s)  - sum_j p_{k,j} b^(n+j) c^(s+j) d^r
    a^m b^n c^s  = q^(-k(n+s)) alpha |> (b^n c^s d^k)  - sum_j p_{k,j} a^m b^(n+j) c^(s+j)

(left forms; the right forms carry q^(-k(n+s)) resp. q^(m(n+s)) on the
subalgebra term and the same sums).  Each non-basis term on the right has
the a and d exponents of the left side and a larger c, so decompose
settles x in one sweep over c; oracle_decompose solves for the same
coordinates by brute-force exact linear algebra and knows nothing about
the relations.
"""

from __future__ import annotations

from collections import namedtuple

from .cyclo import Cyclotomic, RootSpec, json_int, json_shown, make_root_spec, p_expansion, zeta_pow
from .exactla import ExactMatrix, rref
from .frobenius import (
    ModuleElement,
    _check_side,
    _lifted_product,
    _require_standard,
    _SidedTerms,
    central_reduce,
    module_recompose,
)
from .qalgebra import (
    ClassicalElement,
    ClassicalMonomial,
    QElement,
    QMonomial,
    _SortedTerms,
    classical_mul,
)
from .qalgebra import _add_term


def enumerate_basis(l: int) -> list[QMonomial]:
    """All l^3 basis words, family D first, each family in index order."""
    if l < 2:
        raise ValueError("l must be at least 2")
    return sorted((mono for mono in residual_monomials(l) if is_basis_monomial(mono, l)), key=_basis_order)


def residual_monomials(l: int) -> list[QMonomial]:
    """Every reduced monomial with all exponents below l (2l^3 - l^2 of them)."""
    return QMonomial.reduced_up_to(l - 1)


def is_basis_monomial(mono: QMonomial, l: int) -> bool:
    """Is a reduced monomial with exponents below l a basis word? ValueError for any other monomial."""
    if min(mono) < 0 or max(mono) >= l or (mono.a and mono.d):
        raise ValueError("monomial %s is not reduced for l=%d" % (mono, l))
    return mono.c >= mono.a if mono.a else mono.c + mono.d <= l - 1


def basis_index(word: QMonomial) -> tuple[str, tuple[tuple[str, int], ...]]:
    """The family and named indices of a basis word, as the JSON rows and the CLI name them.

    a^m b^n c^s is ("A", (("m", m), ("n", n), ("s", s))) and b^n c^s d^r is
    ("D", (("n", n), ("s", s), ("r", r))).
    """
    if word.a:
        return "A", (("m", word.a), ("n", word.b), ("s", word.c))
    return "D", (("n", word.b), ("s", word.c), ("r", word.d))


def _index_tag(word: QMonomial) -> str:
    """The family and indices of word as the CLI prints them, e.g. A(m=1,n=0,s=2)."""
    family, indices = basis_index(word)
    return "%s(%s)" % (family, ",".join("%s=%d" % kv for kv in indices))


def _basis_order(word: QMonomial) -> tuple:
    # family D first, each family in the order of its indices
    return (1,) + word[:3] if word.a else (0,) + word[1:]


class Decomposition(_SidedTerms):
    """Coordinates of an element in the free-module basis, keyed by basis word."""

    __slots__ = ()
    _ROWS = "entries"
    _sort_key = staticmethod(_basis_order)

    def _key(self, word: QMonomial) -> QMonomial:
        if not is_basis_monomial(word, self.spec.l):
            raise ValueError("%s is not a basis index for l=%d" % (_index_tag(word), self.spec.l))
        return word

    @property
    def coefficients(self) -> dict[QMonomial, ClassicalElement]:
        return self.terms

    @staticmethod
    def _key_json(word: QMonomial) -> dict:
        family, indices = basis_index(word)
        return {"family": family, **dict(indices)}

    @staticmethod
    def _key_from_json(row: dict) -> QMonomial:
        family = row["family"]
        if family == "A":
            word = QMonomial(json_int(row["m"]), json_int(row["n"]), json_int(row["s"]), 0)
        elif family == "D":
            word = QMonomial(0, json_int(row["n"]), json_int(row["s"]), json_int(row["r"]))
        else:
            raise ValueError("unknown family %s" % json_shown(family))
        # an A row with m = 0 holds a d-free word of family D
        if basis_index(word)[0] != family:
            raise ValueError("%s labelled %s is not a basis index" % (_index_tag(word), family))
        return word


decomposition_from_json = Decomposition.from_json


# the subalgebra generators of the elimination heads; the checked index
# ranges make every tail and head key below normal, and the tail's row
# p_k, k < l, has no zero entry, so the steps build through the trusted _like
_ALPHA = ClassicalMonomial(1, 0, 0, 0)
_DELTA = ClassicalMonomial(0, 0, 0, 1)


def eliminate_d_family(n: int, s: int, r: int, spec: RootSpec, side: str = "left") -> ModuleElement:
    """One elimination step for b^n c^s d^r; recomposing the result gives it back."""
    _require_standard(spec, "eliminate_d_family")
    _check_side(side)
    l = spec.l
    if not (0 <= n < l and 0 <= s < l and 1 <= r < l):
        raise ValueError("indices out of range: n=%d s=%d r=%d for l=%d" % (n, s, r, l))
    return _eliminate(0, n, s, r, spec, side)


def eliminate_a_family(m: int, n: int, s: int, spec: RootSpec, side: str = "left") -> ModuleElement:
    """One elimination step for a^m b^n c^s; recomposing the result gives it back."""
    _require_standard(spec, "eliminate_a_family")
    _check_side(side)
    l = spec.l
    if not (1 <= m < l and 0 <= n < l and 0 <= s < l):
        raise ValueError("indices out of range: m=%d n=%d s=%d for l=%d" % (m, n, s, l))
    return _eliminate(m, n, s, 0, spec, side)


def _eliminate(i: int, n: int, s: int, r: int, spec: RootSpec, side: str) -> ModuleElement:
    """The elimination relation for a^i b^n c^s d^r, exactly one of i, r nonzero.

    k = l - (i or r); the head phase is q^(e(n+s)), e = i or r for a left d-word or a right a-word, else -k.
    """
    k = spec.l - (i or r)
    row = p_expansion(spec, k)
    tail = QElement._like(spec, {QMonomial(i, n + j, s + j, r): -row[j] for j in range(1, k + 1)})
    head, gen = (QMonomial(0, n, s, k), _ALPHA) if i else (QMonomial(k, n, s, 0), _DELTA)
    e = (i or r) if (side == "left") == (r > 0) else -k
    # the head is no residual word of the tail: an A head b^n c^s d^k has d = k > 0 where
    # every tail word keeps d = 0, a D head a^k b^n c^s has a = k > 0 where they keep a = 0
    head_coeff = ClassicalElement._like(spec, {gen: zeta_pow(spec, e * (n + s))})
    return ModuleElement._like(spec, side, {**central_reduce(tail, side).terms, head: head_coeff})


def decompose(x: QElement, side: str = "left") -> Decomposition:
    """Coordinates of x in the basis, by one sweep over the c-exponent from 0 to l - 1."""
    spec = x.spec
    _require_standard(spec, "decompose")
    _check_side(side)
    l = spec.l
    me = central_reduce(x, side)
    settled: dict[QMonomial, ClassicalElement] = {}
    # every non-basis term an elimination produces has a larger c (the in-order
    # check below), so one bucket per c, swept once from c = 0, settles x
    pending: list[dict[QMonomial, ClassicalElement]] = [{} for _ in range(l)]
    for mono, g in me.terms.items():
        (settled if is_basis_monomial(mono, l) else pending[mono.c])[mono] = g
    for mono, g in (term for bucket in pending for term in bucket.items()):
        i, j, k, m = mono
        if i > 0:
            rel = eliminate_a_family(i, j, k, spec, side)
        else:
            rel = eliminate_d_family(j, k, m, spec, side)
        for mono2, h in rel.terms.items():
            basic = is_basis_monomial(mono2, l)
            # a relation term is a basis monomial, or keeps the a and d of mono and has a larger c
            if not basic and not (mono2.a == i and mono2.d == m and mono2.c > k):
                raise RuntimeError("eliminating %s produced %s out of order; this is a bug"
                                   % (mono, mono2))
            _add_term(settled if basic else pending[mono2.c], mono2, classical_mul(g, h))
    return Decomposition._like(spec, side, settled)


def recompose(dec: Decomposition) -> QElement:
    """Evaluate the coordinates back to an element; inverse of decompose."""
    return module_recompose(dec)


# ---------------------------------------------------------------------------
# Localization charts


CHARTS = ("alpha", "beta")


class LocalizedElement(namedtuple("LocalizedElement", "spec chart terms"), _SortedTerms):
    """x written over a chart: sum of lift(numerator)/denominator^k times chart words.

    chart "alpha": denominators are powers of alpha, chart words are the
    normal monomials a^r b^s c^t (stored with d = 0).  chart "beta":
    denominators are powers of beta, chart words are a^r b^s d^t (stored
    with c = 0), which may hold both a and d and are not straightened.
    All exponents are below l.  terms maps chart words to (numerator
    ClassicalElement, power k), k = 0 or 1 (see localize);
    clear_denominators multiplies each word as it is written.
    """

    __slots__ = ()

    def max_power(self) -> int:
        return max((k for _, k in self.terms.values()), default=0)

    def _json_head(self) -> dict:
        return {"chart": self.chart}

    _key_json = staticmethod(ModuleElement._key_json)

    @staticmethod
    def _value_json(value) -> dict:
        g, k = value
        return {"numerator": g.to_json(), "power": k}


def localize(x: QElement, chart: str) -> LocalizedElement:
    """Rewrite x over the requested chart with per-term minimal denominator powers.

    Each power is 0 or 1: for m, k < l, a^l d^m contracts completely and
    b^(l+j) c^k pairs every c with a b, so one alpha (beta) clears every d (c).
    The alpha chart multiplies by lift(alpha^K) = a^(lK) (_lifted_product);
    the beta chart writes each (bc)^k as the words a^t d^t, with coefficients
    read off the row p_expansion(spec, k), so its chart words are never
    straightened.
    """
    spec = x.spec
    _require_standard(spec, "localize")
    if chart not in CHARTS:
        raise ValueError("chart must be 'alpha' or 'beta', got %r" % (chart,))
    l = spec.l
    me = central_reduce(x, "left")
    acc: dict[QMonomial, ClassicalElement] = {}
    if chart == "alpha":
        K = int(any(m.d for m in me.terms))
        alpha_k = ClassicalMonomial(K, 0, 0, 0)
        for mono, g in me.terms.items():
            # alpha^K kills every d: a^(lK) against d^m contracts completely
            prod = _lifted_product(spec, alpha_k, mono, "left")
            sub = central_reduce(QElement._like(spec, dict(prod)), "left")
            for mono2, h in sub.terms.items():
                _add_term(acc, mono2, classical_mul(g, h))
    else:
        K = int(any(m.c for m in me.terms))
        for mono, g in me.terms.items():
            i, j, k, m = mono
            # beta^K * mono = q^(-ilK) a^i b^s (bc)^k d^m with s = lK + j - k, where
            # (bc)^k = sum_t c_{k,t} a^t d^t (cyclo.p_expansion) and b^s a^t = q^(-st) a^t b^s,
            # so the chart words are a^(i+t) b^s d^(m+t)
            s = l * K + j - k
            B, s0 = divmod(s, l)
            for t, p in enumerate(p_expansion(spec, k)):
                (A, r0), (C, t0) = divmod(i + t, l), divmod(m + t, l)
                # a^(lA) b^(lB) d^(lC) * a^r0 b^s0 d^t0 is q^(-l(r0 B + s0 C)) a^(i+t) b^s d^(m+t):
                # each a passes b^(lB) for q^(-lB) (and d^(lC) cleanly, q^(2l) = 1),
                # each b passes d^(lC) for q^(-lC)
                v = p * zeta_pow(spec, (k - t) * (k - t - 1) - k * k - t * t - i * l * K - s * t
                                 + l * (r0 * B + s0 * C))
                if (k - t) % 2:
                    v = -v
                # i*m = 0 (a residual monomial) and t <= k < l, so A*C = 0 and the key is reduced
                coeff = ClassicalElement._like(spec, {ClassicalMonomial(A, B, 0, C): v})
                _add_term(acc, QMonomial(r0, s0, 0, t0), classical_mul(g, coeff))
    # divide the chart generator back out of each term that allows it
    out: dict[QMonomial, tuple[ClassicalElement, int]] = {}
    for mono, g in acc.items():
        h = None
        if K and chart == "alpha":
            h = _divide_by_alpha(g)
        elif K and min(cm.beta for cm in g.terms):
            # beta never meets the alpha-delta rewrite, so beta divides g iff it divides every term
            h = ClassicalElement._like(spec, {ClassicalMonomial(al, be - 1, ga, de): c
                                              for (al, be, ga, de), c in g.terms.items()})
        out[mono] = (g, K) if h is None else (h, 0)
    return LocalizedElement(spec, chart, out)


def clear_denominators(le: LocalizedElement) -> tuple[QElement, int]:
    """Multiply through by denom^max_power; returns (element, max_power).

    The contract localize satisfies: the returned element equals
    lift(denom_generator^max_power) * x.  A term g/denom^k over the chart
    word w becomes the left module term (w, g * denom^(K-k)), and
    module_recompose multiplies each lifted coefficient monomial into w
    as it is written (a beta-chart word a^r b^s d^t may hold both a and d).
    """
    spec = le.spec
    _require_standard(spec, "clear_denominators")
    K = le.max_power()
    gen = ClassicalElement.generator(spec, le.chart)
    # a numerator already over denom^K passes through unchanged
    words = {mono: g if k == K else classical_mul(g, gen ** (K - k))
             for mono, (g, k) in le.terms.items()}
    return module_recompose(ModuleElement._like(spec, "left", words)), K


def _divide_by_alpha(g: ClassicalElement) -> ClassicalElement | None:
    """Solve alpha * D = g in the reduced basis, or None if g is not divisible."""
    spec = g.spec
    out: dict[ClassicalMonomial, Cyclotomic] = {}
    levels: dict[int, dict[tuple[int, int], Cyclotomic]] = {}
    for mono, v in g.terms.items():
        if mono.alpha >= 1:
            out[ClassicalMonomial(mono.alpha - 1, mono.beta, mono.gamma, 0)] = v
        else:
            levels.setdefault(mono.delta + 1, {})[(mono.beta, mono.gamma)] = v
    # alpha * delta^t' pulls in (1 + beta*gamma); solve along (beta, gamma) diagonals
    for tp, eqs in levels.items():
        diags: dict[int, dict[int, Cyclotomic]] = {}
        for (r, s), v in eqs.items():
            diags.setdefault(r - s, {})[min(r, s)] = v
        for dkey, vals in diags.items():
            r0, s0 = (dkey, 0) if dkey >= 0 else (0, -dkey)
            cur = Cyclotomic.zero(spec.N)
            for u in range(max(vals) + 1):
                cval = vals.get(u, Cyclotomic.zero(spec.N))
                cur = cval - cur
                if not cur.is_zero():
                    out[ClassicalMonomial(0, r0 + u, s0 + u, tp)] = cur
            if not cur.is_zero():
                return None
    # every key has alpha = 0 or delta = 0, and the two groups of keys differ in delta
    return ClassicalElement._like(spec, out)


# ---------------------------------------------------------------------------
# Brute-force oracle and freeness certificate


class DegreeBoundError(ValueError):
    """The candidate coefficient degree bound was too small."""


class FreenessError(RuntimeError):
    """A brute-force system had multiple solutions; freeness would be false."""


def _quantum_weight(mono: QMonomial) -> tuple[int, int]:
    return (mono.a + mono.b - mono.c - mono.d, mono.a - mono.b + mono.c - mono.d)


def _classical_weight(l: int, cm: ClassicalMonomial) -> tuple[int, int]:
    return (l * (cm.alpha + cm.beta - cm.gamma - cm.delta),
            l * (cm.alpha - cm.beta + cm.gamma - cm.delta))


def _pairs_by_weight(l: int, bound: int) -> dict[tuple[int, int], list]:
    """Every (basis word, candidate classical coefficient) pair, grouped by the weight of its column."""
    if bound < 0:
        raise ValueError("degree_bound must be >= 0, got %d" % bound)
    out: dict[tuple[int, int], list[tuple[QMonomial, ClassicalMonomial]]] = {}
    cands = [(cm, _classical_weight(l, cm)) for cm in ClassicalMonomial.reduced_up_to(bound)]
    for word in enumerate_basis(l):
        gw = _quantum_weight(word)
        for cm, cw in cands:
            out.setdefault((gw[0] + cw[0], gw[1] + cw[1]), []).append((word, cm))
    return out


def _trailing_monomial(l: int, word: QMonomial, cm: ClassicalMonomial) -> QMonomial:
    """tau(word, cm), the unique lowest-degree monomial of the candidate column, on either side.

    Multiplying the two normal monomials contracts a^A d^D (exponents
    summed over both factors) to a^(A-t) d^(D-t), t = min(A, D), times
    sum_j p_{t,j} (bc)^j.  The j = 0 term is tau with a coefficient +-q^k;
    every other term carries (bc)^j, j >= 1, so its degree is higher.
    """
    i, j, k, m = word
    A, D = l * cm.alpha + i, l * cm.delta + m
    t = min(A, D)
    return QMonomial(A - t, l * cm.beta + j, l * cm.gamma + k, D - t)


def _solve_weight(spec: RootSpec, side: str, pairs: list[tuple[QMonomial, ClassicalMonomial]],
                  rhs: list[dict[QMonomial, Cyclotomic]]) -> tuple[int, list[dict | None]]:
    """Solve every right-hand side against the candidate columns of `pairs`, in one rref.

    Returns the kernel dimension of the candidate columns and, per
    right-hand side, its coordinates (basis word -> ClassicalElement) or
    None if it is not in their span.
    """
    # the candidate columns lift(cm) * word (left) or word * lift(cm) (right), then the right-hand sides
    cols = [dict(_lifted_product(spec, cm, word, side)) for word, cm in pairs] + rhs
    rows: dict[QMonomial, dict[int, Cyclotomic]] = {}
    for j, col in enumerate(cols):
        for mono, v in col.items():
            rows.setdefault(mono, {})[j] = v
    red, pivots = rref(ExactMatrix(spec.N, len(cols), tuple(rows.values())))
    ncols = len(pairs)
    rank = sum(1 for col in pivots if col < ncols)
    solutions: list[dict | None] = []
    for j in range(ncols, len(cols)):
        # column j is in the candidates' span iff it is no pivot and no row
        # pivoted on another right-hand side uses it
        if j in pivots or any(j in row for row in red.rows[rank:len(pivots)]):
            solutions.append(None)
            continue
        coords: dict[QMonomial, ClassicalElement] = {}
        for col, row in zip(pivots[:rank], red.rows):
            if j in row:
                word, cm = pairs[col]
                _add_term(coords, word, ClassicalElement._like(spec, {cm: row[j]}))
        solutions.append(coords)
    return ncols - rank, solutions


def oracle_decompose(x: QElement, side: str = "left", degree_bound: int | None = None) -> Decomposition:
    """Find the coordinates of x by exact linear solving; no elimination knowledge.

    Candidate coefficients are all reduced classical monomials with
    exponents up to degree_bound (default max exponent of x over l, plus 2).
    Raises DegreeBoundError if the system is inconsistent at this bound and
    FreenessError if a system admits several solutions.
    """
    spec = x.spec
    _require_standard(spec, "oracle_decompose")
    _check_side(side)
    if degree_bound is None:
        degree_bound = x.max_exponent() // spec.l + 2
    pairs_by_weight = _pairs_by_weight(spec.l, degree_bound)
    buckets: dict[tuple[int, int], dict[QMonomial, Cyclotomic]] = {}
    for mono, v in x.terms.items():
        buckets.setdefault(_quantum_weight(mono), {})[mono] = v
    coeffs: dict[QMonomial, ClassicalElement] = {}
    for w, rhs_terms in buckets.items():
        if w not in pairs_by_weight:
            raise DegreeBoundError("no candidates at weight %s; raise degree_bound" % (w,))
        kernel, (coords,) = _solve_weight(spec, side, pairs_by_weight[w], [rhs_terms])
        if coords is None:
            raise DegreeBoundError("inconsistent system at weight %s; raise degree_bound" % (w,))
        if kernel:
            raise FreenessError("system at weight %s has %d free columns" % (w, kernel))
        for word, g in coords.items():
            _add_term(coeffs, word, g)
    return Decomposition(spec, side, coeffs)


class FreenessReport(namedtuple("FreenessReport", (
    "l", "side", "degree_bound", "monomials_checked", "kernel_dimension", "monomials_spanned",
    "oracle_agreement",  # spanned monomials whose oracle coordinates equal decompose's
))):
    """The counts of one verify_freeness certificate."""

    __slots__ = ()

    @property
    def all_decomposed(self) -> bool:
        return self.monomials_spanned == self.monomials_checked

    @property
    def certified(self) -> bool:
        """The verdict: no kernel, every monomial spanned, and decompose agrees on all of them."""
        return self.kernel_dimension == 0 and self.monomials_spanned == self.oracle_agreement == self.monomials_checked


def verify_freeness(l: int, side: str = "left", degree_bound: int = 2,
                    zeta_exponent: int | None = None) -> FreenessReport:
    """Brute-force certificate: no relations among columns, all monomials span.

    Columns whose trailing monomials (_trailing_monomial) are pairwise
    distinct are independent.  In a nontrivial relation, take a column
    of nonzero coefficient whose trailing monomial has least degree; no
    other such column contains that monomial (their trailing monomials
    differ from it and their other terms lie higher), so it cannot cancel.
    A weight with no residual monomial and distinct trailing monomials
    is therefore certified without linear algebra.  Every other weight
    takes one rref, which gives the kernel of its candidate columns and
    the oracle coordinates of its residual monomials, which are also
    compared against decompose.  kernel_dimension is the sum of the
    rref kernels of the solved weights, plus 0 for each weight certified
    by distinct trailing monomials.  The root data is
    make_root_spec(l, zeta_exponent), i.e. q = zeta_N^zeta_exponent.

    Two symmetries relate the certificates (tests/test_symmetries.py).
    The automorphism sigma_E: zeta -> zeta^E (cyclo.conjugate) carries A
    at q = zeta onto A at q = zeta^E, fixes every word and maps the basis
    onto itself, so decompose at zeta_exponent E is sigma_E of decompose
    at E = 1, coefficient by coefficient, and the certificate at E = 1
    covers every E coprime to N.  At odd l the l-th powers are central,
    so the left and right module structures coincide and
    decompose(x, "left") and decompose(x, "right") have the same
    coordinates; at even l they differ.
    """
    spec = make_root_spec(l, zeta_exponent=zeta_exponent)
    _check_side(side)
    pairs_by_weight = _pairs_by_weight(l, degree_bound)
    monomials = residual_monomials(l)
    by_weight: dict[tuple[int, int], list[QMonomial]] = {w: [] for w in pairs_by_weight}
    for mono in monomials:
        by_weight.setdefault(_quantum_weight(mono), []).append(mono)
    one = Cyclotomic.one(spec.N)
    kernel_dim = spanned = agree = 0
    for w, monos in by_weight.items():
        pairs = pairs_by_weight.get(w, [])
        if not monos and len({_trailing_monomial(l, word, cm) for word, cm in pairs}) == len(pairs):
            continue
        kernel, solutions = _solve_weight(spec, side, pairs, [{mono: one} for mono in monos])
        kernel_dim += kernel
        for mono, coords in zip(monos, solutions):
            if coords is None:
                continue
            spanned += 1
            # a weight with a kernel has no unique coordinates to agree with
            if not kernel and coords == decompose(QElement._like(spec, {mono: one}), side).terms:
                agree += 1
    return FreenessReport(l=l, side=side, degree_bound=degree_bound,
                          monomials_checked=len(monomials), kernel_dimension=kernel_dim,
                          monomials_spanned=spanned, oracle_agreement=agree)
