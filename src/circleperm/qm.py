"""Quasi-multiplicative equivalence: canonical keys, witnesses, classification.

f ~ g over GF(q^2) iff f(X) = u * g(v * X^d) for units u, v and some
1 <= d < q^2-1 coprime to q^2-1.  The maps form a group, so the least
(support, coefficient-log) key over a polynomial's orbit is an exact class
invariant: f ~ g iff their keys are equal.  The key tries only the d that
can give the least support: those sending an exponent of least gcd g* with
q^2-1 to g* itself, at most g* per exponent; u and v are then fixed term by
term.  The candidate d, the least mapped support and the steps that fix
u and v depend on the support alone, so they are planned once per support
(_support_plan) and each polynomial pays only its coefficient arithmetic
(_orbit_min): a catalog whose members share a support plans it once.
Catalogs are classified by grouping on the key, in time linear in the
catalog, and a pair is decided by comparing two keys.  The witness
composes the maps that reach them: the inverse of f's map after g's.

Functional comparison happens on exponent-reduced polynomials: the
fixpoint convention of reduce_exponents keeps positive exponents positive,
so coefficient equality is equivalent to pointwise equality on the field.
The registry of known families, which no command reads, is kept with the
tests (tests/registry.py) together with an independent witness check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import InvariantViolation, ZeroInput
from .fields import FieldElement, QuadExtension, check_cap
from .polynomials import SparsePolynomial, reduce_exponent


@dataclass
class QmResult:
    equivalent: bool
    witness: tuple[FieldElement, FieldElement, int] | None = None
    d_candidates_examined: int = 0  # candidate d whose b loop ran, both keys
    prefilter_rejected: int = 0  # candidate d whose mapped support lost, both keys


def _check_inputs(ext: QuadExtension, polys):
    check_cap(ext.big.order)
    if any(f.is_zero() for f in polys):
        raise ZeroInput("qm comparison needs nonzero polynomials")


def apply_qm(g: SparsePolynomial, u: FieldElement, v: FieldElement, d: int
             ) -> SparsePolynomial:
    """u * g(v * X^d), exponent-reduced."""
    m = g.ctx.order - 1
    return SparsePolynomial(
        g.ctx, [(reduce_exponent(e * d, m), u * c * v**e) for e, c in g.terms.items()]
    )


def qm_equivalent(f: SparsePolynomial, g: SparsePolynomial, ext: QuadExtension) -> QmResult:
    """Decide f ~ g by comparing canonical keys; the witness maps g to f.

    With T(u, v, d) h = u*h(v X^d), maps compose as T_A(T_B h) =
    T(u_A*u_B, v_B*v_A^d_B, d_A*d_B).  If T1 = T(u1, v1, d1) takes f and
    T2 takes g to the common key, then f = T1^-1(T2 g): d = d2/d1 mod m,
    log u = a2 - a1 and log v = beta2 - beta1*d, where a_i = log u_i and
    beta_i = log v_i.  The counters add up both keys' candidate d.
    """
    _check_inputs(ext, (f, g))
    big = ext.big
    m = big.order - 1
    f = f.reduce_exponents()
    g = g.reduce_exponents()
    plan_f = _support_plan(tuple(f.terms), m)
    plan_g = plan_f if tuple(g.terms) == tuple(f.terms) else _support_plan(tuple(g.terms), m)
    key_f, (a1, beta1, d1), seen_f, lost_f = _orbit_min(f, big, plan_f)
    key_g, (a2, beta2, d2), seen_g, lost_g = _orbit_min(g, big, plan_g)
    examined, rejected = seen_f + seen_g, lost_f + lost_g
    if key_f != key_g:
        return QmResult(False, None, examined, rejected)
    d = d2 * pow(d1, -1, m) % m
    u, v = big.gen_pow((a2 - a1) % m), big.gen_pow((beta2 - beta1 * d) % m)
    if apply_qm(g, u, v, d) != f:
        raise InvariantViolation("equal QM keys gave a witness that does not map g to f")
    return QmResult(True, (u, v, d), examined, rejected)


# ---------------------------------------------------------------------------
# catalog classification


def qm_canonical_key(f: SparsePolynomial, ext: QuadExtension) -> tuple:
    """Least (support, coefficient logs) over the QM orbit of f.

    f ~ g iff their keys are equal.  A unit d fixes exponents 0 and m and
    sends e in (0, m) to a multiple of gcd(e, m), so the least support starts
    (after any constant) with g* = min gcd(e, m), reached only by d*e = g*:
    the unit lifts of (e/g*)^-1 mod m/g*.  For each such d the mapped support
    is sorted; u and v then add a + b*e (mod m, any a and b) to the log of
    the term at mapped exponent e, so a sets the first log to 0 and b
    minimises the others in turn: on the coset b + s*Z_m that keeps the
    earlier logs least, the next runs over a class mod gcd(s*(e - e1), m).
    """
    _check_inputs(ext, (f,))
    f = f.reduce_exponents()
    return _orbit_min(f, ext.big, _support_plan(tuple(f.terms), ext.big.order - 1))[0]


def _support_plan(exps: tuple, m: int) -> tuple:
    """Everything of the key that depends on the support alone, for the
    exponents `exps` of an exponent-reduced polynomial in its term order
    (which fixes the order the candidate d are tried in):
    (least mapped support, coset steps, final coset modulus,
    ((d, term order), ...), d examined, d skipped).

    The running least support decides which d are skipped, so the counters
    and the d that reach the least support follow from exps.  Those d map
    the support to the same sorted exponents, so they share the b loop's
    steps (e - e1, t = gcd(s*(e - e1), m), (s*(e - e1)/t)^-1 mod m/t, s),
    and differ only in which term lands where.
    """
    inner = [e for e in exps if 0 < e < m]
    g_star = min((math.gcd(e, m) for e in inner), default=m)
    n = m // g_star
    ds = {d for e in inner if math.gcd(e, m) == g_star
          for d in range(pow(e // g_star, -1, n), m, n) if math.gcd(d, m) == 1}
    least, ties = None, []
    examined = skipped = 0
    for d in ds or (1,):
        mapped = sorted([(reduce_exponent(e * d, m), i) for i, e in enumerate(exps)])
        supp = tuple([e for e, _ in mapped])
        if least is not None and supp > least:
            skipped += 1
            continue
        examined += 1
        if least is None or supp < least:
            least, ties = supp, []
        ties.append((d, tuple([i for _, i in mapped])))
    e1, s, steps = least[0], 1, []
    for e in least[1:]:
        t = math.gcd(s * (e - e1), m)
        steps.append((e - e1, t, pow(s * (e - e1) // t, -1, m // t), s))
        s = s * m // t
    return least, tuple(steps), s, tuple(ties), examined, skipped


def _orbit_min(f: SparsePolynomial, big, plan: tuple) -> tuple:
    """(key, (log u, log v, d), d examined, d skipped) for an exponent-reduced,
    checked f with plan _support_plan(tuple(f.terms), m): u*f(v X^d) has the
    key, with log u = -l1 - b*e1 and log v = b*d for the winning d and b.
    Only the d that reach the least support can win; the first of them with
    the least logs does."""
    m = big.order - 1
    supp, steps, s_end, ties, examined, skipped = plan
    log = big._log.__getitem__  # checked f: the field has tables
    logs = [log(c.enc) for c in f.terms.values()]
    e1 = supp[0]
    deltas = [e - e1 for e in supp]
    best = None
    for d, order in ties:
        # b runs over a coset b + s*Z_m; each term in turn takes its least log
        l1, b = logs[order[0]], 0
        for i, (delta, t, inv, s) in zip(order[1:], steps):
            k = -((logs[i] - l1 + b * delta) % m // t) * inv
            b = (b + s * k) % m
        b %= s_end  # the coset's least b
        key = tuple([(logs[i] - l1 + b * delta) % m for i, delta in zip(order, deltas)])
        if best is None or key < best:
            best = key
            best_map = ((-l1 - b * e1) % m, b * d % m, d)
    return (supp, best), best_map, examined, skipped


@dataclass
class QmPartition:
    classes: list[list[int]]  # index lists, each sorted; deterministic order
    representatives: list[int]  # index of the minimal polynomial per class


def classify_catalog(polys: list[SparsePolynomial], ext: QuadExtension) -> QmPartition:
    """Group by qm_canonical_key; representatives minimal in degree-then-lex.
    Each support (in term order) is planned once per call."""
    _check_inputs(ext, polys)
    big = ext.big
    reduced = [p.reduce_exponents() for p in polys]
    plans: dict[tuple, tuple] = {}
    groups: dict[tuple, list[int]] = {}
    for i, f in enumerate(reduced):
        exps = tuple(f.terms)
        plan = plans.get(exps)
        if plan is None:
            plan = plans[exps] = _support_plan(exps, big.order - 1)
        groups.setdefault(_orbit_min(f, big, plan)[0], []).append(i)
    # no two classes share a polynomial, so the least (key, index) of each
    # class orders the classes without ties
    keys = [f.canonical_key() for f in reduced]
    ranked = sorted((min((keys[i], i) for i in members), members) for members in groups.values())
    return QmPartition([members for _, members in ranked], [i for (_, i), _ in ranked])
