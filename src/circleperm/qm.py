"""Quasi-multiplicative equivalence and the registry of known families.

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
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .errors import InvariantViolation, NotInstantiable, ZeroInput
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


def qm_verify_witness(f, g, witness, ext) -> bool:
    """Re-expand u*g(vX^d) and compare reduced polynomials coefficient-wise."""
    u, v, d = witness
    m = ext.big.order - 1
    if not (1 <= d < m and math.gcd(d, m) == 1) or u.enc == 0 or v.enc == 0:
        return False
    return apply_qm(g.reduce_exponents(), u, v, d) == f.reduce_exponents()


# ---------------------------------------------------------------------------
# registry of known few-term families


@dataclass(frozen=True)
class KnownFamily:
    id: str
    shape: str  # human-readable term template
    conditions: str
    source: str  # registry table position
    instantiable: bool = True


@dataclass
class KnownInstance:
    family_id: str
    poly: SparsePolynomial
    tags: dict = field(default_factory=dict)


def _h1_instances(ext):
    # X^{q+2} + bX, b outside the subfield, b^{3(q-1)} = 1, m > 1 odd
    if ext.big.p != 2 or ext.m <= 1 or ext.m % 2 == 0:
        return
    yield from h1_form_instances(ext, require_outside_subfield=True)


def h1_form_instances(ext, require_outside_subfield=True):
    """X^{q+2} + bX over GF(q^2) for every b != 0 with b^(3(q-1)) = 1."""
    big = ext.big
    q = ext.q
    m = big.order - 1
    for b in big.subgroup(math.gcd(3 * (q - 1), m)):
        if require_outside_subfield and ext.in_subfield(b):
            continue
        poly = SparsePolynomial(big, [(q + 2, big.one()), (1, b)])
        yield KnownInstance("H1", poly.reduce_exponents(), {"b": b})


def _h2_instances(ext):
    if ext.big.p != 2:
        return
    n = ext.big.n
    big = ext.big
    m = big.order - 1
    for s in (1, 2):
        if n % (1 << s) != 0:
            continue
        t = n >> s
        if t % 2 == 0:
            continue
        exp = (2**n - 1) // (2**t - 1) + 1
        omega = big.gen_pow(m // 3)  # order-3 element; exists since n is even
        sub = big.subgroup(2**t - 1)
        for w in (omega, omega * omega):
            for c in sub:
                a = w * c
                poly = SparsePolynomial(big, [(exp, big.one()), (1, a)])
                yield KnownInstance(
                    "H2", poly.reduce_exponents(), {"a": a, "s": s, "t": t}
                )


def _h7_instances(ext):
    # X^{d'} + aX with d' = (2^n-1)/(2^k-1), n = r*k; k >= 2 (k = 1 rows of
    # the source table are abbreviations that do not yield permutations)
    if ext.big.p != 2:
        return
    n = ext.big.n
    big = ext.big
    for k in range(2, n // 2 + 1):
        if n % k:
            continue
        r = n // k
        dprime = (2**n - 1) // (2**k - 1)
        if math.gcd(dprime - 1, 2**k - 1) != 1 or math.gcd(r, 2**k - 1) != 1:
            continue
        sub = {x.enc for x in big.subgroup(2**k - 1)}
        for y in range(big.order - 1):
            a_enc = big.exp_enc(y)
            if a_enc in sub:
                continue
            a = big.from_enc(a_enc)
            poly = SparsePolynomial(big, [(dprime, big.one()), (1, a)])
            yield KnownInstance("H7", poly.reduce_exponents(), {"a": a, "k": k, "r": r})


def _f1_instances(ext):
    if ext.big.p != 3:
        return
    big = ext.big
    q = ext.q
    minus_one = -big.one()
    for a in ext.subfield_members():
        if a.enc == 0 or a == minus_one or not ext.is_power_sub(a, 2):
            continue
        poly = SparsePolynomial(
            big, [(3, big.one()), (q + 2, a), (2 * q + 1, -a), (3 * q, a)]
        )
        yield KnownInstance("F1", poly.reduce_exponents(), {"a": a})


def _f9_instances(ext):
    if ext.big.p != 5 or ext.m % 2 == 0:
        return
    big = ext.big
    q = ext.q
    minus_one = -big.one()
    two = big.from_int(2)
    four = big.from_int(4)
    for a in ext.subfield_members():
        if a == minus_one:
            continue
        poly = SparsePolynomial(
            big, [(3, big.one()), (q + 2, a), (2 * q + 1, a + two), (3 * q, four)]
        )
        yield KnownInstance(
            "F9", poly.reduce_exponents(), {"a": a, "terms": len(poly.terms)}
        )


def _g1_instances(ext):
    if ext.big.p != 2 or ext.m % 4 == 0:
        return
    big = ext.big
    q = ext.q
    one = big.one()
    poly = SparsePolynomial(
        big, [(5, one), (q + 4, one), (3 * q + 2, one), (4 * q + 1, one), (5 * q, one)]
    )
    yield KnownInstance("G1", poly.reduce_exponents(), {})


_INSTANTIATORS = {
    "H1": _h1_instances,
    "H2": _h2_instances,
    "H7": _h7_instances,
    "F1": _f1_instances,
    "F9": _f9_instances,
    "G1": _g1_instances,
}

KNOWN_FAMILIES: dict[str, KnownFamily] = {
    row.id: row
    for row in [
        KnownFamily("H1", "X^(q+2) + b*X", "b outside GF(q), b^(3(q-1))=1, m>1 odd",
                    "binomial registry row 1"),
        KnownFamily("H2", "X^((2^n-1)/(2^t-1)+1) + a*X",
                    "n=2^s*t, s in {1,2}, t odd, a in w*GF(2^t)* U w^2*GF(2^t)*",
                    "binomial registry row 2"),
        KnownFamily("H3", "X^(3q-2) + a*X", "prose-only side conditions",
                    "binomial registry row 3", instantiable=False),
        KnownFamily("H4", "X^(r(q-1)+1) + a*X", "r in {5,7}; prose-only side conditions",
                    "binomial registry row 4", instantiable=False),
        KnownFamily("H5", "X^(2q+3) + a*X", "prose-only side conditions",
                    "binomial registry row 5", instantiable=False),
        KnownFamily("H6", "X^(2q+4) + a*X^2", "prose-only side conditions",
                    "binomial registry row 6", instantiable=False),
        KnownFamily("H7", "X^((2^rk-1)/(2^k-1)) + a*X",
                    "n=rk, k>=2, gcd(d'-1,2^k-1)=gcd(r,2^k-1)=1, a outside GF(2^k)*",
                    "binomial registry row 7"),
        KnownFamily("H8", "X^(6q-5) + a*X", "prose-only side conditions",
                    "binomial registry row 8", instantiable=False),
        KnownFamily("F1", "X^3 + a*X^(q+2) - a*X^(2q+1) + a*X^(3q)",
                    "p=3, a a nonzero square in GF(q), a != -1",
                    "quadrinomial registry row 1"),
        KnownFamily("F9", "X^3 + a*X^(q+2) + (a+2)*X^(2q+1) + 4*X^(3q)",
                    "p=5, m odd, a in GF(q), a != -1",
                    "quadrinomial registry row 9"),
        KnownFamily("G1", "X^5 + X^(q+4) + X^(3q+2) + X^(4q+1) + X^(5q)",
                    "p=2, m not divisible by 4", "pentanomial registry row 1"),
    ]
}


def instantiate_known(family_id: str, ext: QuadExtension):
    """Every instance of a registry row valid at this field; NotInstantiable
    for rows whose side conditions are not closed-form."""
    row = KNOWN_FAMILIES.get(family_id)
    if row is None:
        raise KeyError(f"unknown registry id {family_id}")
    if not row.instantiable:
        raise NotInstantiable(f"{family_id}: {row.conditions}")
    return list(_INSTANTIATORS[family_id](ext))


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
    log = big.log_enc
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
    classes = list(groups.values())
    reps = [min(members, key=lambda i: reduced[i].canonical_key()) for members in classes]
    order = sorted(range(len(classes)), key=lambda c: reduced[reps[c]].canonical_key())
    return QmPartition([classes[i] for i in order], [reps[i] for i in order])
