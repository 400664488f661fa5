"""Permutation verdicts: exhaustive evaluation and the structural criterion.

The structural route tests f = X^r * h(X^(q-1)) over GF(q^2) through
gcd(r, q-1) = 1 plus injectivity of z -> z^r * h(z)^(q-1) on the unit
circle; the exhaustive route evaluates f at every field element.  The two
must always agree; a disagreement raises instead of reporting.

Exhaustive evaluation enumerates points in generator-power order
(0, g^0, g^1, ...) so collision witnesses are reproducible across runs and
partitionings.
"""

from __future__ import annotations

import itertools
import math
from array import array
from dataclasses import dataclass, field

from .errors import CapExceeded, InvalidParams, InvariantViolation
# expand_decomposition stays importable from here for existing callers
from .families import expand_decomposition
from .fields import EXHAUSTIVE_CAP, FieldCtx, FieldElement, QuadExtension
from .polynomials import SparsePolynomial


@dataclass
class PermutationReport:
    is_permutation: bool
    method: str  # "exhaustive" | "criterion" | "both"
    gcd_ok: bool | None = None
    circle_ok: bool | None = None
    witness: tuple[FieldElement, FieldElement] | None = None
    detail: dict = field(default_factory=dict)


def is_permutation_exhaustive(f: SparsePolynomial, ctx: FieldCtx,
                              cap: int = EXHAUSTIVE_CAP) -> PermutationReport:
    """Evaluate f everywhere; witness = first collision in generator order."""
    if ctx.order > cap:
        raise CapExceeded(f"field order {ctx.order} above exhaustive cap {cap}")
    first_preimage = array("i", [-1]) * ctx.order  # value -> first x hitting it
    witness = None
    if ctx._log is None or f.is_zero():  # the zero polynomial has no first term
        first_preimage[f.coeff(0).enc] = 0  # keyed by enc
        for x in itertools.islice(ctx.elements(), 1, None):
            v = f.eval(x).enc
            if first_preimage[v] >= 0:
                witness = (FieldElement(ctx, first_preimage[v]), x)
                break
            first_preimage[v] = x.enc
    else:
        # kept inline: yielding the values from a generator cost 20-23 % more
        # time on one-term polynomials at q = 243 and 256 (2-vCPU VM)
        # keyed by log, m standing for zero: x = g^k, and each partial sum of
        # f(x) stays a log, g^acc + g^t = g^(acc + zech[t - acc]); the index
        # lies in (-m, m), so the array's negative indexing reduces it mod m
        m = ctx.order - 1
        exp_t, log_t = ctx._exp, ctx._log
        (e0, l0), *rest = [(e, log_t[c.enc]) for e, c in f.terms.items()]
        zech = ctx.zech_table() if rest else None
        first_preimage[log_t[f.coeff(0).enc]] = m
        for k in range(m):
            acc = (l0 + e0 * k) % m
            for e, lc in rest:
                if acc == m:
                    acc = (lc + e * k) % m
                else:
                    z = zech[(lc + e * k) % m - acc]
                    acc = m if z == m else (acc + z) % m
            prev = first_preimage[acc]
            if prev >= 0:
                witness = (FieldElement(ctx, exp_t[prev]), FieldElement(ctx, exp_t[k]))
                break
            first_preimage[acc] = k
    return PermutationReport(
        is_permutation=witness is None,
        method="exhaustive",
        witness=witness,
    )


def h_no_circle_root(h: SparsePolynomial, ext: QuadExtension):
    """(True, None) when h vanishes nowhere on the unit circle, else the root."""
    for z in ext.circle_members():
        if h.eval_enc(z.enc) == 0:
            return False, z
    return True, None


def criterion_check(r: int, h: SparsePolynomial, ext: QuadExtension) -> PermutationReport:
    """Structural verdict for X^r * h(X^(q-1)) over GF(q^2).

    gcd_ok tests gcd(r, q-1) = 1; circle_ok tests that z -> z^r h(z)^(q-1)
    is injective on the circle (a circle root of h is a definite failure:
    it maps that z to 0, which is off the circle).  z walks the circle in
    circle_members order, z = g^(k(q-1)), and z^r steps along with it by
    g^(r(q-1)).
    """
    if h.is_zero():
        raise InvalidParams(["h must be nonzero"])
    q = ext.q
    big = ext.big
    gcd_ok = math.gcd(r, q - 1) == 1
    circle_ok = True
    detail = {}
    seen = {}  # image enc -> the first circle point hitting it
    step_r = big.exp_enc(r * (q - 1))
    zr = 1
    for z in ext.circle_members():
        v = h.eval_enc(z.enc)
        if v == 0:
            circle_ok = False
            detail["circle_root"] = z
            break
        img = big.mul_enc(zr, big.pow_enc(v, q - 1))
        if img in seen:
            circle_ok = False
            detail["circle_collision"] = (seen[img], z)
            break
        seen[img] = z
        zr = big.mul_enc(zr, step_r)
    return PermutationReport(
        is_permutation=gcd_ok and circle_ok,
        method="criterion",
        gcd_ok=gcd_ok,
        circle_ok=circle_ok,
        detail=detail,
    )


def verify_both(r: int, h: SparsePolynomial, f: SparsePolynomial, ext: QuadExtension,
                cap: int = EXHAUSTIVE_CAP) -> PermutationReport:
    """Run both methods; agreement is a hard invariant, never a report."""
    crit = criterion_check(r, h, ext)
    exh = is_permutation_exhaustive(f, ext.big, cap=cap)
    if crit.is_permutation != exh.is_permutation:
        raise InvariantViolation(
            "criterion and exhaustive verdicts disagree: "
            f"criterion={crit.is_permutation} exhaustive={exh.is_permutation} f={f}"
        )
    return PermutationReport(
        is_permutation=exh.is_permutation,
        method="both",
        gcd_ok=crit.gcd_ok,
        circle_ok=crit.circle_ok,
        witness=exh.witness,
        detail=crit.detail,
    )


def decompose(f: SparsePolynomial, ext: QuadExtension):
    """(r, h) with f = X^r * h(X^(q-1)), r in [1, q-1] and h nonzero, or None.

    Exists iff f is nonzero and all its exponents share one residue class
    mod q-1; the canonical representative r is the least positive member of
    the class.
    """
    if f.is_zero():
        return None
    q = ext.q
    exps = sorted(f.terms)
    r = (exps[0] - 1) % (q - 1) + 1
    h_terms = []
    for e in exps:
        if (e - r) % (q - 1) != 0 or e < r:
            return None
        h_terms.append(((e - r) // (q - 1), f.terms[e]))
    return r, SparsePolynomial(ext.big, h_terms)
