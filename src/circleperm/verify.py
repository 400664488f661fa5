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

import math
import sys
from array import array
from dataclasses import dataclass, field

from .errors import InvalidParams, InvariantViolation
# expand_decomposition stays importable from here for existing callers
from .families import expand_decomposition
from .fields import EXHAUSTIVE_CAP, FieldCtx, FieldElement, QuadExtension, check_cap
from .polynomials import SparsePolynomial


@dataclass
class PermutationReport:
    is_permutation: bool
    method: str  # "exhaustive" | "criterion" | "both"
    gcd_ok: bool | None = None
    circle_ok: bool | None = None
    witness: tuple[FieldElement, FieldElement] | None = None
    detail: dict = field(default_factory=dict)


# p = 2 evaluates f(g^k) for a chunk of k at a time: a non-permutation stops
# within one chunk of its first collision, and a chunk's runs stay a few 16 KB
_CHUNK_MIN, _CHUNK_MAX = 64, 4096


def _stride(e: int, m: int, n: int) -> tuple[int, int]:
    """(R, d) with 1 <= R <= n and e*R = d (mod m), minimising R + |d|*n/m."""
    best = None
    r0, t0, r1, t1 = m, 0, e % m, 1  # e*t = r (mod m) on every row
    while abs(t1) <= n:
        cost = abs(t1) * m + r1 * n
        if best is None or cost < best[0]:
            best = (cost, abs(t1), r1 if t1 > 0 else -r1)
        if r1 == 0:
            break
        q = r0 // r1
        r0, t0, r1, t1 = r1, t1, r0 - q * r1, t0 - q * t1
    return best[1], best[2]


def _gather(exp, m: int, lc: int, e: int, k0: int, n: int) -> array:
    """[exp[(lc + e*k) % m] for k in range(k0, k0 + n)] by strided slices.

    With e*R = d (mod m), the k in one class mod R read exp in steps of d,
    so the run costs one slice assignment per class and one more per wrap
    past m, about R + |d|*n/m in all.  Below the next denominator of the
    extended Euclid rows of (m, e), |d| is at least the current remainder
    (best approximation), so the least cost lies on one of those O(log m)
    rows; d = 0 makes the run periodic in R, a constant when R = 1.  The
    slices read exp[0:m] in place; exp[m] = 0, zero's entry, is never read.
    """
    R, d = _stride(e, m, n)
    s = (lc + e * k0) % m
    if d == 0:
        period = array(exp.typecode, [exp[(s + e * b) % m] for b in range(R)])
        return (period * -(-n // R))[:n]
    out = array(exp.typecode, [0]) * n
    for b in range(R):
        p, j = (s + e * b) % m, b
        while j < n:
            # the class's next t points before p + t*d leaves [0, m)
            t = min(-(-(n - j) // R), (m - p + d - 1) // d if d > 0 else p // -d + 1)
            stop = p + t * d
            out[j:j + t * R:R] = exp[p:stop if stop >= 0 else None:d]
            j += t * R
            p = stop % m
    return out


def is_permutation_exhaustive(f: SparsePolynomial, ctx: FieldCtx) -> PermutationReport:
    """Evaluate f everywhere; witness = first collision in generator order.

    check_cap passes only fields that have tables, so both loops run on them.
    """
    check_cap(ctx)
    if f.is_zero():  # no first term to start from: 0 and g^0 collide
        return PermutationReport(False, "exhaustive", witness=(ctx.zero(), ctx.one()))
    m = ctx.order - 1
    first_preimage = array("i", [-1]) * ctx.order  # value -> first k hitting it
    witness = None
    if ctx.p == 2:
        # keyed by enc, storing k for x = g^k and m for zero: the term c*X^e
        # is the run g^(log c + e*k), and addition is xor, so the runs of a
        # chunk xor as packed integers and unpack once
        exp_t = ctx._exp
        terms = [(e % m, ctx._log[c.enc]) for e, c in f.terms.items()]
        first_preimage[f.coeff(0).enc] = m
        k0, n = 0, _CHUNK_MIN
        while witness is None and k0 < m:
            n = min(n, m - k0)
            acc = 0
            for e, lc in terms:
                acc ^= int.from_bytes(_gather(exp_t, m, lc, e, k0, n), sys.byteorder)
            values = array(exp_t.typecode)
            values.frombytes(acc.to_bytes(n * exp_t.itemsize, sys.byteorder))
            for k, v in enumerate(values, k0):
                prev = first_preimage[v]
                if prev >= 0:
                    witness = (FieldElement(ctx, exp_t[prev]), FieldElement(ctx, exp_t[k]))
                    break
                first_preimage[v] = k
            k0 += n
            n = min(2 * n, _CHUNK_MAX)
    else:
        # kept inline: yielding the values from a generator cost 20-23 % more
        # time on one-term polynomials at q = 243 and 256 (2-vCPU VM)
        # keyed by log, m standing for zero: x = g^k, and each partial sum of
        # f(x) stays a log, g^acc + g^t = g^(acc + zech[t - acc]); the index
        # lies in (-m, m), so the array's negative indexing reduces it mod m
        exp_t, log_t, zech = ctx._exp, ctx._log, ctx._zech
        (e0, l0), *rest = [(e, log_t[c.enc]) for e, c in f.terms.items()]
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
    """Run both methods; agreement is a hard invariant, never a report.

    The cap is EXHAUSTIVE_CAP alone.  The cap keyword stays for old callers
    only: a value that would decide this field differently from
    EXHAUSTIVE_CAP raises ValueError, so it can no longer move the limit.
    """
    if (ext.big.order <= cap) != (ext.big.order <= EXHAUSTIVE_CAP):
        raise ValueError(f"cap {cap} decides order {ext.big.order} unlike "
                         f"EXHAUSTIVE_CAP {EXHAUSTIVE_CAP}")
    # the exhaustive check first: it refuses a field above the cap at once
    exh = is_permutation_exhaustive(f, ext.big)
    crit = criterion_check(r, h, ext)
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
