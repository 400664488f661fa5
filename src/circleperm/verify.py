"""Permutation verdicts: exhaustive evaluation and the structural criterion.

The structural route tests f = X^r * h(X^(q-1)) over GF(q^2) through
gcd(r, q-1) = 1 plus injectivity of z -> z^r * h(z)^(q-1) on the unit
circle; the exhaustive route evaluates f at every field element.  The two
must always agree; a disagreement raises instead of reporting.

Both routes evaluate on tabled fields by one engine, _sums: a term c*X^e
at x = g^(s*k) is g^(log c + e*s*k), a run of a table built here from exp,
read by strided slices, and the runs are summed in every characteristic.
Both walk their points in chunks on one ladder (_ladder), sized so that a
random map's first repeat usually falls in the first chunk, and a
rejection sums only the chunks up to the one that decides it.
Exhaustive evaluation reports the first collision in the order 0, g^0,
g^1, ..., so witnesses do not depend on the chunking.  A byte per value
marks the chunk that took it; the collision's first preimage is looked up
only once a marked value comes round.  The criterion walks h's q + 1
circle values (s = q - 1) in the ladder's first chunk and then the rest
of the circle in one more.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
import sys
import weakref
from array import array
from dataclasses import dataclass, field

from .errors import InvalidParams, InvariantViolation
# re-exported for bench/pin.py, its last caller
from .families import expand_decomposition
from .fields import (EXHAUSTIVE_CAP, FieldCtx, FieldElement, QuadExtension, _lane_total,
                     _lane_typecode, _lane_width, check_cap)
from .polynomials import SparsePolynomial


@dataclass
class PermutationReport:
    is_permutation: bool
    method: str  # "exhaustive" | "criterion" | "both"
    gcd_ok: bool | None = None
    circle_ok: bool | None = None
    witness: tuple[FieldElement, FieldElement] | None = None
    detail: dict = field(default_factory=dict)


# f(g^k) is evaluated for a chunk of k at a time: a non-permutation stops
# within one chunk of its first collision, and a chunk's runs stay a few 16 KB
_CHUNK_MIN, _CHUNK_MAX = 64, 4096
# run tables repeat a field's m values up to this many entries (_run_setup)
_TILE_MAX = 1 << 16


def _stride(e: int, m: int, span: int, n: int) -> tuple[int, int]:
    """(R, d) with 1 <= R <= n and e*R = d (mod m), minimising R + |d|*n/span,
    from the extended Euclid rows of (m, e) while R alone costs less."""
    cost, R, d = math.inf, 1, 0
    r0, t0, r1, t1 = m, 0, e % m, 1  # e*t = r (mod m) on every row
    while abs(t1) <= n and abs(t1) * span < cost:
        if abs(t1) * span + r1 * n < cost:
            cost, R, d = abs(t1) * span + r1 * n, abs(t1), r1 if t1 > 0 else -r1
        if r1 == 0:
            break
        q = r0 // r1
        r0, t0, r1, t1 = r1, t1, r0 - q * r1, t0 - q * t1
    return R, d


def _gather(table, m: int, lc: int, e: int, k0: int, n: int) -> array:
    """[table[(lc + e*k) % m] for k in range(k0, k0 + n)] by strided slices.

    table[0:span] repeats its first m entries (span: the largest multiple
    of m in its length).  With e*R = d (mod m), the k in one class mod R
    read table in steps of d: one slice per class and one more per wrap
    past span, about R + |d|*n/span slices.  The best R lies on the
    extended Euclid rows of (m, e) (best approximation).  A run with d = 0
    (a period R, rare) or needing more than one slice per 8 points is read
    point by point, and one that ends below span without a wrap is one
    slice, without _stride.  exp[m], zero's entry, is never read.
    """
    span = len(table) - len(table) % m
    s = (lc + e * k0) % m
    if s + e * (n - 1) < span:  # one forward slice without a wrap, or a constant
        return table[s:s + e * (n - 1) + 1:e] if e else table[s:s + 1] * n
    R, d = _stride(e, m, span, n)
    if d == 0 or 8 * (R + abs(d) * n // span) > n:
        return array(table.typecode, [table[i % m] for i in range(s, s + e * n, e)])
    top = span - m if d < 0 else 0  # a class stepping down starts in the last copy
    out = array(table.typecode, [0]) * n
    for b in range(R):
        p, j = (s + e * b) % m + top, b
        while j < n:
            # the class's next t points before p + t*d leaves [0, span)
            t = min(-(-(n - j) // R), (span - p + d - 1) // d if d > 0 else p // -d + 1)
            stop = p + t * d
            out[j:j + t * R:R] = table[p:stop if stop >= 0 else None:d]
            j += t * R
            p = stop % m + top
    return out


def _run_setup(ctx: FieldCtx):
    """(run table, total) of a tabled field, kept in _RUNS while it lives.

    The run table holds exp's first m entries, repeated up to _TILE_MAX
    entries: as they are for p = 2, and for odd p as lane words
    (fields._lane_total: digit i of g^k in bits [w*i, w*i + w), in words of
    _lane_typecode).  total(runs, points) sums runs of that many words into
    encodings: by xor, or by _lane_total.
    """
    m, p, n, exp = ctx.order - 1, ctx.p, ctx.n, ctx._exp
    copies = min(m, _CHUNK_MAX, _TILE_MAX // m)  # min(m, _CHUNK_MAX) make every run one slice
    if p == 2:
        return (exp[:m] * copies if copies > 1 else exp,
                lambda runs, points: functools.reduce(operator.xor, runs, 0))
    w, h = _lane_width(p), n // 2  # x = lo + split*hi: two ~sqrt(order)-entry tables
    spread = [sum(c << w * i for i, c in enumerate(ctx.enc_to_coords(x)))
              for x in range(p ** (n - h))]
    lo, hi, split = spread[:p**h], [s << w * h for s in spread], p**h
    table = array(_lane_typecode(p, n),
                  (lo[x % split] + hi[x // split] for x in itertools.islice(exp, m)))
    table *= max(copies, 1)
    return table, _lane_total(p, n, min(m, _CHUNK_MAX), 8 * table.itemsize)


_RUNS = weakref.WeakKeyDictionary()


@functools.cache
def _ladder(end: int) -> tuple[tuple[int, int], ...]:
    """(k0, n) of the chunks that cover 0 <= k < end in order, doubling up
    to _CHUNK_MAX from the least power of two n >= _CHUNK_MIN with
    n*n >= 4*end.  A random map on end points first repeats a value near
    1.25*sqrt(end), so most walks that stop end in the first chunk; only
    the last chunk is cut short.  Kept per end (a field's m or q + 1), so
    a walk of one chunk pays no more than a loop over one pair."""
    chunks, k0, n = [], 0, _CHUNK_MIN
    while n * n < 4 * end and n < _CHUNK_MAX:
        n *= 2
    while k0 < end:
        chunks.append((k0, min(n, end - k0)))
        k0 += n
        n = min(2 * n, _CHUNK_MAX)
    return tuple(chunks)


def _sums(ctx: FieldCtx, terms, k0: int, n: int) -> array:
    """The encodings of sum(g^(lc + e*k) for e, lc in terms), k0 <= k < k0 + n.

    Each term's run is read by _gather from the field's run table and the
    runs are summed by its total; no terms give zeros.  n is at most
    min(m, _CHUNK_MAX), the words total is built for.
    """
    table, total = _RUNS.get(ctx) or _RUNS.setdefault(ctx, _run_setup(ctx))
    m, order = ctx.order - 1, sys.byteorder
    runs = (int.from_bytes(_gather(table, m, lc, e, k0, n), order) for e, lc in terms)
    values = array(table.typecode)
    values.frombytes(total(runs, n).to_bytes(n * table.itemsize, order))
    return values


def is_permutation_exhaustive(f: SparsePolynomial, ctx: FieldCtx) -> PermutationReport:
    """Evaluate f everywhere; witness = first collision in generator order.

    f(g^k) is evaluated by _sums a chunk of k at a time, on _ladder(m).
    One byte per field element marks the values taken so far: f(0) first
    with 1, then each value with 1 + (its chunk's index mod 255).  The first
    point whose value is marked is the collision.  Only then is its first
    preimage looked up: x = 0 when the value is f(0), else the first point
    with that value, searched in the earlier chunks that carry its mark and
    then in this one.  The ramp's chunks, those shorter than _CHUNK_MAX
    (fewer than _CHUNK_MAX values in all), are kept as walked; only a full
    chunk is summed again.  check_cap passes only fields that have tables.
    """
    check_cap(ctx.order)
    m, exp_t = ctx.order - 1, ctx._exp
    terms = [(e % m, ctx._log[c.enc]) for e, c in f.terms.items()]

    def collision(v, k0, values):  # (prev, hit) as k of g^k, m for x = 0
        # v is marked: f(0), a value of an earlier chunk with its mark, or
        # one of this chunk's before the hit
        i = values.index(v)
        if v == f0:
            return m, k0 + i
        for j, (j0, kept) in enumerate(walked):
            if 1 + j % 255 == seen[v]:
                earlier = _sums(ctx, terms, j0, _CHUNK_MAX) if kept is None else kept
                if v in earlier:
                    return j0 + earlier.index(v), k0 + i
        return k0 + i, k0 + values.index(v, i + 1)

    f0 = f.coeff(0).enc
    seen = bytearray(ctx.order)
    seen[f0] = 1
    walked = []  # (k0, its values, or None for a full chunk) of the chunks before
    for c, (k0, n) in enumerate(_ladder(m)):
        values, mark = _sums(ctx, terms, k0, n), 1 + c % 255
        for v in values:
            if seen[v]:
                prev, hit = collision(v, k0, values)
                witness = (FieldElement(ctx, exp_t[prev]), FieldElement(ctx, exp_t[hit]))
                return PermutationReport(False, "exhaustive", witness=witness)
            seen[v] = mark
        walked.append((k0, values if n < _CHUNK_MAX else None))
    return PermutationReport(True, "exhaustive")


def criterion_check(r: int, h: SparsePolynomial, ext: QuadExtension) -> PermutationReport:
    """Structural verdict for X^r * h(X^(q-1)) over GF(q^2).

    gcd_ok tests gcd(r, q-1) = 1; circle_ok tests that z -> z^r h(z)^(q-1)
    is injective on the circle (a circle root of h is a definite failure:
    it maps that z to 0, which is off the circle).  With z_k = g^(k(q-1)),
    k = 0..q in circle_members order, h's values come from at most two
    _sums calls (a term c*X^e is the run g^(log c + e(q-1)k)): the first
    chunk of _ladder(q + 1), where a random h usually fails, then the rest
    of the circle, which fits one call since q + 1 <= min(m, _CHUNK_MAX).
    A field without tables evaluates the same chunks one point at a time
    with eval_enc.  z_k^r h(z_k)^(q-1) is g^((q-1)(rk + log v)), so
    (rk + log v) mod (q+1) names the image, and the walk stops at the chunk
    that holds the first root or repeated image.
    """
    if h.is_zero():
        raise InvalidParams(["h must be nonzero"])
    q, big = ext.q, ext.big
    gcd_ok = math.gcd(r, q - 1) == 1
    if big._log is not None:
        m = big.order - 1
        terms = [(e * (q - 1) % m, big._log[c.enc]) for e, c in h.terms.items()]
        chunk = functools.partial(_sums, big, terms)
        log = big._log.__getitem__
    else:
        mu = ext.circle_members()
        chunk = lambda k0, n: (h.eval_enc(z.enc) for z in mu[k0:k0 + n])
        index = {z.enc: k for k, z in enumerate(mu)}  # v^(q-1) = z_(log v mod (q+1))
        log = lambda v: index[big.pow_enc(v, q - 1)]

    def point(k):
        return FieldElement(big, big.exp_enc(k * (q - 1)))

    first = _ladder(q + 1)[0][1]
    walk = [(0, first), (first, q + 1 - first)] if first <= q else [(0, first)]
    detail, seen = {}, {}  # image (rk + log v) mod (q+1) -> its first k
    for k0, n in walk:
        for k, v in enumerate(chunk(k0, n), k0):
            if v == 0:
                detail["circle_root"] = point(k)
                break
            prev = seen.setdefault((r * k + log(v)) % (q + 1), k)
            if prev != k:
                detail["circle_collision"] = (point(prev), point(k))
                break
        if detail:
            break
    return PermutationReport(
        is_permutation=gcd_ok and not detail,
        method="criterion",
        gcd_ok=gcd_ok,
        circle_ok=not detail,
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
