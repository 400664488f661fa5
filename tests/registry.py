"""The registry of known few-term permutation families, and the QM witness check.

KNOWN maps a registry row to a generator of (poly, tags) over a
QuadExtension: every instance of the row valid at that field, poly
exponent-reduced and tags naming its parameters.  Each instantiator states
its row's shape and conditions.  Five binomial rows have side conditions in
prose only and are not instantiated: H3 X^(3q-2) + aX, H4 X^(r(q-1)+1) + aX
with r in {5, 7}, H5 X^(2q+3) + aX, H6 X^(2q+4) + aX^2 and H8 X^(6q-5) + aX.

The tests compare the package's families with these rows (acceptance
criterion 6) and check QM witnesses with qm_verify_witness.
"""

import math

from circleperm.polynomials import SparsePolynomial
from circleperm.qm import apply_qm


def qm_verify_witness(f, g, witness, ext) -> bool:
    """Re-expand u*g(vX^d) and compare reduced polynomials coefficient-wise."""
    u, v, d = witness
    m = ext.big.order - 1
    if not (1 <= d < m and math.gcd(d, m) == 1) or u.enc == 0 or v.enc == 0:
        return False
    return apply_qm(g.reduce_exponents(), u, v, d) == f.reduce_exponents()


def _instance(big, terms, tags):
    return SparsePolynomial(big, terms).reduce_exponents(), tags


def h1_form_instances(ext, require_outside_subfield=True):
    """X^(q+2) + bX over GF(q^2) for every b != 0 with b^(3(q-1)) = 1."""
    big, q = ext.big, ext.q
    for b in big.subgroup(math.gcd(3 * (q - 1), big.order - 1)):
        if not (require_outside_subfield and ext.in_subfield(b)):
            yield _instance(big, [(q + 2, big.one()), (1, b)], {"b": b})


def _h1(ext):
    # binomial row 1: X^(q+2) + bX; b outside GF(q), b^(3(q-1)) = 1, p = 2, m > 1 odd
    if ext.big.p == 2 and ext.m > 1 and ext.m % 2:
        yield from h1_form_instances(ext)


def _h2(ext):
    # binomial row 2: X^((2^n-1)/(2^t-1)+1) + aX; n = 2^s*t, s in {1, 2}, t odd,
    # a in w*GF(2^t)* U w^2*GF(2^t)* for w of order 3
    big = ext.big
    if big.p != 2:
        return
    n = big.n
    for s in (1, 2):
        t = n >> s
        if n % (1 << s) or t % 2 == 0:
            continue
        omega = big.gen_pow((big.order - 1) // 3)  # order 3, since n is even
        exp = (2**n - 1) // (2**t - 1) + 1
        for a in [w * c for w in (omega, omega * omega) for c in big.subgroup(2**t - 1)]:
            yield _instance(big, [(exp, big.one()), (1, a)], {"a": a, "s": s, "t": t})


def _h7(ext):
    # binomial row 7: X^d' + aX; d' = (2^n-1)/(2^k-1), n = rk, k >= 2,
    # gcd(d'-1, 2^k-1) = gcd(r, 2^k-1) = 1, a outside GF(2^k)* (the source's
    # k = 1 rows are abbreviations that give no permutations)
    big = ext.big
    if big.p != 2:
        return
    n = big.n
    for k in range(2, n // 2 + 1):
        r, dprime = n // k, (2**n - 1) // (2**k - 1)
        if n % k or math.gcd(dprime - 1, 2**k - 1) != 1 or math.gcd(r, 2**k - 1) != 1:
            continue
        sub = {x.enc for x in big.subgroup(2**k - 1)}
        for a_enc in map(big.exp_enc, range(big.order - 1)):
            if a_enc not in sub:
                a = big.from_enc(a_enc)
                yield _instance(big, [(dprime, big.one()), (1, a)], {"a": a, "k": k, "r": r})


def _f1(ext):
    # quadrinomial row 1: X^3 + aX^(q+2) - aX^(2q+1) + aX^(3q);
    # p = 3, a a nonzero square in GF(q), a != -1
    big, q = ext.big, ext.q
    if big.p != 3:
        return
    for a in ext.subfield_members():
        if a.enc and a != -big.one() and ext.is_power_sub(a, 2):
            yield _instance(big, [(3, big.one()), (q + 2, a), (2 * q + 1, -a), (3 * q, a)],
                            {"a": a})


def _f9(ext):
    # quadrinomial row 9: X^3 + aX^(q+2) + (a+2)X^(2q+1) + 4X^(3q); p = 5, m odd,
    # a in GF(q), a != -1
    big, q = ext.big, ext.q
    if big.p != 5 or ext.m % 2 == 0:
        return
    for a in ext.subfield_members():
        if a != -big.one():
            yield _instance(big, [(3, big.one()), (q + 2, a), (2 * q + 1, a + big.from_int(2)),
                                  (3 * q, big.from_int(4))], {"a": a})


def _g1(ext):
    # pentanomial row 1: X^5 + X^(q+4) + X^(3q+2) + X^(4q+1) + X^(5q); p = 2,
    # m not divisible by 4
    big, q = ext.big, ext.q
    if big.p == 2 and ext.m % 4:
        yield _instance(big, [(e, big.one()) for e in (5, q + 4, 3 * q + 2, 4 * q + 1, 5 * q)], {})


KNOWN = {"H1": _h1, "H2": _h2, "H7": _h7, "F1": _f1, "F9": _f9, "G1": _g1}
