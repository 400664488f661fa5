"""Symbolic oracle for the circle-to-line construction.

The package builds nu(R(rho(X))) from closed-form coefficients; this module
builds it by composing rational functions, so tests can compare the two
exactly.  A rational function num/den acts on P^1: on a FieldElement, or on
None for the point at infinity.  A degree-one (Moebius) map is a rational
function of degree one.
"""

from collections import namedtuple

from circleperm.families import _BASE_MAPS, FAMILIES, _plan, _q_encs, build_h, coeffs
from circleperm.fields import FieldElement
from circleperm.polynomials import SparsePolynomial


def padd(ctx, polys):
    return SparsePolynomial(ctx, [t for f in polys for t in f.terms.items()])


def pmul(f, g):
    return SparsePolynomial(
        f.ctx, [(e + k, c * b) for e, c in f.terms.items() for k, b in g.terms.items()]
    )


def pscale(f, c):
    return SparsePolynomial(f.ctx, [(e, b * c) for e, b in f.terms.items()])


class Rational(namedtuple("Rational", "num den")):
    """num/den on P^1; the oracle rejects 0/0, so operands are in lowest terms."""

    def __call__(self, x):
        num, den = self
        if x is None:  # the ratio of the leading terms at degree max(deg num, deg den)
            d = self.degree()
            return None if den.degree() < d else num.coeff(d) / den.coeff(d)
        n, v = num.eval(x), den.eval(x)
        assert n.enc or v.enc, "0/0: operand not in lowest terms"
        return None if v.enc == 0 else n / v

    def degree(self):
        return max(self.num.degree(), self.den.degree())

    def normalized(self):
        """Scaled so that the denominator's leading coefficient is 1."""
        inv = self.den.coeff(self.den.degree()).inverse()
        return Rational(pscale(self.num, inv), pscale(self.den, inv))


def poly(f):
    return Rational(f, SparsePolynomial(f.ctx, {0: f.ctx.one()}))


def mobius(a, b, c, d):
    """(aX + b)/(cX + d) with ad - bc != 0."""
    assert (a * d - b * c).enc, "degenerate degree-one map (ad - bc = 0)"
    return Rational(SparsePolynomial(a.ctx, [(1, a), (0, b)]),
                    SparsePolynomial(a.ctx, [(1, c), (0, d)]))


def compose(outer, inner):
    """outer(inner(X)), any degrees: outer homogenised at inner = A/B, so
    P/Q of degree d gives sum P_e A^e B^(d-e) / sum Q_e A^e B^(d-e).  Maps in
    lowest terms give a map in lowest terms, so nothing needs cancelling."""
    (a, b), d = inner, outer.degree()
    ctx = a.ctx
    one = SparsePolynomial(ctx, {0: ctx.one()})
    a_pows, b_pows = [one], [one]
    for _ in range(d):
        a_pows.append(pmul(a_pows[-1], a))
        b_pows.append(pmul(b_pows[-1], b))

    def hom(f):
        return padd(ctx, [pscale(pmul(a_pows[e], b_pows[d - e]), c) for e, c in f.terms.items()])

    return Rational(hom(outer.num), hom(outer.den))


def bijects(f, domain, codomain):
    """f sends domain one-to-one onto codomain."""
    assert len(domain) == len(set(codomain)), "domain and codomain sizes differ"
    return {f(x) for x in domain} == set(codomain)


def line(ext):
    """P^1(GF(q)) inside GF(q^2): the subfield, then infinity."""
    return ext.subfield_members() + [None]


def rho_map(ext, beta, delta):
    """(delta*X - beta*delta^q)/(X - beta), checked to send the unit circle onto
    the line (beta to infinity)."""
    rho = mobius(delta, -(beta * delta**ext.q), ext.big.one(), -beta)
    assert bijects(rho, ext.circle_members(), line(ext)), "rho is not circle -> line"
    return rho


def nu_map(ext, beta_t, delta_t):
    """beta_t*(X - delta_t^q)/(X - delta_t), checked to send the line onto the
    unit circle (infinity to beta_t)."""
    nu = mobius(beta_t, -(beta_t * delta_t**ext.q), ext.big.one(), -delta_t)
    assert bijects(nu, line(ext), ext.circle_members()), "nu is not line -> circle"
    return nu


def base_map(kind, aux, ext):
    """The base map R of the kind's _BASE_MAPS row (aux None reads as zero)."""
    big = ext.big
    a = aux if aux is not None else big.zero()
    terms = [(i, big.from_int(n) * a**e) for i, n, e in _BASE_MAPS[kind].terms]
    return poly(SparsePolynomial(big, terms))


def conjugate(kind, params, ext):
    """nu(R(rho(X))) for the tuple, by composition."""
    rho = rho_map(ext, params.beta, params.delta)
    nu = nu_map(ext, params.beta_t, params.delta_t)
    return compose(nu, compose(base_map(kind, params.aux, ext), rho))


def closed_form(params, ext):
    """N/D from the package's formula: D from coeffs, and the numerator
    N_k = beta_t * beta^(d-k) * (Q_k - delta_t^q*b_k)."""
    kind = FAMILIES[params.family].kind
    big = ext.big
    d, b, _, _ = _plan(kind, big.p, ext.q)
    qs = _q_encs(kind, params.delta, params.aux, ext)
    dtq = params.delta_t**ext.q
    num = SparsePolynomial(big, [
        (k, params.beta_t * params.beta ** (d - k) * (FieldElement(big, qk) - bk * dtq))
        for k, (qk, bk) in enumerate(zip(qs, b))
    ])
    return Rational(num, SparsePolynomial(big, list(enumerate(coeffs(params, ext)))))


def h_variants(params, ext):
    """All circle polynomials of the tuple's base map: [h, h1..h3] or [h1..h5]."""
    kind, D = FAMILIES[params.family].kind, coeffs(params, ext)
    first = _BASE_MAPS[kind].first_h
    return [build_h(kind, D, i, ext) for i in range(first, first + len(D))]


def alphas_from_noncubes(ctx):
    """{a + a^{-1} : a nonzero non-cube}; needs 3 | order - 1 (even m for p=2)."""
    assert (ctx.order - 1) % 3 == 0, "no non-cubes: 3 does not divide the group order"
    return {x + x.inverse() for x in ctx.elements() if x.enc and not ctx.is_power(x, 3)}
