"""Sparse polynomials, rational functions and degree-one circle bijections.

SparsePolynomial stores only nonzero terms (exponent -> coefficient) and
never reduces exponents implicitly; reduce_exponents is a separate, explicit
operation that preserves the induced function on the field.

The degree-one maps between the unit circle of GF(q^2) and the projective
line over GF(q) are (delta*X - beta*delta^q)/(X - beta) in one direction and
beta_t*(X - delta_t^q)/(X - delta_t) in the other; their constructors verify
the bijection exhaustively.  One subtraction-based formula is used in every
characteristic (plus and minus coincide for p = 2).
"""

from __future__ import annotations

from .errors import (
    BetaNotOnCircle,
    CtxMismatch,
    DeltaInSubfield,
    DivisionByZero,
    IndeterminateForm,
    InvariantViolation,
    SizeMismatch,
    ZeroInput,
)
from .fields import FieldCtx, FieldElement, QuadExtension


def reduce_exponent(e: int, m: int) -> int:
    """(e - 1) mod m + 1 for e >= 1, and 0 for e = 0, with m = order - 1.

    x^e and x^reduce_exponent(e, m) agree at every x of the field: nonzero x
    has x^m = 1, and a positive exponent stays positive, so x = 0 agrees too.
    """
    return (e - 1) % m + 1 if e else 0


class SparsePolynomial:
    """Finitely many (exponent -> nonzero coefficient) pairs over one ctx."""

    __slots__ = ("ctx", "terms")

    def __init__(self, ctx: FieldCtx, terms=None):
        self.ctx = ctx
        clean = {}
        if terms:
            for e, c in terms.items() if isinstance(terms, dict) else terms:
                if e < 0:
                    raise ValueError("negative exponent")
                if c.ctx is not ctx:
                    raise CtxMismatch("coefficient from a different ctx")
                if c.enc != 0:
                    acc = clean.get(e)
                    c = c if acc is None else acc + c
                    if c.enc:
                        clean[e] = c
                    else:
                        clean.pop(e, None)
        self.terms = clean

    # -- constructors --------------------------------------------------------

    @classmethod
    def zero(cls, ctx):
        return cls(ctx)

    @classmethod
    def constant(cls, ctx, c: FieldElement):
        return cls(ctx, {0: c})

    @classmethod
    def x_power(cls, ctx, e: int, coeff: FieldElement | None = None):
        return cls(ctx, {e: ctx.one() if coeff is None else coeff})

    @classmethod
    def from_coeff_list(cls, ctx, coeffs):
        """Dense coefficient list, least degree first; FieldElements or ints."""
        terms = {}
        for e, c in enumerate(coeffs):
            if isinstance(c, int):
                c = ctx.from_int(c)
            if c.enc:
                terms[e] = c
        return cls(ctx, terms)

    # -- structure -----------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def degree(self) -> int:
        return max(self.terms) if self.terms else -1

    def sorted_terms(self):
        """[(exponent, coefficient)] by descending exponent."""
        return sorted(self.terms.items(), key=lambda t: -t[0])

    def coeff(self, e: int) -> FieldElement:
        return self.terms.get(e, self.ctx.zero())

    def leading_coeff(self) -> FieldElement:
        if not self.terms:
            return self.ctx.zero()
        return self.terms[self.degree()]

    def canonical_key(self):
        """Total-order key: (degree, ((exp, enc) descending))."""
        return (self.degree(), tuple((e, c.enc) for e, c in self.sorted_terms()))

    def __eq__(self, other):
        if not isinstance(other, SparsePolynomial):
            return NotImplemented
        return self.ctx is other.ctx and self.terms == other.terms

    def __hash__(self):
        return hash((id(self.ctx), frozenset((e, c.enc) for e, c in self.terms.items())))

    def __str__(self):
        if not self.terms:
            return "0"
        parts = []
        for e, c in self.sorted_terms():
            cs = str(c)
            if e == 0:
                parts.append(cs)
            else:
                xs = "X" if e == 1 else f"X^{e}"
                parts.append(xs if c.enc == 1 else f"{cs}*{xs}")
        return " + ".join(parts)

    __repr__ = __str__

    # -- ring operations -------------------------------------------------------

    def _check(self, other):
        if other.ctx is not self.ctx:
            raise CtxMismatch("polynomials over different field contexts")

    def __add__(self, other):
        self._check(other)
        terms = dict(self.terms)
        for e, c in other.terms.items():
            acc = terms.get(e)
            s = c if acc is None else acc + c
            if s.enc:
                terms[e] = s
            else:
                terms.pop(e, None)
        out = SparsePolynomial(self.ctx)
        out.terms = terms
        return out

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        out = SparsePolynomial(self.ctx)
        out.terms = {e: -c for e, c in self.terms.items()}
        return out

    def __mul__(self, other):
        if isinstance(other, FieldElement):
            return self.scale(other)
        self._check(other)
        terms = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = e1 + e2
                prod = c1 * c2
                acc = terms.get(e)
                s = prod if acc is None else acc + prod
                if s.enc:
                    terms[e] = s
                else:
                    terms.pop(e, None)
        out = SparsePolynomial(self.ctx)
        out.terms = terms
        return out

    def __rmul__(self, other):
        if isinstance(other, FieldElement):
            return self.scale(other)
        return NotImplemented

    def scale(self, c: FieldElement):
        if c.enc == 0:
            return SparsePolynomial.zero(self.ctx)
        out = SparsePolynomial(self.ctx)
        out.terms = {e: co * c for e, co in self.terms.items()}
        return out

    def monic(self):
        lead = self.leading_coeff()
        if lead.enc in (0, 1):
            return self
        return self.scale(lead.inverse())

    # -- evaluation ----------------------------------------------------------

    def eval(self, x: FieldElement) -> FieldElement:
        if x.ctx is not self.ctx:
            raise CtxMismatch("evaluation point from a different ctx")
        return FieldElement(self.ctx, self.eval_enc(x.enc))

    def eval_enc(self, a: int) -> int:
        """Encoding of the value at the element encoded by a (0 included:
        pow_enc(0, 0) = 1 keeps the constant term)."""
        ctx = self.ctx
        acc = 0
        for e, c in self.terms.items():
            acc = ctx.add_enc(acc, ctx.mul_enc(c.enc, ctx.pow_enc(a, e)))
        return acc

    def compose(self, inner: "SparsePolynomial") -> "SparsePolynomial":
        """self(inner(X)); intended for small degrees."""
        self._check(inner)
        out = SparsePolynomial.zero(self.ctx)
        for e, c in self.sorted_terms():
            power = SparsePolynomial.constant(self.ctx, self.ctx.one())
            for _ in range(e):
                power = power * inner
            out = out + power.scale(c)
        return out

    def reduce_exponents(self) -> "SparsePolynomial":
        """Apply reduce_exponent with m = order - 1; preserves the induced
        function on the field.  Colliding images are merged."""
        m = self.ctx.order - 1
        pairs = [(reduce_exponent(e, m), c) for e, c in self.terms.items()]
        return SparsePolynomial(self.ctx, pairs)

    # -- euclidean structure (dense internally; desk-scale degrees) -----------

    def divmod(self, other: "SparsePolynomial"):
        self._check(other)
        if other.is_zero():
            raise DivisionByZero("polynomial division by zero")
        ctx = self.ctx
        rem = dict(self.terms)
        quo = {}
        dlead = other.degree()
        dinv = other.leading_coeff().inverse()
        while rem:
            dr = max(rem)
            if dr < dlead:
                break
            factor = rem[dr] * dinv
            shift = dr - dlead
            quo[shift] = factor
            for e, c in other.terms.items():
                te = e + shift
                acc = rem.get(te, ctx.zero()) - factor * c
                if acc.enc:
                    rem[te] = acc
                else:
                    rem.pop(te, None)
        q = SparsePolynomial(ctx)
        q.terms = quo
        r = SparsePolynomial(ctx)
        r.terms = rem
        return q, r

    def __mod__(self, other):
        return self.divmod(other)[1]

    def gcd(self, other: "SparsePolynomial") -> "SparsePolynomial":
        """Monic gcd by the euclidean algorithm."""
        self._check(other)
        a, b = self, other
        while not b.is_zero():
            a, b = b, a % b
        return a.monic()


# ---------------------------------------------------------------------------
# projective line


class ProjPoint:
    """A point of P^1: Finite(x) or Infinity."""

    __slots__ = ("value",)

    def __init__(self, value: FieldElement | None):
        self.value = value

    @property
    def is_infinity(self) -> bool:
        return self.value is None

    def __eq__(self, other):
        if not isinstance(other, ProjPoint):
            return NotImplemented
        return self.value == other.value

    def __hash__(self):
        if self.value is None:
            return hash("inf")
        return hash(self.value)

    def __str__(self):
        return "inf" if self.value is None else str(self.value)

    __repr__ = __str__


INFINITY = ProjPoint(None)


class RationalFunction:
    """P(X)/Q(X) acting on the projective line; gcd-reduced by default."""

    __slots__ = ("num", "den")

    def __init__(self, num: SparsePolynomial, den: SparsePolynomial, reduce: bool = True):
        if den.is_zero():
            raise DivisionByZero("zero denominator")
        if num.ctx is not den.ctx:
            raise CtxMismatch("numerator and denominator over different ctx")
        if reduce and not num.is_zero():
            g = num.gcd(den)
            if g.degree() > 0:
                num = num.divmod(g)[0]
                den = den.divmod(g)[0]
        self.num = num
        self.den = den

    @property
    def ctx(self):
        return self.num.ctx

    def degree(self) -> int:
        return max(self.num.degree(), self.den.degree())

    def normalized(self) -> "RationalFunction":
        """Scale so the denominator's leading coefficient is 1."""
        lead = self.den.leading_coeff()
        if lead.enc == 1:
            return self
        inv = lead.inverse()
        return RationalFunction(self.num.scale(inv), self.den.scale(inv), reduce=False)

    def eval_proj(self, point: ProjPoint) -> ProjPoint:
        if point.is_infinity:
            dn, dd = self.num.degree(), self.den.degree()
            if dn > dd:
                return INFINITY
            if dn < dd:
                return ProjPoint(self.ctx.zero())
            return ProjPoint(self.num.leading_coeff() / self.den.leading_coeff())
        x = point.value
        dv = self.den.eval(x)
        nv = self.num.eval(x)
        if dv.enc == 0:
            if nv.enc == 0:
                raise IndeterminateForm(
                    "0/0 at a finite point: operand is not gcd-reduced"
                )
            return INFINITY
        return ProjPoint(nv / dv)

    def __eq__(self, other):
        if not isinstance(other, RationalFunction):
            return NotImplemented
        a, b = self.normalized(), other.normalized()
        return a.num == b.num and a.den == b.den

    def __str__(self):
        return f"({self.num}) / ({self.den})"

    __repr__ = __str__


class MobiusMap:
    """(aX + b)/(cX + d) with ad - bc != 0."""

    __slots__ = ("a", "b", "c", "d")

    def __init__(self, a, b, c, d):
        if a.ctx is not b.ctx or a.ctx is not c.ctx or a.ctx is not d.ctx:
            raise CtxMismatch("mixed contexts in degree-one map")
        if (a * d - b * c).enc == 0:
            raise ZeroInput("degenerate degree-one map (ad - bc = 0)")
        self.a, self.b, self.c, self.d = a, b, c, d

    @property
    def ctx(self):
        return self.a.ctx

    def eval_proj(self, point: ProjPoint) -> ProjPoint:
        a, b, c, d = self.a, self.b, self.c, self.d
        if point.is_infinity:
            if c.enc == 0:
                return INFINITY
            return ProjPoint(a / c)
        x = point.value
        den = c * x + d
        if den.enc == 0:
            return INFINITY
        return ProjPoint((a * x + b) / den)

    def as_rational(self) -> RationalFunction:
        ctx = self.ctx
        num = SparsePolynomial(ctx, [(1, self.a), (0, self.b)])
        den = SparsePolynomial(ctx, [(1, self.c), (0, self.d)])
        return RationalFunction(num, den, reduce=False)

    def __str__(self):
        return f"({self.a}*X + {self.b}) / ({self.c}*X + {self.d})"

    __repr__ = __str__


# ---------------------------------------------------------------------------
# circle <-> line bijections


def rho_map(ext: QuadExtension, beta: FieldElement, delta: FieldElement) -> MobiusMap:
    """(delta*X - beta*delta^q)/(X - beta): unit circle -> P^1(GF(q)).

    beta itself maps to Infinity.  The bijection is verified exhaustively.
    """
    if not ext.on_circle(beta):
        raise BetaNotOnCircle(f"{beta} is not on the unit circle")
    if ext.in_subfield(delta):
        raise DeltaInSubfield(f"{delta} lies in GF({ext.q})")
    big = ext.big
    rho = MobiusMap(delta, -(beta * ext.frob_q(delta)), big.one(), -beta)
    image = {rho.eval_proj(ProjPoint(z)) for z in ext.circle_members()}
    if image != set(proj_line(ext)):
        raise InvariantViolation("degree-one map failed its circle-to-line check")
    return rho


def nu_map(ext: QuadExtension, beta_t: FieldElement, delta_t: FieldElement) -> MobiusMap:
    """beta_t*(X - delta_t^q)/(X - delta_t): P^1(GF(q)) -> unit circle.

    Infinity maps to beta_t.  The bijection is verified exhaustively.
    """
    if not ext.on_circle(beta_t):
        raise BetaNotOnCircle(f"{beta_t} is not on the unit circle")
    if ext.in_subfield(delta_t):
        raise DeltaInSubfield(f"{delta_t} lies in GF({ext.q})")
    nu = MobiusMap(beta_t, -(beta_t * ext.frob_q(delta_t)), ext.big.one(), -delta_t)
    image = {nu.eval_proj(pt) for pt in proj_line(ext)}
    if image != {ProjPoint(z) for z in ext.circle_members()}:
        raise InvariantViolation("degree-one map failed its line-to-circle check")
    return nu


def proj_line(ext: QuadExtension) -> list[ProjPoint]:
    """P^1(GF(q)) as [0, 1, gq, gq^2, ..., Infinity] inside GF(q^2)."""
    return [ProjPoint(s) for s in ext.subfield_members()] + [INFINITY]


def compose_nfr(nu: MobiusMap, f: RationalFunction, rho: MobiusMap) -> RationalFunction:
    """Symbolic nu(f(rho(X))), gcd-reduced; coefficients stay in GF(q^2).

    Composition is polynomial algebra on numerators/denominators (never
    interpolation) so closed-form coefficient systems can be compared
    exactly against the result.
    """
    ctx = f.ctx
    if f.degree() > 4:
        raise ZeroInput("inner map degree must be at most 4")
    rn = rho.as_rational().num
    rd = rho.as_rational().den
    d = f.degree()
    # homogenize: P(rn/rd) * rd^d and Q(rn/rd) * rd^d
    rn_pows = [SparsePolynomial.constant(ctx, ctx.one())]
    rd_pows = [SparsePolynomial.constant(ctx, ctx.one())]
    for _ in range(d):
        rn_pows.append(rn_pows[-1] * rn)
        rd_pows.append(rd_pows[-1] * rd)
    a_poly = SparsePolynomial.zero(ctx)
    b_poly = SparsePolynomial.zero(ctx)
    for e, c in f.num.terms.items():
        a_poly = a_poly + (rn_pows[e] * rd_pows[d - e]).scale(c)
    for e, c in f.den.terms.items():
        b_poly = b_poly + (rn_pows[e] * rd_pows[d - e]).scale(c)
    num = a_poly.scale(nu.a) + b_poly.scale(nu.b)
    den = a_poly.scale(nu.c) + b_poly.scale(nu.d)
    return RationalFunction(num, den, reduce=True)


def is_bijection_on(mapping, domain, codomain):
    """Exhaustively test that mapping sends domain bijectively onto codomain.

    Returns (True, None) or (False, witness) where witness is
    ("collision", x1, x2) or ("not-in-codomain", x, y).
    """
    if len(domain) != len(set(codomain)):
        raise SizeMismatch("domain and codomain sizes differ")
    codomain_set = set(codomain)
    seen = {}
    for x in domain:
        y = mapping.eval_proj(x) if isinstance(x, ProjPoint) else mapping.eval(x)
        if y not in codomain_set:
            return False, ("not-in-codomain", x, y)
        if y in seen:
            return False, ("collision", seen[y], x)
        seen[y] = x
    return True, None


# ---------------------------------------------------------------------------
# cubic shape X^3 + X + alpha over GF(2^m)


def irreducible_cubic_alphas(xs: list[FieldElement]) -> list[FieldElement]:
    """The alpha among xs, the elements of one field, with X^3 + X + alpha
    irreducible over it (degree 3: no root among xs), in xs order."""
    image = cubic_image(xs)
    return [x for x in xs if x.enc not in image]


def alphas_from_noncubes(ctx: FieldCtx) -> set[FieldElement]:
    """{a + a^{-1} : a nonzero non-cube}; needs 3 | order - 1 (even m for p=2)."""
    if (ctx.order - 1) % 3 != 0:
        raise ZeroInput("no non-cubes: 3 does not divide the group order")
    out = set()
    for x in ctx.elements():
        if x.enc and not ctx.is_cube(x):
            out.add(x + x.inverse())
    return out


def cubic_image(xs) -> set[int]:
    """Encodings of -(x^3 + x) over xs: X^3 + X + alpha has a root among xs
    iff alpha.enc is in the set."""
    return {(-(x**3 + x)).enc for x in xs}
