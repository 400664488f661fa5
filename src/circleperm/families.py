"""Closed-form coefficient systems and builders for the polynomial families.

Every family is a polynomial X^r * h(X^(q-1)) over GF(q^2) whose h comes
from conjugating one of four base maps of the projective line into the unit
circle through a pair of degree-one bijections:

    cubic              X^3                      (q = 2 mod 3)
    cubic_shift        X^3 - alpha*X            (q = 0 mod 3)
    quartic_trinomial  X^4 + X^2 + alpha*X      (q even)
    quartic_binomial   X^4 + a*X                (q even; a = 0 for B1/B2)

The numerator/denominator coefficients of the conjugated map are closed
forms in (beta, beta_t, delta, delta_t, aux); build_family materializes the
chosen h_i, the exponent r and the expanded sparse polynomial with
exponents reduced into [1, q^2-1] (expand_decomposition).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import CtxMismatch, InvalidParams, InvariantViolation, LimitExceeded
from .fields import EXHAUSTIVE_CAP, FieldElement, QuadExtension
from .polynomials import RationalFunction, SparsePolynomial, cubic_image, reduce_exponent

KIND_CUBIC = "cubic"
KIND_CUBIC_SHIFT = "cubic_shift"
KIND_QUARTIC_TRI = "quartic_trinomial"
KIND_QUARTIC_BIN = "quartic_binomial"

# congruence name -> (modulus, residue, wording in violations)
_CONGRUENCES = {"2mod3": (3, 2, "2 mod 3"), "0mod3": (3, 0, "0 mod 3"), "even": (2, 0, "even")}


@dataclass(frozen=True)
class FamilySpec:
    """Static data for one family: shape, exponent, and constraint selectors."""

    family: str
    kind: str
    h_index: int  # 0 = plain h (cubic kinds), 1..5 for the shifted variants
    r_q: int  # r = r_q * q + r_c
    r_c: int
    beta_rel: str  # "cube": beta_t*beta^3 = -1; "fourth": beta_t*beta^4 = 1
    congruence: str  # "2mod3" | "0mod3" | "even"
    aux: str | None  # None | "square_or_zero" | "cubic_alpha" | "noncube" | "zero"
    advertised_terms: int

    def r(self, q: int) -> int:
        return self.r_q * q + self.r_c

    def admits(self, q: int) -> bool:
        """q meets the family's congruence condition."""
        mod, res, _ = _CONGRUENCES[self.congruence]
        return q % mod == res


FAMILIES: dict[str, FamilySpec] = {
    s.family: s
    for s in [
        FamilySpec("Q1", KIND_CUBIC, 0, 0, 3, "cube", "2mod3", None, 4),
        FamilySpec("Q2a", KIND_CUBIC, 1, 0, 1, "cube", "2mod3", None, 4),
        FamilySpec("Q2b", KIND_CUBIC, 2, 1, 0, "cube", "2mod3", None, 4),
        FamilySpec("Q2c", KIND_CUBIC, 3, 1, -2, "cube", "2mod3", None, 4),
        FamilySpec("Q3", KIND_CUBIC_SHIFT, 0, 0, 3, "cube", "0mod3", "square_or_zero", 4),
        FamilySpec("Q4a", KIND_CUBIC_SHIFT, 1, 0, 1, "cube", "0mod3", "square_or_zero", 4),
        FamilySpec("Q4b", KIND_CUBIC_SHIFT, 2, 1, 0, "cube", "0mod3", "square_or_zero", 4),
        FamilySpec("Q4c", KIND_CUBIC_SHIFT, 3, 3, 0, "cube", "0mod3", "square_or_zero", 4),
        FamilySpec("P1", KIND_QUARTIC_TRI, 1, 0, 4, "fourth", "even", "cubic_alpha", 5),
        FamilySpec("P2", KIND_QUARTIC_TRI, 2, 0, 2, "fourth", "even", "cubic_alpha", 5),
        FamilySpec("P3", KIND_QUARTIC_TRI, 5, 1, -3, "fourth", "even", "cubic_alpha", 5),
        FamilySpec("P4", KIND_QUARTIC_BIN, 1, 0, 4, "fourth", "even", "noncube", 5),
        FamilySpec("P5", KIND_QUARTIC_BIN, 2, 0, 2, "fourth", "even", "noncube", 5),
        FamilySpec("P6", KIND_QUARTIC_BIN, 5, 1, -3, "fourth", "even", "noncube", 5),
        FamilySpec("B1", KIND_QUARTIC_BIN, 2, 0, 2, "fourth", "even", "zero", 2),
        FamilySpec("B2", KIND_QUARTIC_BIN, 5, 1, -3, "fourth", "even", "zero", 2),
    ]
}


@dataclass
class ConstructionParams:
    family: str
    beta: FieldElement
    beta_t: FieldElement
    delta: FieldElement
    delta_t: FieldElement
    aux: FieldElement | None = None


@dataclass
class CoefficientSystem:
    """Numerator/denominator coefficients of the conjugated base map.

    Cubic kinds carry N = (N0..N3) and D = (D0..D3).  Quartic kinds carry
    N = (N0..N4) plus the circle-shift constants n4_shift = N4 + delta_t and
    n0_shift = N0 + beta^4 * delta_t that appear in every h_i.
    """

    kind: str
    N: tuple
    D: tuple | None = None
    n4_shift: FieldElement | None = None
    n0_shift: FieldElement | None = None


def derive_beta_t(family: str, beta: FieldElement) -> FieldElement:
    """The beta_t forced by the family's relation on (beta, beta_t)."""
    spec = FAMILIES[family]
    if spec.beta_rel == "cube":
        return -(beta**-3)
    return beta**-4


# ---------------------------------------------------------------------------
# validation


def validate_params(family: str, params: ConstructionParams, ext: QuadExtension):
    """Check the family's constraint system; violations returned as strings."""
    spec = FAMILIES[family]
    q = ext.q
    v = []
    if not spec.admits(q):
        v.append(f"q = {q} is not {_CONGRUENCES[spec.congruence][2]}")
    beta, beta_t = params.beta, params.beta_t
    delta, delta_t = params.delta, params.delta_t
    if not ext.on_circle(beta):
        v.append("beta is not on the unit circle")
    if not ext.on_circle(beta_t):
        v.append("beta_t is not on the unit circle")
    if ext.in_subfield(delta):
        v.append("delta lies in the subfield")
    if ext.in_subfield(delta_t):
        v.append("delta_t lies in the subfield")
    if spec.beta_rel == "cube":
        if (ext.big.one() + beta_t * beta**3).enc != 0:
            v.append("beta relation 1 + beta_t*beta^3 = 0 fails")
    else:
        if (beta_t * beta**4) != ext.big.one():
            v.append("beta relation beta_t*beta^4 = 1 fails")
    aux = params.aux
    if spec.aux in (None, "zero"):
        if aux is not None and aux.enc != 0:
            v.append("family takes no aux element")
        aux_val = ext.big.zero()
    elif aux is None:
        v.append("family requires an aux element")
        aux_val = ext.big.zero()
    else:
        aux_val = aux
    try:
        excl = exclusion_set(spec.kind, delta, aux_val, ext)
        if delta_t in excl:
            v.append("delta_t lies in the excluded set for this delta")
        if spec.kind == KIND_QUARTIC_TRI:
            if (delta + ext.frob_q(delta) + aux_val).enc == 0:
                v.append("delta + delta^q + aux = 0")
    except CtxMismatch:
        v.append("exclusion set not computable: aux from a different ctx")
    if spec.aux == "square_or_zero" and aux is not None:
        if not ext.in_subfield(aux):
            v.append("aux is not in the subfield")
        elif aux.enc != 0 and ext.is_square_sub(aux):
            v.append("aux must be zero or a non-square in the subfield")
    elif spec.aux == "cubic_alpha" and aux is not None:
        if not ext.in_subfield(aux):
            v.append("aux is not in the subfield")
        elif aux.enc in cubic_image(ext.subfield_members()):
            v.append("X^3 + X + aux has a root in the subfield")
    elif spec.aux == "noncube" and aux is not None:
        if not ext.in_subfield(aux):
            v.append("aux is not in the subfield")
        elif aux.enc == 0:
            v.append("aux must be nonzero")
        elif ext.is_cube_sub(aux):
            v.append("aux must be a non-cube in the subfield")
    return v


def exclusion_set(kind: str, delta: FieldElement, aux: FieldElement, ext: QuadExtension):
    """delta_t values that would zero a coefficient the family needs."""
    q = ext.q
    dq = ext.frob_q(delta)
    if kind == KIND_CUBIC:
        return {delta**3, delta ** (q + 2), delta ** (2 * q + 1), delta ** (3 * q)}
    if kind == KIND_CUBIC_SHIFT:
        return {delta ** (3 * q) - aux * dq, delta**3 - aux * delta}
    if kind == KIND_QUARTIC_TRI:
        return {
            delta**4 + delta**2 + aux * delta,
            dq**4 + dq**2 + aux * dq,
        }
    if kind == KIND_QUARTIC_BIN:
        return {delta**4 + aux * delta, dq**4 + aux * dq}
    raise ValueError(f"unknown kind {kind}")


def irreducible_cubic_alphas_sub(ext: QuadExtension) -> list[FieldElement]:
    """Subfield alphas with X^3 + X + alpha irreducible over GF(q), scan order."""
    image = cubic_image(ext.subfield_members())
    return [a for a in ext.subfield_members() if a.enc not in image]


def aux_candidates(family: str, ext: QuadExtension):
    """All valid aux elements for the family at this extension (None = no aux)."""
    spec = FAMILIES[family]
    if spec.aux in (None, "zero"):
        return [None]
    if spec.aux == "square_or_zero":
        out = [ext.big.zero()]
        out += [s for s in ext.subfield_members() if s.enc and not ext.is_square_sub(s)]
        return out
    if spec.aux == "cubic_alpha":
        return irreducible_cubic_alphas_sub(ext)
    if spec.aux == "noncube":
        if (ext.q - 1) % 3 != 0:
            return []
        return [s for s in ext.subfield_members() if s.enc and not ext.is_cube_sub(s)]
    raise ValueError(f"unknown aux kind {spec.aux}")


# ---------------------------------------------------------------------------
# coefficient systems


def coeffs(kind: str, params: ConstructionParams, ext: QuadExtension) -> CoefficientSystem:
    """Closed-form numerator/denominator coefficients for the kind."""
    if FAMILIES[params.family].kind != kind:
        raise InvalidParams([f"params are for family {params.family}, not kind {kind}"])
    violations = validate_params(params.family, params, ext)
    if violations:
        raise InvalidParams(violations)
    return _coeffs_raw(kind, params.beta, params.beta_t, params.delta, params.delta_t,
                       params.aux, ext)


def _coeffs_raw(kind, beta, beta_t, delta, delta_t, aux, ext) -> CoefficientSystem:
    q = ext.q
    big = ext.big
    dq = ext.frob_q(delta)
    dtq = ext.frob_q(delta_t)
    if kind == KIND_CUBIC:
        three = big.from_int(3)
        n = (
            -(beta_t * beta**3) * (delta ** (3 * q) - dtq),
            three * beta_t * beta**2 * (delta ** (2 * q + 1) - dtq),
            -(three * beta_t * beta) * (delta ** (q + 2) - dtq),
            beta_t * (delta**3 - dtq),
        )
        d = (
            -(beta**3) * (delta ** (3 * q) - delta_t),
            three * beta**2 * (delta ** (2 * q + 1) - delta_t),
            -(three * beta) * (delta ** (q + 2) - delta_t),
            delta**3 - delta_t,
        )
        return CoefficientSystem(kind, n, d)
    if kind == KIND_CUBIC_SHIFT:
        alpha = aux if aux is not None else big.zero()
        drift = dq - delta
        n = (
            beta_t * beta**3 * (alpha * dq - delta ** (3 * q) + dtq),
            alpha * beta_t * beta**2 * drift,
            alpha * beta_t * beta * drift,
            beta_t * (delta**3 - alpha * delta - dtq),
        )
        d = (
            beta**3 * (alpha * dq - delta ** (3 * q) + delta_t),
            alpha * beta**2 * drift,
            alpha * beta * drift,
            delta**3 - alpha * delta - delta_t,
        )
        return CoefficientSystem(kind, n, d)
    if kind == KIND_QUARTIC_TRI:
        alpha = aux
        s = delta + dq
        n = (
            beta**4 * (dq**4 + dq**2 + alpha * dq),
            alpha * beta**3 * s,
            beta**2 * s * (s + alpha),
            alpha * beta * s,
            delta**4 + delta**2 + alpha * delta,
        )
        return CoefficientSystem(
            kind,
            n,
            n4_shift=n[4] + delta_t,
            n0_shift=n[0] + beta**4 * delta_t,
        )
    if kind == KIND_QUARTIC_BIN:
        a = aux if aux is not None else big.zero()
        s = delta + dq
        n = (
            beta**4 * (a * dq + dq**4),
            a * beta**3 * s,
            a * beta**2 * s,
            a * beta * s,
            delta**4 + a * delta,
        )
        return CoefficientSystem(
            kind,
            n,
            n4_shift=n[4] + delta_t,
            n0_shift=n[0] + beta**4 * delta_t,
        )
    raise ValueError(f"unknown kind {kind}")


def base_map(kind: str, aux: FieldElement | None, ext: QuadExtension) -> RationalFunction:
    """The inner projective-line map the kind conjugates."""
    big = ext.big
    one = SparsePolynomial.constant(big, big.one())
    if kind == KIND_CUBIC:
        return RationalFunction(SparsePolynomial.x_power(big, 3), one)
    if kind == KIND_CUBIC_SHIFT:
        alpha = aux if aux is not None else big.zero()
        num = SparsePolynomial(big, [(3, big.one()), (1, -alpha)])
        return RationalFunction(num, one)
    if kind == KIND_QUARTIC_TRI:
        num = SparsePolynomial(big, [(4, big.one()), (2, big.one()), (1, aux)])
        return RationalFunction(num, one)
    if kind == KIND_QUARTIC_BIN:
        a = aux if aux is not None else big.zero()
        num = SparsePolynomial(big, [(4, big.one()), (1, a)])
        return RationalFunction(num, one)
    raise ValueError(f"unknown kind {kind}")


def closed_form_rational(system: CoefficientSystem, params: ConstructionParams,
                         ext: QuadExtension) -> RationalFunction:
    """The conjugated map assembled from the closed forms (for dual-path checks)."""
    big = ext.big
    if system.kind in (KIND_CUBIC, KIND_CUBIC_SHIFT):
        num = SparsePolynomial(big, list(enumerate(system.N)))
        den = SparsePolynomial(big, list(enumerate(system.D)))
        return RationalFunction(num, den, reduce=False)
    n0, n1, n2, n3, n4 = system.N
    beta_t = params.beta_t
    beta4 = params.beta**4
    dtq = ext.frob_q(params.delta_t)
    num = SparsePolynomial(
        big,
        [(4, beta_t * (n4 + dtq)), (3, beta_t * n3), (2, beta_t * n2),
         (1, beta_t * n1), (0, beta_t * (n0 + beta4 * dtq))],
    )
    den = SparsePolynomial(
        big,
        [(4, system.n4_shift), (3, n3), (2, n2), (1, n1), (0, system.n0_shift)],
    )
    return RationalFunction(num, den, reduce=False)


# ---------------------------------------------------------------------------
# h polynomials and expansion


def build_h(kind: str, system: CoefficientSystem, index: int, ext: QuadExtension
            ) -> SparsePolynomial:
    """The index-th circle polynomial of the system (0 = plain h)."""
    q = ext.q
    big = ext.big
    if kind in (KIND_CUBIC, KIND_CUBIC_SHIFT):
        d0, d1, d2, d3 = system.D
        layouts = {
            0: [(3, d3), (2, d2), (1, d1), (0, d0)],
            1: [(q, d0), (2, d3), (1, d2), (0, d1)],
            2: [(2 * q, d0), (q, d1), (1, d3), (0, d2)],
            3: [(3 * q, d0), (2 * q, d1), (q, d2), (0, d3)],
        }
    else:
        n1, n2, n3 = system.N[1], system.N[2], system.N[3]
        e_hi, e_lo = system.n4_shift, system.n0_shift
        layouts = {
            1: [(4, e_hi), (3, n3), (2, n2), (1, n1), (0, e_lo)],
            2: [(q, e_lo), (3, e_hi), (2, n3), (1, n2), (0, n1)],
            3: [(2 * q, e_lo), (q, n1), (2, e_hi), (1, n3), (0, n2)],
            4: [(3 * q, e_lo), (2 * q, n1), (q, n2), (1, e_hi), (0, n3)],
            5: [(4 * q, e_lo), (3 * q, n1), (2 * q, n2), (q, n3), (0, e_hi)],
        }
    if index not in layouts:
        raise ValueError(f"kind {kind} has no h_{index}")
    return SparsePolynomial(big, layouts[index])


def h_variants(kind: str, system: CoefficientSystem, ext: QuadExtension):
    """All circle polynomials of the kind: [h, h1..h3] or [h1..h5]."""
    if kind in (KIND_CUBIC, KIND_CUBIC_SHIFT):
        return [build_h(kind, system, i, ext) for i in range(4)]
    return [build_h(kind, system, i, ext) for i in range(1, 6)]


@dataclass
class BuiltFamily:
    """A constructed polynomial with its structural decomposition."""

    family: str
    params: ConstructionParams
    r: int
    h: SparsePolynomial
    poly: SparsePolynomial  # expanded, exponents reduced into [1, q^2-1]
    system: CoefficientSystem
    term_count: int = field(init=False)

    def __post_init__(self):
        self.term_count = len(self.poly.terms)


def build_family(family: str, params: ConstructionParams, ext: QuadExtension
                 ) -> BuiltFamily:
    """Expand X^r * h(X^(q-1)) for the family; raises InvalidParams."""
    spec = FAMILIES[family]
    system = coeffs(spec.kind, params, ext)
    h = build_h(spec.kind, system, spec.h_index, ext)
    r = spec.r(ext.q)
    poly = expand_decomposition(r, h, ext)
    if len(poly.terms) != len(h.terms):
        raise InvariantViolation("exponent collision while expanding a family")
    return BuiltFamily(family, params, r, h, poly, system)


def expand_decomposition(r: int, h: SparsePolynomial, ext: QuadExtension
                         ) -> SparsePolynomial:
    """X^r * h(X^(q-1)) with exponents reduced into [1, q^2-1]."""
    q = ext.q
    m = ext.big.order - 1
    return SparsePolynomial(
        ext.big, [(reduce_exponent(e * (q - 1) + r, m), c) for e, c in h.terms.items()]
    )


# ---------------------------------------------------------------------------
# parameter grids


@dataclass
class GridLimits:
    cap_order: int = EXHAUSTIVE_CAP
    max_count: int | None = None
    delta_stride: int = 1
    delta_t_stride: int = 1
    beta_indices: list[int] | None = None  # circle indices to walk (None = all)


def param_grid(family: str, ext: QuadExtension, limits: GridLimits | None = None):
    """Yield every valid ConstructionParams tuple (optionally strided/capped).

    beta ranges over the circle with beta_t forced by the family relation;
    delta/delta_t over GF(q^2) \\ GF(q) minus the exclusion sets; aux over
    its family-specific valid set.  Emission order is deterministic.
    """
    limits = limits or GridLimits()
    if ext.big.order > limits.cap_order:
        raise LimitExceeded(
            f"field order {ext.big.order} exceeds grid cap {limits.cap_order}"
        )
    spec = FAMILIES[family]
    if not spec.admits(ext.q):
        return
    mu = ext.circle_members()
    betas = (
        mu
        if limits.beta_indices is None
        else [mu[i] for i in limits.beta_indices]
    )
    big, q = ext.big, ext.q

    def nonsub(stride):  # GF(q^2) \ GF(q) lazily: the i-th log off (q+1)Z is i + i//q + 1
        return (big.from_enc(big.exp_enc(i + i // q + 1)) for i in range(0, q * q - q, stride))

    emitted = 0
    for beta in betas:
        beta_t = derive_beta_t(family, beta)
        for aux in aux_candidates(family, ext):
            aux_val = aux if aux is not None else big.zero()
            for delta in nonsub(limits.delta_stride):
                if spec.kind == KIND_QUARTIC_TRI:
                    if (delta + ext.frob_q(delta) + aux_val).enc == 0:
                        continue
                excl = {x.enc for x in exclusion_set(spec.kind, delta, aux_val, ext)}
                for delta_t in nonsub(limits.delta_t_stride):
                    if delta_t.enc in excl:
                        continue
                    yield ConstructionParams(family, beta, beta_t, delta, delta_t, aux)
                    emitted += 1
                    if limits.max_count is not None and emitted >= limits.max_count:
                        return
