"""Coefficient systems and builders for the polynomial families.

Every family is a polynomial X^r * h(X^(q-1)) over GF(q^2) whose h comes
from conjugating a base map R = sum c_i X^i of degree d, a permutation of
the projective line, into the unit circle through the degree-one bijections
rho(X) = (delta*X - beta*delta^q)/(X - beta) and
nu(w) = beta_t*(w - delta_t^q)/(w - delta_t).  Each base map is one row of
_BASE_MAPS, which also holds the conditions under which R permutes:

    cubic              X^3                      q = 2 mod 3
    cubic_shift        X^3 - alpha*X            q = 0 mod 3, alpha zero or a non-square
    quartic_trinomial  X^4 + X^2 + alpha*X      q even, X^3 + X + alpha irreducible
    quartic_binomial   X^4 + a*X                q even, a a nonzero non-cube
    quartic            X^4                      q even (B1, B2)

One formula serves every row.  Put X = beta*Y, let Q_k be the Y^k
coefficient of (Y - 1)^d * R((delta*Y - delta^q)/(Y - 1)) and
b_k = C(d,k) * (-1)^(d-k).  Then nu(R(rho(X))) = sum N_k X^k / sum D_k X^k with
D_k = beta^(d-k) * (Q_k - delta_t*b_k), N_k = beta_t * beta^(d-k) * (Q_k -
delta_t^q*b_k) and beta_t = -beta^(-d).  The exclusion sets and the h_i read
off Q, b and D; build_family expands the chosen h_i with its exponent r.
"""

from __future__ import annotations

import functools
import math
import weakref
from collections import namedtuple
from dataclasses import dataclass, field

from .errors import InvalidParams, InvariantViolation
from .fields import FieldElement, QuadExtension, check_cap
from .polynomials import SparsePolynomial, irreducible_cubic_alphas, reduce_exponent

KIND_CUBIC = "cubic"
KIND_CUBIC_SHIFT = "cubic_shift"
KIND_QUARTIC_TRI = "quartic_trinomial"
KIND_QUARTIC_BIN = "quartic_binomial"
KIND_QUARTIC = "quartic"

# congruence name -> (modulus, residue, wording in violations)
_CONGRUENCES = {"2mod3": (3, 2, "2 mod 3"), "0mod3": (3, 0, "0 mod 3"), "even": (2, 0, "even")}


# A base map row: R as terms (i, n, e) that stand for n * aux^e * X^i, highest
# degree first; the index of the unshifted h; the congruence R needs; and its
# aux rule (the violation, and ext -> the valid aux of GF(q) in subfield scan
# order), None when R has no aux coefficient.
BaseMap = namedtuple("BaseMap", "terms first_h congruence aux")
AuxRule = namedtuple("AuxRule", "violation members")


_BASE_MAPS = {
    KIND_CUBIC: BaseMap(((3, 1, 0),), 0, "2mod3", None),
    KIND_CUBIC_SHIFT: BaseMap(((3, 1, 0), (1, -1, 1)), 0, "0mod3", AuxRule(
        "aux must be zero or a non-square in the subfield",
        lambda ext: [s for s in ext.subfield_members()
                     if not s.enc or not ext.is_power_sub(s, 2)])),
    KIND_QUARTIC_TRI: BaseMap(((4, 1, 0), (2, 1, 0), (1, 1, 1)), 1, "even", AuxRule(
        "X^3 + X + aux has a root in the subfield",
        lambda ext: irreducible_cubic_alphas(ext.subfield_members()))),
    KIND_QUARTIC_BIN: BaseMap(((4, 1, 0), (1, 1, 1)), 1, "even", AuxRule(
        "aux must be a nonzero non-cube in the subfield",
        lambda ext: [s for s in ext.subfield_members() if s.enc and not ext.is_power_sub(s, 3)])),
    KIND_QUARTIC: BaseMap(((4, 1, 0),), 1, "even", None),
}


@dataclass(frozen=True)
class FamilySpec:
    """Static data for one family: base map, h index and exponent."""

    family: str
    kind: str  # key of _BASE_MAPS
    h_index: int  # 0 = plain h (cubic kinds), 1..5 for the shifted variants
    r_q: int  # r = r_q * q + r_c
    r_c: int
    advertised_terms: int

    @property
    def congruence(self) -> str:
        return _BASE_MAPS[self.kind].congruence

    @property
    def aux(self) -> AuxRule | None:
        return _BASE_MAPS[self.kind].aux

    def r(self, q: int) -> int:
        return self.r_q * q + self.r_c

    def admits(self, q: int) -> bool:
        """q meets the base map's congruence condition."""
        mod, res, _ = _CONGRUENCES[self.congruence]
        return q % mod == res


FAMILIES: dict[str, FamilySpec] = {
    s.family: s
    for s in [
        FamilySpec("Q1", KIND_CUBIC, 0, 0, 3, 4),
        FamilySpec("Q2a", KIND_CUBIC, 1, 0, 1, 4),
        FamilySpec("Q2b", KIND_CUBIC, 2, 1, 0, 4),
        FamilySpec("Q2c", KIND_CUBIC, 3, 1, -2, 4),
        FamilySpec("Q3", KIND_CUBIC_SHIFT, 0, 0, 3, 4),
        FamilySpec("Q4a", KIND_CUBIC_SHIFT, 1, 0, 1, 4),
        FamilySpec("Q4b", KIND_CUBIC_SHIFT, 2, 1, 0, 4),
        FamilySpec("Q4c", KIND_CUBIC_SHIFT, 3, 3, 0, 4),
        FamilySpec("P1", KIND_QUARTIC_TRI, 1, 0, 4, 5),
        FamilySpec("P2", KIND_QUARTIC_TRI, 2, 0, 2, 5),
        FamilySpec("P3", KIND_QUARTIC_TRI, 5, 1, -3, 5),
        FamilySpec("P4", KIND_QUARTIC_BIN, 1, 0, 4, 5),
        FamilySpec("P5", KIND_QUARTIC_BIN, 2, 0, 2, 5),
        FamilySpec("P6", KIND_QUARTIC_BIN, 5, 1, -3, 5),
        FamilySpec("B1", KIND_QUARTIC, 2, 0, 2, 2),
        FamilySpec("B2", KIND_QUARTIC, 5, 1, -3, 2),
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
    """Denominator coefficients D = (D_0..D_d) of the conjugated base map:
    h and every h_i are D on shifted exponents (build_h)."""

    kind: str
    D: tuple


def _degree(kind: str) -> int:
    return _BASE_MAPS[kind].terms[0][0]  # terms run highest degree first


def derive_beta_t(family: str, beta: FieldElement) -> FieldElement:
    """The beta_t forced by the family: -beta^(-d), d = deg R; zero for beta = 0."""
    return beta if beta.enc == 0 else -(beta ** -_degree(FAMILIES[family].kind))


# ---------------------------------------------------------------------------
# validation


def validate_params(family: str, params: ConstructionParams, ext: QuadExtension):
    """Check the family's constraint system; violations returned as strings."""
    return _check(FAMILIES[family], params, ext)[0]


def field_violations(family: str, ext: QuadExtension) -> list[str]:
    """The violations every tuple of the family over ext has: those of q
    itself, or an aux rule that no element of GF(q) meets."""
    spec = FAMILIES[family]
    v = _q_violations(spec, ext.q)
    if spec.aux is not None and not _aux_set(spec.aux, ext):
        v.append(spec.aux.violation)
    return v


def _q_violations(spec: FamilySpec, q: int) -> list[str]:
    """q outside the base map's congruence, or q below its degree d: two
    exponents of h collide mod q^2 - 1 iff d >= q + 1."""
    v = [] if spec.admits(q) else [f"q = {q} is not {_CONGRUENCES[spec.congruence][2]}"]
    d = _degree(spec.kind)
    if q < d:
        v.append(f"q = {q} is less than deg R = {d}")
    return v


def _check(spec: FamilySpec, params: ConstructionParams, ext: QuadExtension):
    """(violations, Q_0..Q_d encodings at the tuple's delta and aux)."""
    base = _BASE_MAPS[spec.kind]
    v = _q_violations(spec, ext.q)
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
    d = _degree(spec.kind)
    if (ext.big.one() + beta_t * beta**d).enc != 0:
        v.append(f"beta relation 1 + beta_t*beta^{d} = 0 fails")
    aux = params.aux
    if base.aux is None:
        if aux is not None and aux.enc != 0:
            v.append("family takes no aux element")
        aux = None
    elif aux is None:
        v.append("family requires an aux element")
    qs, excluded, delta_ok = _delta_rules(spec.kind, delta, aux, ext)
    if delta_t.enc in excluded:
        v.append("delta_t lies in the excluded set for this delta")
    if not delta_ok:
        v.append("delta + delta^q + aux = 0")
    if aux is not None:
        if not ext.in_subfield(aux):
            v.append("aux is not in the subfield")
        elif aux.enc not in _aux_set(base.aux, ext):
            v.append(base.aux.violation)
    return v, qs


def _delta_rules(kind: str, delta: FieldElement, aux: FieldElement | None, ext: QuadExtension):
    """(Q encodings, excluded delta_t encodings, delta ok) at this delta and aux:
    D_k vanishes at delta_t = Q_k/b_k for b_k nonzero mod p, and the trinomial
    needs delta + delta^q + aux != 0 (aux None reads as zero)."""
    big = ext.big
    p = big.p
    _, b, _, _ = _plan(kind, p, ext.q)
    qs = _q_encs(kind, delta, aux, ext)
    excluded = {big.mul_enc(qk, pow(bk, -1, p)) for qk, bk in zip(qs, b) if bk}
    a = aux if aux is not None else big.zero()
    delta_ok = kind != KIND_QUARTIC_TRI or (delta + delta**ext.q + a).enc != 0
    return qs, excluded, delta_ok


_AUX_SETS = weakref.WeakKeyDictionary()  # ext -> {aux rule: {enc: valid aux}}


def _aux_set(rule: AuxRule, ext: QuadExtension) -> dict[int, FieldElement]:
    """The rule's valid aux by encoding, in scan order, built once per extension."""
    sets = _AUX_SETS.setdefault(ext, {})
    if rule not in sets:
        sets[rule] = {a.enc: a for a in rule.members(ext)}
    return sets[rule]


def aux_candidates(family: str, ext: QuadExtension):
    """All valid aux elements for the family at this extension (None = no aux)."""
    rule = FAMILIES[family].aux
    return [None] if rule is None else list(_aux_set(rule, ext).values())


# ---------------------------------------------------------------------------
# coefficient systems


@functools.lru_cache(maxsize=None)
def _plan(kind: str, p: int, q: int):
    """(d, b, terms, top) of the kind's R over GF(q^2): b_k mod p, the terms
    (k, n, e, x) of Q_k = sum n * aux^e * delta^x, nonzero n mod p, and the
    largest aux exponent e.

    Q_k expands sum_i c_i * (delta*Y - delta^q)^i * (Y - 1)^(d-i): Y^j of the
    first factor times Y^l of the second gives k = j + l, x = j + q(i - j).
    """
    d = _degree(kind)
    b = tuple(math.comb(d, k) * (-1) ** (d - k) % p for k in range(d + 1))
    terms = tuple(
        (j + l, n, e, j + q * (i - j))
        for i, c, e in _BASE_MAPS[kind].terms
        for j in range(i + 1)
        for l in range(d - i + 1)
        if (n := c * math.comb(i, j) * math.comb(d - i, l) * (-1) ** (d - j - l) % p)
    )
    return d, b, terms, max(e for _, _, e in _BASE_MAPS[kind].terms)


def _q_encs(kind: str, delta: FieldElement, aux: FieldElement | None, ext: QuadExtension
            ) -> list[int]:
    """Encodings of Q_0..Q_d at this delta and aux (None reads as zero)."""
    big = ext.big
    big._own(delta)
    a = 0
    if aux is not None:
        big._own(aux)
        a = aux.enc
    mul, add, pw = big.mul_enc, big.add_enc, big.pow_enc
    d, _, terms, top = _plan(kind, big.p, ext.q)
    aux_pows = [pw(a, e) for e in range(top + 1)]
    out = [0] * (d + 1)
    for k, n, e, x in terms:
        t = pw(delta.enc, x)
        if n != 1:
            t = mul(n, t)  # the prime-subfield element n is encoded as n
        if e:
            t = mul(aux_pows[e], t)
        out[k] = add(out[k], t)
    return out


def coeffs(params: ConstructionParams, ext: QuadExtension) -> CoefficientSystem:
    """Validated D_k = beta^(d-k) * (Q_k - delta_t*b_k) for params.family."""
    return _system(params, _valid_q_encs(params, ext), ext)


def _valid_q_encs(params: ConstructionParams, ext: QuadExtension) -> list[int]:
    """Q_0..Q_d encodings of a tuple that meets its family's rules, else InvalidParams."""
    violations, qs = _check(FAMILIES[params.family], params, ext)
    if violations:
        raise InvalidParams(violations)
    return qs


def _system(params: ConstructionParams, qs: list[int], ext: QuadExtension) -> CoefficientSystem:
    """D_k = beta^(d-k) * (Q_k - delta_t*b_k) from the tuple's Q_k encodings."""
    kind = FAMILIES[params.family].kind
    big = ext.big
    mul = big.mul_enc
    d, b, _, _ = _plan(kind, big.p, ext.q)
    beta, delta_t = params.beta.enc, params.delta_t.enc
    return CoefficientSystem(kind, tuple(
        FieldElement(big, mul(big.pow_enc(beta, d - k), big.sub_enc(qk, mul(bk, delta_t))))
        for k, (qk, bk) in enumerate(zip(qs, b))
    ))


# ---------------------------------------------------------------------------
# h polynomials and expansion


def build_h(system: CoefficientSystem, index: int, ext: QuadExtension) -> SparsePolynomial:
    """The index-th circle polynomial of the system.

    It is h shifted by s = index - (index of the unshifted h): D_k X^k
    becomes X^(k-s) for k >= s and X^((s-k)q) otherwise, so that
    h_index(z) * z^s = h(z) on the unit circle.
    """
    s = index - _BASE_MAPS[system.kind].first_h
    if not 0 <= s < len(system.D):
        raise ValueError(f"kind {system.kind} has no h_{index}")
    q = ext.q
    return SparsePolynomial(
        ext.big, [(k - s if k >= s else (s - k) * q, c) for k, c in enumerate(system.D)]
    )


@dataclass
class BuiltFamily:
    """A constructed polynomial with its structural decomposition."""

    family: str
    params: ConstructionParams
    r: int
    h: SparsePolynomial
    poly: SparsePolynomial  # expanded, exponents reduced into [1, q^2-1]
    term_count: int = field(init=False)

    def __post_init__(self):
        self.term_count = len(self.poly.terms)


def build_family(family: str, params: ConstructionParams, ext: QuadExtension
                 ) -> BuiltFamily:
    """Expand X^r * h(X^(q-1)) for the family; raises InvalidParams."""
    return _build(family, params, _valid_q_encs(params, ext), ext)


def build_grid(family: str, grid, ext: QuadExtension):
    """The BuiltFamily of each tuple of grid, tuples of param_grid(family,
    ext, ...) in its order.  param_grid yields only tuples that meet every
    rule, so none is checked again, and Q_k is computed once for each run
    of tuples that share delta and aux."""
    kind, key = FAMILIES[family].kind, None
    for params in grid:
        if (params.delta, params.aux) != key:
            key = params.delta, params.aux
            qs = _q_encs(kind, *key, ext)
        yield _build(family, params, qs, ext)


def _build(family: str, params: ConstructionParams, qs: list[int], ext: QuadExtension
           ) -> BuiltFamily:
    """The family's polynomial from a valid tuple and its Q_k encodings."""
    spec = FAMILIES[family]
    h = build_h(_system(params, qs, ext), spec.h_index, ext)
    r = spec.r(ext.q)
    poly = expand_decomposition(r, h, ext)
    if len(poly.terms) != len(h.terms):
        raise InvariantViolation("exponent collision while expanding a family")
    return BuiltFamily(family, params, r, h, poly)


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
    max_count: int | None = None
    delta_stride: int = 1
    delta_t_stride: int = 1
    beta_indices: list[int] | None = None  # circle indices to walk (None = all)

    def __post_init__(self):
        if self.max_count is not None and self.max_count < 0:
            raise ValueError(f"max_count must be >= 0, not {self.max_count}")
        if min(self.delta_stride, self.delta_t_stride) < 1:
            raise ValueError("delta strides must be >= 1")


def param_grid(family: str, ext: QuadExtension, limits: GridLimits | None = None):
    """Yield every valid ConstructionParams tuple (optionally strided or cut short).

    beta ranges over the circle with beta_t forced by the family relation;
    delta/delta_t over GF(q^2) \\ GF(q) minus the exclusion sets; aux over
    its family-specific valid set.  Emission order is deterministic.
    """
    check_cap(ext.big.order)
    limits = limits or GridLimits()
    spec = FAMILIES[family]
    if not spec.admits(ext.q):
        return
    mu = ext.circle_members()
    betas = mu if limits.beta_indices is None else [mu[i] for i in limits.beta_indices]
    big, q = ext.big, ext.q

    def nonsub(stride):  # GF(q^2) \ GF(q) lazily: the i-th log off (q+1)Z is i + i//q + 1
        return (big.from_enc(big.exp_enc(i + i // q + 1)) for i in range(0, q * q - q, stride))

    emitted = 0
    for beta in betas:
        beta_t = derive_beta_t(family, beta)
        for aux in aux_candidates(family, ext):
            for delta in nonsub(limits.delta_stride):
                _, excl, delta_ok = _delta_rules(spec.kind, delta, aux, ext)
                if not delta_ok:
                    continue
                for delta_t in nonsub(limits.delta_t_stride):
                    if delta_t.enc in excl:
                        continue
                    if limits.max_count is not None and emitted >= limits.max_count:
                        return
                    yield ConstructionParams(family, beta, beta_t, delta, delta_t, aux)
                    emitted += 1
