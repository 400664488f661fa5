import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from circleperm.errors import (
    BetaNotOnCircle,
    DeltaInSubfield,
    IndeterminateForm,
    SizeMismatch,
)
from circleperm.polynomials import (
    INFINITY,
    MobiusMap,
    ProjPoint,
    RationalFunction,
    SparsePolynomial,
    alphas_from_noncubes,
    compose_nfr,
    irreducible_cubic_alphas,
    is_bijection_on,
    nu_map,
    proj_line,
    rho_map,
)
from conftest import get_ext, get_field


def as_rational(poly):
    return RationalFunction(poly, SparsePolynomial.constant(poly.ctx, poly.ctx.one()))


class TestSparsePolynomial:
    def test_gcd_monic(self):
        big = get_ext(5, 1).big
        p1 = SparsePolynomial.from_coeff_list(big, [-1, 0, 1])
        p2 = SparsePolynomial.from_coeff_list(big, [-1, 1])
        assert p1.gcd(p2) == p2

    def test_eval_no_constant_term_at_zero(self):
        ext = get_ext(5, 1)
        big = ext.big
        g = big.generator
        f = SparsePolynomial(
            big,
            [(15, 3 * (g + 1)), (11, 3 * g), (7, g + 1), (3, big.from_int(2))],
        )
        assert f.eval(big.zero()).enc == 0

    def test_reduce_exponents_examples(self):
        f16 = get_field(2, 4)
        assert SparsePolynomial.x_power(f16, 49).reduce_exponents() == (
            SparsePolynomial.x_power(f16, 4)
        )
        # exponent q^2-1 is a fixpoint, not sent to 0
        assert SparsePolynomial.x_power(f16, 15).reduce_exponents() == (
            SparsePolynomial.x_power(f16, 15)
        )
        const = SparsePolynomial.constant(f16, f16.one())
        assert const.reduce_exponents() == const

    def test_reduce_merges_collisions(self):
        f16 = get_field(2, 4)
        one = f16.one()
        f = SparsePolynomial(f16, [(16, one), (1, one)])  # both reduce to X
        assert f.reduce_exponents().is_zero()

    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_reduce_preserves_induced_function(self, data):
        ext = get_ext(3, 1)
        big = ext.big
        n_terms = data.draw(st.integers(1, 4))
        exps = data.draw(
            st.lists(st.integers(0, 40), min_size=n_terms, max_size=n_terms, unique=True)
        )
        f = SparsePolynomial(
            big, [(e, big.gen_pow(data.draw(st.integers(0, 7)))) for e in exps]
        )
        r = f.reduce_exponents()
        for x in big.elements():
            assert f.eval(x) == r.eval(x)

    def test_compose(self):
        big = get_ext(5, 1).big
        outer = SparsePolynomial.from_coeff_list(big, [1, 0, 1])  # X^2 + 1
        inner = SparsePolynomial.from_coeff_list(big, [2, 3])  # 3X + 2
        composed = outer.compose(inner)
        for x in big.elements():
            assert composed.eval(x) == outer.eval(inner.eval(x))

    def test_mul_and_divmod_roundtrip(self):
        big = get_ext(5, 1).big
        rnd = random.Random(3)
        for _ in range(20):
            a = SparsePolynomial(
                big, [(e, big.gen_pow(rnd.randrange(24))) for e in rnd.sample(range(8), 3)]
            )
            b = SparsePolynomial(
                big, [(e, big.gen_pow(rnd.randrange(24))) for e in rnd.sample(range(5), 2)]
            )
            q, r = (a * b + SparsePolynomial.x_power(big, 1)).divmod(b)
            assert q * b + r == a * b + SparsePolynomial.x_power(big, 1)
            assert r.degree() < b.degree()


class TestCircleLineMaps:
    def test_rho_image_is_whole_line(self, ext25):
        big = ext25.big
        rho = rho_map(ext25, -big.one(), big.generator)
        image = {rho.eval_proj(ProjPoint(z)) for z in ext25.circle_members()}
        assert image == set(proj_line(ext25))

    def test_rho_sends_beta_to_infinity(self, ext25):
        big = ext25.big
        beta = -big.one()
        rho = rho_map(ext25, beta, big.generator)
        assert rho.eval_proj(ProjPoint(beta)) == INFINITY

    def test_rho_rejects_off_circle_beta(self, ext25):
        big = ext25.big
        with pytest.raises(BetaNotOnCircle):
            rho_map(ext25, big.generator, big.generator)  # g^(q+1) != 1

    def test_rho_rejects_subfield_delta(self, ext25):
        big = ext25.big
        with pytest.raises(DeltaInSubfield):
            rho_map(ext25, -big.one(), big.from_int(2))

    def test_nu_image_is_circle(self, ext25):
        big = ext25.big
        nu = nu_map(ext25, big.one(), big.generator)
        image = {nu.eval_proj(pt) for pt in proj_line(ext25)}
        assert image == {ProjPoint(z) for z in ext25.circle_members()}

    def test_nu_at_infinity(self, ext25):
        big = ext25.big
        beta_t = big.gen_pow(4)  # on the circle
        nu = nu_map(ext25, beta_t, big.generator)
        assert nu.eval_proj(INFINITY) == ProjPoint(beta_t)

    def test_nu_rejects_off_circle(self, ext25):
        with pytest.raises(BetaNotOnCircle):
            nu_map(ext25, ext25.big.generator, ext25.big.generator)


class TestProjectiveEvaluation:
    def test_cubic_at_infinity(self, ext25):
        f = as_rational(SparsePolynomial.x_power(ext25.big, 3))
        assert f.eval_proj(INFINITY) == INFINITY

    def test_deg4_over_deg3_at_infinity(self, ext9):
        big = ext9.big
        alpha = big.from_int(2)  # nonsquare-in-GF(3) slot; only degrees matter here
        beta = big.one()
        num = SparsePolynomial(
            big, [(4, big.one()), (2, -(alpha + alpha)), (1, big.from_int(-8) * beta),
                  (0, alpha * alpha)]
        )
        den = SparsePolynomial(big, [(3, big.one()), (1, alpha), (0, beta)])
        f = RationalFunction(num, den)
        assert f.eval_proj(INFINITY) == INFINITY

    def test_cubic_drift_permutes_line_gf9(self):
        # X^3 - alpha*X with alpha a nonsquare permutes the projective line
        ext = get_ext(3, 2, (2, 0, 0, 2, 1))  # GF(81)/GF(9)
        big = ext.big
        alpha = big.gen_pow(ext.q + 1)  # nonsquare in GF(9)
        f = as_rational(SparsePolynomial(big, [(3, big.one()), (1, -alpha)]))
        line = [ProjPoint(s) for s in ext.subfield_members()] + [INFINITY]
        ok, _ = is_bijection_on(f, line, line)
        assert ok
        assert len(line) == 10

    def test_denominator_root_maps_to_infinity(self, ext25):
        big = ext25.big
        f = RationalFunction(
            SparsePolynomial.constant(big, big.one()),
            SparsePolynomial.from_coeff_list(big, [-1, 1]),
        )
        assert f.eval_proj(ProjPoint(big.one())) == INFINITY

    def test_indeterminate_rejected(self, ext25):
        big = ext25.big
        xm1 = SparsePolynomial.from_coeff_list(big, [-1, 1])
        f = RationalFunction(xm1, xm1, reduce=False)
        with pytest.raises(IndeterminateForm):
            f.eval_proj(ProjPoint(big.one()))

    def test_mobius_with_zero_c_at_infinity(self, ext25):
        big = ext25.big
        mob = MobiusMap(big.one(), big.one(), big.zero(), big.one())
        assert mob.eval_proj(INFINITY) == INFINITY


class TestBijectionCheck:
    def test_square_on_line_even_q(self, ext16):
        f = as_rational(SparsePolynomial.x_power(ext16.big, 2))
        line = proj_line(ext16)
        assert is_bijection_on(f, line, line) == (True, None)

    def test_square_on_line_gf3_witness(self, ext9):
        f = as_rational(SparsePolynomial.x_power(ext9.big, 2))
        line = proj_line(ext9)
        ok, witness = is_bijection_on(f, line, line)
        assert not ok
        tag, x1, x2 = witness
        assert tag == "collision"
        # 1 and -1 collide at 1
        assert {x1.value.enc, x2.value.enc} == {1, (-ext9.big.one()).enc}

    def test_cube_on_line_gf5(self, ext25):
        f = as_rational(SparsePolynomial.x_power(ext25.big, 3))
        line = proj_line(ext25)
        assert is_bijection_on(f, line, line)[0]

    def test_size_mismatch(self, ext25):
        f = as_rational(SparsePolynomial.x_power(ext25.big, 1))
        line = proj_line(ext25)
        with pytest.raises(SizeMismatch):
            is_bijection_on(f, line, line[:-1])


class TestComposition:
    def test_degree_one_composition_is_bijection(self, ext25):
        big = ext25.big
        rho = rho_map(ext25, -big.one(), big.generator)
        nu = nu_map(ext25, big.one(), big.generator)
        ident = as_rational(SparsePolynomial.x_power(big, 1))
        comp = compose_nfr(nu, ident, rho)
        mu = [ProjPoint(z) for z in ext25.circle_members()]
        assert comp.degree() == 1
        assert is_bijection_on(comp, mu, mu)[0]

    def test_composed_equals_nested_pointwise(self, ext25):
        big = ext25.big
        rho = rho_map(ext25, -big.one(), big.generator)
        nu = nu_map(ext25, big.one(), big.generator)
        f = as_rational(SparsePolynomial.x_power(big, 3))
        comp = compose_nfr(nu, f, rho)
        for z in ext25.circle_members():
            pt = ProjPoint(z)
            nested = nu.eval_proj(f.eval_proj(rho.eval_proj(pt)))
            assert comp.eval_proj(pt) == nested

    def test_equivalence_preservation(self, ext25):
        # phi o f o psi permutes the line iff f does, for degree-one phi, psi
        big = ext25.big
        line = proj_line(ext25)
        sub = ext25.subfield_members()
        rnd = random.Random(11)
        maps = []
        while len(maps) < 4:
            a, b, c, d = (sub[rnd.randrange(len(sub))] for _ in range(4))
            if (a * d - b * c).enc:
                maps.append(MobiusMap(a, b, c, d))
        for f_poly, permutes in [
            (SparsePolynomial.x_power(big, 3), True),
            (SparsePolynomial.x_power(big, 2), False),
        ]:
            f = as_rational(f_poly)
            assert is_bijection_on(f, line, line)[0] is permutes
            for phi in maps[:2]:
                for psi in maps[2:]:
                    conj = compose_nfr(phi, f, psi)
                    assert is_bijection_on(conj, line, line)[0] is permutes


class TestConjugateCubicScan:
    def test_q_1_mod_3_conjugated_cube_bijects_circle(self):
        # q = 7 = 1 mod 3: the degree-three line permutation is the conjugate
        # of the cube map by (X - d^q)/(X - d).  The circle composition is a
        # verified bijection; no claim is made (or testable here) about it
        # having the X^r * h(X)^q / h(X) shape - that case stays unbuilt.
        ext = get_ext(7, 1)
        big = ext.big
        d = big.generator
        dq = ext.frob_q(d)
        zeta = MobiusMap(big.one(), -dq, big.one(), -d)
        zeta_inv = MobiusMap(d, -dq, big.one(), -big.one())
        cube = as_rational(SparsePolynomial.x_power(big, 3))
        f = compose_nfr(zeta_inv, cube, zeta)
        line = proj_line(ext)
        assert is_bijection_on(f, line, line)[0]
        rho = rho_map(ext, -big.one(), big.gen_pow(3))
        nu = nu_map(ext, big.one(), big.gen_pow(5))
        comp = compose_nfr(nu, f, rho)
        mu = [ProjPoint(z) for z in ext.circle_members()]
        assert is_bijection_on(comp, mu, mu)[0]


class TestCubicShape:
    def test_gf4_alpha_one_irreducible(self):
        ctx = get_field(2, 2)
        assert ctx.one() in irreducible_cubic_alphas(list(ctx.elements()))

    def test_alpha_zero_reducible(self):
        ctx = get_field(2, 2)
        assert ctx.zero() not in irreducible_cubic_alphas(list(ctx.elements()))

    @pytest.mark.parametrize("n", [2, 4])
    def test_range_matches_noncube_form(self, n):
        ctx = get_field(2, n)
        assert set(irreducible_cubic_alphas(list(ctx.elements()))) == alphas_from_noncubes(ctx)
