import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from circleperm.polynomials import SparsePolynomial, irreducible_cubic_alphas
from conftest import get_ext, get_field
from symbolic import (
    Rational, alphas_from_noncubes, bijects, compose, line, mobius, nu_map, poly, rho_map,
)


class TestSparsePolynomial:
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
        assert SparsePolynomial(f16, {49: f16.one()}).reduce_exponents() == (
            SparsePolynomial(f16, {4: f16.one()})
        )
        # exponent q^2-1 is a fixpoint, not sent to 0
        assert SparsePolynomial(f16, {15: f16.one()}).reduce_exponents() == (
            SparsePolynomial(f16, {15: f16.one()})
        )
        const = SparsePolynomial(f16, {0: f16.one()})
        assert const.reduce_exponents() == const

    def test_reduce_returns_a_reduced_polynomial_itself(self):
        f16 = get_field(2, 4)
        g = f16.generator
        f = SparsePolynomial(f16, [(0, g), (15, f16.one()), (3, g**2)])
        assert f.reduce_exponents() is f
        f = SparsePolynomial(f16, [(16, g), (3, g**2), (30, f16.one()), (0, g**3)])
        reduced = f.reduce_exponents()
        assert reduced is not f
        assert reduced == SparsePolynomial(f16, [(1, g), (3, g**2), (15, f16.one()), (0, g**3)])

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
        outer = SparsePolynomial(big, {2: big.one(), 0: big.one()})  # X^2 + 1
        inner = SparsePolynomial(big, {1: big.from_int(3), 0: big.from_int(2)})  # 3X + 2
        composed = compose(poly(outer), poly(inner))
        for x in big.elements():
            assert composed(x) == outer.eval(inner.eval(x))


class TestCircleLineMaps:
    def test_rho_image_is_whole_line(self, ext25):
        big = ext25.big
        rho = rho_map(ext25, -big.one(), big.generator)
        image = {rho(z) for z in ext25.circle_members()}
        assert image == set(line(ext25))

    def test_rho_sends_beta_to_infinity(self, ext25):
        big = ext25.big
        beta = -big.one()
        rho = rho_map(ext25, beta, big.generator)
        assert rho(beta) is None

    def test_rho_rejects_off_circle_beta(self, ext25):
        big = ext25.big
        with pytest.raises(AssertionError):
            rho_map(ext25, big.generator, big.generator)  # g^(q+1) != 1

    def test_rho_rejects_subfield_delta(self, ext25):
        big = ext25.big
        with pytest.raises(AssertionError):
            rho_map(ext25, -big.one(), big.from_int(2))

    def test_nu_image_is_circle(self, ext25):
        big = ext25.big
        nu = nu_map(ext25, big.one(), big.generator)
        image = {nu(pt) for pt in line(ext25)}
        assert image == set(ext25.circle_members())

    def test_nu_at_infinity(self, ext25):
        big = ext25.big
        beta_t = big.gen_pow(4)  # on the circle
        nu = nu_map(ext25, beta_t, big.generator)
        assert nu(None) == beta_t

    def test_nu_rejects_off_circle(self, ext25):
        with pytest.raises(AssertionError):
            nu_map(ext25, ext25.big.generator, ext25.big.generator)


class TestProjectiveEvaluation:
    def test_cubic_at_infinity(self, ext25):
        f = poly(SparsePolynomial(ext25.big, {3: ext25.big.one()}))
        assert f(None) is None

    def test_deg4_over_deg3_at_infinity(self, ext9):
        big = ext9.big
        alpha = big.from_int(2)  # nonsquare-in-GF(3) slot; only degrees matter here
        beta = big.one()
        num = SparsePolynomial(
            big, [(4, big.one()), (2, -(alpha + alpha)), (1, big.from_int(-8) * beta),
                  (0, alpha * alpha)]
        )
        den = SparsePolynomial(big, [(3, big.one()), (1, alpha), (0, beta)])
        f = Rational(num, den)
        assert f(None) is None

    def test_cubic_drift_permutes_line_gf9(self):
        # X^3 - alpha*X with alpha a nonsquare permutes the projective line
        ext = get_ext(3, 2, (2, 0, 0, 2, 1))  # GF(81)/GF(9)
        big = ext.big
        alpha = big.gen_pow(ext.q + 1)  # nonsquare in GF(9)
        f = poly(SparsePolynomial(big, [(3, big.one()), (1, -alpha)]))
        assert bijects(f, line(ext), line(ext))
        assert len(line(ext)) == 10

    def test_denominator_root_maps_to_infinity(self, ext25):
        big = ext25.big
        f = Rational(
            SparsePolynomial(big, {0: big.one()}),
            SparsePolynomial(big, {1: big.one(), 0: -big.one()}),
        )
        assert f(big.one()) is None

    def test_indeterminate_rejected(self, ext25):
        big = ext25.big
        xm1 = SparsePolynomial(big, {1: big.one(), 0: -big.one()})
        f = Rational(xm1, xm1)
        with pytest.raises(AssertionError):
            f(big.one())

    def test_mobius_with_zero_c_at_infinity(self, ext25):
        big = ext25.big
        mob = mobius(big.one(), big.one(), big.zero(), big.one())
        assert mob(None) is None


class TestBijectionCheck:
    def test_square_on_line_even_q(self, ext16):
        f = poly(SparsePolynomial(ext16.big, {2: ext16.big.one()}))
        assert bijects(f, line(ext16), line(ext16))

    def test_square_on_line_gf3_witness(self, ext9):
        f = poly(SparsePolynomial(ext9.big, {2: ext9.big.one()}))
        assert not bijects(f, line(ext9), line(ext9))
        # 1 and -1 collide at 1
        one = ext9.big.one()
        assert f(one) == f(-one) == one

    def test_cube_on_line_gf5(self, ext25):
        f = poly(SparsePolynomial(ext25.big, {3: ext25.big.one()}))
        assert bijects(f, line(ext25), line(ext25))

    def test_size_mismatch(self, ext25):
        f = poly(SparsePolynomial(ext25.big, {1: ext25.big.one()}))
        pts = line(ext25)
        with pytest.raises(AssertionError):
            bijects(f, pts, pts[:-1])


class TestComposition:
    def test_degree_one_composition_is_bijection(self, ext25):
        big = ext25.big
        rho = rho_map(ext25, -big.one(), big.generator)
        nu = nu_map(ext25, big.one(), big.generator)
        ident = poly(SparsePolynomial(big, {1: big.one()}))
        comp = compose(nu, compose(ident, rho))
        mu = ext25.circle_members()
        assert comp.degree() == 1
        assert bijects(comp, mu, mu)

    def test_composed_equals_nested_pointwise(self, ext25):
        big = ext25.big
        rho = rho_map(ext25, -big.one(), big.generator)
        nu = nu_map(ext25, big.one(), big.generator)
        f = poly(SparsePolynomial(big, {3: big.one()}))
        comp = compose(nu, compose(f, rho))
        for z in ext25.circle_members():
            assert comp(z) == nu(f(rho(z)))

    @pytest.mark.parametrize("p,m", [(7, 1), (2, 3)])
    def test_any_inner_degree(self, p, m):
        # X^5 permutes the line when gcd(5, q - 1) = 1, as at q = 7 and q = 8
        ext = get_ext(p, m)
        big = ext.big
        rho = rho_map(ext, big.one(), big.generator)
        nu = nu_map(ext, big.one(), big.generator)
        f = poly(SparsePolynomial(big, {5: big.one()}))
        comp = compose(nu, compose(f, rho))
        mu = ext.circle_members()
        assert comp.degree() == 5
        assert all(comp(z) == nu(f(rho(z))) for z in mu)
        assert bijects(comp, mu, mu)

    def test_equivalence_preservation(self, ext25):
        # phi o f o psi permutes the line iff f does, for degree-one phi, psi
        big = ext25.big
        pts = line(ext25)
        sub = ext25.subfield_members()
        rnd = random.Random(11)
        maps = []
        while len(maps) < 4:
            a, b, c, d = (sub[rnd.randrange(len(sub))] for _ in range(4))
            if (a * d - b * c).enc:
                maps.append(mobius(a, b, c, d))
        for f_poly, permutes in [
            (SparsePolynomial(big, {3: big.one()}), True),
            (SparsePolynomial(big, {2: big.one()}), False),
        ]:
            f = poly(f_poly)
            assert bijects(f, pts, pts) is permutes
            for phi in maps[:2]:
                for psi in maps[2:]:
                    conj = compose(phi, compose(f, psi))
                    assert bijects(conj, pts, pts) is permutes


class TestConjugateCubicScan:
    def test_q_1_mod_3_conjugated_cube_bijects_circle(self):
        # q = 7 = 1 mod 3: the degree-three line permutation is the conjugate
        # of the cube map by (X - d^q)/(X - d).  The circle composition is a
        # verified bijection; no claim is made (or testable here) about it
        # having the X^r * h(X)^q / h(X) shape - that case stays unbuilt.
        ext = get_ext(7, 1)
        big = ext.big
        d = big.generator
        dq = d**ext.q
        zeta = mobius(big.one(), -dq, big.one(), -d)
        zeta_inv = mobius(d, -dq, big.one(), -big.one())
        cube = poly(SparsePolynomial(big, {3: big.one()}))
        f = compose(zeta_inv, compose(cube, zeta))
        assert bijects(f, line(ext), line(ext))
        rho = rho_map(ext, -big.one(), big.gen_pow(3))
        nu = nu_map(ext, big.one(), big.gen_pow(5))
        comp = compose(nu, compose(f, rho))
        mu = ext.circle_members()
        assert bijects(comp, mu, mu)


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
