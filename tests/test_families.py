import math
import random
from dataclasses import replace

import pytest

from circleperm import families, polynomials
from circleperm.errors import CapExceeded, InvalidParams
from circleperm.families import (
    FAMILIES,
    KIND_CUBIC,
    KIND_CUBIC_SHIFT,
    KIND_QUARTIC,
    KIND_QUARTIC_BIN,
    KIND_QUARTIC_TRI,
    ConstructionParams,
    GridLimits,
    aux_candidates,
    build_family,
    build_grid,
    coeffs,
    derive_beta_t,
    field_violations,
    param_grid,
    validate_params,
    _delta_rules,
)
from circleperm.fields import quad_extension
from circleperm.serialize import params_from_text
from conftest import get_ext
from symbolic import base_map, closed_form, compose, conjugate, h_variants, mobius
from test_acceptance import GRID_SCHEDULE, grid_for

SMALLEST_Q_EXT = {
    KIND_CUBIC: (5, 1, None),
    KIND_CUBIC_SHIFT: (3, 1, None),
    KIND_QUARTIC_TRI: (2, 2, None),
    KIND_QUARTIC_BIN: (2, 2, None),
    KIND_QUARTIC: (2, 2, None),
}


def nonsubfield_members(ext):
    """GF(q^2) minus GF(q) by definition: every g^k outside the subfield, in
    ascending generator power."""
    powers = map(ext.big.gen_pow, range(ext.big.order - 1))
    return [x for x in powers if not ext.in_subfield(x)]


REPRESENTATIVE_FAMILY = {
    KIND_CUBIC: "Q1",
    KIND_CUBIC_SHIFT: "Q3",
    KIND_QUARTIC_TRI: "P1",
    KIND_QUARTIC_BIN: "P4",
}

BIGGER_Q_EXT = {
    KIND_CUBIC: (2, 3, ("MOD_2_6",)),
    KIND_CUBIC_SHIFT: (3, 2, ("MOD_3_4",)),
    KIND_QUARTIC_TRI: (2, 4, None),
    KIND_QUARTIC_BIN: (2, 4, None),
}


def _ext_for(spec):
    from conftest import MOD_2_6, MOD_3_4

    p, m, mod = spec
    if mod == ("MOD_2_6",):
        return get_ext(p, m, tuple(MOD_2_6))
    if mod == ("MOD_3_4",):
        return get_ext(p, m, tuple(MOD_3_4))
    return get_ext(p, m)


class TestValidation:
    def test_wrong_congruence(self):
        # q = 7 is 1 mod 3 and odd: every congruence condition fails
        ext49 = get_ext(7, 1)
        big = ext49.big
        cases = [("Q1", "not 2 mod 3"), ("Q3", "not 0 mod 3"), ("P1", "not even")]
        for family, wording in cases:
            params = ConstructionParams(
                family, -big.one(), big.one(), big.generator, big.generator ** 2, None
            )
            v = validate_params(family, params, ext49)
            assert any(wording in s for s in v), family

    def test_p1_example_parameters_ok(self, ext16):
        b = ext16.big.generator
        one = ext16.big.one()
        params = ConstructionParams("P1", one, one, b**3, b**3, one)
        assert validate_params("P1", params, ext16) == []

    def test_square_aux_rejected(self, ext9):
        big = ext9.big
        g = big.generator
        params = ConstructionParams(
            "Q3", big.from_int(2), big.one(), g, g, big.one()
        )
        v = validate_params("Q3", params, ext9)
        assert any("non-square" in s for s in v)

    def test_excluded_delta_t(self, ext25):
        big = ext25.big
        g = big.generator
        params = ConstructionParams("Q1", -big.one(), big.one(), g, g**3, None)
        v = validate_params("Q1", params, ext25)
        assert any("excluded set" in s for s in v)
        with pytest.raises(InvalidParams):
            coeffs(params, ext25)

    def test_beta_relation_consistency(self, ext25):
        big = ext25.big
        g = big.generator
        params = ConstructionParams("Q1", -big.one(), -big.one(), g, g, None)
        v = validate_params("Q1", params, ext25)
        assert any("beta relation" in s for s in v)

    def test_missing_aux(self, ext9):
        big = ext9.big
        g = big.generator
        params = ConstructionParams("Q3", big.from_int(2), big.one(), g, g, None)
        assert any("requires an aux" in s for s in validate_params("Q3", params, ext9))

    def test_aux_forbidden_for_binomials(self, ext16):
        b = ext16.big.generator
        params = ConstructionParams("B1", b**3, b**3, b, b**3, b)
        assert any("no aux" in s for s in validate_params("B1", params, ext16))

    @pytest.mark.parametrize("family,p,m,operands,violations", [
        pytest.param("Q1", 5, 1, ("-1", "2", "g", None), ["delta lies in the subfield"],
                     id="delta-in-subfield"),
        pytest.param("Q1", 5, 1, ("-1", "g", "2", None), ["delta_t lies in the subfield"],
                     id="delta_t-in-subfield"),
        pytest.param("Q3", 3, 1, ("2", "g", "g", "g"),
                     ["delta_t lies in the excluded set for this delta", "aux is not in the subfield"],
                     id="excluded-delta_t-and-aux-outside-subfield"),
        pytest.param("P1", 2, 2, ("1", "g^3", "g^3", "0"), ["X^3 + X + aux has a root in the subfield"],
                     id="cubic-root-in-subfield"),
    ])
    def test_each_violation_alone(self, family, p, m, operands, violations):
        # beta, delta, delta_t and aux as construct reads and derives them
        ext = get_ext(p, m)
        params = params_from_text(family, *operands, ext)
        assert validate_params(family, params, ext) == violations


class TestCoefficientSystems:
    def test_cubic_system_at_q5(self, ext25):
        big = ext25.big
        g = big.generator
        params = ConstructionParams("Q1", -big.one(), big.one(), g, g, None)
        d0, d1, d2, d3 = coeffs(params, ext25)
        assert d3 == 3 * (g + big.one())
        assert d2 == 3 * g
        assert d1 == g + big.one()
        assert d0 == big.from_int(2)

    def test_build_h_refuses_an_index_the_kind_lacks(self, ext25):
        # the cubic kind has h_0..h_3
        big = ext25.big
        g = big.generator
        D = coeffs(ConstructionParams("Q1", -big.one(), big.one(), g, g, None), ext25)
        for index in (-1, len(D)):
            with pytest.raises(ValueError, match=f"has no h_{index}"):
                families.build_h(KIND_CUBIC, D, index, ext25)

    def test_quartic_shift_constants_match_definition(self, ext16):
        # D4 = R(delta) + delta_t and D0 = beta^4 (R(delta^q) + delta_t) for
        # R = X^4 + a X: the circle-shift constants of every h_i
        b = ext16.big.generator
        a = b**2 + b
        params = ConstructionParams("P4", b**3, b**3, b, b, a)
        D = coeffs(params, ext16)

        def r_map(x):
            return x**4 + a * x

        dq = params.delta**ext16.q
        assert D[4] == r_map(params.delta) + params.delta_t
        assert D[0] == params.beta**4 * (r_map(dq) + params.delta_t)

    @staticmethod
    def _assert_q(kind, ext, auxes):
        # Q_k is the Y^k coefficient of the numerator of R((delta*Y - delta^q)/(Y - 1))
        one = ext.big.one()
        for aux in auxes:
            for delta in nonsubfield_members(ext)[::2]:
                y = mobius(delta, -(delta**ext.q), one, -one)
                num = compose(base_map(kind, aux, ext), y).num
                qs = families._q_encs(kind, delta, aux, ext)
                assert qs == [num.coeff(k).enc for k in range(len(qs))], (kind, aux, delta)

    @pytest.mark.parametrize("family", ["Q1", "Q3", "P1", "P4", "B1"])
    def test_q_matches_composition(self, family):
        kind = FAMILIES[family].kind
        ext = _ext_for(SMALLEST_Q_EXT[kind])
        self._assert_q(kind, ext, aux_candidates(family, ext))

    def test_q_reads_aux_powers(self, monkeypatch):
        # a row with an a^2 term: X^5 + a X^3 + a^2 X; a = 0, 1 would hide a^2 read as a
        row = families.BaseMap(((5, 1, 0), (3, 1, 1), (1, 1, 2)), 1, "even", None)
        monkeypatch.setitem(families._BASE_MAPS, "quintic_dickson", row)
        ext = get_ext(2, 3)
        self._assert_q("quintic_dickson", ext, [a for a in ext.subfield_members() if a.enc > 1])


class TestDualPath:
    """compose(nu, base, rho) must equal the closed-form system exactly."""

    def _assert_tuple(self, kind, params, ext):
        closed = closed_form(params, ext).normalized()
        composed = conjugate(kind, params, ext).normalized()
        assert composed.num == closed.num and composed.den == closed.den

    @pytest.mark.parametrize("kind", list(REPRESENTATIVE_FAMILY))
    def test_full_grid_at_smallest_q(self, kind):
        ext = _ext_for(SMALLEST_Q_EXT[kind])
        family = REPRESENTATIVE_FAMILY[kind]
        n = 0
        for params in param_grid(family, ext):
            self._assert_tuple(kind, params, ext)
            n += 1
        assert n > 0

    def test_binomial_quartic_row(self, ext16):
        for params in param_grid("B1", ext16, GridLimits(max_count=60)):
            self._assert_tuple(KIND_QUARTIC, params, ext16)

    @pytest.mark.parametrize("kind", list(REPRESENTATIVE_FAMILY))
    def test_random_tuples_at_bigger_q(self, kind):
        ext = _ext_for(BIGGER_Q_EXT[kind])
        family = REPRESENTATIVE_FAMILY[kind]
        pool = list(param_grid(family, ext, GridLimits(delta_stride=3)))
        rnd = random.Random(19)
        sample = rnd.sample(pool, min(100, len(pool)))
        assert len(sample) == 100
        for params in sample:
            self._assert_tuple(kind, params, ext)


class TestBuildFamily:
    def test_b1_example(self, ext16):
        b = ext16.big.generator
        params = ConstructionParams("B1", b**3, b**3, b, b**3, None)
        built = build_family("B1", params, ext16)
        el = ext16.big.element
        assert built.poly.terms == {14: el([0, 0, 1, 1]), 11: el([1, 1, 0, 1])}
        assert (built.r, built.term_count) == (2, 2)

    def test_b2_exponents(self, ext16):
        q = ext16.q
        b = ext16.big.generator
        params = ConstructionParams("B2", b**3, b**3, b, b**3, None)
        built = build_family("B2", params, ext16)
        assert set(built.poly.terms) == {q * q - 3 * q, q - 3}

    def test_invalid_params_raise(self, ext25):
        big = ext25.big
        g = big.generator
        with pytest.raises(InvalidParams) as exc:
            build_family("Q1", ConstructionParams("Q1", -big.one(), big.one(), g, g**3, None), ext25)
        assert exc.value.violations

    def test_structural_decomposition_consistent(self, ext25):
        big = ext25.big
        g = big.generator
        params = ConstructionParams("Q1", -big.one(), big.one(), g, g, None)
        built = build_family("Q1", params, ext25)
        # X^r * h(X^(q-1)) re-expands to the emitted polynomial
        q = ext25.q
        m = big.order - 1
        rebuilt = {(e * (q - 1) + built.r - 1) % m + 1: c for e, c in built.h.terms.items()}
        assert rebuilt == dict(built.poly.terms)

    def test_advertised_term_counts(self):
        cases = [
            ("Q1", get_ext(5, 1)),
            ("Q3", get_ext(3, 1)),
            ("P1", get_ext(2, 2)),
            ("P4", get_ext(2, 2)),
            ("B1", get_ext(2, 2)),
        ]
        for family, ext in cases:
            spec = FAMILIES[family]
            for params in param_grid(family, ext, GridLimits(max_count=150)):
                built = build_family(family, params, ext)
                if spec.kind == KIND_CUBIC_SHIFT and params.aux.enc == 0:
                    assert built.term_count == 2
                else:
                    assert built.term_count == spec.advertised_terms

    def test_q_computed_once_per_build(self, ext16, monkeypatch):
        # one Q serves the exclusion check and D
        calls = []
        q_encs = families._q_encs
        monkeypatch.setattr(families, "_q_encs", lambda *a: calls.append(a) or q_encs(*a))
        for n, params in enumerate(param_grid("P4", ext16, GridLimits(max_count=20)), 1):
            calls.clear()
            build_family("P4", params, ext16)
            assert len(calls) == 1
        assert n == 20

    def test_tuple_of_another_family_raises(self):
        # the family is read from the tuple: a Q1 tuple is not built as P1
        # (q = 8 admits both), and validate_params names the mismatch
        ext = get_ext(2, 3)
        params = next(param_grid("Q1", ext))
        with pytest.raises(InvalidParams) as exc:
            build_family("P1", params, ext)
        assert exc.value.violations == ["the tuple is of family Q1, not P1"]
        assert validate_params("P1", params, ext) == exc.value.violations
        assert build_family("Q1", params, ext).family == "Q1"

    def test_zero_aux_collapse_is_tagged(self, ext9):
        big = ext9.big
        g = big.generator
        beta = big.from_int(2)
        params = ConstructionParams("Q3", beta, derive_beta_t("Q3", beta), g, g**2, big.zero())
        built = build_family("Q3", params, ext9)
        assert built.term_count == 2  # middle coefficients vanish with aux = 0


class TestGridBuild:
    def test_grid_builds_equal_checked_builds_on_the_acceptance_schedule(self):
        # every tuple of every (family, q) cell of the acceptance schedule,
        # with its strides and all its beta (about 65,000 tuples, 5-10 s):
        # each meets its family's rules, and build_grid, which checks none
        # and computes Q_k once per run of one (delta, aux), builds what
        # the checked build_family builds
        total = 0
        for family, q in GRID_SCHEDULE:
            ext, grid = grid_for(family, q)
            tuples = list(grid)
            built = list(build_grid(family, tuples, ext))
            assert len(built) == len(tuples)
            for params, got in zip(tuples, built):
                assert validate_params(family, params, ext) == [], (family, q, params)
                want = build_family(family, params, ext)
                assert got.params is params
                assert (got.r, got.h.terms, got.poly.terms) == (
                    want.r, want.h.terms, want.poly.terms), (family, q, params)
            total += len(tuples)
        assert total == 64_907

    def test_grid_of_another_family_raises(self):
        ext = get_ext(2, 3)
        with pytest.raises(InvalidParams):
            next(build_grid("P1", param_grid("Q1", ext), ext))

    def test_grid_below_the_degree_is_empty(self):
        # q = 2 is below every degree, a rule of the field that param_grid
        # does not check per tuple: the twelve rows that admit q = 2 still
        # yield nothing there (construct --grid refuses them first, through
        # field_violations)
        ext = get_ext(2, 1)
        admitted = [f for f, spec in FAMILIES.items() if spec.admits(2)]
        assert len(admitted) == 12
        for family in admitted:
            assert list(param_grid(family, ext)) == []


class TestStructuralIdentities:
    def _grid(self, family, ext, cap=120):
        return list(param_grid(family, ext, GridLimits(max_count=cap)))

    @pytest.mark.parametrize(
        "family,extspec",
        [("Q1", (5, 1, None)), ("Q3", (3, 1, None)), ("P1", (2, 2, None)),
         ("P4", (2, 2, None)), ("B1", (2, 2, None))],
    )
    def test_h_shift_identities_on_circle(self, family, extspec):
        ext = _ext_for(extspec)
        for params in self._grid(family, ext):
            hs = h_variants(params, ext)
            for z in ext.circle_members():
                base_val = hs[0].eval(z)
                for i, h_i in enumerate(hs[1:], start=1):
                    assert h_i.eval(z) * z**i == base_val

    def test_r_residue_coherence(self):
        # gcd(r, q-1) = 1 at every valid q, and r mod (q+1) matches the base
        # circle map: h_i(z) = h_base(z)/z^shift forces r = base_r - 2*shift
        for family, spec in FAMILIES.items():
            qs = {"2mod3": [5, 8, 11], "0mod3": [3, 9], "even": [4, 8, 16]}[spec.congruence]
            if spec.kind in (KIND_CUBIC, KIND_CUBIC_SHIFT):
                base_r, shift = 3, spec.h_index
            else:
                base_r, shift = 4, spec.h_index - 1
            for q in qs:
                r = spec.r(q)
                assert math.gcd(r, q - 1) == 1
                assert r % (q + 1) == (base_r - 2 * shift) % (q + 1)


class TestDerivedFacts:
    # r_q * q + r_c, the table each family stored before r was derived
    OLD_R = {"Q1": (0, 3), "Q2a": (0, 1), "Q2b": (1, 0), "Q2c": (1, -2),
             "Q3": (0, 3), "Q4a": (0, 1), "Q4b": (1, 0), "Q4c": (3, 0),
             "P1": (0, 4), "P2": (0, 2), "P3": (1, -3), "P4": (0, 4),
             "P5": (0, 2), "P6": (1, -3), "B1": (0, 2), "B2": (1, -3)}

    def test_r_matches_the_old_table(self):
        def prime_power(q):
            p = next(d for d in range(2, q + 1) if q % d == 0)
            while q % p == 0:
                q //= p
            return q == 1

        assert set(self.OLD_R) == set(FAMILIES)
        checked = 0
        for q in filter(prime_power, range(2, 1025)):
            for family, spec in FAMILIES.items():
                if spec.admits(q):
                    r_q, r_c = self.OLD_R[family]
                    assert spec.r(q) == r_q * q + r_c, (family, q)
                    checked += 1
        assert checked == 480

    def test_even_degree_at_odd_p_forces_plus(self, ext25, monkeypatch):
        # beta_t = (-1)^d * beta^(-d): an X^4 row admitted at q = 5 forces
        # +beta^(-4), and with it z^r * h(z)^(q-1) = nu(R(rho(z))) on the
        # circle wherever h(z) != 0; -beta^(-4) breaks the relation
        row = families.BaseMap(((4, 1, 0),), 1, "2mod3", None)
        monkeypatch.setitem(families._BASE_MAPS, KIND_QUARTIC, row)
        q, n = ext25.q, 0
        for params in param_grid("B1", ext25, GridLimits(delta_stride=3, delta_t_stride=5)):
            beta = params.beta
            assert params.beta_t == derive_beta_t("B1", beta) == beta**-4
            assert validate_params("B1", params, ext25) == []
            built = build_family("B1", params, ext25)
            conj = conjugate(KIND_QUARTIC, params, ext25)
            for z in ext25.circle_members():
                hz = built.h.eval(z)
                if hz.enc:
                    assert z**built.r * hz ** (q - 1) == conj(z), (params, z)
            wrong = replace(params, beta_t=-params.beta_t)
            assert validate_params("B1", wrong, ext25) == [
                "beta relation 1 - beta_t*beta^4 = 0 fails"]
            n += 1
        assert n > 50


class TestParamGrid:
    def test_q1_grid_all_valid(self, ext25):
        n = 0
        for params in param_grid("Q1", ext25):
            assert validate_params("Q1", params, ext25) == []
            n += 1
        # independent count: exclusions only bite when they land outside GF(q)
        big = ext25.big
        q = ext25.q
        nonsub = [x for x in big.elements() if x**q != x]
        expected = 0
        for delta in nonsub:
            banned = {delta**3, delta ** (q + 2), delta ** (2 * q + 1), delta ** (3 * q)}
            expected += 6 * sum(1 for dt in nonsub if dt not in banned)
        assert n == expected == 2064

    def test_b1_count_matches_bruteforce_oracle(self, ext16):
        # independent nested-loop oracle with inline conditions
        big = ext16.big
        q = ext16.q
        mu = [x for x in big.elements() if x.enc and (x ** (q + 1)).enc == 1]
        nonsub = [x for x in big.elements() if (x**q) != x]
        count = 0
        for beta in mu:
            for delta in nonsub:
                banned = {(delta**4).enc, ((delta**q) ** 4).enc}
                for delta_t in nonsub:
                    if delta_t.enc not in banned:
                        count += 1
        assert sum(1 for _ in param_grid("B1", ext16)) == count
        assert count == 600

    def test_congruence_mismatch_is_empty(self, ext25, ext9):
        assert list(param_grid("Q3", ext25)) == []
        assert list(param_grid("P1", ext25)) == []
        assert list(param_grid("Q1", ext9)) == []

    def test_q_equal_to_degree_is_admitted(self):
        # exponents of h collide iff d >= q + 1, so the row needs q >= d, not q > d
        assert field_violations("Q3", get_ext(3, 1)) == []
        assert field_violations("P1", get_ext(2, 2)) == []
        assert field_violations("B1", get_ext(2, 2)) == []
        assert next(param_grid("Q3", get_ext(3, 1)), None) is not None

    def test_cap_enforced(self):
        ext = get_ext(2, 11)  # GF(2^22), above EXHAUSTIVE_CAP
        with pytest.raises(CapExceeded):
            next(param_grid("B1", ext))

    def test_max_count_is_exact(self, ext16):
        for n in (0, 1, 5):
            assert len(list(param_grid("B1", ext16, GridLimits(max_count=n)))) == n

    @pytest.mark.parametrize("bad", [{"max_count": -1}, {"delta_stride": 0},
                                     {"delta_stride": -3}, {"delta_t_stride": -1}])
    def test_malformed_limits_rejected(self, bad):
        with pytest.raises(ValueError):
            GridLimits(**bad)

    def test_beta_split_preserves_union(self, ext16):
        whole = [
            (p.beta.enc, p.delta.enc, p.delta_t.enc) for p in param_grid("B1", ext16)
        ]
        split = []
        for i in range(len(ext16.circle_members())):
            split.extend(
                (p.beta.enc, p.delta.enc, p.delta_t.enc)
                for p in param_grid("B1", ext16, GridLimits(beta_indices=[i]))
            )
        assert whole == split

    @pytest.mark.parametrize("strides", [(1, 1), (2, 3), (5, 2)])
    def test_strided_order_matches_nonsubfield_list(self, ext25, strides):
        # order oracle: strided slices of the materialised list, every aux
        nonsub = nonsubfield_members(ext25)
        expected = []
        for delta in nonsub[:: strides[0]]:
            excl = _delta_rules(KIND_CUBIC, delta, None, ext25)[1]
            expected += [(delta.enc, t.enc) for t in nonsub[:: strides[1]] if t.enc not in excl]
        limits = GridLimits(delta_stride=strides[0], delta_t_stride=strides[1],
                            beta_indices=[0])
        got = [(p.delta.enc, p.delta_t.enc) for p in param_grid("Q1", ext25, limits)]
        assert got == expected * len(aux_candidates("Q1", ext25))

    def test_first_tuple_builds_no_field_sized_list(self, ext64, monkeypatch):
        # the deltas are walked lazily: one tuple costs a few generator
        # powers, not the q^2 - q of GF(q^2) \ GF(q)
        big = ext64.big
        calls = []
        exp_enc = big.exp_enc
        monkeypatch.setattr(big, "exp_enc", lambda k: calls.append(k) or exp_enc(k))
        next(param_grid("P1", ext64))
        assert 0 < len(calls) < ext64.q

    def test_aux_candidates(self, ext9, ext16):
        # GF(9): nonsquares of GF(3) are {2}; plus zero
        assert len(aux_candidates("Q3", get_ext(3, 1))) == 2
        # GF(16)/GF(4): the only irreducible shift is alpha = 1
        assert [a.enc for a in aux_candidates("P1", ext16)] == [1]
        # noncubes of GF(4) = {w, w^2}
        assert len(aux_candidates("P4", ext16)) == 2
        assert aux_candidates("B1", ext16) == [None]

    def test_aux_set_built_once_per_extension(self, monkeypatch):
        # the grid and the validator share one cubic-alpha set per extension
        calls = []
        image = polynomials.cubic_image
        monkeypatch.setattr(polynomials, "cubic_image", lambda xs: calls.append(1) or image(xs))
        ext = quad_extension(2, 4)  # fresh: no aux set cached yet
        limits = GridLimits(delta_stride=30, delta_t_stride=24)
        n = 0
        for params in param_grid("P1", ext, limits):
            assert validate_params("P1", params, ext) == []
            n += 1
        assert n > 1000 and len(calls) == 1

    @pytest.mark.parametrize("family", ["Q1", "Q3", "P1", "P4", "B1"])
    def test_grid_is_exactly_the_valid_product(self, family):
        # the validator, run over the raw product (beta on the circle with its
        # forced beta_t, aux in {None} + GF(q), delta and delta_t in GF(q^2)),
        # accepts exactly the tuples the grid emits
        ext = get_ext(*{"Q1": (5, 1), "Q3": (3, 1)}.get(family, (2, 2)))
        no_aux = FAMILIES[family].aux is None

        def key(p):
            aux = None if p.aux is None or (no_aux and p.aux.enc == 0) else p.aux.enc
            return p.beta.enc, p.delta.enc, p.delta_t.enc, aux

        grid = [key(p) for p in param_grid(family, ext)]
        whole = list(ext.big.elements())
        accepted = {
            key(params)
            for beta in ext.circle_members()
            for aux in [None, *ext.subfield_members()]
            for delta in whole
            for delta_t in whole
            if not validate_params(family, params := ConstructionParams(
                family, beta, derive_beta_t(family, beta), delta, delta_t, aux), ext)
        }
        assert len(set(grid)) == len(grid) == len(accepted)
        assert set(grid) == accepted

    def test_noncube_empty_when_every_element_is_cube(self):
        ext = get_ext(2, 3, (1, 1, 0, 1, 1, 0, 1))  # q = 8, 3 does not divide 7
        assert aux_candidates("P4", ext) == []
        assert list(param_grid("P4", ext)) == []


class TestExclusionSets:
    def test_cubic_set_members(self, ext25):
        big = ext25.big
        g = big.generator
        q = ext25.q
        excl = _delta_rules(KIND_CUBIC, g, None, ext25)[1]
        assert excl == {x.enc for x in (g**3, g ** (q + 2), g ** (2 * q + 1), g ** (3 * q))}

    @pytest.mark.parametrize(
        "family,extspec",
        [("Q1", (5, 1, None)), ("Q1", (2, 3, ("MOD_2_6",))), ("Q3", (3, 2, ("MOD_3_4",))),
         ("P1", (2, 4, None)), ("P4", (2, 4, None)), ("B1", (2, 4, None))],
    )
    def test_paper_sets_for_every_delta(self, family, extspec):
        # the paper's sets, written out per base map, at every delta outside
        # GF(q) and every aux candidate
        ext = _ext_for(extspec)
        big, q = ext.big, ext.q
        kind = FAMILIES[family].kind
        for aux in aux_candidates(family, ext):
            a = aux if aux is not None else big.zero()
            for delta in nonsubfield_members(ext):
                dq = delta**q
                if kind == KIND_CUBIC:
                    paper = {delta**3, delta ** (q + 2), delta ** (2 * q + 1), delta ** (3 * q)}
                elif kind == KIND_CUBIC_SHIFT:
                    paper = {delta**3 - a * delta, dq**3 - a * dq}
                elif kind == KIND_QUARTIC_TRI:
                    paper = {x**4 + x**2 + a * x for x in (delta, dq)}
                else:
                    paper = {x**4 + a * x for x in (delta, dq)}
                excl = _delta_rules(kind, delta, aux, ext)[1]
                assert excl == {x.enc for x in paper}, (family, aux, delta)

    def test_quartic_tri_delta_condition(self, ext16):
        # delta with delta + delta^q + alpha = 0 must be skipped by the grid
        big = ext16.big
        alpha = big.one()
        bad = [
            d for d in nonsubfield_members(ext16)
            if (d + d**ext16.q + alpha).enc == 0
        ]
        grid_deltas = {p.delta.enc for p in param_grid("P1", ext16)}
        assert all(d.enc not in grid_deltas for d in bad)
