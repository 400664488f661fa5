import itertools
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from circleperm.errors import CapExceeded, NotInstantiable, ZeroInput
from circleperm.families import ConstructionParams, GridLimits, build_family, param_grid
from circleperm.polynomials import SparsePolynomial, reduce_exponent
from circleperm.qm import (
    KNOWN_FAMILIES,
    apply_qm,
    classify_catalog,
    h1_form_instances,
    instantiate_known,
    qm_canonical_key,
    qm_equivalent,
    qm_verify_witness,
)
from circleperm.verify import is_permutation_exhaustive
from conftest import get_ext, qm_search_oracle


def rand_poly(ctx, rnd, max_terms=4):
    m = ctx.order - 1
    n = rnd.randint(1, max_terms)
    exps = rnd.sample(range(1, m + 1), n)
    return SparsePolynomial(ctx, [(e, ctx.gen_pow(rnd.randrange(m))) for e in exps])


def rand_witness(ctx, rnd):
    m = ctx.order - 1
    d = rnd.choice([d for d in range(1, m) if math.gcd(d, m) == 1])
    return ctx.gen_pow(rnd.randrange(m)), ctx.gen_pow(rnd.randrange(m)), d


def q1_example_poly(ext25):
    big = ext25.big
    g = big.generator
    params = ConstructionParams("Q1", -big.one(), big.one(), g, g, None)
    return build_family("Q1", params, ext25).poly


class TestSearch:
    def test_reflexive_with_identity_witness(self, ext25):
        f = q1_example_poly(ext25)
        res = qm_equivalent(f, f, ext25)
        u, v, d = res.witness
        assert res.equivalent and (u.enc, v.enc, d) == (1, 1, 1)

    def test_random_twists_recovered(self, ext25):
        f = q1_example_poly(ext25)
        rnd = random.Random(23)
        for _ in range(20):
            u, v, d = rand_witness(ext25.big, rnd)
            twisted = apply_qm(f, u, v, d)
            res = qm_equivalent(f, twisted, ext25)
            assert res.equivalent
            assert qm_verify_witness(f, twisted, res.witness, ext25)

    def test_witness_functional_equality(self, ext25):
        # beyond coefficient equality: the witness map agrees pointwise
        f = q1_example_poly(ext25)
        big = ext25.big
        twisted = apply_qm(f, big.gen_pow(5), big.gen_pow(7), 7)
        res = qm_equivalent(f, twisted, ext25)
        u, v, d = res.witness
        for x in big.elements():
            assert f.eval(x) == u * twisted.eval(v * x**d)

    def test_symmetry_with_derived_witness(self, ext25):
        f = q1_example_poly(ext25)
        big = ext25.big
        m = big.order - 1
        g_poly = apply_qm(f, big.gen_pow(3), big.gen_pow(11), 11)
        res = qm_equivalent(f, g_poly, ext25)
        u, v, d = res.witness
        d_inv = pow(d, -1, m)
        reverse = (u.inverse(), (v**d_inv).inverse(), d_inv)
        assert qm_verify_witness(g_poly, f, reverse, ext25)
        assert qm_equivalent(g_poly, f, ext25).equivalent

    def test_transitivity_sample(self, ext25):
        f = q1_example_poly(ext25)
        big = ext25.big
        g1 = apply_qm(f, big.gen_pow(2), big.gen_pow(9), 5)
        g2 = apply_qm(g1, big.gen_pow(17), big.gen_pow(4), 7)
        assert qm_equivalent(f, g1, ext25).equivalent
        assert qm_equivalent(g1, g2, ext25).equivalent
        assert qm_equivalent(f, g2, ext25).equivalent

    def test_preserves_permutation_and_terms(self, ext25):
        f = q1_example_poly(ext25)
        big = ext25.big
        rnd = random.Random(5)
        for _ in range(5):
            u, v, d = rand_witness(big, rnd)
            tw = apply_qm(f, u, v, d)
            assert len(tw.terms) == len(f.terms)
            assert is_permutation_exhaustive(tw, big).is_permutation

    def test_counts_add_up(self, ext25):
        big = ext25.big
        f = q1_example_poly(ext25)
        other = SparsePolynomial(big, {2: big.one()})  # different support size
        res = qm_equivalent(f, other, ext25)
        # f (exponents 3, 7, 11, 15 mod 24) tries d = 7 and 11, the inverses
        # of its gcd-1 exponents; X^2 tries d = 1 and 13, the lifts of 1 mod
        # 12; each key's mapped supports tie, so no candidate is skipped
        assert not res.equivalent
        assert res.d_candidates_examined == 4 and res.prefilter_rejected == 0
        # X + X^2 + X^7 tries d = 1, support (1, 2, 7), then d = 7, support
        # (1, 7, 14), which loses and is skipped: once per key
        h = SparsePolynomial(big, [(1, big.one()), (2, big.one()), (7, big.one())])
        res = qm_equivalent(h, h, ext25)
        assert res.d_candidates_examined == 2 and res.prefilter_rejected == 2

    def test_witness_uses_the_winning_b(self, ext25):
        # exponents 1, 3, 4: 3 - 1 shares the factor 2 with 24 and 4 - 1 does
        # not, so the two b that fix the first two logs give different keys
        big = ext25.big
        f = SparsePolynomial(big, [(1, big.one()), (3, big.gen_pow(5)), (4, big.gen_pow(9))])
        rnd = random.Random(31)
        for _ in range(20):
            twisted = apply_qm(f, *rand_witness(big, rnd))
            res = qm_equivalent(f, twisted, ext25)
            assert res.equivalent and qm_verify_witness(f, twisted, res.witness, ext25)

    def test_prefilter_agrees_with_unfiltered(self):
        rnd = random.Random(41)
        for p, m in [(3, 1), (2, 2)]:
            ext = get_ext(p, m)
            for _ in range(50):
                a = rand_poly(ext.big, rnd)
                b = rand_poly(ext.big, rnd)
                fast = qm_equivalent(a, b, ext)
                slow = qm_search_oracle(a, b, ext)
                assert fast.equivalent == slow.equivalent
                if fast.equivalent:
                    assert qm_verify_witness(a, b, fast.witness, ext)
                    assert qm_verify_witness(a, b, slow.witness, ext)

    def test_cap(self):
        from conftest import MOD_2_12

        ext = get_ext(2, 6, tuple(MOD_2_12))  # order 4096
        f = SparsePolynomial(ext.big, {1: ext.big.one()})
        assert qm_equivalent(f, f, ext).equivalent  # under the cap: fine
        big = get_ext(2, 11)  # GF(2^22), above EXHAUSTIVE_CAP
        f = SparsePolynomial(big.big, {1: big.big.one()})
        with pytest.raises(CapExceeded):
            qm_equivalent(f, f, big)
        with pytest.raises(CapExceeded):
            qm_canonical_key(f, big)

    def test_constant_term_kept_fixed(self, ext16):
        # 1 + g*X^3: the constant term must map to itself under every d
        big = ext16.big
        f = SparsePolynomial(big, [(0, big.one()), (3, big.generator)])
        res = qm_equivalent(f, f, ext16)
        assert res.equivalent and qm_verify_witness(f, f, res.witness, ext16)
        tw = apply_qm(f, big.gen_pow(4), big.gen_pow(9), 7)
        assert 0 in tw.terms
        res = qm_equivalent(f, tw, ext16)
        assert res.equivalent and qm_verify_witness(f, tw, res.witness, ext16)

    def test_zero_rejected(self, ext25):
        with pytest.raises(ZeroInput):
            qm_equivalent(SparsePolynomial(ext25.big),
                          SparsePolynomial(ext25.big, {1: ext25.big.one()}), ext25)


class TestRegistry:
    def test_h1_literal_conditions(self):
        # m = 2 (even): empty; m = 5: every instance matches the scan oracle
        assert instantiate_known("H1", get_ext(2, 2)) == []
        ext32 = get_ext(2, 5)
        got = {inst.tags["b"].enc for inst in instantiate_known("H1", ext32)}
        q = ext32.q
        oracle = {
            x.enc
            for x in ext32.big.elements()
            if x.enc and not ext32.in_subfield(x) and (x ** (3 * (q - 1))).enc == 1
        }
        assert got == oracle and len(got) == 62

    def test_h1_relaxed_form_at_q4(self, ext16):
        insts = list(h1_form_instances(ext16, require_outside_subfield=False))
        assert len(insts) == 3  # the three cube roots of unity

    def test_stub_rows_raise(self, ext16):
        for fid in ["H3", "H4", "H5", "H6", "H8"]:
            assert not KNOWN_FAMILIES[fid].instantiable
            with pytest.raises(NotInstantiable):
                instantiate_known(fid, ext16)

    def test_f9_literal_instances(self, ext25):
        insts = instantiate_known("F9", ext25)
        # a ranges over GF(5) minus {-1}; degenerate a values drop terms
        assert len(insts) == 4
        term_counts = sorted(len(i.poly.terms) for i in insts)
        assert term_counts == [3, 3, 4, 4]  # a = 0 and a = 3 collapse one term

    def test_f9_nondegenerate_instances_permute(self, ext25):
        for inst in instantiate_known("F9", ext25):
            if len(inst.poly.terms) == 4:
                assert is_permutation_exhaustive(inst.poly, ext25.big).is_permutation

    def test_f1_instances_permute(self, ext9):
        insts = instantiate_known("F1", ext9)
        assert len(insts) == 1  # squares of GF(3)* minus {-1} = {1}
        for inst in insts:
            assert is_permutation_exhaustive(inst.poly, ext9.big).is_permutation

    def test_g1_instance_permutes(self, ext16):
        insts = instantiate_known("G1", ext16)
        assert len(insts) == 1
        assert is_permutation_exhaustive(insts[0].poly, ext16.big).is_permutation

    def test_g1_skips_m_divisible_by_4(self):
        assert instantiate_known("G1", get_ext(2, 4)) == []

    def test_h2_merged_exponent_stays_linear(self, ext16):
        for inst in instantiate_known("H2", ext16):
            # at q = 4 the only factorization is t = 1: X^16 folds onto X
            assert set(inst.poly.terms) == {1}
            assert is_permutation_exhaustive(inst.poly, ext16.big).is_permutation

    def test_h7_instances_at_q4(self, ext16):
        insts = instantiate_known("H7", ext16)
        assert {i.tags["k"] for i in insts} == {2}
        assert len(insts) == 12  # a outside GF(4)*
        assert all(set(i.poly.terms) == {5, 1} for i in insts)


class TestClassify:
    def test_scaled_twist_single_class(self, ext25):
        f = q1_example_poly(ext25)
        big = ext25.big
        tw = apply_qm(f, big.from_int(2), big.from_int(3), 1)
        part = classify_catalog([f, tw], ext25)
        assert part.classes == [[0, 1]]

    def test_monomial_twist_class_gf9(self, ext9):
        big = ext9.big
        x1 = SparsePolynomial(big, {1: big.one()})
        x3 = SparsePolynomial(big, {3: big.one()})  # smallest d > 1 coprime to 8
        part = classify_catalog([x1, x3], ext9)
        assert part.classes == [[0, 1]]

    def test_representative_is_minimal(self, ext25):
        f = q1_example_poly(ext25)
        big = ext25.big
        tw = apply_qm(f, big.gen_pow(1), big.gen_pow(1), 7)
        part = classify_catalog([tw, f], ext25)
        rep = part.representatives[0]
        keys = [p.reduce_exponents().canonical_key() for p in (tw, f)]
        assert keys[rep] == min(keys)

    def test_b1_partition_matches_unfiltered_oracle(self, ext16):
        # distinct B1 polynomials at q = 4; the search is a complete decision
        # procedure, so class labels must match pairwise brute-force verdicts
        polys = {}
        for params in param_grid("B1", ext16):
            built = build_family("B1", params, ext16)
            polys[built.poly.canonical_key()] = built.poly
        distinct = [polys[k] for k in sorted(polys)]
        assert len(distinct) < 600  # many tuples share a polynomial
        part = classify_catalog(distinct, ext16)
        class_of = {}
        for ci, members in enumerate(part.classes):
            for i in members:
                class_of[i] = ci
        sample = distinct[:: max(1, len(distinct) // 40)]
        idx = [distinct.index(p) for p in sample]
        for a_pos, i in enumerate(idx):
            for j in idx[a_pos + 1:]:
                slow = qm_search_oracle(distinct[i], distinct[j], ext16).equivalent
                assert (class_of[i] == class_of[j]) == slow

    def test_cap_checked_for_any_catalog_size(self):
        from conftest import MOD_2_12

        ext = get_ext(2, 6, tuple(MOD_2_12))
        f = SparsePolynomial(ext.big, {1: ext.big.one()})
        assert classify_catalog([f], ext).classes == [[0]]  # under the cap
        ext = get_ext(2, 11)  # GF(2^22), above EXHAUSTIVE_CAP
        f = SparsePolynomial(ext.big, {1: ext.big.one()})
        for catalog in ([], [f], [f, f]):
            with pytest.raises(CapExceeded):
                classify_catalog(catalog, ext)

    def test_zero_rejected_for_any_catalog_size(self, ext25):
        zero = SparsePolynomial(ext25.big)
        f = q1_example_poly(ext25)
        for catalog in ([zero], [f, zero], [zero, f, f]):
            with pytest.raises(ZeroInput):
                classify_catalog(catalog, ext25)


# fields of the canonical-key checks: GF(2^4), GF(3^2), GF(5^2), GF(3^4)
KEY_FIELDS = [(2, 2), (3, 1), (5, 1), (3, 2)]


@st.composite
def field_polys(draw, ext, logs_for=None):
    """1-5 terms, exponents in 0..m (constant and X^m included); with
    `logs_for`, the support of that polynomial with fresh coefficients."""
    m = ext.big.order - 1
    if logs_for is None:
        n = draw(st.integers(1, 5))
        exps = draw(st.lists(st.integers(0, m), min_size=n, max_size=n, unique=True))
    else:
        exps = sorted(logs_for.terms)
    logs = draw(st.lists(st.integers(0, m - 1), min_size=len(exps), max_size=len(exps)))
    return SparsePolynomial(ext.big, [(e, ext.big.gen_pow(k)) for e, k in zip(exps, logs)])


@st.composite
def qm_maps(draw, ext):
    m = ext.big.order - 1
    d = draw(st.sampled_from([d for d in range(1, m) if math.gcd(d, m) == 1]))
    u, v = (ext.big.gen_pow(draw(st.integers(0, m - 1))) for _ in range(2))
    return u, v, d


class TestCanonicalKey:
    @settings(max_examples=120, deadline=None)
    @given(data=st.data(), field=st.sampled_from(KEY_FIELDS))
    def test_invariant_under_twists(self, data, field):
        ext = get_ext(*field)
        f = data.draw(field_polys(ext))
        key = qm_canonical_key(f, ext)
        for _ in range(3):
            assert qm_canonical_key(apply_qm(f, *data.draw(qm_maps(ext))), ext) == key

    @settings(max_examples=40, deadline=None)
    @given(data=st.data(), field=st.sampled_from(KEY_FIELDS))
    def test_partition_matches_pairwise_oracle(self, data, field):
        # catalogs of a few bases, a base with the support of another but other
        # coefficients, and twists of them all, shuffled
        ext = get_ext(*field)
        bases = data.draw(st.lists(field_polys(ext), min_size=1, max_size=3))
        bases.append(data.draw(field_polys(ext, logs_for=bases[0])))
        catalog = list(bases)
        for f in bases:
            n = data.draw(st.integers(0, 2))
            catalog += [apply_qm(f, *data.draw(qm_maps(ext))) for _ in range(n)]
        catalog = data.draw(st.permutations(catalog))
        oracle = set()
        for f in catalog:
            row = tuple(j for j, g in enumerate(catalog)
                        if qm_search_oracle(f, g, ext).equivalent)
            oracle.add(row)
            for j, g in enumerate(catalog):
                res = qm_equivalent(f, g, ext)
                assert res.equivalent == (j in row)
                assert not res.equivalent or qm_verify_witness(f, g, res.witness, ext)
        part = classify_catalog(catalog, ext)
        assert sorted(map(tuple, part.classes)) == sorted(oracle)


def all_units_key(f, ext):
    """The canonical key by walking every unit d mod m: the oracle for the
    candidate-d key."""
    big = ext.big
    m = big.order - 1
    terms = [(e, big.log_enc(c.enc)) for e, c in f.reduce_exponents().terms.items()]
    best = None
    for d in range(1, m):
        if math.gcd(d, m) != 1:
            continue
        mapped = sorted([(reduce_exponent(e * d, m), log) for e, log in terms])
        supp = tuple([e for e, _ in mapped])
        if best is not None and supp > best[0]:
            continue
        (e1, l1), (e2, l2) = mapped[0], mapped[min(1, len(mapped) - 1)]
        t = math.gcd(e2 - e1, m)
        step = m // t
        b0 = -((l2 - l1) // t) * pow((e2 - e1) // t, -1, step) % step
        key = (supp, min(tuple((log - l1 + b * (e - e1)) % m for e, log in mapped)
                         for b in range(b0, m, step)))
        if best is None or key < best:
            best = key
    return best


# GF(4), GF(9), GF(16), GF(25), GF(49), GF(81)
ORACLE_FIELDS = [(2, 1), (3, 1), (2, 2), (5, 1), (7, 1), (3, 2)]


@st.composite
def oracle_polys(draw, ext):
    """1-5 terms of one of these shapes: any exponents in 0..m; a monomial;
    a support inside {0, m}; inner exponents plus both 0 and m; or inner
    exponents sharing a divisor of m, so that the least gcd exceeds 1."""
    m = ext.big.order - 1
    divisors = [k for k in range(2, m) if m % k == 0]
    shape = draw(st.sampled_from(["any", "monomial", "ends", "with_ends", "shared"][
        : 5 if divisors else 4]))
    if shape == "any":
        n = draw(st.integers(1, min(5, m + 1)))
        exps = draw(st.lists(st.integers(0, m), min_size=n, max_size=n, unique=True))
    elif shape == "monomial":
        exps = [draw(st.integers(0, m))]
    elif shape == "ends":
        exps = draw(st.sampled_from([[0], [m], [0, m]]))
    elif shape == "with_ends":
        inner = draw(st.lists(st.integers(1, m - 1), max_size=min(3, m - 1), unique=True))
        exps = [0, m] + inner
    else:
        k = draw(st.sampled_from(divisors))
        n = draw(st.integers(1, min(4, m // k - 1)))
        inner = draw(st.lists(st.integers(1, m // k - 1), min_size=n, max_size=n,
                              unique=True))
        exps = [k * e for e in inner] + draw(st.sampled_from([[], [0], [m]]))
    logs = draw(st.lists(st.integers(0, m - 1), min_size=len(exps), max_size=len(exps)))
    return SparsePolynomial(ext.big, [(e, ext.big.gen_pow(k)) for e, k in zip(exps, logs)])


class TestKeyAgainstAllUnits:
    @settings(max_examples=300, deadline=None)
    @given(data=st.data(), field=st.sampled_from(ORACLE_FIELDS))
    def test_equals_all_units_key(self, data, field):
        ext = get_ext(*field)
        f = data.draw(oracle_polys(ext))
        assert qm_canonical_key(f, ext) == all_units_key(f, ext)

    @pytest.fixture(scope="class")
    def p1_at_256(self):
        # four P1 polynomials at q = 256, then twists of the first and third
        ext = get_ext(2, 8)
        big = ext.big
        limits = GridLimits(delta_stride=4099, delta_t_stride=997, max_count=4)
        polys = [build_family("P1", p, ext).poly for p in param_grid("P1", ext, limits)]
        polys += [apply_qm(polys[0], big.gen_pow(7), big.gen_pow(11), 13),
                  apply_qm(polys[2], big.gen_pow(5), big.one(), 29)]
        return ext, polys, [all_units_key(f, ext) for f in polys]

    def test_p1_at_q256(self, p1_at_256):
        ext, polys, keys = p1_at_256
        assert len(polys) == 6
        assert [qm_canonical_key(f, ext) for f in polys] == keys

    def test_classify_at_q256(self, p1_at_256):
        ext, polys, keys = p1_at_256
        assert keys[4:] == [keys[0], keys[2]]
        by_key = {}
        for i, k in enumerate(keys):
            by_key.setdefault(k, []).append(i)
        part = classify_catalog(polys, ext)
        assert sorted(part.classes) == sorted(by_key.values())

    def test_equivalent_at_q256(self, p1_at_256):
        ext, polys, keys = p1_at_256
        equivalent = set()
        for i, j in itertools.combinations(range(len(polys)), 2):
            res = qm_equivalent(polys[i], polys[j], ext)
            assert res.equivalent == (keys[i] == keys[j])
            if res.equivalent:
                assert qm_verify_witness(polys[i], polys[j], res.witness, ext)
                equivalent.add((i, j))
        assert {(0, 4), (2, 5)} <= equivalent  # each twist with its source
