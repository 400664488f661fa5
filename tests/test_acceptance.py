"""Acceptance suite: one test per criterion, one printed verdict line each.

Grid scale: full cross-products at q in {3, 4, 5}; at q in {8, 9, 11, 16}
deterministic strided subsamples of the valid-parameter space (all circle
betas or a fixed beta stride, every aux value, fixed delta/delta_t strides).
The combined enumeration stays above the stated 10^4-tuple floor.  The
last test checks the closed-form QM map between sibling families on the
same schedule.
"""

import math
import random
import time
from dataclasses import replace

import pytest

from circleperm import repro
from circleperm.families import (
    _BASE_MAPS,
    FAMILIES,
    GridLimits,
    build_family,
    coeffs,
    expand_decomposition,
    param_grid,
)
from circleperm.fields import field_create
from circleperm.polynomials import SparsePolynomial, irreducible_cubic_alphas
from circleperm.qm import apply_qm, qm_equivalent
from circleperm.verify import (
    criterion_check,
    is_permutation_exhaustive,
    verify_both,
)
from conftest import (
    MOD_2_6, MOD_2_12, MOD_3_4, get_ext, get_field, h_no_circle_root, qm_search_oracle,
)
from registry import KNOWN, h1_form_instances, qm_verify_witness
from symbolic import alphas_from_noncubes, closed_form, conjugate, h_variants


def record(number, ok, message):
    print(f"\nACCEPTANCE {number}: {'PASS' if ok else 'FAIL'} - {message}")
    assert ok, f"acceptance criterion {number} failed: {message}"


# (family, ext spec, limits) schedule; None limits = full grid
GRID_SCHEDULE = []


def _extspec(q):
    return {
        3: (3, 1, None),
        4: (2, 2, None),
        5: (5, 1, None),
        8: (2, 3, tuple(MOD_2_6)),
        9: (3, 2, tuple(MOD_3_4)),
        11: (11, 1, None),
        16: (2, 4, None),
    }[q]


def _limits_for(q):
    if q in (3, 4, 5):
        return None
    if q == 8:
        return GridLimits(delta_stride=5, delta_t_stride=5)
    if q == 9:
        return GridLimits(delta_stride=12, delta_t_stride=10)
    if q == 11:
        return GridLimits(delta_stride=11, delta_t_stride=10)
    return GridLimits(delta_stride=30, delta_t_stride=24, beta_indices=list(range(0, 17, 4)))


for family, spec in FAMILIES.items():
    qs = {"2mod3": [5, 8, 11], "0mod3": [3, 9], "even": [4, 8, 16]}[spec.congruence]
    for q in qs:
        GRID_SCHEDULE.append((family, q))


def grid_for(family, q):
    ext = get_ext(*_extspec(q))
    return ext, param_grid(family, ext, _limits_for(q))


def test_criterion_1_worked_example_reproduction():
    t0 = time.perf_counter()
    results = repro.run_all()
    elapsed = time.perf_counter() - t0
    clean = [r for r in results if not r.case.known_defect]
    defects = [r for r in results if r.case.known_defect]
    ok = len(results) == 12 and all(r.passed for r in clean) and len(clean) == 11
    # the single source-defective case: our construction is a verified
    # permutation, pinned exactly; the quoted polynomial is not a permutation
    for r in defects:
        ok = ok and not r.coefficients_match and r.is_permutation
        ext = repro.case_extension(r.case)
        pinned = repro.expected_terms(r.case, ext, pins=r.case.built_pin)
        ok = ok and r.built_terms == pinned
        quoted = SparsePolynomial(ext.big, list(r.expected_terms.items()))
        ok = ok and not is_permutation_exhaustive(quoted, ext.big).is_permutation
    ok = ok and all(r.generator_is_root for r in results)
    ok = ok and elapsed < 10.0
    record(
        1, ok,
        f"11/12 worked examples coefficient-exact + permutation-verified in "
        f"{elapsed:.2f}s; the 12th is the documented source defect (our build "
        f"is a verified permutation, quoted one is not)",
    )


def test_criterion_2_grid_soundness():
    t0 = time.perf_counter()
    total = 0
    per_family = {}
    for family, q in GRID_SCHEDULE:
        ext, grid = grid_for(family, q)
        n = 0
        for params in grid:
            built = build_family(family, params, ext)
            rep = verify_both(built.r, built.h, built.poly, ext)  # raises on disagreement
            assert rep.is_permutation, (family, q, params)
            n += 1
        per_family[(family, q)] = n
        total += n
    elapsed = time.perf_counter() - t0
    nonempty = sum(1 for n in per_family.values() if n)
    families_hit = {fam for (fam, _), n in per_family.items() if n}
    ok = total >= 10_000 and families_hit == set(FAMILIES)
    record(
        2, ok,
        f"{total} tuples across {nonempty} family/field grids (all "
        f"{len(families_hit)} families) permute by both methods, zero "
        f"disagreements, in {elapsed:.1f}s",
    )


DUAL_PATH_PLAN = {
    "cubic": ("Q1", 5, 8),
    "cubic_shift": ("Q3", 3, 9),
    "quartic_trinomial": ("P1", 4, 16),
    "quartic_binomial": ("P4", 4, 16),
}


def _dual_path_tuple(kind, params, ext):
    closed = closed_form(params, ext).normalized()
    composed = conjugate(kind, params, ext).normalized()
    return composed.num == closed.num and composed.den == closed.den


def test_criterion_3_dual_path_identity():
    t0 = time.perf_counter()
    checked = 0
    rnd = random.Random(2024)
    for kind, (family, small_q, big_q) in DUAL_PATH_PLAN.items():
        ext_small = get_ext(*_extspec(small_q))
        for params in param_grid(family, ext_small):
            assert _dual_path_tuple(kind, params, ext_small), (kind, params)
            checked += 1
        ext_big = get_ext(*_extspec(big_q))
        pool = list(param_grid(family, ext_big, _limits_for(big_q)))
        sample = rnd.sample(pool, min(120, len(pool)))
        assert len(sample) >= 100
        for params in sample:
            assert _dual_path_tuple(kind, params, ext_big), (kind, params)
            checked += 1
    # the X^4 row of the binomials
    ext4 = get_ext(2, 2)
    for params in param_grid("B1", ext4):
        assert _dual_path_tuple("quartic", params, ext4)
        checked += 1
    elapsed = time.perf_counter() - t0
    record(
        3, True,
        f"{checked} tuples: symbolic composition equals the closed-form "
        f"coefficient system exactly (after denominator normalization) in "
        f"{elapsed:.1f}s",
    )


def test_criterion_4_root_absence_and_shifts():
    t0 = time.perf_counter()
    checked = 0
    kinds_seen = set()
    for family, q in GRID_SCHEDULE:
        spec = FAMILIES[family]
        if (spec.kind, q) in kinds_seen:
            continue  # systems depend on the kind, not the family
        kinds_seen.add((spec.kind, q))
        ext, grid = grid_for(family, q)
        mu = ext.circle_members()
        for i, params in enumerate(grid):
            if q not in (3, 4, 5) and i % 4:
                continue  # thin the large-field subsample further
            hs = h_variants(coeffs(params, ext), ext)
            base_vals = [hs[0].eval(z) for z in mu]
            assert all(v.enc for v in base_vals), (family, q, params)
            for shift, h_i in enumerate(hs[1:], start=1):
                for z, base_val in zip(mu, base_vals):
                    v = h_i.eval(z)
                    assert v.enc, (family, q, params, shift)
                    assert v * z**shift == base_val, (family, q, params, shift)
            checked += 1
    elapsed = time.perf_counter() - t0
    record(
        4, True,
        f"{checked} tuples: h and every shifted variant rootless on the "
        f"circle, shift identities hold pointwise, in {elapsed:.1f}s",
    )


def test_criterion_5_cubic_alpha_cross_check():
    sizes = {}
    for n in (2, 4):
        ctx = get_field(2, n)
        scan = set(irreducible_cubic_alphas(list(ctx.elements())))
        shifted = alphas_from_noncubes(ctx)
        sizes[2**n] = len(scan)
        assert scan == shifted, f"set mismatch over GF(2^{n})"
    record(
        5, True,
        f"irreducible-shift set equals the noncube a+1/a set exactly: "
        f"{sizes[4]} alphas over GF(4), {sizes[16]} over GF(16)",
    )


def test_criterion_6_qm_desk_scale_inequivalence():
    t0 = time.perf_counter()
    ext4 = get_ext(2, 2)
    # literal registry row is empty at q = 4 (m even, and every eligible b
    # lies inside GF(4))
    assert list(KNOWN["H1"](ext4)) == []
    relaxed = list(h1_form_instances(ext4, require_outside_subfield=False))
    assert len(relaxed) == 3
    b1_polys = []
    seen = set()
    for params in param_grid("B1", ext4):
        poly = build_family("B1", params, ext4).poly
        b1_polys.append(poly)
        seen.add(poly.canonical_key())
    assert len(b1_polys) == 600
    pairs = 0
    for poly in b1_polys:
        for known, _ in relaxed:
            res = qm_search_oracle(poly, known, ext4)
            assert not res.equivalent
            pairs += 1
    # quadrinomial side: the worked q=5 instance against every registry row
    ext5 = get_ext(5, 1)
    big = ext5.big
    g = big.generator
    from circleperm.families import ConstructionParams

    f_q1 = build_family(
        "Q1", ConstructionParams("Q1", -big.one(), big.one(), g, g, None), ext5
    ).poly
    f9_pairs = 0
    for known, _ in KNOWN["F9"](ext5):
        res = qm_search_oracle(f_q1, known, ext5)
        assert not res.equivalent
        f9_pairs += 1
    assert f9_pairs == 4
    elapsed = time.perf_counter() - t0
    ok = elapsed < 300.0
    record(
        6, ok,
        f"600 binomial instances ({len(seen)} distinct) vs 3 coefficient-form "
        f"registry binomials and 1 quadrinomial vs {f9_pairs} registry "
        f"instances: all inequivalent by full (u,v,d) search in {elapsed:.1f}s",
    )


def test_criterion_7_qm_soundness():
    rnd = random.Random(77)
    sources = []
    for family, q in [("Q1", 5), ("Q3", 3), ("P4", 4), ("B1", 4)]:
        ext = get_ext(*_extspec(q))
        pool = list(param_grid(family, ext, GridLimits(max_count=400)))
        sources.append((ext, [build_family(family, p, ext).poly for p in pool]))
    probes = 0
    for i in range(100):
        ext, polys = sources[i % len(sources)]
        f = polys[rnd.randrange(len(polys))]
        m = ext.big.order - 1
        d = rnd.choice([d for d in range(1, m) if math.gcd(d, m) == 1])
        u = ext.big.gen_pow(rnd.randrange(m))
        v = ext.big.gen_pow(rnd.randrange(m))
        twisted = apply_qm(f, u, v, d)
        res = qm_equivalent(f, twisted, ext)
        assert res.equivalent and qm_verify_witness(f, twisted, res.witness, ext)
        probes += 1
    # key-based verdicts against the brute-force search
    agree = 0
    for p, m_deg in [(3, 1), (2, 2)]:
        ext = get_ext(p, m_deg)
        big = ext.big
        mm = big.order - 1
        for _ in range(50):
            n1, n2 = rnd.randint(1, 4), rnd.randint(1, 4)
            a = SparsePolynomial(
                big, [(e, big.gen_pow(rnd.randrange(mm))) for e in rnd.sample(range(1, mm + 1), n1)]
            )
            b = SparsePolynomial(
                big, [(e, big.gen_pow(rnd.randrange(mm))) for e in rnd.sample(range(1, mm + 1), n2)]
            )
            fast = qm_equivalent(a, b, ext)
            slow = qm_search_oracle(a, b, ext)
            assert fast.equivalent == slow.equivalent
            agree += 1
    record(
        7, True,
        f"{probes} self-equivalence probes returned verifying witnesses; "
        f"key comparison agreed with the brute-force search on {agree} random pairs",
    )


def test_criterion_8_criterion_falsifiability():
    t0 = time.perf_counter()
    rnd = random.Random(8080)
    fields = {
        3: (3, 1, None), 4: (2, 2, None), 5: (5, 1, None),
        8: (2, 3, tuple(MOD_2_6)), 9: (3, 2, tuple(MOD_3_4)),
        11: (11, 1, None), 16: (2, 4, None), 64: (2, 6, tuple(MOD_2_12)),
    }
    total = 0
    permutation_hits = 0
    for q, spec in fields.items():
        ext = get_ext(*spec)
        big = ext.big
        m = big.order - 1
        for _ in range(1000):
            r = rnd.randint(1, q - 1)
            n_terms = rnd.randint(1, min(5, q + 1))
            h = SparsePolynomial(
                big,
                [(e, big.gen_pow(rnd.randrange(m)))
                 for e in rnd.sample(range(0, q + 1), n_terms)],
            )
            f = expand_decomposition(r, h, ext)
            crit = criterion_check(r, h, ext)
            if f.is_zero():
                exh_perm = False  # zero map
            else:
                exh_perm = is_permutation_exhaustive(f, big).is_permutation
            assert crit.is_permutation == exh_perm, (q, r, h)
            permutation_hits += exh_perm
            total += 1
    elapsed = time.perf_counter() - t0
    record(
        8, True,
        f"{total} random decomposable polynomials over 8 fields: criterion "
        f"verdict equals exhaustive verdict in 100% of cases "
        f"({permutation_hits} permutations found) in {elapsed:.1f}s",
    )


def test_sibling_collapse_on_the_schedule():
    # siblings of one base map share D_k and differ in r and in their shift
    # s = h_index - first_h; the base is the sibling of least h_index.  Mod
    # q^2 - 1 every exponent of f_s is a_s + k(q-1), a_s = r_s - s(q-1), so
    # the same tuple gives f_s = f_base(X^d') for d' = 1 + t(q+1),
    # t = j * a_base^-1 mod q - 1 and j = (a_s - a_base)/(q+1)
    base = {}
    for family, spec in sorted(FAMILIES.items(), key=lambda item: item[1].h_index):
        base.setdefault(spec.kind, family)

    def a(family, q):
        spec = FAMILIES[family]
        return spec.r(q) - (spec.h_index - _BASE_MAPS[spec.kind].first_h) * (q - 1)

    checked = 0
    for family, q in GRID_SCHEDULE:
        base_family = base[FAMILIES[family].kind]
        if family == base_family:
            continue
        ext, grid = grid_for(family, q)
        j, rest = divmod(a(family, q) - a(base_family, q), q + 1)
        assert rest == 0, (family, q)
        d = 1 + j * pow(a(base_family, q), -1, q - 1) % (q - 1) * (q + 1)
        one = ext.big.one()
        pool = list(grid)
        for params in pool[:: max(1, len(pool) // 40)]:
            f_base = build_family(base_family, replace(params, family=base_family), ext).poly
            assert apply_qm(f_base, one, one, d) == build_family(family, params, ext).poly, (
                family, q, params)
            checked += 1
    assert checked > 1000
