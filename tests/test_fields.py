import itertools
import random
import sys
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from circleperm import fields as fields_mod
from circleperm import qm, repro, verify
from circleperm.errors import (
    CapExceeded,
    CtxMismatch,
    DivisionByZero,
    InvariantViolation,
    NotIrreducible,
    NotMonic,
    NotPrime,
    ZeroInput,
)
from circleperm.fields import (
    _Ring,
    canonical_modulus,
    field_create,
    is_irreducible,
    order_factors,
    prime_factors,
    quad_extension,
)
from circleperm.polynomials import SparsePolynomial
from conftest import (MOD_2_16, MOD_5_6, get_ext, get_field, get_non_root, lane_word,
                      schoolbook_mul, schoolbook_pow, tables_off)


class TestFieldCreate:
    def test_stated_degree_16_modulus(self):
        ctx = field_create(2, MOD_2_16)
        assert ctx.order == 1 << 16
        assert ctx.generator_is_root

    def test_prime_field_with_modulus_x(self):
        ctx = field_create(3, [0, 1])
        assert ctx.order == 3
        assert ctx.generator.coords() == (2,)
        assert not ctx.generator_is_root  # root of X is 0

    def test_reducible_modulus_rejected_with_factor(self):
        with pytest.raises(NotIrreducible):
            field_create(2, [0, 0, 1])  # X^2 = X*X
        # a product of two quartics over GF(101): no root, so only the
        # irreducibility test can reject it, and it must do so at once
        with pytest.raises(NotIrreducible):
            field_create(101, [1, 2, 7, 11, 16, 17, 12, 5, 1])

    def test_irreducibility_tested_only_without_a_primitive_root(self, monkeypatch):
        # a primitive modulus root proves the modulus irreducible, so
        # is_irreducible runs only when the root (or a supplied generator)
        # is not primitive
        calls = []
        def counted(modulus, p):
            calls.append((p, modulus))
            return is_irreducible(modulus, p)

        monkeypatch.setattr(fields_mod, "is_irreducible", counted)
        for p, n in [(2, 2), (2, 8), (2, 20), (3, 2), (3, 8), (5, 4), (7, 2), (13, 2)]:
            assert field_create(p, canonical_modulus(p, n)).generator_is_root
        for case in repro.CASES:
            quad_extension(case.p, case.m, case.modulus)
        assert calls == []
        # the field-info pin's two moduli whose root is not primitive
        for p, modulus in [(3, [1, 0, 1]), (2, [1, 1, 1, 1, 1])]:
            assert not field_create(p, modulus).generator_is_root
            assert calls == [(p, tuple(modulus))]
            calls.clear()
        # a supplied generator does not bypass the test on a reducible modulus
        with pytest.raises(NotIrreducible):
            field_create(2, [1, 0, 1], generator=[0, 1])  # (X + 1)^2
        with pytest.raises(NotIrreducible):
            field_create(101, [1, 2, 7, 11, 16, 17, 12, 5, 1], generator=[0, 1])
        assert len(calls) == 2

    def test_unit_group_order_factored_once_per_field(self):
        # the primitivity tests of every canonical_modulus candidate and of
        # the generator share one factorization of m = p^n - 1
        factored = []

        def profile(frame, event, arg):
            if event == "call" and frame.f_code is order_factors.__wrapped__.__code__:
                factored.append((frame.f_locals["p"], frame.f_locals["n"]))

        for p, m in [(2, 10), (3, 6)]:
            order_factors.cache_clear()
            sys.setprofile(profile)
            try:
                quad_extension(p, m)
            finally:
                sys.setprofile(None)
            assert factored.count((p, 2 * m)) == 1
        assert prime_factors(3**12 - 1) == (2, 5, 7, 13, 73)  # a tuple: shared, so immutable

    def test_root_walk_fault_raises(self, monkeypatch):
        # the root's walk stands in for its primitivity test; a walk that
        # fails for a primitive root is a fault, never a fallback generator
        def broken(self, exp):
            exp[0] = 2  # g^0 = 1 and g^1 = 2 both sit at k = 0

        monkeypatch.setattr(fields_mod.FieldCtx, "_root_powers", broken)
        for p, n in [(2, 4), (3, 2)]:
            with pytest.raises(InvariantViolation):
                field_create(p, canonical_modulus(p, n))

    def test_not_prime(self):
        with pytest.raises(NotPrime):
            field_create(6, [1, 1])

    def test_not_monic(self):
        with pytest.raises(NotMonic):
            field_create(5, [1, 2])
        with pytest.raises(NotMonic):
            field_create(5, [1])  # degree 0

    def test_user_generator_checked(self):
        with pytest.raises(ZeroInput):
            field_create(5, [3, 1], generator=[1])  # 1 is not primitive
        with pytest.raises(ZeroInput):
            field_create(5, [3, 1], generator=[0])  # 0^m = 0, not 1

    def test_generator_order_is_max(self):
        for p, n in [(2, 4), (3, 2), (5, 2), (2, 6)]:
            ctx = get_field(p, n)
            m = ctx.order - 1
            g = ctx.generator
            for f in prime_factors(m):
                assert (g ** (m // f)).enc != 1
            assert (g**m).enc == 1


def trial_factors(n):
    out, f = [], 2
    while f * f <= n:
        if n % f == 0:
            out.append(f)
            while n % f == 0:
                n //= f
        f += 1
    return out + [n] * (n > 1)


class TestFactoring:
    def test_rho_matches_trial_division(self):
        # every n < 10^5, past the memo, and 2^62 - 1 = 3 * 715827883 *
        # 2147483647, whose trial division takes about 358 million steps
        factor = prime_factors.__wrapped__
        for n in range(1, 10**5):
            want = trial_factors(n)
            assert list(factor(n)) == want, n
            assert fields_mod.is_prime(n) == (want == [n]), n
        assert prime_factors(2**62 - 1) == (3, 715827883, 2147483647)

    def test_rho_splits_a_semiprime_of_two_large_primes(self):
        # both factors near 10^6: the walk runs about 10^3 steps, several
        # batches, before a gcd splits n (the n < 10^5 above also take the
        # path where a batch's gcd is n and the walk steps back through it)
        n = 999983 * 1000003
        assert fields_mod._rho(n) in (999983, 1000003)
        assert prime_factors.__wrapped__(n) == (999983, 1000003)

    def test_composites_factor_above_the_proven_bound(self):
        # a Miller-Rabin witness proves a number composite at any size, so
        # rho splits composites above _MR_PROVEN as below it
        assert 2**90 > fields_mod._MR_PROVEN
        assert prime_factors(2**90 * 3**5) == (2, 3) and not fields_mod.is_prime(2**90)
        assert order_factors(2, 82) == prime_factors(2**82 - 1) == (
            3, 83, 13367, 164511353, 8831418697)

    def test_unproven_primes_are_refused(self):
        # 13-base Miller-Rabin proves primality only below _MR_PROVEN: a
        # number at or above it that passes every base is refused, also as
        # a part of a number to factor
        with pytest.raises(CapExceeded):  # the least strong pseudoprime to all 13 bases
            fields_mod.is_prime(fields_mod._MR_PROVEN)
        for n in [3317044064679887385962123, 2**89 - 1]:
            with pytest.raises(CapExceeded):
                fields_mod.is_prime(n)
            with pytest.raises(CapExceeded):
                prime_factors(3 * n)
        with pytest.raises(CapExceeded):
            order_factors(2, 178)

    def test_order_factors_match_prime_factors(self):
        # splitting p^n - 1 into cyclotomic values loses no prime and adds none
        for p in [2, 3, 5, 7, 11, 101]:
            for n in range(1, 13 if p < 11 else 7):
                assert order_factors.__wrapped__(p, n) == prime_factors(p**n - 1), (p, n)


class TestArithmetic:
    def test_gen_pow_is_the_generator_power(self):
        # from exp on a tabled field; table-free above EXHAUSTIVE_CAP
        ctx = get_field(3, 2)
        m = ctx.order - 1
        assert all(ctx.gen_pow(k) == ctx.generator**k for k in range(-2 * m, 2 * m + 1))
        ctx = get_field(2, 21)
        assert ctx._log is None
        rnd = random.Random(19)
        for k in [rnd.randrange(-2 * ctx.order, 2 * ctx.order) for _ in range(200)]:
            assert ctx.gen_pow(k) == ctx.generator**k, k

    def test_gf5_product(self):
        ctx = get_field(5, 1)
        assert (ctx.from_int(3) * ctx.from_int(4)) == ctx.from_int(2)

    def test_gf4_modulus_forces_square(self):
        ctx = field_create(2, [1, 1, 1])
        w = ctx.generator
        assert (w * w) == w + ctx.one()

    def test_degree_6_char2_generator_order(self, ext64):
        # order divides 63 (repeated-squaring oracle) and equals 63 exactly
        g = ext64.big.generator
        acc = g
        for _ in range(6):  # g^(2^6) = g^64 = g * g^63
            acc = acc * acc
        assert acc == g  # so g^63 = 1
        assert all((g ** (63 // r)).enc != 1 for r in (3, 7))

    def test_division_by_zero(self, ext25):
        big = ext25.big
        with pytest.raises(DivisionByZero):
            big.zero().inverse()
        with pytest.raises(DivisionByZero):
            big.one() / big.zero()

    def test_zero_has_no_negative_power_or_log(self, ext25):
        big = ext25.big
        with pytest.raises(DivisionByZero):
            big.pow_enc(0, -1)
        with pytest.raises(ZeroInput):
            big.log_enc(0)

    def test_ctx_mismatch(self, ext25, ext9):
        with pytest.raises(CtxMismatch):
            ext25.big.one() + ext9.big.one()
        for predicate in (ext25.in_subfield, ext25.on_circle):
            with pytest.raises(CtxMismatch):
                predicate(ext9.big.one())

    def test_operand_types(self, ext25):
        big = ext25.big
        x = big.generator
        with pytest.raises(TypeError):
            x + "a"
        with pytest.raises(TypeError):
            x * 1.5
        # int / element goes through __rtruediv__
        assert 2 / x == big.from_int(2) * x.inverse()

    @settings(max_examples=60, deadline=None)
    @given(a=st.integers(0, 24), b=st.integers(0, 24))
    def test_frobenius_is_additive_and_multiplicative(self, a, b):
        big = get_ext(5, 1).big
        x = big.from_enc(a)
        y = big.from_enc(b)
        assert (x + y) ** 5 == x**5 + y**5
        assert (x * y) ** 5 == x**5 * y**5

    @settings(max_examples=60, deadline=None)
    @given(a=st.integers(1, 80), e=st.integers(-5, 200))
    def test_pow_matches_repeated_multiplication(self, a, e):
        big = get_ext(3, 2, (2, 0, 0, 2, 1)).big
        x = big.from_enc(big.exp_enc(a))
        slow = big.one()
        for _ in range(e % (big.order - 1)):
            slow = slow * x
        assert x**e == slow


class TestQuadExtension:
    def test_gf25_over_gf5(self, ext25):
        assert ext25.q == 5
        assert len(ext25.circle_members()) == 6

    def test_x2_minus_3_irreducible_by_qr_oracle(self):
        # 3 is not a quadratic residue mod 5, so X^2 - 3 is irreducible
        assert 3 not in {x * x % 5 for x in range(5)}
        ext = quad_extension(5, 1, [-3 % 5, 0, 1])
        assert ext.big.order == 25

    def test_stated_moduli_accepted(self):
        assert get_ext(5, 3, tuple(MOD_5_6)).q == 125
        assert get_ext(3, 2, (2, 0, 0, 2, 1)).q == 9

    def test_wrong_degree_rejected(self):
        with pytest.raises(NotMonic):
            quad_extension(5, 2, [3, 1])

    def test_in_subfield(self, ext25):
        big = ext25.big
        assert ext25.in_subfield(big.zero())
        assert not ext25.in_subfield(big.generator)
        assert sum(ext25.in_subfield(x) for x in big.elements()) == 5

    def test_circle_members(self, ext25, ext16):
        # exhaustive scan oracle: x^(q+1) = 1
        for ext in (ext25, ext16):
            q = ext.q
            mu = ext.circle_members()
            assert len(mu) == q + 1
            scan = {x.enc for x in ext.big.elements() if x.enc and (x ** (q + 1)).enc == 1}
            assert {z.enc for z in mu} == scan
        assert ext25.on_circle(-ext25.big.one())  # -1 on the circle for odd q

    def test_circle_order_is_generator_steps(self, ext25):
        g = ext25.big.generator
        mu = ext25.circle_members()
        assert mu == [g ** (k * 4) for k in range(6)]

    def test_circle_meets_subfield(self):
        # intersection = {+-1} for odd q, {1} for even q
        for p, m in [(5, 1), (3, 2)]:
            ext = get_ext(p, m) if p == 5 else get_ext(3, 2, (2, 0, 0, 2, 1))
            both = [z for z in ext.circle_members() if ext.in_subfield(z)]
            assert {z.enc for z in both} == {1, (-ext.big.one()).enc}
        ext = get_ext(2, 2)
        both = [z for z in ext.circle_members() if ext.in_subfield(z)]
        assert [z.enc for z in both] == [1]

    def test_norm_lands_in_subfield(self, ext25):
        q = ext25.q
        for x in ext25.big.elements():
            assert ext25.in_subfield(x ** (q + 1))


class TestSquaresCubesTrace:
    def test_gf3_two_is_nonsquare(self):
        ctx = get_field(3, 1)
        assert not ctx.is_power(ctx.from_int(2), 2)

    def test_norm_of_primitive_is_nonsquare_in_subfield(self, ext81):
        # subfield dlog of g^(q+1) is 1 (odd): exponent-parity oracle
        alpha = ext81.big.gen_pow(ext81.q + 1)
        assert ext81.in_subfield(alpha)
        assert not ext81.is_power_sub(alpha, 2)

    def test_gf4_generator_is_noncube(self):
        ctx = field_create(2, [1, 1, 1])
        assert not ctx.is_power(ctx.generator, 3)
        assert ctx.is_power(ctx.one(), 3)

    def test_even_q_all_squares(self, ext16):
        for x in ext16.big.elements():
            if x.enc:
                assert ext16.big.is_power(x, 2)

    def test_zero_input(self, ext25):
        with pytest.raises(ZeroInput):
            ext25.big.is_power(ext25.big.zero(), 2)


def product_order_modulus(p, n):
    """canonical_modulus by its definition: the words (w_{n-1}, ..., w_1)
    from itertools.product, which holds range(p) as a tuple."""
    zp = _Ring(p, [0, 1])
    r = next(k for k in range(1, p) if zp._is_primitive(k))
    for word in itertools.product(range(p), repeat=n - 1):
        coeffs = ([(-1) ** n * r % p] + [(-1) ** (n - i) * word[n - 1 - i] % p for i in range(1, n)]
                  + [1])
        ring = _Ring(p, coeffs)
        if ring._is_primitive(ring._root_enc()):
            return coeffs


class TestCanonicalModulus:
    @pytest.mark.parametrize("p", [2, 3, 5, 7, 11, 13])
    def test_counter_order_is_the_product_order(self, p):
        for n in range(1, 5):
            assert canonical_modulus(p, n) == product_order_modulus(p, n), (p, n)

    def test_small_fields(self):
        assert canonical_modulus(3, 2) == [2, 2, 1]
        assert canonical_modulus(5, 2) == [2, 4, 1]
        assert canonical_modulus(2, 4) == [1, 1, 0, 0, 1]

    def test_degree_one(self):
        assert canonical_modulus(5, 1) == [3, 1]  # root 2, the least primitive root
        assert canonical_modulus(3, 1) == [1, 1]

    def test_root_is_primitive(self):
        for p, n in [(2, 2), (2, 6), (3, 2), (5, 2), (7, 2), (11, 2), (2, 8)]:
            ctx = field_create(p, canonical_modulus(p, n))
            assert ctx.generator_is_root

    def test_element_text_form(self, ext25):
        assert str(ext25.big.zero()) == "0"
        assert str(ext25.big.generator ** 7) == "g^7"


# (p, n, d): GF(p^n) with the generator X^d, the modulus root for d = 1;
# GF(3^4) with X^7 makes its lane table from exp rather than by the walk
ARITH_FIELDS = [(2, 4, 1), (3, 3, 1), (3, 4, 1), (5, 2, 1), (3, 4, 7)]
ARITH_IDS = [f"{p}-{n}" if d == 1 else f"{p}-{n}-{d}" for p, n, d in ARITH_FIELDS]


def arith_field(p, n, d):
    return get_field(p, n) if d == 1 else get_non_root(p, n, d)


class TestTableArithmetic:
    @pytest.mark.parametrize("p,n,d", ARITH_FIELDS, ids=ARITH_IDS)
    def test_matches_digitwise_on_every_pair(self, p, n, d):
        # encodings do not depend on the tables, so the two paths compare
        ctx = arith_field(p, n, d)
        assert ctx._log is not None

        def ops():
            return [(a, b, ctx.neg_enc(a), ctx.add_enc(a, b), ctx.sub_enc(a, b))
                    for a in range(ctx.order) for b in range(ctx.order)]

        tabled = ops()
        with tables_off(ctx):
            assert ops() == tabled

    @pytest.mark.parametrize("p,n,d", ARITH_FIELDS, ids=ARITH_IDS)
    def test_lane_table_holds_lane_words(self, p, n, d):
        # odd p: as built, with no add first, lanes[k] = lane_word(exp[k])
        # for each of the m values of k, from the root's walk or, for X^7,
        # from exp; p = 2 adds by xor and has no lane table
        ctx = field_create(p, canonical_modulus(p, n)) if d == 1 else get_non_root(p, n, d)
        if p == 2:
            assert ctx._lanes is None
            return
        m, lanes = ctx.order - 1, ctx._lanes
        assert len(lanes) == m
        assert list(lanes) == [lane_word(ctx._exp[k], p, n) for k in range(m)]

    @settings(max_examples=200, deadline=None)
    @given(field=st.sampled_from(ARITH_FIELDS), data=st.data())
    def test_field_laws_on_both_paths(self, field, data):
        ctx = arith_field(*field)
        a, b, c = (data.draw(st.integers(0, ctx.order - 1)) for _ in range(3))
        add, mul = ctx.add_enc, ctx.mul_enc

        def laws():
            assert add(add(a, b), c) == add(a, add(b, c))
            assert mul(mul(a, b), c) == mul(a, mul(b, c))
            assert mul(a, add(b, c)) == add(mul(a, b), mul(a, c))
            assert ctx.sub_enc(add(a, b), b) == a

        laws()
        with tables_off(ctx):
            laws()


def schoolbook_tables(ctx):
    """exp, log and (odd p) lane words (conftest.lane_word) from x -> x*g
    through the schoolbook product of the tests (conftest.schoolbook_mul)."""
    m, g = ctx.order - 1, ctx.generator.enc
    exp, log = [], [m] * ctx.order
    x = 1
    for k in range(m):
        exp.append(x)
        log[x] = k
        x = schoolbook_mul(ctx, x, g)
    assert x == 1
    if ctx.p == 2:
        return exp + [0], log
    return exp + [0], log, [lane_word(x, ctx.p, ctx.n) for x in exp]


def stepped_tables(ctx):
    """The field's own tables as lists: exp, log and odd p's lane table."""
    return tuple(list(t) for t in (ctx._exp, ctx._log, ctx._lanes) if t is not None)


# every root-walk shape: p = 2 packs 2^floor(n/2) lanes that step
# 2^ceil(n/2) times, odd p p^ceil(n/2) lane words that step p^floor(n/2)
# times (p words and one step for n = 1), the last lane running onto
# exp[m]; odd p adds the top digit bit by bit (two bits for p = 3, five
# for 31, eight for 251), and a step's words become encodings with no radix
# round for n = 1
ROOT_SHAPES = ([(2, n) for n in range(1, 13)] + [(3, n) for n in range(1, 9)]
               + [(5, n) for n in range(1, 5)] + [(7, n) for n in range(1, 4)]
               + [(p, n) for p in (11, 13, 101) for n in (1, 2)]
               + [(31, 2), (31, 3), (251, 2)])


class TestSteppedTables:
    @pytest.mark.parametrize("p,n", ROOT_SHAPES)
    def test_root_steps_equal_schoolbook_products(self, p, n):
        ctx = get_field(p, n)
        assert ctx.generator_is_root
        assert stepped_tables(ctx) == schoolbook_tables(ctx)

    def test_supplied_non_root_generator(self):
        for p, n in [(3, 4), (2, 8)]:
            root = get_field(p, n).generator
            ctx = field_create(p, canonical_modulus(p, n), generator=(root ** 7).coords())
            assert not ctx.generator_is_root and ctx.generator.enc == (root ** 7).enc
            assert stepped_tables(ctx) == schoolbook_tables(ctx)

    @pytest.mark.parametrize("p,n", [(3, 11), (3, 12)])
    def test_q_lane_walks_sampled_against_schoolbook_powers(self, p, n):
        # the walks in 8-byte lane words ("Q", two exp items a word): exp
        # and log on 300 sampled k against schoolbook square-and-multiply
        ctx = field_create(p, canonical_modulus(p, n))
        m, g, exp, log = ctx.order - 1, ctx.generator.enc, ctx._exp, ctx._log
        assert ctx.generator_is_root and exp[m] == 0 and log[0] == m
        for k in [0, 1, m // 2, m - 1] + random.Random(n).sample(range(m), 300):
            x = schoolbook_pow(ctx, g, k)
            assert exp[k] == x and log[x] == k, k

    @pytest.mark.parametrize("p,n", [(2, 20), (3, 12), (5, 8), (31, 4)])
    def test_largest_tables_sampled_against_table_free_powers(self, p, n):
        # exp, log and the lane words on 300 sampled k against
        # square-and-multiply and conftest.lane_word, and the tabled sum
        # g^k + g^j against the digit-wise one (x + (-x) = 0 for odd p
        # among them: -1 = g^(m/2))
        ctx = field_create(p, canonical_modulus(p, n))
        m, g = ctx.order - 1, ctx.generator.enc
        exp, log, lanes = ctx._exp, ctx._log, ctx._lanes
        assert ctx.generator_is_root and exp[m] == 0 and log[0] == m
        ks = [0, 1, m // 2, m - 1] + random.Random(p * n).sample(range(m), 300)
        js = [(k + m // 2) % m for k in ks[:4]] + ks[4:][::-1]
        sums = [ctx.add_enc(exp[k], exp[j]) for k, j in zip(ks, js)]
        with tables_off(ctx):
            for k, j, s in zip(ks, js, sums):
                x = ctx.pow_enc(g, k)
                assert exp[k] == x and log[x] == k, k
                assert ctx.add_enc(x, ctx.pow_enc(g, j)) == s, (k, j)
                if lanes is not None:
                    assert lanes[k] == lane_word(x, p, n), k

    @pytest.mark.parametrize("p,n", [(2, 18), (3, 10)])
    def test_build_peaks_at_the_tables_own_size(self, p, n):
        # the build keeps no list of m ints and no copy of a table: the
        # traced peak stays within a quarter above exp, log and (odd p) the
        # lane table themselves, which the build has made
        modulus = canonical_modulus(p, n)
        tracemalloc.start()
        try:
            ctx = field_create(p, modulus)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (ctx._lanes is None) == (p == 2)
        tables = sum(len(t) * t.itemsize for t in (ctx._exp, ctx._log, ctx._lanes) if t is not None)
        assert peak < 1.25 * tables, (peak, tables)

    def test_typecode_h_up_to_order_2_16(self):
        ctx = get_field(2, 16, tuple(MOD_2_16))
        assert ctx._exp.typecode == ctx._log.typecode == "H"
        assert ctx._log[0] == 65535 and ctx._exp[65535] == 0

    def test_typecode_i_above_2_16(self):
        ctx = get_field(2, 18)
        exp, log = ctx._exp, ctx._log
        assert exp.typecode == log.typecode == "i"
        g = ctx.generator.enc
        with tables_off(ctx):
            for k in random.Random(18).sample(range(ctx.order - 1), 2000):
                x = ctx.pow_enc(g, k)
                assert exp[k] == x and log[x] == k, k


# every odd root-walk shape, 251^3 (above the cap, eight-bit top digits),
# GF(3^11) and GF(3^12), and fields above the cap
PRODUCT_SHAPES = ([s for s in ROOT_SHAPES if s[0] != 2] + [(251, 3), (3, 11), (3, 12)]
                  + [(3, 14), (5, 10), (31, 6)])


class TestPackedProduct:
    @pytest.mark.parametrize("p,n", PRODUCT_SHAPES)
    def test_products_equal_schoolbook(self, p, n):
        # the Kronecker product on every pair of a field of at most 64
        # elements, else on 300 sampled pairs with 0, 1 and p^n - 1 (every
        # digit p - 1) among the operands
        ring = _Ring(p, canonical_modulus(p, n))
        order = ring.order
        if order <= 64:
            pairs = list(itertools.product(range(order), repeat=2))
        else:
            rnd = random.Random(p * n)
            ends = [0, 1, order - 1]
            pairs = list(itertools.product(ends, repeat=2)) + [
                (rnd.randrange(order), rnd.randrange(order)) for _ in range(300)]
        for a, b in pairs:
            assert ring._mul_generic(a, b) == schoolbook_mul(ring, a, b), (a, b)

    @pytest.mark.parametrize("p,n", [(3, 2), (7, 3), (251, 3), (3, 14), (5, 10), (31, 6)])
    def test_powers_equal_schoolbook(self, p, n):
        # the chain kept in Kronecker form converts once each way
        ring = _Ring(p, canonical_modulus(p, n))
        rnd = random.Random(n)
        for _ in range(20):
            a, e = rnd.randrange(ring.order), rnd.randrange(2 * ring.order)
            assert ring._pow(a, e) == schoolbook_pow(ring, a, e), (a, e)
        assert ring._pow(0, 0) == 1 and ring._pow(ring.order - 1, 1) == ring.order - 1


class TestOneWalk:
    def test_checks_read_the_lane_table(self):
        # on GF(3^10) the QM keys and the checks read the tables the build
        # made, and the checks' run table is the lane table itself
        ext = quad_extension(3, 5)
        big, q = ext.big, ext.q
        polys = [SparsePolynomial(big, {5: big.one()}),
                 SparsePolynomial(big, {1: big.one(), q: big.generator}),
                 SparsePolynomial(big, {2: big.one(), 2 + 4 * (q - 1): big.generator})]
        for f in polys:
            qm.qm_canonical_key(f, ext)
        verdicts = [verify.verify_both(*verify.decompose(f, ext), f, ext).is_permutation
                    for f in polys]
        assert verdicts == [True, True, False]
        assert verify._RUNS[big][0] is big._lanes

    def test_one_walk_builds_exp_and_lanes(self, monkeypatch):
        # building a root odd field walks once, for exp and the lane table
        # together; the first add and verify_both read them without a walk
        walks = []
        walk = fields_mod.FieldCtx._lane_walk

        def counted(self, exp):
            walks.append(self)
            return walk(self, exp)
        monkeypatch.setattr(fields_mod.FieldCtx, "_lane_walk", counted)
        ext = quad_extension(3, 3)
        big = ext.big
        assert big.generator_is_root and walks == [big]
        x = big.add_enc(1, big.generator.enc)
        f = SparsePolynomial(big, {1: big.one(), ext.q: big.from_enc(x)})
        verify.verify_both(*verify.decompose(f, ext), f, ext)
        assert walks == [big]

    def test_run_table_is_the_lane_table(self):
        # GF(3^10)'s run table is the lane table itself; GF(3^4)'s repeats
        # it in a new array, and the lane table keeps its m entries
        for n, copies in [(10, 1), (4, 80)]:
            ctx = field_create(3, canonical_modulus(3, n))
            m, table = ctx.order - 1, verify._run_setup(ctx)[0]
            assert len(ctx._lanes) == m
            assert table is ctx._lanes if copies == 1 else table == ctx._lanes * copies


GROUP_FIELDS = [(2, 2), (3, 2), (5, 1)]  # GF(2^4), GF(3^4) and GF(5^2) as GF(q^2)


def on_both_paths(check, ext):
    """check(ext) with tables, then again on table-free arithmetic."""
    check(ext)
    with tables_off(ext.big):
        check(ext)


class TestCyclicGroup:
    @pytest.mark.parametrize("p,m", GROUP_FIELDS)
    def test_subgroup_is_the_kth_roots_of_unity(self, p, m):
        def check(ext):
            big = ext.big
            order, g = big.order - 1, big.generator.enc
            for k in (k for k in range(1, order + 1) if order % k == 0):
                sub = [x.enc for x in big.subgroup(k)]
                assert sub == [big.pow_enc(g, j * (order // k)) for j in range(k)], k
                assert set(sub) == {x for x in range(1, big.order) if big.pow_enc(x, k) == 1}, k

        on_both_paths(check, get_ext(p, m))

    @pytest.mark.parametrize("p,m", GROUP_FIELDS)
    def test_is_power_is_membership_in_the_kth_powers(self, p, m):
        def check(ext):
            units = list(ext.big.elements())[1:]
            sub_units = [x for x in units if ext.in_subfield(x)]
            for k in (2, 3):
                powers = {(y**k).enc for y in units}
                assert [ext.big.is_power(x, k) for x in units] == [
                    x.enc in powers for x in units], k
                powers = {(y**k).enc for y in sub_units}
                assert [ext.is_power_sub(x, k) for x in sub_units] == [
                    x.enc in powers for x in sub_units], k

        on_both_paths(check, get_ext(p, m))

    def test_is_power_sub_input_checks(self, ext25):
        with pytest.raises(CtxMismatch):
            ext25.is_power_sub(ext25.big.generator, 2)  # not in GF(5)
        with pytest.raises(ZeroInput):
            ext25.is_power_sub(ext25.big.zero(), 3)


class TestSympyCrossCheck:
    def test_is_irreducible_matches_sympy(self):
        pytest.importorskip("sympy")
        from sympy.polys.domains import ZZ
        from sympy.polys.galoistools import gf_irreducible_p

        # n = 6 and n = 10 hold products such as an irreducible quadratic
        # times an irreducible cubic: X^(p^n) = X holds for them, and only
        # the unit test on X^(p^(n/r)) - X rejects them
        count = 0
        for p, max_deg in [(2, 10), (3, 6), (5, 4)]:
            for deg in range(1, max_deg + 1):
                for tail in itertools.product(range(p), repeat=deg):
                    monic = list(tail) + [1]  # least degree first; sympy wants most
                    assert is_irreducible(monic, p) == gf_irreducible_p(monic[::-1], p, ZZ), (p, monic)
                    count += 1
        assert count == 3918

    def test_primitive_root_proves_modulus_irreducible(self):
        # canonical_modulus keeps the first candidate whose root is primitive
        # in Z_p[X]/(f): no reducible f may pass, and every primitive f does
        pytest.importorskip("sympy")
        from sympy import totient
        from sympy.polys.domains import ZZ
        from sympy.polys.galoistools import gf_irreducible_p

        for p, max_deg in [(2, 6), (3, 4)]:
            for deg in range(2, max_deg + 1):
                passed = 0
                for tail in itertools.product(range(p), repeat=deg):
                    monic = list(tail) + [1]
                    ring = _Ring(p, monic)
                    if ring._is_primitive(ring._root_enc()):
                        assert gf_irreducible_p(monic[::-1], p, ZZ), (p, monic)
                        passed += 1
                assert passed == totient(p**deg - 1) // deg, (p, deg)

    def test_canonical_modulus_is_primitive(self):
        pytest.importorskip("sympy")
        from sympy import factorint
        from sympy.polys.domains import ZZ
        from sympy.polys.galoistools import gf_irreducible_p, gf_pow_mod

        # the (p, degree) pairs the tests and repro build without a stated modulus
        # and the three field-info pins above the cap, GF(2^62), GF(2^82) and
        # GF(p^2) for p = 2^31 - 1
        pairs = [(2, 2), (2, 4), (2, 6), (2, 8), (2, 10), (3, 1), (3, 2), (3, 4),
                 (5, 1), (5, 2), (7, 1), (7, 2), (11, 2), (2, 62), (2, 82), (2**31 - 1, 2)]
        for p, n in pairs:
            f = canonical_modulus(p, n)[::-1]
            assert gf_irreducible_p(f, p, ZZ), (p, n)
            m = p**n - 1
            for r in factorint(m):  # X has order exactly m modulo f
                assert gf_pow_mod([1, 0], m // r, f, p, ZZ) != [1], (p, n, r)
            assert gf_pow_mod([1, 0], m, f, p, ZZ) == [1], (p, n)
