import bisect
import math
import random
import sys
import tracemalloc
from array import array

import pytest

from circleperm import verify
from circleperm.errors import CapExceeded, InvalidParams
from circleperm.fields import EXHAUSTIVE_CAP, _lane_total, canonical_modulus, field_create
from circleperm.families import (
    FAMILIES,
    ConstructionParams,
    GridLimits,
    build_family,
    coeffs,
    expand_decomposition,
    param_grid,
)
from circleperm.polynomials import SparsePolynomial
from circleperm.verify import (
    _CHUNK_MAX,
    _RUNS,
    _gather,
    _ladder,
    _run_setup,
    criterion_check,
    decompose,
    is_permutation_exhaustive,
    verify_both,
)
from conftest import MOD_2_16, get_ext, get_field, h_no_circle_root, tables_off
from symbolic import pmul


def exhaustive_oracle(f, ctx):
    """(verdict, witness) from the definition: the first x, in the order of
    ctx.elements(), whose value an earlier point already took, paired with
    that earlier point."""
    first = {}
    for x in ctx.elements():
        prev = first.setdefault(f.eval(x).enc, x)
        if prev is not x:
            return False, (prev, x)
    return True, None


def redirect(ctx, T, b, to):
    """X + (to - g^b) * I, with I = 1 on the g^k with k = b (mod T) and 0
    elsewhere (T divides m and p does not divide T): f is X off that class
    and sends g^b to `to`.  I = (X^m + sum((X/g^b)^(t*j), 0 < j < T)) / T
    with t = m/T, so f has T + 1 terms."""
    m = ctx.order - 1
    y, t = ctx.gen_pow(b), m // T
    coef = (to - y) / ctx.from_int(T)
    return SparsePolynomial(ctx, [(1, ctx.one()), (m, coef)] + [
        (t * j, coef * y ** (-t * j)) for j in range(1, T)])


def circle_oracle(r, h, ext):
    """criterion_check's (verdict, gcd_ok, circle_ok, detail) from the
    definition: z -> z^r * h(z)^(q-1) over ext.circle_members() in
    FieldElement arithmetic, up to the first root of h or repeated image."""
    big, q = ext.big, ext.q
    detail, seen = {}, {}
    for z in ext.circle_members():
        hz = sum((c * z**e for e, c in h.terms.items()), big.zero())
        if hz.enc == 0:
            detail["circle_root"] = z
            break
        img = z**r * hz ** (q - 1)
        if img in seen:
            detail["circle_collision"] = (seen[img], z)
            break
        seen[img] = z
    gcd_ok = math.gcd(r, q - 1) == 1
    return gcd_ok and not detail, gcd_ok, not detail, detail


@pytest.fixture
def sums_calls(monkeypatch):
    """The (k0, n) of every verify._sums call, in order, while a test runs."""
    calls, sums = [], verify._sums

    def counted(ctx, terms, k0, n):
        calls.append((k0, n))
        return sums(ctx, terms, k0, n)
    monkeypatch.setattr(verify, "_sums", counted)
    return calls


def circle_walk(q):
    """The chunks criterion_check sums for q + 1 > _CHUNK_MIN: the first
    of _ladder(q + 1), then the rest of the circle."""
    (k0, n), *_ = _ladder(q + 1)
    return [(k0, n), (n, q + 1 - n)]


def odd_lane_shapes():
    """Every odd (p, n) with n >= 2 and p^n <= EXHAUSTIVE_CAP; n = 1 for the
    odd primes below 2^12 and the largest prime below 2^k, k = 13..20.  A
    single lane has no radix round and depends on p only through its width,
    so the other 82,000 primes up to 2^20 add time and no case."""
    sieve = bytearray([1]) * (EXHAUSTIVE_CAP + 1)
    for i in range(2, math.isqrt(EXHAUSTIVE_CAP) + 1):
        if sieve[i]:
            sieve[i * i::i] = bytes(len(range(i * i, EXHAUSTIVE_CAP + 1, i)))
    primes = [p for p in range(3, EXHAUSTIVE_CAP + 1, 2) if sieve[p]]
    shapes = [(p, n) for p in primes for n in range(2, 20) if p**n <= EXHAUSTIVE_CAP]
    ones = [p for p in primes if p < 1 << 12]
    ones += [primes[bisect.bisect_left(primes, 1 << k) - 1] for k in range(13, 21)]
    return shapes + [(p, 1) for p in ones]


def lane_word(x, p, n):
    """Digit i of the encoding x in bits [w*i, w*i + w), w = p.bit_length() + 1."""
    w = p.bit_length() + 1
    return sum(x // p**i % p << w * i for i in range(n))


def run_values(ctx):
    """What a run table repeats, from the definition: exp[k] for k < m, as
    it is for p = 2, and for odd p lane_word(exp[k]) in the smallest word
    that holds n*w bits."""
    exp, p, n = ctx._exp[:ctx.order - 1], ctx.p, ctx.n
    if p == 2:
        return exp
    w = p.bit_length() + 1
    return array(next(t for t in "BHIQ" if n * w <= 8 * array(t).itemsize),
                 [lane_word(x, p, n) for x in exp])


def digitwise_sum(xs, p, n):
    """The encoding whose digits are the digit sums of xs mod p."""
    return sum(sum(x // p**i for x in xs) % p * p**i for i in range(n))


def run_total(total, columns, typecode):
    """total over one run per column of lane words; the encodings it gives."""
    runs = [int.from_bytes(array(typecode, col), sys.byteorder) for col in columns]
    k = len(columns[0])
    return list(array(typecode, total(runs, k).to_bytes(k * array(typecode).itemsize,
                                                        sys.byteorder)))


def q1_worked_build(ext25):
    big = ext25.big
    g = big.generator
    params = ConstructionParams("Q1", -big.one(), big.one(), g, g, None)
    return build_family("Q1", params, ext25)


class TestExhaustive:
    def test_quadrinomial_permutes_gf25(self, ext25):
        built = q1_worked_build(ext25)
        rep = is_permutation_exhaustive(built.poly, ext25.big)
        assert rep.is_permutation and rep.witness is None

    def test_square_witness_deterministic(self):
        ctx = get_field(5, 1)
        rep = is_permutation_exhaustive(SparsePolynomial(ctx, {2: ctx.one()}), ctx)
        assert not rep.is_permutation
        assert tuple(w.coords() for w in rep.witness) == ((1,), (4,))
        # the witness reproduces the collision
        f = SparsePolynomial(ctx, {2: ctx.one()})
        assert f.eval(rep.witness[0]) == f.eval(rep.witness[1])

    def test_monomials_gf7(self):
        ctx = get_field(7, 1)
        verdicts = {
            n: is_permutation_exhaustive(SparsePolynomial(ctx, {n: ctx.one()}), ctx).is_permutation
            for n in range(1, 7)
        }
        assert {n for n, v in verdicts.items() if v} == {1, 5}

    def test_cap(self):
        big = get_ext(2, 11).big  # GF(2^22), above EXHAUSTIVE_CAP
        with pytest.raises(CapExceeded):
            is_permutation_exhaustive(SparsePolynomial(big, {1: big.one()}), big)

    def test_odd_char_table_free_path_agrees(self, ext25):
        # the chunked check (strided runs of exp for p = 2, of lanes for
        # odd p) must give the verdict and witness of exhaustive_oracle run
        # on table-free arithmetic, in every characteristic; exponents run
        # over 0..m so constant terms and X^m occur.  GF(2^10) spans five
        # chunks.
        rnd = random.Random(11)
        for ctx in (get_field(2, 4), get_field(3, 4), ext25.big, get_field(2, 10)):
            m = ctx.order - 1
            one = ctx.one()
            polys = [
                SparsePolynomial(ctx),
                SparsePolynomial(ctx, {0: ctx.gen_pow(4)}),
                SparsePolynomial(ctx, [(m, one)]),
                SparsePolynomial(ctx, [(0, ctx.gen_pow(3)), (m, one)]),
                SparsePolynomial(ctx, [(0, ctx.gen_pow(5)), (1, ctx.gen_pow(2))]),
                SparsePolynomial(ctx, [(0, one), (m + 1, one)]),
            ]
            # partial sums that cancel to zero at some points:
            # X + X^(1+m/2) vanishes at every nonsquare (odd p), X^3 + X^5
            # at x = 1 (p = 2), and a third term then starts from zero
            if ctx.p == 2:
                polys += [SparsePolynomial(ctx, [(3, one), (5, one)]),
                          SparsePolynomial(ctx, [(3, one), (5, one), (7, one)])]
            else:
                polys += [SparsePolynomial(ctx, [(1, one), (1 + m // 2, one)]),
                          SparsePolynomial(ctx, [(1, one), (1 + m // 2, one), (2, one)])]
            for _ in range(25):
                exps = rnd.sample(range(m + 1), rnd.randint(1, 4))
                terms = [(e, ctx.gen_pow(rnd.randrange(m))) for e in exps]
                polys.append(SparsePolynomial(ctx, terms))
            if ctx is ext25.big:
                polys.append(q1_worked_build(ext25).poly)
            if ctx.order == 1024:
                # first collisions after a chunk boundary: X^11 repeats at
                # g^93, and X^3 and X^3 + g X^96 (X^3 then a GF(32)-linear
                # bijection) at g^341
                g = ctx.generator
                polys += [SparsePolynomial(ctx, [(11, one)]),
                          SparsePolynomial(ctx, [(3, one)]),
                          SparsePolynomial(ctx, [(3, one), (96, g)])]
            fast = [is_permutation_exhaustive(poly, ctx) for poly in polys]
            with tables_off(ctx):
                slow = [exhaustive_oracle(poly, ctx) for poly in polys]
            verdicts = [r.is_permutation for r in fast]
            assert any(verdicts) and not all(verdicts)
            for poly, a, b in zip(polys, fast, slow):
                assert (a.is_permutation, a.witness) == b, poly
        # GF(2^10) ran last; its three late collisions end the list
        assert [str(r.witness[1]) for r in fast[-3:]] == ["g^93", "g^341", "g^341"]

    @pytest.mark.parametrize("p,n", [(2, 10), (3, 8)])
    def test_witness_recovery_branches(self, p, n):
        # a marked value's first preimage is x = 0 (the value is f(0)), a
        # point of an earlier chunk (searched only if that chunk carries the
        # value's mark) or a point of the hit's own chunk.  Each branch must
        # occur with its chunk the first one and a later one: the hit's
        # chunk for x = 0 and for the own chunk, the preimage's chunk for an
        # earlier one (a later one lies past chunk 0 and its other mark).
        # Every chunk of both fields is shorter than _CHUNK_MAX, so an
        # earlier chunk is one kept as walked.  Seeded trinomials and
        # binomials, exponents 0..m, collide mostly in the first chunk, so two
        # redirects come first, f = X off the class k = b (mod T), T > b,
        # with g^b sent to g^a: a in chunk 1 of _ladder(m), b in chunk 2 and
        # in chunk 1.
        ctx = get_field(p, n)
        m = ctx.order - 1
        chunks = _ladder(m)
        chunk_of = {k: c for c, (k0, size) in enumerate(chunks) for k in range(k0, k0 + size)}
        assert len(chunks) > 3 and all(size < _CHUNK_MAX for _, size in chunks)
        a, ends = chunks[1][0] + 5, (chunks[2][0] + 8, chunks[1][0] + 8)
        T = {(2, 10): m, (3, 8): 820}[p, n]  # divides m, prime to p, above both ends
        redirects = [redirect(ctx, T, b, ctx.gen_pow(a)) for b in ends]
        rnd = random.Random(29)

        def inputs():
            yield from redirects
            for _ in range(2000):
                exps = rnd.sample(range(m + 1), rnd.randint(2, 3))
                yield SparsePolynomial(ctx, [(e, ctx.gen_pow(rnd.randrange(m))) for e in exps])
        branches = {(kind, later) for kind in ("x = 0", "earlier chunk", "own chunk")
                    for later in (False, True)}
        reached = set()
        for f in inputs():
            rep = is_permutation_exhaustive(f, ctx)
            assert (rep.is_permutation, rep.witness) == exhaustive_oracle(f, ctx), f
            if rep.is_permutation:
                continue
            prev, hit = rep.witness
            c = chunk_of[hit.dlog()]
            if prev.enc == 0:
                reached.add(("x = 0", c > 0))
            elif chunk_of[prev.dlog()] < c:
                reached.add(("earlier chunk", chunk_of[prev.dlog()] > 0))
            else:
                reached.add(("own chunk", c > 0))
            if reached >= branches:
                break
        assert reached >= branches, reached
        assert [is_permutation_exhaustive(f, ctx).witness for f in redirects] == [
            (ctx.gen_pow(a), ctx.gen_pow(b)) for b in ends]

    def test_witness_in_kept_and_summed_again_chunks(self, sums_calls):
        # GF(2^20)'s ladder is one 2,048-point chunk, kept as walked, and
        # then full _CHUNK_MAX chunks, summed again only to find a
        # preimage.  f = X off the class k = b (mod 41) sends g^b, the first
        # point of chunk 2, to g^a in chunk 0 and in chunk 1.  The class's
        # 149 earlier points move to other values; for this b none of them
        # repeats a value first, so (g^a, g^b) is the first collision.
        big = get_ext(2, 10).big
        chunks = _ladder(big.order - 1)
        assert chunks[0][1] < _CHUNK_MAX == chunks[1][1] == chunks[2][1]
        b = chunks[2][0]
        for c in (0, 1):
            a = chunks[c][0] + 5
            f = redirect(big, 41, b, big.gen_pow(a))
            sums_calls.clear()
            rep = is_permutation_exhaustive(f, big)
            assert rep.witness == (big.gen_pow(a), big.gen_pow(b))
            assert (rep.is_permutation, rep.witness) == exhaustive_oracle(f, big)
            # chunk 0 is read as kept; chunk 1, full, is summed a second time
            assert sums_calls == [*chunks[:3], *chunks[1:2] * c]

    def test_one_pass_agrees_with_oracle_on_small_fields(self, sums_calls):
        # a field of at most _ONE_PASS_MAX elements is summed in one _sums
        # call and tested by one set, and a failed test scans those values
        # for the first collision; fields past the bound walk _ladder(m).
        # Every acceptance-grid field, GF(3^5) (odd degree), and GF(257) and
        # GF(17^2), the first fields past the bound.  X^d + g^3 (d prime to
        # m) permutes with f(0) != 0, and the redirects (X off the class
        # k = b (mod m), g^b sent to g^5) first collide past 64 and past 192.
        rnd = random.Random(31)
        fields = [get_ext(p, n).big for p, n in [(3, 1), (2, 2), (5, 1), (2, 3), (3, 2), (11, 1), (2, 4)]]
        fields += [get_field(3, 5), get_field(257, 1), get_field(17, 2)]
        assert [ctx.order <= verify._ONE_PASS_MAX for ctx in fields] == [True] * 8 + [False] * 2
        for ctx in fields:
            m, one = ctx.order - 1, ctx.one()
            d = next(d for d in range(2, m) if math.gcd(d, m) == 1)
            polys = [
                SparsePolynomial(ctx),
                SparsePolynomial(ctx, {0: ctx.gen_pow(4)}),
                SparsePolynomial(ctx, {1: one}),
                SparsePolynomial(ctx, {d: ctx.gen_pow(2), 0: ctx.gen_pow(3)}),
            ]
            if ctx.p > 2:
                polys.append(SparsePolynomial(ctx, [(1, one), (1 + m // 2, one)]))
            for _ in range(30):
                exps = rnd.sample(range(m + 1), rnd.randint(1, 5))
                polys.append(SparsePolynomial(ctx, [(e, ctx.gen_pow(rnd.randrange(m)))
                                                    for e in exps]))
            late = [b for b in (70, 200) if b < m]
            polys += [redirect(ctx, m, b, ctx.gen_pow(5)) for b in late]
            reports = []
            for f in polys:
                sums_calls.clear()
                rep = is_permutation_exhaustive(f, ctx)
                assert (rep.is_permutation, rep.witness) == exhaustive_oracle(f, ctx), f
                if ctx.order <= verify._ONE_PASS_MAX:
                    assert sums_calls == [(0, m)], f
                else:
                    assert sums_calls and sums_calls == list(_ladder(m)[:len(sums_calls)]), f
                reports.append(rep)
            assert reports[2].is_permutation and reports[3].is_permutation
            assert not all(rep.is_permutation for rep in reports)
            assert [rep.witness for rep in reports[len(polys) - len(late):]] == [
                (ctx.gen_pow(5), ctx.gen_pow(b)) for b in late]

    def test_one_call_keeps_about_a_byte_per_element(self):
        # the marks are a bytearray of ctx.order and values are gathered one
        # chunk at a time, so a call that checks every point of GF(2^18)
        # peaks below 2 bytes per element once the run table is built
        big = get_ext(2, 9).big
        f = SparsePolynomial(big, {5: big.one()})
        assert is_permutation_exhaustive(f, big).is_permutation and big in _RUNS
        tracemalloc.start()
        try:
            is_permutation_exhaustive(f, big)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * big.order, peak / big.order

    @pytest.mark.parametrize("degree", [16, 18])
    def test_strided_gather_matches_indexing(self, degree):
        # GF(2^16) has "H" tables and GF(2^18) "i" ones; e = m - 1 steps
        # backwards (d < 0), and a run with k0 + n = m ends at the table's end.
        # Runs that start n/2 from either end of exp wrap in the middle, so
        # e = 1 and e = m - 1 land exactly on m and on -1 there, and e = m - 1
        # started at n ends just above 0.  e = m/3 repeats with period 3.
        ctx = get_field(2, 16, tuple(MOD_2_16)) if degree == 16 else get_ext(2, 9).big
        exp, m = ctx._exp, ctx.order - 1
        rnd = random.Random(5)
        shared = next(e for e in range(3, m) if m % e == 0)
        for e in [0, 1, 2, m - 1, shared, 3 * shared, m // shared, m, *rnd.sample(range(3, m), 6)]:
            for n in (1, 4096):
                for k0 in (0, rnd.randrange(m - n), m - n):
                    for start in (rnd.randrange(m), n // 2, n, m - n // 2):
                        lc = (start - e * k0) % m
                        run = _gather(exp, m, lc, e, k0, n)
                        assert run.typecode == exp.typecode
                        want = [exp[(lc + e * k) % m] for k in range(k0, k0 + n)]
                        assert list(run) == want, (e, n, k0, lc)

    def test_lanes_agree_with_oracle_past_chunk_boundaries(self):
        # odd p on multi-digit lanes: GF(3^8) in "I" words, GF(7^4) in "H",
        # GF(101^2) in "H" with 8-bit lanes.  L(y) = y^q + g y is a
        # GF(q)-linear bijection (-g is off the unit circle), so L(X^d) and
        # L(X^d) + g^5 first collide at g^0 and g^(m / gcd(d, m)): after
        # the first chunk (64 points), past the boundary at 192 or 448.
        # X + X^(1+m/2) cancels at every nonsquare.
        rnd = random.Random(17)
        late = {(3, 8): (41, 32), (7, 4): (32, 5), (101, 2): (51, 17)}
        for (p, n), ds in late.items():
            ctx = get_field(p, n)
            m, q, g, one = ctx.order - 1, p ** (n // 2), ctx.generator, ctx.one()
            polys = [
                SparsePolynomial(ctx),
                SparsePolynomial(ctx, {0: ctx.gen_pow(4)}),
                SparsePolynomial(ctx, [(m, one)]),
                SparsePolynomial(ctx, [(q, one), (1, g)]),
                SparsePolynomial(ctx, [(1, one), (1 + m // 2, one)]),
                SparsePolynomial(ctx, [(1, one), (1 + m // 2, one), (2, one)]),
            ]
            for _ in range(12):
                exps = rnd.sample(range(m + 1), rnd.randint(1, 4))
                polys.append(SparsePolynomial(ctx, [(e, ctx.gen_pow(rnd.randrange(m)))
                                                    for e in exps]))
            for d in ds:
                polys += [SparsePolynomial(ctx, [(q * d, one), (d, g)]),
                          SparsePolynomial(ctx, [(q * d, one), (d, g), (0, ctx.gen_pow(5))])]
            fast = [is_permutation_exhaustive(poly, ctx) for poly in polys]
            for poly, a in zip(polys, fast):
                assert (a.is_permutation, a.witness) == exhaustive_oracle(poly, ctx), poly
            assert fast[3].is_permutation
            assert [str(r.witness[1]) for r in fast[-4:]] == [
                f"g^{m // math.gcd(d, m)}" for d in ds for _ in range(2)]
            assert all(m // math.gcd(d, m) > 64 for d in ds)

    def test_repeated_run_tables_match_indexing(self):
        # run tables repeat a field's m values: GF(3^4) 80 times, so every
        # run is one slice; GF(2^10) 64 times and GF(5^6) 4 times, so long
        # runs still wrap, and classes with d < 0 start in the last copy
        rnd = random.Random(9)
        for ctx in (get_field(3, 4), get_field(2, 10), get_ext(5, 3).big):
            m, base = ctx.order - 1, run_values(ctx)
            table = _run_setup(ctx)[0]
            assert len(table) % m == 0 and len(table) > m
            assert table.typecode == base.typecode and table[-m:] == base
            for e in [1, 2, m - 1, m - 2, m // 2, *rnd.sample(range(3, m), 8)]:
                for n in (1, 64, min(m, 4096)):
                    for k0 in (0, rnd.randrange(m - n + 1), m - n):
                        lc = rnd.randrange(m)
                        want = [base[(lc + e * k) % m] for k in range(k0, k0 + n)]
                        assert list(_gather(table, m, lc, e, k0, n)) == want, (e, n, k0, lc)
        # a run is one forward slice while its last index s + e*(n - 1) stays
        # below span (a constant for e = 0); at span it wraps.  With e < m and
        # n <= m no run of GF(2^8) or GF(3^4) reaches span, so e runs past m.
        for ctx in (get_field(2, 8), get_field(3, 4)):
            m, base = ctx.order - 1, run_values(ctx)
            table = _run_setup(ctx)[0]
            span = len(table) - len(table) % m
            runs = [(0, n, rnd.randrange(m)) for n in (1, 64, m)]  # e = 0 from s
            for last in (span - 1, span):
                for n in (2, 64, m):
                    for e in ((last - m + 1) // (n - 1) + 1, last // (n - 1)):
                        runs.append((e, n, last - e * (n - 1)))
            assert {s + e * (n - 1) for e, n, s in runs} >= {span - 1, span}
            for e, n, s in runs:
                assert 0 <= s < m
                for k0 in (1, rnd.randrange(1, m), m - 1):
                    lc = (s - e * k0) % m
                    want = [base[(lc + e * k) % m] for k in range(k0, k0 + n)]
                    assert list(_gather(table, m, lc, e, k0, n)) == want, (e, n, k0, lc)


class TestLanes:
    def test_lane_sums_are_digitwise_sums(self):
        # total (one run: lanes -> encodings; several: lane sums reduced
        # mod p) on every odd lane shape and every word size that holds
        # n*w bits, GF(3^11) and GF(3^12) only in 8-byte words; sampled
        # encodings include 0 and p^n - 1 (every digit p - 1) and x + (-x)
        rnd = random.Random(3)
        for p, n in odd_lane_shapes():
            w, order = p.bit_length() + 1, p**n
            k = min(order - 1, 64)
            xs = ([0, order - 1, order - 1] + [rnd.randrange(order) for _ in range(k)])[:k]
            ys = ([order - 1, 0, order - 1] + [rnd.randrange(order) for _ in range(k)])[:k]
            zs = [rnd.randrange(order) for _ in range(k)]
            neg = [sum(-(x // p**i) % p * p**i for i in range(n)) for x in xs]
            words = [t for t in "BHIQ" if n * w <= 8 * array(t).itemsize]
            assert words and ((p, n) not in {(3, 11), (3, 12)} or words == ["Q"])
            for typecode in words:
                total = _lane_total(p, n, min(order - 1, _CHUNK_MAX), 8 * array(typecode).itemsize)
                lanes = [[lane_word(x, p, n) for x in col] for col in (xs, ys, zs, neg)]
                assert run_total(total, lanes[:1], typecode) == xs, (p, n, typecode)
                assert run_total(total, lanes[:3], typecode) == [
                    digitwise_sum(t, p, n) for t in zip(xs, ys, zs)], (p, n, typecode)
                assert run_total(total, [lanes[0], lanes[3]], typecode) == [0] * k

    @pytest.mark.parametrize("p,n", [(3, 1), (13, 1), (3, 2), (5, 2), (3, 8), (7, 4),
                                     (101, 2), (3, 11), (3, 12)])
    def test_field_lane_sums_equal_add_enc(self, p, n):
        # the field's run table, in the smallest word that holds n*w bits,
        # summed by its total, gives add_enc; zero is no table entry, so
        # its lane word is 0
        ctx = get_field(p, n)
        w = p.bit_length() + 1
        table, total = _run_setup(ctx)
        assert table.typecode == next(t for t in "BHIQ" if n * w <= 8 * array(t).itemsize)
        rnd = random.Random(p * n)
        k = min(ctx.order - 1, 64)
        xs = [0, 1] + [rnd.randrange(ctx.order) for _ in range(k - 2)]
        ys = [rnd.randrange(ctx.order) for _ in range(k)]
        lanes = [[table[ctx._log[x]] if x else 0 for x in col] for col in (xs, ys)]
        assert [lane_word(x, p, n) for x in xs] == lanes[0]
        assert run_total(total, lanes, table.typecode) == [
            ctx.add_enc(x, y) for x, y in zip(xs, ys)]

    def test_run_tables_hold_lane_words(self):
        # every entry of an odd-p run table is lane_word(exp[k]), repeated
        # whole: on the root generator's tables and on a supplied non-root
        # generator's
        root = get_field(3, 4).generator
        non_root = field_create(3, canonical_modulus(3, 4), generator=(root ** 7).coords())
        for ctx in (get_field(3, 4), get_field(5, 2), get_field(7, 2), non_root):
            m, table, base = ctx.order - 1, _run_setup(ctx)[0], run_values(ctx)
            assert table.typecode == base.typecode and table == base * (len(table) // m)

    @pytest.mark.parametrize("p,n,typecode", [(5, 2, "B"), (3, 4, "H"), (31, 2, "H"),
                                              (31, 3, "I"), (3, 10, "I"), (3, 11, "Q")])
    def test_walked_run_tables_in_every_lane_word(self, p, n, typecode):
        # the root walk's lane words, taken before its radix rounds, in each
        # word size and with two to five bits of top digit: every entry
        # (2,000 sampled on GF(3^11)) is lane_word(exp[k]), and the m entries
        # repeat whole
        ctx = field_create(p, canonical_modulus(p, n))
        m, table = ctx.order - 1, _run_setup(ctx)[0]
        assert ctx.generator_is_root and table.typecode == typecode
        assert len(table) % m == 0 and table[:m] * (len(table) // m) == table
        ks = range(m) if m < 1 << 16 else random.Random(n).sample(range(m), 2000)
        assert [table[k] for k in ks] == [lane_word(ctx._exp[k], p, n) for k in ks]


class TestDefaultCap:
    def test_verify_both_cap_keyword_cannot_move_the_limit(self, ext25):
        # the keyword is accepted only where it decides like EXHAUSTIVE_CAP
        f = q1_worked_build(ext25).poly
        r, h = decompose(f, ext25)
        for cap in (EXHAUSTIVE_CAP, 1 << 18, ext25.big.order):
            assert verify_both(r, h, f, ext25, cap=cap).is_permutation
        with pytest.raises(ValueError):
            verify_both(r, h, f, ext25, cap=ext25.big.order - 1)
        ext = get_ext(2, 11)  # GF(2^22), above EXHAUSTIVE_CAP
        f = SparsePolynomial(ext.big, {5: ext.big.one()})
        r, h = decompose(f, ext)
        with pytest.raises(CapExceeded):
            verify_both(r, h, f, ext)
        with pytest.raises(ValueError):
            verify_both(r, h, f, ext, cap=ext.big.order)

    def test_gf_2_18_both_ways(self):
        # GF(2^18) is under the default cap and tabled: X^5 is one strided
        # run per chunk, X^q + g X the xor of two; it is GF(q)-linear with no
        # kernel, since x^(q-1) = g has no root for a primitive g
        ext = get_ext(2, 9)
        big, q = ext.big, ext.q
        assert big._log is not None
        polys = [SparsePolynomial(big, {5: big.one()}),
                 SparsePolynomial(big, [(q, big.one()), (1, big.generator)])]
        for f in polys:
            r, h = decompose(f, ext)
            rep = verify_both(r, h, f, ext)
            assert rep.is_permutation and rep.witness is None, f


class TestCriterion:
    def test_q1_at_q5(self, ext25):
        built = q1_worked_build(ext25)
        rep = criterion_check(built.r, built.h, ext25)
        assert rep.is_permutation and rep.gcd_ok and rep.circle_ok

    def test_zero_h_is_refused(self, ext25):
        with pytest.raises(InvalidParams):
            criterion_check(3, SparsePolynomial(ext25.big), ext25)

    def test_gcd_failure_regardless_of_h(self, ext25):
        rep = criterion_check(2, SparsePolynomial(ext25.big, {0: ext25.big.one()}), ext25)
        assert rep.gcd_ok is False and rep.is_permutation is False

    def test_circle_root_is_definite_failure(self, ext25):
        big = ext25.big
        h = SparsePolynomial(big, {1: big.one(), 0: -big.one()})  # root 1 on the circle
        rep = criterion_check(3, h, ext25)
        assert not rep.is_permutation and rep.detail["circle_root"].enc == 1

    def test_circle_walk_matches_definitions(self):
        # criterion_check and h_no_circle_root walk the circle by log and
        # evaluate through eval_enc; with and without the log tables they must
        # equal the definitions over ext.circle_members() in FieldElement
        # arithmetic, and eval must equal sum(c * x**e) at every element
        rnd = random.Random(23)
        for ext in (get_ext(2, 2), get_ext(3, 2), get_ext(5, 1)):
            big, q = ext.big, ext.q
            mu = ext.circle_members()
            one = big.one()

            def linear(z):
                return SparsePolynomial(big, [(1, one), (0, -z)])

            cases = [
                (1, linear(mu[len(mu) // 2])),  # a root mid-circle
                (3, linear(mu[-1])),  # the only root is the last point
                (1, pmul(linear(mu[1]), linear(mu[-2]))),  # two roots
                (q + 1, SparsePolynomial(big, {0: big.gen_pow(2)})),  # z^(q+1) = 1
            ]
            for _ in range(40):
                exps = rnd.sample(range(2 * q + 2), rnd.randint(1, 5))
                h = SparsePolynomial(big, [(e, big.gen_pow(rnd.randrange(big.order - 1)))
                                           for e in exps])
                cases.append((rnd.randint(1, q - 1), h))
            points = list(big.elements())

            def h_at(h, x):
                return sum((c * x**e for e, c in h.terms.items()), big.zero())

            def oracle(r, h):
                root = next((z for z in mu if h_at(h, z).enc == 0), None)
                return circle_oracle(r, h, ext), (root is None, root)

            def walked():
                out = []
                for r, h in cases:
                    rep = criterion_check(r, h, ext)
                    out.append(((rep.is_permutation, rep.gcd_ok, rep.circle_ok, rep.detail),
                                h_no_circle_root(h, ext)))
                return out

            def evals():
                return [[h.eval(x) for x in points] for _, h in cases]

            expected = [oracle(r, h) for r, h in cases]
            sums = [[h_at(h, x) for x in points] for _, h in cases]
            assert walked() == expected and evals() == sums
            with tables_off(big):
                assert walked() == expected and evals() == sums
            details = [d for (_, _, _, d), _ in expected]
            assert any("circle_root" in d for d in details)
            assert any("circle_collision" in d for d in details)
            assert any(v for (v, _, _, _), _ in expected)

    @pytest.mark.parametrize("p,m", [(2, 6), (5, 3), (2, 8), (3, 6), (2, 10)])
    def test_circle_walk_on_largest_fields(self, p, m):
        # criterion_check sums h's circle values by gathered runs (GF(2^16)
        # reads exp in place, so runs wrap; GF(3^12) packs 8-byte lanes) and
        # names images by log; with and without tables it must equal the
        # definition over ext.circle_members() in FieldElement arithmetic.
        # On the circle (X - w)^(q-1) = -1/(wX) for w on it, so X - w gives
        # z -> -z^(r-1)/w off the root: injective iff gcd(r - 1, q + 1) = 1,
        # constant for r = q + 2, and so is the product of two such factors
        # for r = q + 3.  For w off the circle and r = 1 it is a Moebius map,
        # so f permutes.
        ext = get_ext(p, m)
        big, q = ext.big, ext.q
        mu = ext.circle_members()
        one, g = big.one(), big.generator
        rnd = random.Random(q)
        bad_r = next(r for r in range(q + 2, q * q, q + 1) if math.gcd(r, q - 1) > 1)

        def linear(w, shift=0):  # X^shift * (X - w); X^(q+1) is 1 on the circle
            return SparsePolynomial(big, [(1 + shift, one), (shift, -w)])
        cases = [
            (2, linear(mu[0])),  # a root at the first point
            (2, linear(mu[-1])),  # no collision, then a root at the last point
            (q + 2, linear(mu[-1])),  # a collision at z_1, long before the root
            (q + 2, linear(mu[1])),  # the root at z_1 comes before its collision
            (q + 3, pmul(linear(mu[3]), linear(mu[-2]))),  # two roots, a collision first
            (1, linear(g)),  # permutes
            (1, linear(g, q + 1)),  # permutes, exponents q+1 and q+2
            (bad_r, linear(g)),  # the circle map of r = 1, but gcd(r, q-1) > 1
        ]
        for _ in range(16):
            exps = rnd.sample(range(3 * q + 1), rnd.randint(1, 6))
            exps[0] = (q + 1) * rnd.randint(0, 2)
            h = SparsePolynomial(big, [(e, big.gen_pow(rnd.randrange(big.order - 1)))
                                       for e in exps])
            cases.append((rnd.randint(1, 3 * q), h))

        def walked(cases):
            return [(rep.is_permutation, rep.gcd_ok, rep.circle_ok, rep.detail)
                    for rep in (criterion_check(r, h, ext) for r, h in cases)]

        expected = [circle_oracle(r, h, ext) for r, h in cases]
        assert walked(cases) == expected
        details = [d for _, _, _, d in expected]
        assert details[0] == {"circle_root": mu[0]} and details[1] == {"circle_root": mu[-1]}
        assert details[2] == {"circle_collision": (mu[0], mu[1])}
        assert details[3] == {"circle_root": mu[1]}
        assert details[4] == {"circle_collision": (mu[0], mu[1])}
        assert [v for v, _, _, _ in expected[5:8]] == [True, True, False]
        assert expected[7][1:3] == (False, True)
        assert any(gcd for _, gcd, _, _ in expected[8:]) and not all(
            gcd for _, gcd, _, _ in expected[8:])
        # table-free odd-p products cost tens of microseconds, so GF(3^12)
        # leaves out its whole-circle walks without tables
        slow = {1, 5, 6, 7} if p > 2 and q > 256 else set()
        with tables_off(big):
            kept = [i for i in range(len(cases)) if i not in slow]
            assert walked([cases[i] for i in kept]) == [expected[i] for i in kept]

    @pytest.mark.parametrize("p,m", [(2, 6), (5, 3), (2, 8)])
    def test_early_exit_in_every_chunk(self, p, m, sums_calls):
        # the criterion walks the first chunk of _ladder(q + 1), then the
        # rest of the circle in one more; the walk must stop in the chunk
        # that holds its first event, with the definition's detail.  In
        # each chunk's middle, z_k: a root, h = X - z_k with r = 2 (off the
        # root z -> -z/z_k, a bijection), and separately a repeated image,
        # r = 1 and h = 1 + c * sum((X/z_k)^i, i = 0..q), which is 1 off
        # z_k on the circle (q + 1 = 1 mod p), with 1 + c = g^(j-k), so z_k
        # goes to z_j, j = k/2.
        ext = get_ext(p, m)
        big, q = ext.big, ext.q
        mu = ext.circle_members()
        one, g = big.one(), big.generator
        chunks = circle_walk(q)
        assert len(_ladder(q + 1)) == (3 if q == 256 else 2)
        roots, collisions, events = [], [], []
        for k0, n in chunks:
            k = k0 + n // 2
            roots.append((2, SparsePolynomial(big, [(1, one), (0, -mu[k])])))
            c = g ** (k // 2 - k) - one
            collisions.append((1, SparsePolynomial(
                big, [(0, one)] + [(i, c * mu[k] ** -i) for i in range(q + 1)])))
            events.append(k)
        cases = roots + collisions
        expected = [circle_oracle(r, h, ext) for r, h in cases]
        assert [d for _, _, _, d in expected] == [{"circle_root": mu[k]} for k in events] + [
            {"circle_collision": (mu[k // 2], mu[k])} for k in events]
        for (r, h), want, k in zip(cases, expected, events * 2):
            sums_calls.clear()
            rep = criterion_check(r, h, ext)
            assert (rep.is_permutation, rep.gcd_ok, rep.circle_ok, rep.detail) == want
            assert sums_calls == [chunk for chunk in chunks if chunk[0] <= k]
        # table-free sums of h's q + 1 terms cost 30-130 us a term at q = 125
        # and 256, so there only the roots run without tables
        kept = range(len(cases) if q == 64 else len(roots))
        with tables_off(big):
            for i in kept:
                rep = criterion_check(*cases[i], ext)
                assert (rep.is_permutation, rep.gcd_ok, rep.circle_ok, rep.detail) == expected[i]

    def test_rejections_sum_only_the_chunks_they_decide_in(self, sums_calls):
        # seeded random decomposable polynomials, as in the benchmark's
        # falsify pool, count work instead of timing it: the criterion sums
        # the first chunk of _ladder(q + 1), then the rest of the circle in
        # one more call only when that chunk holds no root or repeated
        # image, so a circle-injective h takes at most two calls; the
        # exhaustive check sums the chunks of _ladder(m) up to the hit's,
        # then only full _CHUNK_MAX chunks again, never a shorter one
        rnd = random.Random(37)
        for p, n in [(2, 6), (5, 3), (2, 8)]:
            ext = get_ext(p, n)
            big, q = ext.big, ext.q
            m = big.order - 1
            circle, chunks = circle_walk(q), _ladder(m)
            rejected, past_first = 0, 0
            for _ in range(40):
                r = rnd.randint(1, q - 1)
                h = SparsePolynomial(big, [(e, big.gen_pow(rnd.randrange(m)))
                                           for e in rnd.sample(range(q + 1), rnd.randint(1, 5))])
                sums_calls.clear()
                crit = criterion_check(r, h, ext)
                if crit.detail:
                    z = crit.detail.get("circle_root") or crit.detail["circle_collision"][1]
                    assert sums_calls == [chunk for chunk in circle if chunk[0] <= z.dlog() // (q - 1)]
                else:
                    assert sums_calls == circle
                sums_calls.clear()
                exh = is_permutation_exhaustive(expand_decomposition(r, h, ext), big)
                assert exh.is_permutation == crit.is_permutation
                if exh.is_permutation:
                    continue
                rejected += 1
                hit = exh.witness[1].dlog()
                c = next(i for i, (k0, size) in enumerate(chunks) if hit < k0 + size)
                past_first += c > 0
                assert sums_calls[:c + 1] == list(chunks[:c + 1])
                assert all(chunk[1] == _CHUNK_MAX and chunk in chunks[:c]
                           for chunk in sums_calls[c + 1:])
            assert rejected > 30 and past_first > 0
            # z -> z * (g^k)^(q-1) is injective on the circle: two calls
            sums_calls.clear()
            assert criterion_check(1, SparsePolynomial(big, [(0, big.gen_pow(5))]), ext).circle_ok
            assert sums_calls == circle

    def test_agreement_over_small_grids(self):
        # both verdicts on every emitted (r, h) at q in {3, 4, 5}; zero mismatches
        cases = [
            ("Q1", get_ext(5, 1)), ("Q2a", get_ext(5, 1)),
            ("Q3", get_ext(3, 1)), ("Q4b", get_ext(3, 1)),
            ("P2", get_ext(2, 2)), ("P5", get_ext(2, 2)), ("B2", get_ext(2, 2)),
        ]
        for family, ext in cases:
            for params in param_grid(family, ext, GridLimits(max_count=120)):
                built = build_family(family, params, ext)
                rep = verify_both(built.r, built.h, built.poly, ext)
                assert rep.is_permutation, (family, params)


class TestCircleRoots:
    def test_constant_h(self, ext25):
        h = SparsePolynomial(ext25.big, {0: ext25.big.one()})
        assert h_no_circle_root(h, ext25) == (True, None)

    def test_x_minus_one(self, ext25):
        h = SparsePolynomial(ext25.big, {1: ext25.big.one(), 0: -ext25.big.one()})
        ok, root = h_no_circle_root(h, ext25)
        assert not ok and root.enc == 1

    def test_worked_parameters_rootless(self, ext25):
        built = q1_worked_build(ext25)
        assert h_no_circle_root(built.h, ext25) == (True, None)


class TestCircleMapIdentity:
    def test_cubic_conjugate_fraction(self, ext25):
        # z^3 h(z)^(q-1) = (D0^q z^3 + D1^q z^2 + D2^q z + D3^q) / h(z) on the circle
        q = ext25.q
        for params in param_grid("Q1", ext25, GridLimits(max_count=200)):
            d0, d1, d2, d3 = coeffs(params, ext25)
            for z in ext25.circle_members():
                h_val = d3 * z**3 + d2 * z**2 + d1 * z + d0
                lhs = z**3 * h_val ** (q - 1)
                rhs = (d0**q * z**3 + d1**q * z**2 + d2**q * z + d3**q) / h_val
                assert lhs == rhs


class TestDecompose:
    def test_family_shape(self, ext25):
        built = q1_worked_build(ext25)
        r, h = decompose(built.poly, ext25)
        assert r == 3 and h == built.h

    def test_mixed_residues_not_decomposable(self, ext25):
        big = ext25.big
        f = SparsePolynomial(big, {2: big.one(), 1: big.one()})  # X^2 + X, q > 3
        assert decompose(f, ext25) is None

    def test_round_trip_over_grids(self):
        cases = [
            ("Q1", get_ext(5, 1)), ("Q2b", get_ext(5, 1)), ("Q2c", get_ext(5, 1)),
            ("Q4c", get_ext(3, 1)), ("P3", get_ext(2, 2)), ("B2", get_ext(2, 2)),
        ]
        for family, ext in cases:
            r_fam = FAMILIES[family].r(ext.q)
            for params in param_grid(family, ext, GridLimits(max_count=80)):
                built = build_family(family, params, ext)
                r, h = decompose(built.poly, ext)
                assert (r - r_fam) % (ext.q - 1) == 0
                assert 1 <= r <= ext.q - 1
                assert expand_decomposition(r, h, ext) == built.poly
                # the re-decomposed pair passes the same criterion verdict
                assert criterion_check(r, h, ext).is_permutation

    def test_constant_term_rejected(self, ext25):
        big = ext25.big
        f = SparsePolynomial(big, {3: big.one(), 0: big.one()})
        assert decompose(f, ext25) is None
