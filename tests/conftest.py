import contextlib
import functools
import math

import pytest

from circleperm.fields import field_create, quad_extension
from circleperm.polynomials import reduce_exponent
from circleperm.qm import QmResult

# moduli the worked examples fix explicitly, least degree first
MOD_2_6 = [1, 1, 0, 1, 1, 0, 1]  # X^6+X^4+X^3+X+1
MOD_5_6 = [2, 0, 1, 1, 1, 0, 1]  # X^6+X^4+X^3+X^2+2
MOD_3_8 = [2, 2, 2, 0, 1, 2, 0, 0, 1]  # X^8+2X^5+X^4+2X^2+2X+2
MOD_3_4 = [2, 0, 0, 2, 1]  # X^4+2X^3+2
MOD_2_12 = [1, 1, 0, 1, 0, 1, 1, 1, 0, 0, 0, 0, 1]  # X^12+X^7+X^6+X^5+X^3+X+1
MOD_2_16 = [1, 0, 1, 1, 0, 1] + [0] * 10 + [1]  # X^16+X^5+X^3+X^2+1


@functools.lru_cache(maxsize=None)
def get_ext(p, m, modulus=None):
    return quad_extension(p, m, list(modulus) if modulus else None)


@functools.lru_cache(maxsize=None)
def get_field(p, n, modulus=None):
    from circleperm.fields import canonical_modulus

    mod = list(modulus) if modulus else canonical_modulus(p, n)
    return field_create(p, mod)


def schoolbook_mul(ring, a, b):
    """a*b in Z_p[X]/(modulus), digit by digit: the schoolbook product of
    the coordinate vectors, then X^n = -(c_{n-1} X^{n-1} + ... + c_0) from
    the top coefficient down.  The oracle for the packed product and for
    the tables the root walk builds."""
    p, n = ring.p, ring.n
    prod = [0] * (2 * n - 1)
    for i, ai in enumerate(ring.enc_to_coords(a)):
        for j, bj in enumerate(ring.enc_to_coords(b)):
            prod[i + j] = (prod[i + j] + ai * bj) % p
    head = [(-c) % p for c in ring.modulus[:-1]]
    for i in range(2 * n - 2, n - 1, -1):
        c, prod[i] = prod[i], 0
        for j, hj in enumerate(head):
            prod[i - n + j] = (prod[i - n + j] + c * hj) % p
    return ring.coords_to_enc(prod[:n])


def schoolbook_pow(ring, a, e):
    """a^e by square-and-multiply on schoolbook_mul."""
    r = 1
    while e:
        if e & 1:
            r = schoolbook_mul(ring, r, a)
        a = schoolbook_mul(ring, a, a)
        e >>= 1
    return r


@contextlib.contextmanager
def tables_off(ctx):
    """Run ctx on its table-free arithmetic, as fields above EXHAUSTIVE_CAP
    do: digit-wise add through the one digit codec, shift/xor or Kronecker
    mul.  Encodings do not depend on the tables, so the two paths compare.
    ctx is changed in place (cached fields are shared) and restored.  An
    odd-p field's Zech table is built first (_zech_table), so the block
    hides, and gets back, all of its tables."""
    if ctx._log is not None and ctx.p != 2:
        ctx._zech_table()
    tables = ctx._exp, ctx._log, ctx._zech
    ctx._exp = ctx._log = ctx._zech = None
    try:
        yield
    finally:
        ctx._exp, ctx._log, ctx._zech = tables


@pytest.fixture(scope="session")
def ext25():
    return get_ext(5, 1)


@pytest.fixture(scope="session")
def ext9():
    return get_ext(3, 1)


@pytest.fixture(scope="session")
def ext16():
    return get_ext(2, 2)


@pytest.fixture(scope="session")
def ext64():
    return get_ext(2, 3, tuple(MOD_2_6))


@pytest.fixture(scope="session")
def ext81():
    return get_ext(3, 2, tuple(MOD_3_4))


def qm_search_oracle(f, g, ext):
    """Decide f ~ g by brute force, the oracle for the key-based qm_equivalent:
    every unit d ascending, every v = g^y, u solved from g's first term and
    every term compared.  The first (u, v, d) found is the witness."""
    big = ext.big
    m = big.order - 1
    f = f.reduce_exponents()
    g_terms = g.reduce_exponents().sorted_terms()
    e1, c1 = g_terms[0]
    for d in range(1, m):
        if math.gcd(d, m) != 1:
            continue
        t1 = f.terms.get(reduce_exponent(e1 * d, m))
        if t1 is None or len(f.terms) != len(g_terms):
            continue
        if len(g_terms) == 1:  # u*c1 = t1 for any v; v = 1 keeps the witness canonical
            return QmResult(True, (t1 / c1, big.one(), d))
        if reduce_exponent(g_terms[1][0] * d, m) not in f.terms:
            continue
        for v in (big.gen_pow(y) for y in range(m)):
            u = t1 / (c1 * v**e1)
            if all(f.terms.get(reduce_exponent(e * d, m)) == u * c * v**e
                   for e, c in g_terms[1:]):
                return QmResult(True, (u, v, d))
    return QmResult(False)


def h_no_circle_root(h, ext):
    """(True, None) when h vanishes nowhere on the unit circle, else the root."""
    for z in ext.circle_members():
        if h.eval_enc(z.enc) == 0:
            return False, z
    return True, None
