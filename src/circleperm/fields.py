"""Exact arithmetic in GF(p^n) with an explicit modulus and primitive element.

Elements are encoded as integers: the coordinate vector (c0, ..., c_{n-1})
over Z_p, read as digits base p, gives enc = sum(c_i * p**i).  For p = 2 the
encoding coincides with the usual bitmask representation of GF(2)[x]:
addition is xor and table-free multiplication runs on shift/xor.  Odd p
multiplies table-free by Kronecker substitution: digit i moves to bits
[B*i, B*i + B), one integer product holds the polynomial product, and the
coefficients above X^(n-1) fold back in by precomputed rows.

Fields of order up to EXHAUSTIVE_CAP (2^20) get compact arrays, with
m = order - 1 standing for the log of zero: exp (k -> g^k, and exp[m] = 0),
log (enc -> k, and log[0] = m), for odd p the Zech logarithms zech
(k -> log(1 + g^k)), typecode "H" up to order 2^16 (every entry is <= m) and
"i" above: only what the field's own arithmetic reads, zech only once it
does.  Multiplication adds logs, and odd-p addition is
g^a + g^b = g^(a + zech[b - a]) (K. Huber, "Some comments on Zech's
logarithms", IEEE Trans. Inf. Theory 36(4), 1990), so both are O(1) table
lookups; p = 2 adds by xor and needs no zech.  exp and log are built with
the field, and zech by the first table-path add (_zech_table): the
exhaustive and criterion checks and the QM keys read exp and log only.  For
the modulus root g = X, exp is built in bulk (_root_powers): W lanes packed
in one int start at X^(jL) and step x -> x*X together, one strided slice of
exp per step.  For p = 2 a lane is an exp item and W = 2^floor(n/2).  For
odd p a lane is a word of digit lanes (_lane_total's format, that of
verify's run tables), W = p^ceil(n/2), a step adds the top digit times
X^n bit by bit (_lane_walk), and radix rounds make each step's words
encodings; verify builds its run table from the same walk.  exp is walked
once, for any generator, and log and zech are each one pass over it.
That walk closing after m steps and reaching every nonzero element proves
the root primitive, so a tabled root is tested no other way; any other
generator steps by the table-free product.  Larger fields use table-free
arithmetic: one digit codec (enc_to_coords, coords_to_enc), a digit-wise
sum, one product mod the modulus and one square-and-multiply loop, which
_Ring holds so that the modulus search can run them before a field exists;
no order cap is enforced on arithmetic.  Irreducibility comes from the same powers in
Z_p[X]/(f), with no division or gcd: a primitive modulus root (or supplied
generator) proves it, and only one that is not primitive runs Rabin's test
(is_irreducible).  EXHAUSTIVE_CAP is the one cap on tables, exhaustive
work, parameter grids and QM equivalence, and check_cap is the one check
of it; it takes the order, so a command refuses before it builds a field.
Every field that passes has tables.  verify re-exports EXHAUSTIVE_CAP.

GF(p^n)* is cyclic of order m = p^n - 1, so every structural question is a
question about it: an element is primitive iff x^m = 1 and x^(m/r) != 1 for
each prime r | m (order_factors: m split into the cyclotomic values
Phi_d(p), d | n, each split by Pollard's rho into parts that Miller-Rabin
proves prime or composite; a probable prime at or above _MR_PROVEN has no
proof and is refused with CapExceeded), FieldCtx.subgroup(k) lists
{x : x^k = 1} for k | m, and FieldCtx.is_power(x, k) tests
x^(m/gcd(k, m)) = 1.  The quadratic-extension
view GF(q^2)/GF(q) lives in QuadExtension: the unit circle is the
order-(q+1) subgroup, GF(q)* the order-(q-1) one, and is_power_sub runs
the power test in GF(q)*.
"""

from __future__ import annotations

import functools
import itertools
import math
import sys
from array import array

from .errors import (
    CapExceeded,
    CtxMismatch,
    DivisionByZero,
    InvariantViolation,
    NotIrreducible,
    NotMonic,
    NotPrime,
    ZeroInput,
)

EXHAUSTIVE_CAP = 1 << 20


def check_cap(order: int) -> None:
    """Refuse exhaustive work, grids and QM on fields above EXHAUSTIVE_CAP."""
    if order > EXHAUSTIVE_CAP:
        raise CapExceeded(f"field order {order} above EXHAUSTIVE_CAP {EXHAUSTIVE_CAP}")


# ---------------------------------------------------------------------------
# integer helpers


# Miller-Rabin on the first 13 primes decides primality below the least
# strong pseudoprime to all of them (J. Sorenson and J. Webster, "Strong
# pseudoprimes to twelve prime bases", Math. Comp. 86, 2017)
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_PROVEN = 3317044064679887385961981

_RHO_BATCH = 128  # rho steps per gcd
_ZECH_RUN = 1 << 8  # zech entries per list in its build: bounds its peak


def is_prime(n: int) -> bool:
    """Miller-Rabin on _MR_BASES.  A base that fails proves n composite at
    any size, and passing every base proves n prime below _MR_PROVEN; a
    number at or above it that passes every base has no proof here and is
    refused with CapExceeded."""
    if n < 2:
        return False
    if n in _MR_BASES:
        return True
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    if n >= _MR_PROVEN:
        raise CapExceeded(f"{n} passes Miller-Rabin on all {len(_MR_BASES)} bases, which "
                          f"proves primality only below {_MR_PROVEN}")
    return True


def _rho(n: int) -> int:
    """A proper divisor of the odd composite n: Pollard's rho on x -> x^2 + c
    with Brent's cycle finding (R. P. Brent, BIT 20, 1980), the next c when a
    walk closes without splitting n.

    y runs ahead of x, which is saved at each power of two r; the
    differences x - y of up to _RHO_BATCH steps are multiplied mod n and
    take one gcd.  A batch whose gcd is n is walked again from its start,
    one difference and gcd at a time, to find the step that split n.
    """
    for c in itertools.count(1):
        y, r, prod, d = 2, 1, 1, 1
        while d == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and d == 1:
                start = y
                for _ in range(min(_RHO_BATCH, r - k)):
                    y = (y * y + c) % n
                    prod = prod * (x - y) % n
                d = math.gcd(prod, n)
                k += _RHO_BATCH
            r *= 2
        if d == n:
            y, d = start, 1
            while d == 1:
                y = (y * y + c) % n
                d = math.gcd(x - y, n)
        if d != n:
            return d


@functools.lru_cache(maxsize=None)
def prime_factors(n: int) -> tuple[int, ...]:
    """Distinct prime divisors of n, ascending, once per n: split by Pollard's
    rho, each part proven prime or composite by is_prime, so the factors are
    exact, and a part that is_prime refuses refuses n."""
    out, parts = set(), [n]
    while parts:
        k = parts.pop()
        if k > 1 and is_prime(k):
            out.add(k)
        elif k > 1:
            d = 2 if k % 2 == 0 else _rho(k)
            parts += [d, k // d]
    return tuple(sorted(out))


@functools.lru_cache(maxsize=None)
def order_factors(p: int, n: int) -> tuple[int, ...]:
    """Distinct prime divisors of p^n - 1, ascending, once per (p, n).

    p^n - 1 is the product of the cyclotomic values Phi_d(p) over d | n,
    and prime_factors splits each alone, so a large prime of one reaches
    is_prime whole and is never split by rho from another's: 2^178 - 1 is
    (2^89 - 1) * (2^89 + 1), and 2^89 + 1 holds the prime 18584774046020617,
    about 10^8 rho steps away from 2^89 - 1 in one part.
    """
    phi = {}
    for d in range(1, n + 1):
        if n % d == 0:
            phi[d] = (p**d - 1) // math.prod(v for e, v in phi.items() if d % e == 0)
    return tuple(sorted({r for v in phi.values() for r in prime_factors(v)}))


def is_irreducible(modulus, p) -> bool:
    """Monic modulus f of degree n irreducible over Z_p, by Rabin's test on
    powers in R = Z_p[X]/(f) (M. O. Rabin, "Probabilistic algorithms in
    finite fields", SIAM J. Comput. 9(2), 1980).

    X^(p^n) = X makes R a product of fields GF(p^d) with d | n.  Then f is
    irreducible iff, for each prime r | n, u = X^(p^(n/r)) - X is a unit of
    R, i.e. u^(p^n - 1) = 1: Rabin's gcd(u, f) = 1 without a division.
    """
    n = len(modulus) - 1
    if n <= 0:
        return False
    ring = _Ring(p, modulus)
    frob = [ring._root_enc()]  # X^(p^k) for k = 0..n
    for _ in range(n):
        frob.append(ring._pow(frob[-1], p))
    if frob[n] != frob[0]:
        return False
    return all(ring._pow(ring._add(frob[n // r], frob[0], -1), ring.order - 1) == 1
               for r in prime_factors(n))


def _square_multiply(a: int, e: int, mul) -> int:
    """a^e for e >= 0 by the product mul, on a form where 1 is the int 1."""
    r = 1
    while e:
        if e & 1:
            r = mul(r, a) if r != 1 else a
        e >>= 1
        if e:
            a = mul(a, a)
    return r


# ---------------------------------------------------------------------------


class _Ring:
    """Z_p[X]/(modulus) for a monic modulus of degree n >= 1, irreducible or
    not: encodings, the table-free sum and product, and square-and-multiply.
    The modulus search and is_irreducible run them before a field exists."""

    def __init__(self, p: int, modulus):
        self.p = p
        self.n = len(modulus) - 1
        self.modulus = tuple(modulus)
        self.order = p**self.n
        if p == 2:
            self._modmask = sum(c << i for i, c in enumerate(modulus))
            return
        # X^n == -(c_{n-1} X^{n-1} + ... + c_0)
        n, head = self.n, tuple((-c) % p for c in modulus[:-1])
        self._head = head
        # Kronecker forms (_mul_kron): digit i in bits [B*i, B*i + B).  A
        # product's coefficient is below n(p-1)^2, and its reduction adds at
        # most n - 1 more multiples of (p-1)^2
        B = ((2 * n - 1) * (p - 1) ** 2).bit_length()
        self._kb, self._kmask, self._krounds = B, (1 << B) - 1, _radix_rounds(p, n, B)
        self._kshifts = tuple(range(0, B * n, B))
        # X^(n+i) mod the modulus for i = 0..n-2, each X times the one before:
        # that product reads only X^n
        self._krows = [sum(c << B * i for i, c in enumerate(head))]
        for _ in range(n - 2):
            self._krows.append(self._mul_kron(self._krows[-1], 1 << B))

    def enc_to_coords(self, enc: int) -> tuple[int, ...]:
        p = self.p
        out = []
        for _ in range(self.n):
            enc, r = divmod(enc, p)
            out.append(r)
        return tuple(out)

    def coords_to_enc(self, coords) -> int:
        if len(coords) > self.n:
            raise ValueError("coordinate vector longer than extension degree")
        p = self.p
        enc = 0
        for c in reversed(list(coords)):
            enc = enc * p + c % p
        return enc

    def _add(self, a: int, b: int, s: int = 1) -> int:
        """a + s*b, digit by digit."""
        return self.coords_to_enc([x + s * y for x, y in zip(self.enc_to_coords(a),
                                                             self.enc_to_coords(b))])

    def _mul_generic(self, a: int, b: int) -> int:
        """a*b mod the modulus: shift-and-xor for p = 2, else one product
        of Kronecker forms (_mul_kron)."""
        if self.p != 2:
            return self._from_kron(self._mul_kron(self._to_kron(a), self._to_kron(b)))
        n = self.n
        mask = self._modmask
        top = 1 << n
        r = 0
        while b:
            if b & 1:
                r ^= a
            b >>= 1
            a <<= 1
            if a & top:
                a ^= mask
        return r

    def _to_kron(self, enc: int) -> int:
        """The Kronecker form of an encoding: its digit i in bits [B*i, B*i + B)."""
        p, B, k, s = self.p, self._kb, 0, 0
        while enc:
            enc, c = divmod(enc, p)
            k |= c << s
            s += B
        return k

    def _from_kron(self, k: int) -> int:
        """The encoding of a Kronecker form whose digits are below p, by
        radix rounds (_radix_rounds)."""
        for gb, low, high, mult in self._krounds:
            k = (k & low) + (k >> gb & high) * mult
        return k

    def _mul_kron(self, a: int, b: int) -> int:
        """The product of two Kronecker forms (odd p) by Kronecker
        substitution (D. Harvey, "Faster polynomial multiplication via
        multipoint Kronecker substitution", J. Symbolic Comput. 44, 2009):
        one integer product holds the 2n - 1 coefficients of the polynomial
        product, each below n(p-1)^2.  Coefficient n + i, taken mod p, adds
        that multiple of X^(n+i) mod the modulus (_krows), and every digit
        is then taken mod p."""
        c, B, p, mask = a * b, self._kb, self.p, self._kmask
        acc, c = c & (1 << B * self.n) - 1, c >> B * self.n
        for row in self._krows:
            acc += (c & mask) % p * row
            c >>= B
        out = 0
        for s in self._kshifts:
            out |= (acc >> s & mask) % p << s
        return out

    def _pow(self, a: int, e: int) -> int:
        """a^e for e >= 0 on the table-free product.  Odd p keeps the chain
        in Kronecker form, so a and the result convert once."""
        if self.p == 2:
            return _square_multiply(a, e, self._mul_generic)
        return self._from_kron(_square_multiply(self._to_kron(a), e, self._mul_kron))

    def _root_enc(self) -> int:
        """The modulus root: the constant -c_0 when n = 1, else digits (0, 1)."""
        return (-self.modulus[0]) % self.p if self.n == 1 else self.p

    def _is_primitive(self, a: int) -> bool:
        """a has multiplicative order m = p^n - 1: a^m = 1, and a^(m/r) != 1
        for every prime r | m.  A ring that is not a field has fewer than m
        units, so no element passes there, and a root that passes proves its
        modulus irreducible (Lidl-Niederreiter, Finite Fields, Thm 3.16)."""
        m = self.order - 1
        return self._pow(a, m) == 1 and all(self._pow(a, m // r) != 1
                                            for r in order_factors(self.p, self.n))


# ---------------------------------------------------------------------------
# digit lanes: the packed odd-p format of the table build and of verify's
# run tables


def _lane_width(p: int) -> int:
    """w = p.bit_length() + 1: a w-bit lane holds one digit sum below 2p."""
    return p.bit_length() + 1


def _lane_typecode(p: int, n: int) -> str:
    """The smallest of "B", "H", "I", "Q" (1, 2, 4, 8 bytes) that holds n
    lanes of w bits."""
    return "BHIQ"[((n * _lane_width(p) + 7) // 8 - 1).bit_length()]


def _ones(words: int, bits: int) -> int:
    """1 in each of `words` words of `bits` bits."""
    return ((1 << bits * words) - 1) // ((1 << bits) - 1)


@functools.lru_cache(maxsize=None)
def _radix_rounds(p: int, n: int, w: int) -> tuple:
    """(g*w, low, high, p^g) for g = 1, 2, 4, ... < n: round g folds pairs
    of g-digit groups of w-bit digits (digit i in bits [w*i, w*i + w)) into
    low + high * p^g, as (x & low) + (x >> g*w & high) * p^g; the high mask
    only where the partner is one of the n digits.  Digits below p make an
    encoding.  The masks are one word's; packed words take them times
    _ones."""
    def per_word(digits):
        return sum((1 << w) - 1 << w * i for i in digits)
    rounds, g = [], 1
    while g < n:
        low = [i for i in range(n) if i // g % 2 == 0]
        rounds.append((g * w, per_word(low), per_word([i for i in low if i + g < n]), p**g))
        g *= 2
    return tuple(rounds)


def _lane_total(p: int, n: int, words: int, bits: int):
    """total(runs, points) sums runs of up to `words` lane words of `bits`
    bits lane-wise mod p into packed encodings.  Word j of a run is in its
    bits [bits*j, bits*j + bits), and digit i of a word in the word's bits
    [w*i, w*i + w).  Two digits (< 2p) fit in a lane, and (acc + C) & H
    sets its top bit where the sum is >= p.  _radix_rounds then make
    encodings."""
    rep = _ones(words, bits)
    w = _lane_width(p)
    rounds = [(gw, low * rep, high * rep, mult) for gw, low, high, mult in _radix_rounds(p, n, w)]
    c_all, h = (sum(v << w * i for i in range(n)) * rep for v in ((1 << w - 1) - p, 1 << w - 1))

    def total(runs, points):
        acc, c = 0, c_all >> (words - points) * bits
        for run in runs:
            acc += run
            acc -= (((acc + c) & h) >> w - 1) * p
        for gw, low, high, mult in rounds:
            acc = (acc & low) + ((acc >> gw) & high) * mult
        return acc
    return total


class FieldElement:
    """An element of a FieldCtx; immutable, hashable, operator-overloaded."""

    __slots__ = ("ctx", "enc")

    def __init__(self, ctx: "FieldCtx", enc: int):
        self.ctx = ctx
        self.enc = enc

    # -- representation ----------------------------------------------------

    def coords(self) -> tuple[int, ...]:
        return self.ctx.enc_to_coords(self.enc)

    def dlog(self):
        """Discrete log base the field generator, or None for zero."""
        if self.enc == 0:
            return None
        return self.ctx.log_enc(self.enc)

    def __str__(self):
        if self.enc == 0:
            return "0"
        return f"g^{self.dlog()}"

    def __repr__(self):
        return f"<{self} of GF({self.ctx.p}^{self.ctx.n})>"

    def __eq__(self, other):
        if isinstance(other, FieldElement):
            return self.ctx is other.ctx and self.enc == other.enc
        if isinstance(other, int):
            return self.enc == self.ctx.from_int(other).enc
        return NotImplemented

    def __hash__(self):
        return hash((id(self.ctx), self.enc))

    def __bool__(self):
        return self.enc != 0

    # -- arithmetic ---------------------------------------------------------

    def _coerce(self, other) -> "FieldElement":
        if isinstance(other, FieldElement):
            if other.ctx is not self.ctx:
                raise CtxMismatch("operands belong to different field contexts")
            return other
        if isinstance(other, int):
            return self.ctx.from_int(other)
        return NotImplemented

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return FieldElement(self.ctx, self.ctx.add_enc(self.enc, other.enc))

    __radd__ = __add__

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return FieldElement(self.ctx, self.ctx.sub_enc(self.enc, other.enc))

    def __rsub__(self, other):
        return (-self).__add__(other)

    def __neg__(self):
        return FieldElement(self.ctx, self.ctx.neg_enc(self.enc))

    def __mul__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return FieldElement(self.ctx, self.ctx.mul_enc(self.enc, other.enc))

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self * other.inverse()

    def __rtruediv__(self, other):
        return self.inverse() * other

    def __pow__(self, e: int):
        return FieldElement(self.ctx, self.ctx.pow_enc(self.enc, e))

    def inverse(self) -> "FieldElement":
        if self.enc == 0:
            raise DivisionByZero("inverse of zero")
        return FieldElement(self.ctx, self.ctx.pow_enc(self.enc, -1))


class FieldCtx(_Ring):
    """GF(p^n) = Z_p[X]/(modulus), with a distinguished primitive element.

    The generator is the supplied one, else the modulus root when that root
    is primitive (generator_is_root records which), else the smallest
    primitive element in encoding order.  A reducible modulus raises
    NotIrreducible, also with a supplied generator; a supplied generator
    that is not primitive raises ZeroInput.
    """

    def __init__(self, p: int, modulus, generator=None):
        if not is_prime(p):
            raise NotPrime(f"{p} is not prime")
        modulus = [c % p for c in modulus]
        if len(modulus) < 2:
            raise NotMonic("modulus must have degree >= 1")
        if modulus[-1] != 1:
            raise NotMonic("modulus must be monic")
        super().__init__(p, modulus)
        # every table path keys on _log; pow_enc runs table-free until it is set
        self._exp = self._log = self._zech = None
        tabled = self.order <= EXHAUSTIVE_CAP
        if generator is None and tabled:
            # the root's walk proves it primitive, with no separate test
            self.generator_is_root, self.generator = True, FieldElement(self, self._root_enc())
            if self._build_tables():
                return
        gen_enc, self.generator_is_root = self._pick_generator(generator)
        self.generator = FieldElement(self, gen_enc)
        if tabled and not self._build_tables():
            raise InvariantViolation("the generator's orbit does not cover the field")

    # -- encoding -----------------------------------------------------------

    def element(self, coords) -> FieldElement:
        return FieldElement(self, self.coords_to_enc(coords))

    def from_int(self, k: int) -> FieldElement:
        """Embed an integer through the prime subfield."""
        return FieldElement(self, k % self.p)

    def from_enc(self, enc: int) -> FieldElement:
        return FieldElement(self, enc)

    def zero(self) -> FieldElement:
        return FieldElement(self, 0)

    def one(self) -> FieldElement:
        return FieldElement(self, 1)

    def gen_pow(self, k: int) -> FieldElement:
        return FieldElement(self, self.exp_enc(k))

    def elements(self):
        """All field elements: zero first, then ascending generator powers."""
        yield self.zero()
        for x in itertools.islice(self._orbit(), self.order - 1):
            yield FieldElement(self, x)

    # -- raw encoded arithmetic ----------------------------------------------

    def add_enc(self, a: int, b: int) -> int:
        if self.p == 2:
            return a ^ b
        if self._log is not None:
            if a == 0 or b == 0:
                return a or b
            m = self.order - 1
            la = self._log[a]
            z = (self._zech or self._zech_table())[(self._log[b] - la) % m]
            return 0 if z == m else self._exp[(la + z) % m]
        return self._add(a, b)

    def sub_enc(self, a: int, b: int) -> int:
        if self.p == 2:
            return a ^ b
        return self.add_enc(a, self.neg_enc(b))

    def neg_enc(self, a: int) -> int:
        if self.p == 2:
            return a
        if self._log is not None:
            m = self.order - 1  # -1 = g^(m/2)
            return self._exp[(self._log[a] + m // 2) % m] if a else 0
        return self._add(0, a, -1)

    def mul_enc(self, a: int, b: int) -> int:
        if self._log is not None:
            if a == 0 or b == 0:
                return 0
            return self._exp[(self._log[a] + self._log[b]) % (self.order - 1)]
        return self._mul_generic(a, b)

    def pow_enc(self, a: int, e: int) -> int:
        if a == 0:
            if e == 0:
                return 1
            if e < 0:
                raise DivisionByZero("inverse of zero")
            return 0
        m = self.order - 1
        e %= m
        if self._log is not None:
            return self._exp[self._log[a] * e % m]
        return self._pow(a, e)

    def log_enc(self, a: int) -> int:
        if a == 0:
            raise ZeroInput("discrete log of zero")
        if self._log is not None:
            return self._log[a]
        # generic fallback: walk the generator orbit (large fields only)
        for k, x in zip(range(self.order - 1), self._orbit()):
            if x == a:
                return k
        raise ZeroInput("element not in the generator orbit (corrupt ctx)")

    def exp_enc(self, k: int) -> int:
        if self._exp is not None:
            return self._exp[k % (self.order - 1)]
        return self.pow_enc(self.generator.enc, k)

    # -- construction internals ----------------------------------------------

    def _pick_generator(self, generator):
        """A primitive first choice (the supplied generator, else the root)
        proves the modulus irreducible; only otherwise does is_irreducible run."""
        root = self._root_enc()
        enc = root if generator is None else (generator.enc if isinstance(generator, FieldElement)
                                              else self.coords_to_enc(generator))
        if self._is_primitive(enc):
            return enc, enc == root
        if not is_irreducible(self.modulus, self.p):
            raise NotIrreducible(f"modulus {list(self.modulus)} is reducible over GF({self.p})")
        if generator is not None:
            raise ZeroInput("supplied generator is not primitive")
        for enc in range(1, self.order):
            if self._is_primitive(enc):
                return enc, False
        raise InvariantViolation("no primitive element found (unreachable)")

    def _orbit(self):
        """1, g, g^2, ... without end, by the table-free product."""
        x, g = 1, self.generator.enc
        while True:
            yield x
            x = self._mul_generic(x, g)

    def _build_tables(self) -> bool:
        """exp and log, kept only if g is primitive: its orbit closes after
        m steps and the inverse pass reaches every nonzero element, which
        also proves the modulus irreducible.  exp comes from _root_powers
        when g is the modulus root, else from the orbit; log is one inverse
        pass over exp.  Odd p's zech waits for the first add (_zech_table)."""
        m = self.order - 1
        typecode = "H" if self.order <= 1 << 16 else "i"  # every entry is <= m
        exp = array(typecode, [0]) * (m + 1)
        if self.generator_is_root:
            self._root_powers(exp)
        else:
            for k, x in zip(range(m + 1), self._orbit()):
                exp[k] = x
        if exp[m] != 1:  # the orbit does not close after m steps
            return False
        exp[m] = 0
        log = array(typecode, [m]) * self.order  # m: zero, or not reached
        for k, x in enumerate(exp):
            log[x] = k
        if log.count(m) != 1:  # it misses a nonzero element
            return False
        self._exp, self._log = exp, log
        return True

    def _zech_table(self) -> array:
        """zech[k] = log(1 + g^k), m for 0 (odd p, tabled), built on the
        first read: one pass over exp, _ZECH_RUN entries at a time so that
        no list of m ints exists."""
        if self._zech is None:
            exp, log, m, p = self._exp, self._log, self.order - 1, self.p
            zech = array(exp.typecode, [0]) * m
            for k0 in range(0, m, _ZECH_RUN):  # 1 + x only bumps digit 0 of x
                zech[k0:k0 + _ZECH_RUN] = array(exp.typecode, [
                    log[x + 1 - p if x % p == p - 1 else x + 1]
                    for x in exp[k0:min(k0 + _ZECH_RUN, m)]])
            self._zech = zech
        return self._zech

    def _root_powers(self, exp):
        """exp[k] = g^k for k <= m, with g the modulus root X: a run of
        x -> x*X.  W lanes packed in one int start at g^(jL), W*L = order,
        and step together; after step i lane j holds g^(jL + i), and
        exp[i::L] takes them all in one strided slice.

        p = 2: W = 2^floor(n/2) lanes of exp's item size, a step a shift
        that adds the low modulus bits where the top bit was set.  Odd p:
        _lane_walk, in lane words at least as wide as exp's items.
        """
        p, n, order = self.p, self.n, sys.byteorder
        if p != 2:
            self._lane_walk(exp, max(exp.typecode, _lane_typecode(p, n), key="BHiIQ".index), True)
            return
        W, L = p ** (n // 2), p ** ((n + 1) // 2)
        bits = 8 * exp.itemsize
        top = _ones(W, bits) << n - 1  # in every lane
        low = self._modmask ^ self.order
        g_L, starts = self._pow(self._root_enc(), L), [1]
        for _ in range(W - 1):
            starts.append(self._mul_generic(starts[-1], g_L))
        x, lanes = int.from_bytes(array(exp.typecode, starts), order), array(exp.typecode)
        for i in range(L):
            lanes.frombytes(x.to_bytes(W * exp.itemsize, order))
            exp[i::L] = lanes
            del lanes[:]
            t = x & top
            x = (x ^ t) << 1 ^ (t >> n - 1) * low

    def _lane_walk(self, out, typecode: str, encode: bool):
        """out[k] = X^k for k < order (odd p): as encodings when encode,
        else as lane words (_lane_total's format) in out, of `typecode`.

        W = p^ceil(n/2) lane words in words of `typecode`, packed in one
        int, start at X^(jL), L = order/W, and take L steps x -> x*X
        together; before step i word j holds X^(jL + i), and out[i::L]
        takes them all, made encodings first by _radix_rounds (of an
        encoding in a wider word, its low item of out's type).

        A step shifts every word's digits up one, the top digit t out, and
        adds t*head: for each bit b of t, (t >> b & 1) times one word's
        H_b = 2^b*head mod p, each addend followed by one lane-wise
        reduction below p, so ceil(log2 p) addends a step.

        The starts are W - 1 Kronecker products and a step costs a few
        integer operations on all W words, so W trades starts for steps.
        Over p^e lanes, e = 0 .. n - 1, on odd fields up to GF(3^12) and
        GF(31^4), e = n/2 built every even-degree field fastest; for odd n,
        e = (n + 1)/2 was fastest at n = 3 (GF(27) in 0.062 against 0.069 ms
        at e = 1, on a 2-core VM) and within 8 % of e = (n - 1)/2 above.
        """
        p, n, order = self.p, self.n, sys.byteorder
        W, bits, w = p ** ((n + 1) // 2), 8 * array(typecode).itemsize, _lane_width(p)
        ones, shift, every = _ones(W, bits), w * (n - 1), _ones(n, w)  # every: each digit's 1
        c1, h1 = ((1 << w - 1) - p) * every, (1 << w - 1) * every  # total's C and H in one word
        hb, heads = sum(a << w * i for i, a in enumerate(self._head)), []
        for _ in range((p - 1).bit_length()):
            heads.append(hb)
            hb <<= 1
            hb -= ((hb + c1 & h1) >> w - 1) * p
        # the starts X^(jL) in Kronecker form, spread from B-bit to w-bit digits
        mask = self._kmask
        g_L = _square_multiply(self._to_kron(self._root_enc()), self.order // W, self._mul_kron)
        starts, spread = array(typecode, [1]), list(zip(self._kshifts, range(0, w * n, w)))
        for x in itertools.accumulate(itertools.repeat(g_L, W - 1), self._mul_kron):
            word = 0
            for kb, lw in spread:
                word |= (x >> kb & mask) << lw
            starts.append(word)
        digits, top, c, h = ((1 << shift) - 1) * ones, ((1 << w) - 1) * ones, c1 * ones, h1 * ones
        rounds = [(gw, low * ones, high * ones, mult)
                  for gw, low, high, mult in _radix_rounds(p, n, w) if encode]
        k = bits // 8 // out.itemsize  # out's items a word, the low one first on little-endian
        first, L = 0 if order == "little" else k - 1, self.order // W
        x, words = int.from_bytes(starts, order), array(out.typecode)
        for i in range(L):
            y = x
            for gw, low, high, mult in rounds:
                y = (y & low) + (y >> gw & high) * mult
            words.frombytes(y.to_bytes(W * bits // 8, order))
            out[i::L] = words[first::k] if k > 1 else words
            del words[:]
            t, x = x >> shift & top, (x & digits) << w
            for b, hb in enumerate(heads):
                x += (t >> b & ones) * hb
                x -= ((x + c & h) >> w - 1) * p

    # -- the cyclic group GF(p^n)* ---------------------------------------------

    def subgroup(self, k: int) -> list[FieldElement]:
        """{x : x^k = 1} for k | order - 1, as [g^(j(order-1)/k) for j < k]."""
        step = self.exp_enc((self.order - 1) // k)
        out, x = [], 1
        for _ in range(k):
            out.append(FieldElement(self, x))
            x = self.mul_enc(x, step)
        if x != 1:
            raise InvariantViolation(f"the order-{k} subgroup walk did not close")
        return out

    def is_power(self, x: FieldElement, k: int) -> bool:
        """x != 0 a k-th power in GF(p^n)."""
        self._own(x)
        return _is_power(self, x, k, self.order - 1)

    def _own(self, x: FieldElement):
        if not isinstance(x, FieldElement) or x.ctx is not self:
            raise CtxMismatch("element does not belong to this field context")

    def __repr__(self):
        return f"FieldCtx(GF({self.p}^{self.n}), modulus={list(self.modulus)})"


# ---------------------------------------------------------------------------


def field_create(p: int, modulus, generator=None) -> FieldCtx:
    """Create GF(p^n) from a monic irreducible modulus (least degree first)."""
    return FieldCtx(p, modulus, generator=generator)


def _is_power(ctx: FieldCtx, x: FieldElement, k: int, m: int) -> bool:
    """x in the cyclic group of order m is a k-th power: x^(m/gcd(k, m)) = 1."""
    if x.enc == 0:
        raise ZeroInput("power test needs a nonzero input")
    return ctx.pow_enc(x.enc, m // math.gcd(k, m)) == 1


def canonical_modulus(p: int, n: int) -> list[int]:
    """Deterministic default modulus for GF(p^n).

    The minimal primitive polynomial under the signed-word order (compare
    ((-1)^(n-i) a_i mod p) for i = n-1 .. 0, lexicographically), with the
    constant coefficient pinned so the root's norm to GF(p) is the least
    primitive root mod p.  This matches the generators the worked examples
    are expressed in for the small fields that ship without a modulus.
    A candidate is kept when its root is primitive in Z_p[X]/(candidate),
    which also proves the candidate irreducible.
    """
    if not is_prime(p):
        raise NotPrime(f"{p} is not prime")
    zp = _Ring(p, [0, 1])  # Z_p, the integer k encoded as k
    r = next(k for k in range(1, p) if zp._is_primitive(k))
    a0 = (-1) ** n * r % p
    # the words (w_{n-1}, ..., w_1) ascending lexicographically, as a base-p
    # counter with w_1 its lowest digit, one at a time
    for word in range(p ** (n - 1)):
        coeffs = [a0] + [(-1) ** (n - i) * (word // p ** (i - 1) % p) % p for i in range(1, n)] + [1]
        ring = _Ring(p, coeffs)
        if ring._is_primitive(ring._root_enc()):
            return coeffs
    raise InvariantViolation(f"no primitive polynomial of degree {n} over GF({p})")


class QuadExtension:
    """GF(q^2) over GF(q) with q = p^m: subfield and unit-circle structure."""

    def __init__(self, p: int, m: int, modulus=None, generator=None):
        if m < 1:
            raise ValueError(f"m = {m}: the subfield GF(p^m) needs m >= 1")
        if modulus is None:
            modulus = canonical_modulus(p, 2 * m)
        if len(modulus) - 1 != 2 * m:
            raise NotMonic(f"modulus degree {len(modulus) - 1} != 2m = {2 * m}")
        self.big = field_create(p, modulus, generator=generator)
        self.m = m
        self.q = p**m
        self._mu = None
        self._sub = None

    # -- membership ----------------------------------------------------------

    def in_subfield(self, x: FieldElement) -> bool:
        """x in GF(q), i.e. x^q == x."""
        self.big._own(x)
        if x.enc == 0:
            return True
        return self.big.pow_enc(x.enc, self.q) == x.enc

    def on_circle(self, x: FieldElement) -> bool:
        """x in the unit circle, i.e. x^(q+1) == 1."""
        self.big._own(x)
        if x.enc == 0:
            return False
        return self.big.pow_enc(x.enc, self.q + 1) == 1

    # -- enumerations ----------------------------------------------------------

    def circle_members(self) -> list[FieldElement]:
        """The unit circle, the order-(q+1) subgroup: [g^(k(q-1)) for k = 0..q]."""
        if self._mu is None:
            self._mu = self.big.subgroup(self.q + 1)
        return list(self._mu)

    def subfield_members(self) -> list[FieldElement]:
        """[0, gq^0, gq^1, ...] with gq = g^(q+1) generating GF(q)*."""
        if self._sub is None:
            self._sub = [self.big.zero(), *self.big.subgroup(self.q - 1)]
        return list(self._sub)

    # -- subfield-relative predicates -----------------------------------------

    def is_power_sub(self, x: FieldElement, k: int) -> bool:
        """x a k-th power inside GF(q) (x must lie in the subfield, nonzero)."""
        if not self.in_subfield(x):
            raise CtxMismatch("element is not in the subfield")
        return _is_power(self.big, x, k, self.q - 1)

    def __repr__(self):
        return f"QuadExtension(GF({self.q}^2)/GF({self.q}))"


def quad_extension(p: int, m: int, modulus=None, generator=None) -> QuadExtension:
    return QuadExtension(p, m, modulus=modulus, generator=generator)
