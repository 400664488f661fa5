"""Sparse polynomials over one field, and the cubic shape X^3 + X + alpha.

SparsePolynomial stores only nonzero terms (exponent -> coefficient) and
never reduces exponents implicitly; reduce_exponents is a separate, explicit
operation that preserves the induced function on the field.
"""

from __future__ import annotations

from .errors import CtxMismatch
from .fields import FieldCtx, FieldElement


def reduce_exponent(e: int, m: int) -> int:
    """(e - 1) mod m + 1 for e >= 1, and 0 for e = 0, with m = order - 1.

    x^e and x^reduce_exponent(e, m) agree at every x of the field: nonzero x
    has x^m = 1, and a positive exponent stays positive, so x = 0 agrees too.
    """
    return (e - 1) % m + 1 if e else 0


class SparsePolynomial:
    """Finitely many (exponent -> nonzero coefficient) pairs over one ctx."""

    __slots__ = ("ctx", "terms")

    def __init__(self, ctx: FieldCtx, terms=None):
        self.ctx = ctx
        clean = {}
        if terms:
            for e, c in terms.items() if isinstance(terms, dict) else terms:
                if e < 0:
                    raise ValueError("negative exponent")
                if c.ctx is not ctx:
                    raise CtxMismatch("coefficient from a different ctx")
                if c.enc != 0:
                    acc = clean.get(e)
                    c = c if acc is None else acc + c
                    if c.enc:
                        clean[e] = c
                    else:
                        clean.pop(e, None)
        self.terms = clean

    # -- structure -----------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def degree(self) -> int:
        return max(self.terms) if self.terms else -1

    def sorted_terms(self):
        """[(exponent, coefficient)] by descending exponent."""
        return sorted(self.terms.items(), reverse=True)  # exponents are distinct

    def coeff(self, e: int) -> FieldElement:
        return self.terms.get(e, self.ctx.zero())

    def canonical_key(self):
        """Total-order key: (degree, ((exp, enc) descending))."""
        pairs = sorted([(e, c.enc) for e, c in self.terms.items()], reverse=True)
        return (pairs[0][0] if pairs else -1, tuple(pairs))

    def __eq__(self, other):
        if not isinstance(other, SparsePolynomial):
            return NotImplemented
        return self.ctx is other.ctx and self.terms == other.terms

    def __hash__(self):
        return hash((id(self.ctx), frozenset((e, c.enc) for e, c in self.terms.items())))

    def __str__(self):
        if not self.terms:
            return "0"
        parts = []
        for e, c in self.sorted_terms():
            cs = str(c)
            if e == 0:
                parts.append(cs)
            else:
                xs = "X" if e == 1 else f"X^{e}"
                parts.append(xs if c.enc == 1 else f"{cs}*{xs}")
        return " + ".join(parts)

    __repr__ = __str__

    # -- evaluation ----------------------------------------------------------

    def eval(self, x: FieldElement) -> FieldElement:
        if x.ctx is not self.ctx:
            raise CtxMismatch("evaluation point from a different ctx")
        return FieldElement(self.ctx, self.eval_enc(x.enc))

    def eval_enc(self, a: int) -> int:
        """Encoding of the value at the element encoded by a (0 included:
        pow_enc(0, 0) = 1 keeps the constant term)."""
        ctx = self.ctx
        acc = 0
        for e, c in self.terms.items():
            acc = ctx.add_enc(acc, ctx.mul_enc(c.enc, ctx.pow_enc(a, e)))
        return acc

    def reduce_exponents(self) -> "SparsePolynomial":
        """Apply reduce_exponent with m = order - 1; preserves the induced
        function on the field.  Colliding images are merged.  A polynomial
        already reduced is returned itself (terms are never mutated)."""
        m = self.ctx.order - 1
        if max(self.terms, default=0) <= m:
            return self
        pairs = [(reduce_exponent(e, m), c) for e, c in self.terms.items()]
        return SparsePolynomial(self.ctx, pairs)


# ---------------------------------------------------------------------------
# cubic shape X^3 + X + alpha over GF(2^m)


def irreducible_cubic_alphas(xs: list[FieldElement]) -> list[FieldElement]:
    """The alpha among xs, the elements of one field, with X^3 + X + alpha
    irreducible over it (degree 3: no root among xs), in xs order."""
    image = cubic_image(xs)
    return [x for x in xs if x.enc not in image]


def cubic_image(xs) -> set[int]:
    """Encodings of -(x^3 + x) over xs: X^3 + X + alpha has a root among xs
    iff alpha.enc is in the set."""
    return {(-(x**3 + x)).enc for x in xs}
