"""JSON forms for fields, elements, polynomials, reports and catalog entries,
and the text forms of elements and parameter tuples.

Field descriptor: {"p": int, "modulus": [c0..cn] least degree first,
"generator": [coords]} (generator optional on input).  Elements serialize as
{"pow": k} for nonzero (preferred) or {"coords": [...]}; both are accepted
on input.  JSONL catalog entries round-trip bit-exact.  As text, an element
is "g^k" or "g" (generator power, "-g^k" its negative), a plain integer
(prime-subfield embedding, negatives allowed) or a coordinate vector
"[c0,c1,...]"; construct's options and the worked examples use this form.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from .errors import InvariantViolation, MalformedOperand
from .families import BuiltFamily, ConstructionParams, derive_beta_t
from .fields import FieldCtx, FieldElement, QuadExtension
from .polynomials import SparsePolynomial
from .verify import PermutationReport


def ext_to_json(ext: QuadExtension) -> dict:
    big = ext.big
    return {
        "p": big.p,
        "modulus": list(big.modulus),
        "generator": list(big.generator.coords()),
    }


def _is_int(v) -> bool:
    """v is a JSON integer: bool subclasses int, but true and false are not."""
    return isinstance(v, int) and not isinstance(v, bool)


def int_list(v, what: str) -> list[int]:
    """v when it is a list of integers, else MalformedOperand naming what."""
    if not isinstance(v, list) or not all(_is_int(c) for c in v):
        raise MalformedOperand(f"{what} must be a list of integers, not {v!r}")
    return v


def field_desc(d: dict):
    """(p, n, modulus, generator or None) of a field descriptor of GF(p^n),
    shape-checked."""
    if not isinstance(d, dict) or not _is_int(d.get("p")):
        raise MalformedOperand(f"field descriptor needs an integer p: {d!r}")
    gen = d.get("generator")
    modulus = int_list(d.get("modulus"), "modulus")
    return d["p"], len(modulus) - 1, modulus, None if gen is None else int_list(gen, "generator")


def element_to_json(x: FieldElement) -> dict:
    if x.enc == 0:
        return {"coords": list(x.coords())}
    return {"pow": x.dlog()}


def element_from_json(d: dict, ctx: FieldCtx) -> FieldElement:
    if isinstance(d, dict):
        k = d.get("pow")
        if _is_int(k):
            return ctx.gen_pow(k)
        if k is None:
            return ctx.element(int_list(d.get("coords"), "element coords"))
    raise MalformedOperand(f'element must be {{"pow": int}} or {{"coords": [...]}}, not {d!r}')


def parse_element(text: str, ext: QuadExtension) -> FieldElement:
    """The element of GF(q^2) that text names, in the text form above."""
    big = ext.big
    s = text.strip()
    neg = False
    if s.startswith("-g"):
        s = s[1:]
        neg = True
    if s == "g":
        out = big.generator
    elif s.startswith("g^"):
        out = big.gen_pow(int(s[2:]))
    elif s.startswith("["):
        out = big.element(int_list(json.loads(s), "element coords"))
    else:
        out = big.from_int(int(s))
    return -out if neg else out


def params_from_text(family: str, beta: str, delta: str, delta_t: str, aux: str | None,
                     ext: QuadExtension) -> ConstructionParams:
    """The tuple of elements written as text; aux may be None or empty, and
    beta_t is derived from beta."""
    b = parse_element(beta, ext)
    return ConstructionParams(
        family, b, derive_beta_t(family, b), parse_element(delta, ext),
        parse_element(delta_t, ext), parse_element(aux, ext) if aux else None,
    )


def poly_to_json(f: SparsePolynomial, elem=element_to_json) -> dict:
    """{"terms": [[exp, element], ...]}, each element's form made by elem."""
    return {"terms": [[e, elem(c)] for e, c in f.sorted_terms()]}


def poly_from_json(d: dict, ctx: FieldCtx) -> SparsePolynomial:
    terms = d.get("terms") if isinstance(d, dict) else None
    exp = ctx._exp
    if exp is not None and type(terms) is list:
        # a tabled field's [exp >= 0, {"pow": k}] terms with distinct
        # exponents, in one pass; any other line takes the checked route
        m, clean = ctx.order - 1, {}
        for t in terms:
            if type(t) is not list or len(t) != 2:
                break
            e, c = t
            if type(e) is not int or e < 0 or e in clean or type(c) is not dict:
                break
            k = c.get("pow")
            if type(k) is not int:
                break
            clean[e] = FieldElement(ctx, exp[k % m])
        else:
            f = SparsePolynomial(ctx)
            f.terms = clean
            return f
    pairs = []
    for t in terms if isinstance(terms, list) else [None]:  # None fails the check
        if not (isinstance(t, list) and len(t) == 2 and _is_int(t[0])):
            raise MalformedOperand(f'polynomial must be {{"terms": [[exp, element], ...]}}, not {d!r}')
        pairs.append((t[0], element_from_json(t[1], ctx)))
    return SparsePolynomial(ctx, pairs)


def report_to_json(rep: PermutationReport) -> dict:
    out = {"is_permutation": rep.is_permutation, "method": rep.method}
    if rep.gcd_ok is not None:
        out["gcd_ok"] = rep.gcd_ok
    if rep.circle_ok is not None:
        out["circle_ok"] = rep.circle_ok
    if rep.witness is not None:
        out["witness"] = [element_to_json(w) for w in rep.witness]
    return out


def params_to_json(params: ConstructionParams) -> dict:
    out = {
        "family": params.family,
        "beta": element_to_json(params.beta),
        "beta_t": element_to_json(params.beta_t),
        "delta": element_to_json(params.delta),
        "delta_t": element_to_json(params.delta_t),
    }
    if params.aux is not None:
        out["aux"] = element_to_json(params.aux)
    return out


def params_from_json(d: dict, ext: QuadExtension) -> ConstructionParams:
    big = ext.big
    aux = d.get("aux")
    return ConstructionParams(
        family=d["family"],
        beta=element_from_json(d["beta"], big),
        beta_t=element_from_json(d["beta_t"], big),
        delta=element_from_json(d["delta"], big),
        delta_t=element_from_json(d["delta_t"], big),
        aux=element_from_json(aux, big) if aux is not None else None,
    )


@dataclass
class CatalogEntry:
    ext: QuadExtension
    built: BuiltFamily
    report: PermutationReport
    provenance: str  # "grid" | "user"

    def __post_init__(self):
        if self.report.method != "both" or not self.report.is_permutation:
            # a tuple that passed validation permutes: failing here is a defect
            raise InvariantViolation("catalog entries must verify as permutations by both methods")


def entry_to_json(entry: CatalogEntry) -> dict:
    """The catalog line's dict.  h's coefficients reappear in poly, so each
    distinct coefficient is serialized once and its form shared: one dlog."""
    built = entry.built
    forms = {}

    def elem(x: FieldElement) -> dict:
        form = forms.get(x.enc)
        if form is None:
            form = forms[x.enc] = element_to_json(x)
        return form

    return {
        "field": ext_to_json(entry.ext),
        "family": built.family,
        "params": params_to_json(built.params),
        "poly": poly_to_json(built.poly, elem),
        "r": built.r,
        "h": poly_to_json(built.h, elem),
        "term_count": built.term_count,
        "report": report_to_json(entry.report),
        "provenance": entry.provenance,
    }


# every dict dumped is built per call and holds no cycle (entry_to_json only
# shares coefficient forms between h and poly)
_LINE = json.JSONEncoder(sort_keys=True, separators=(",", ":"), check_circular=False)


def dumps_line(d: dict) -> str:
    """Canonical single-line JSON (sorted keys) for JSONL streams."""
    return _LINE.encode(d)


def entry_to_csv_row(d: dict) -> str:
    """Spreadsheet-friendly flattening: exponent:pow-of-g pairs."""
    flat = [f"{e}:g^{c['pow']}" for e, c in d["poly"]["terms"]]
    return ",".join(
        [
            d["family"],
            str(d["field"]["p"]),
            str(len(d["field"]["modulus"]) - 1),
            str(d["r"]),
            str(d["term_count"]),
            str(d["report"]["is_permutation"]),
            " ".join(flat),
        ]
    )


CSV_HEADER = "family,p,n,r,term_count,is_permutation,terms"
