"""JSON forms for fields, elements, polynomials, reports and catalog entries.

Field descriptor: {"p": int, "modulus": [c0..cn] least degree first,
"generator": [coords]} (generator optional on input).  Elements serialize as
{"pow": k} for nonzero (preferred) or {"coords": [...]}; both are accepted
on input.  JSONL catalog entries round-trip bit-exact.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from .errors import InvariantViolation, MalformedOperand, ZeroInput
from .families import BuiltFamily, ConstructionParams
from .fields import FieldCtx, FieldElement, QuadExtension, quad_extension
from .polynomials import SparsePolynomial
from .verify import PermutationReport


def ext_to_json(ext: QuadExtension) -> dict:
    big = ext.big
    return {
        "p": big.p,
        "modulus": list(big.modulus),
        "generator": list(big.generator.coords()),
    }


def int_list(v, what: str) -> list[int]:
    """v when it is a list of integers, else MalformedOperand naming what."""
    if not isinstance(v, list) or not all(isinstance(c, int) for c in v):
        raise MalformedOperand(f"{what} must be a list of integers, not {v!r}")
    return v


def field_desc(d: dict):
    """(p, modulus, generator or None) of a field descriptor, shape-checked."""
    if not isinstance(d, dict) or not isinstance(d.get("p"), int):
        raise MalformedOperand(f"field descriptor needs an integer p: {d!r}")
    gen = d.get("generator")
    return (d["p"], int_list(d.get("modulus"), "modulus"),
            None if gen is None else int_list(gen, "generator"))


def ext_from_json(d: dict) -> QuadExtension:
    p, modulus, gen = field_desc(d)
    n = len(modulus) - 1
    if n % 2 != 0:
        raise ZeroInput("quadratic-extension descriptor needs even degree")
    return quad_extension(p, n // 2, modulus, generator=gen)


def element_to_json(x: FieldElement) -> dict:
    if x.enc == 0:
        return {"coords": list(x.coords())}
    return {"pow": x.dlog()}


def element_from_json(d: dict, ctx: FieldCtx) -> FieldElement:
    if isinstance(d, dict):
        k = d.get("pow")
        if isinstance(k, int):
            return ctx.gen_pow(k)
        if k is None:
            return ctx.element(int_list(d.get("coords"), "element coords"))
    raise MalformedOperand(f'element must be {{"pow": int}} or {{"coords": [...]}}, not {d!r}')


def poly_to_json(f: SparsePolynomial) -> dict:
    return {"terms": [[e, element_to_json(c)] for e, c in f.sorted_terms()]}


def poly_from_json(d: dict, ctx: FieldCtx) -> SparsePolynomial:
    terms = d.get("terms") if isinstance(d, dict) else None
    pairs = []
    for t in terms if isinstance(terms, list) else [None]:  # None fails the check
        if not (isinstance(t, list) and len(t) == 2 and isinstance(t[0], int)):
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
    provenance: str  # "paper-example" | "grid" | "user"

    def __post_init__(self):
        if self.report.method != "both" or not self.report.is_permutation:
            # a tuple that passed validation permutes: failing here is a defect
            raise InvariantViolation("catalog entries must verify as permutations by both methods")


def entry_to_json(entry: CatalogEntry) -> dict:
    built = entry.built
    return {
        "field": ext_to_json(entry.ext),
        "family": built.family,
        "params": params_to_json(built.params),
        "poly": poly_to_json(built.poly),
        "r": built.r,
        "h": poly_to_json(built.h),
        "term_count": built.term_count,
        "report": report_to_json(entry.report),
        "provenance": entry.provenance,
    }


def dumps_line(d: dict) -> str:
    """Canonical single-line JSON (sorted keys) for JSONL streams."""
    return json.dumps(d, sort_keys=True, separators=(",", ":"))


def entry_to_csv_row(d: dict) -> str:
    """Spreadsheet-friendly flattening: exponent:pow-of-g pairs."""
    flat = []
    for e, c in d["poly"]["terms"]:
        if "pow" in c:
            flat.append(f"{e}:g^{c['pow']}")
        else:
            flat.append(f"{e}:{c['coords']}")
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
