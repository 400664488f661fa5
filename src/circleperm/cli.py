"""Command-line surface.

Subcommands: construct, verify, qm-test, qm-classify, repro, field-info.
Exit codes: 0 success / true verdict, 1 false verdict, 2 input error,
3 a stated limit: a field order above EXHAUSTIVE_CAP (2^20, fixed;
field-info is the one command that runs above it), or a prime to prove at
or above 3317044064679887385961981, where Miller-Rabin on 13 bases stops
being a proof (p itself, or a prime factor of p^n - 1), 4 internal error
(an invariant failed; never a verdict).

Field elements on the command line: "g^k" (generator power), plain integers
(prime-subfield embedding, negatives allowed), or coordinate vectors
"[c0,c1,...]".  JSON operands are inline when they start with '{', else
treated as file paths.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import repro as repro_mod
from .errors import (
    CapExceeded,
    CirclepermError,
    InvalidParams,
    InvariantViolation,
    MalformedOperand,
    ZeroInput,
)
from .families import (
    FAMILIES,
    ConstructionParams,
    GridLimits,
    build_family,
    build_grid,
    derive_beta_t,
    field_violations,
    param_grid,
)
from .fields import FieldElement, QuadExtension, check_cap, field_create, quad_extension
from .qm import classify_catalog, qm_equivalent
from .serialize import (
    CSV_HEADER,
    CatalogEntry,
    dumps_line,
    element_to_json,
    entry_to_csv_row,
    entry_to_json,
    ext_to_json,
    field_desc,
    int_list,
    poly_from_json,
    report_to_json,
)
from .verify import decompose, is_permutation_exhaustive, verify_both


def parse_element(text: str, ext: QuadExtension) -> FieldElement:
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


def _load_json_operand(text: str) -> dict:
    s = text.strip()
    if s.startswith("{"):
        return json.loads(s)
    with open(s, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _field_spec(args):
    """(p, n, modulus or None, generator or None) of --field or
    --p/--m/--modulus: GF(p^n) and its order are known before it is built."""
    if getattr(args, "field", None):
        return field_desc(_load_json_operand(args.field))
    if args.p is None or args.m is None:
        raise CirclepermError("need --field or both --p and --m")
    modulus = (int_list(json.loads(args.modulus), "--modulus")
               if getattr(args, "modulus", None) else None)
    return args.p, 2 * args.m, modulus, None


def _quad(p, n, modulus, gen, capped=True) -> QuadExtension:
    """GF(p^n) as GF(q^2), q = p^(n/2); unless capped is False, an order
    above EXHAUSTIVE_CAP is refused before the field is built."""
    if capped:
        check_cap(p**n)
    if n % 2:
        raise ZeroInput("quadratic-extension descriptor needs even degree")
    return quad_extension(p, n // 2, modulus, gen)


def _add_field_args(sp):
    sp.add_argument("--field", help="field descriptor JSON (inline or path)")
    sp.add_argument("--p", type=int, help="characteristic")
    sp.add_argument("--m", type=int, help="subfield degree: the field is GF(p^2m)")
    sp.add_argument("--modulus", help="modulus coefficients JSON, least degree first")


def _emit(stream, text):
    stream.write(text + "\n")


def cmd_construct(args) -> int:
    ext = _quad(*_field_spec(args))
    # limits, operands, a grid's q and a single construction are checked
    # before --out is opened, so that a rejected run leaves it as it was
    limits = GridLimits(
        max_count=args.max_count,
        delta_stride=args.delta_stride,
        delta_t_stride=args.delta_t_stride,
    )
    if args.grid:
        violations = field_violations(args.family, ext)
        if violations:
            raise InvalidParams(violations)
        entries = construct_grid_entries(ext, args.family, limits)
    else:
        if not (args.beta and args.delta and args.delta_t):
            raise CirclepermError("single construction needs --beta, --delta, --delta-t")
        beta = parse_element(args.beta, ext)
        params = ConstructionParams(
            args.family,
            beta,
            derive_beta_t(args.family, beta),
            parse_element(args.delta, ext),
            parse_element(args.delta_t, ext),
            parse_element(args.aux, ext) if args.aux else None,
        )
        built = build_family(args.family, params, ext)
        report = verify_both(built.r, built.h, built.poly, ext)
        entries = [CatalogEntry(ext, built, report, "user")]
    out = open(args.out, "w", encoding="utf-8") if args.out else sys.stdout
    try:
        if args.format == "csv":
            _emit(out, CSV_HEADER)
        for entry in entries:
            line = entry_to_json(entry)
            _emit(out, entry_to_csv_row(line) if args.format == "csv" else dumps_line(line))
        return 0
    finally:
        if out is not sys.stdout:
            out.close()


def construct_grid_entries(ext, family, limits: GridLimits):
    """CatalogEntry stream in grid order.  param_grid yields only valid
    tuples, so build_grid builds them without a second check."""
    for built in build_grid(family, param_grid(family, ext, limits), ext):
        report = verify_both(built.r, built.h, built.poly, ext)
        yield CatalogEntry(ext, built, report, "grid")


def cmd_verify(args) -> int:
    p, n, modulus, gen = _field_spec(args)
    check_cap(p**n)
    # odd-degree descriptors run the exhaustive check only (no quad structure)
    ext = None if n % 2 else quad_extension(p, n // 2, modulus, gen)
    big = field_create(p, modulus, gen) if n % 2 else ext.big
    poly = poly_from_json(_load_json_operand(args.poly), big)
    reduced = poly.reduce_exponents()
    dec = decompose(reduced, ext) if ext is not None else None
    if dec is None:
        report = is_permutation_exhaustive(poly, big)
    else:
        report = verify_both(dec[0], dec[1], reduced, ext)
    _emit(sys.stdout, dumps_line(report_to_json(report)))
    return 0 if report.is_permutation else 1


def cmd_qm_test(args) -> int:
    ext = _quad(*_field_spec(args))
    f = poly_from_json(_load_json_operand(args.f), ext.big)
    g = poly_from_json(_load_json_operand(args.g), ext.big)
    res = qm_equivalent(f, g, ext)
    out = {
        "equivalent": res.equivalent,
        "d_candidates_examined": res.d_candidates_examined,
        "prefilter_rejected": res.prefilter_rejected,
    }
    if res.witness:
        u, v, d = res.witness
        out["witness"] = {"u": element_to_json(u), "v": element_to_json(v), "d": d}
    _emit(sys.stdout, dumps_line(out))
    return 0 if res.equivalent else 1


def cmd_qm_classify(args) -> int:
    # a line's JSON is dropped once its polynomial is read: a grid line also
    # carries params, h and a report
    ext, polys = None, []
    with open(args.catalog, "r", encoding="utf-8") as fh:
        for line in fh:
            if not line.strip():
                continue
            e = json.loads(line)
            if not isinstance(e, dict):
                raise MalformedOperand("every catalog line must be a JSON object")
            if ext is None:
                desc = e["field"]
                ext = _quad(*field_desc(desc))
            elif e["field"] != desc:
                raise CirclepermError("catalog mixes field descriptors")
            polys.append(poly_from_json(e["poly"], ext.big))
    if ext is None:
        raise CirclepermError("empty catalog")
    part = classify_catalog(polys, ext)
    _emit(
        sys.stdout,
        dumps_line({"classes": part.classes, "representatives": part.representatives}),
    )
    return 0


def cmd_repro(_args) -> int:
    results = repro_mod.run_all()
    print(repro_mod.format_results(results))
    failures = sum(1 for r in results if not r.passed)
    print(f"{len(results) - failures}/{len(results)} reproduction cases passed")
    return 1 if failures else 0


def cmd_field_info(args) -> int:
    ext = _quad(*_field_spec(args), capped=False)
    info = ext_to_json(ext)
    info["q"] = ext.q
    info["order"] = ext.big.order
    info["generator_is_root"] = ext.big.generator_is_root
    _emit(sys.stdout, dumps_line(info))
    return 0


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="circleperm",
        description="few-term permutation polynomials of GF(q^2) from circle bijections",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("construct", help="build one family instance or a whole grid")
    _add_field_args(sp)
    sp.add_argument("--family", required=True, choices=sorted(FAMILIES))
    sp.add_argument("--beta")
    sp.add_argument("--delta")
    sp.add_argument("--delta-t", dest="delta_t")
    sp.add_argument("--aux")
    sp.add_argument("--grid", action="store_true", help="emit every valid tuple")
    sp.add_argument("--max-count", type=int, default=None)
    sp.add_argument("--delta-stride", type=int, default=1)
    sp.add_argument("--delta-t-stride", type=int, default=1)
    sp.add_argument("--out")
    sp.add_argument("--format", choices=["jsonl", "csv"], default="jsonl")
    sp.set_defaults(func=cmd_construct)

    sp = sub.add_parser("verify", help="permutation verdict for a polynomial")
    _add_field_args(sp)
    sp.add_argument("--poly", required=True, help="polynomial JSON (inline or path)")
    sp.set_defaults(func=cmd_verify)

    sp = sub.add_parser("qm-test", help="quasi-multiplicative equivalence of f and g")
    _add_field_args(sp)
    sp.add_argument("--f", required=True)
    sp.add_argument("--g", required=True)
    sp.set_defaults(func=cmd_qm_test)

    sp = sub.add_parser("qm-classify", help="partition a catalog into QM classes")
    sp.add_argument("--catalog", required=True, help="JSONL catalog path")
    sp.set_defaults(func=cmd_qm_classify)

    sp = sub.add_parser("repro", help="rebuild the embedded worked examples")
    sp.set_defaults(func=cmd_repro)

    sp = sub.add_parser("field-info", help="describe a field context")
    _add_field_args(sp)
    sp.set_defaults(func=cmd_field_info)

    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except InvalidParams as exc:
        print(json.dumps({"violations": exc.violations}), file=sys.stderr)
        return 2
    except CapExceeded as exc:
        print(json.dumps({"error": str(exc)}), file=sys.stderr)
        return 3
    except InvariantViolation as exc:
        print(json.dumps({"error": f"internal error: {exc}"}), file=sys.stderr)
        return 4
    except (CirclepermError, OSError, ValueError, KeyError) as exc:
        print(json.dumps({"error": f"{type(exc).__name__}: {exc}"}), file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
