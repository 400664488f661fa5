"""Reproduction harness: the twelve worked example instances.

Each case pins a field (stated modulus where one was given, canonical
otherwise), construction parameters, and the expected expanded coefficients.
Expected values are embedded; the harness is deterministic and offline.

The Q1/q=125 case is a known defect in its source: under its stated modulus
no valid parameter tuple produces the quoted coefficients and the quoted
polynomial is not a permutation (see the build notes).  The harness keeps
the quoted values as `expected`, reports the mismatch, and additionally pins
the coefficients our construction provably yields there, so regressions in
either direction are caught.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .families import ConstructionParams, build_family, derive_beta_t
from .fields import QuadExtension, quad_extension
from .verify import verify_both


@dataclass
class ReproCase:
    name: str
    p: int
    m: int
    family: str
    modulus: list[int] | None  # None = canonical
    beta: object  # element spec, see _resolve
    delta: object
    delta_t: object
    aux: object = None
    expected: list = field(default_factory=list)  # [(exp_fn(q), coeff spec)]
    known_defect: bool = False
    built_pin: list = field(default_factory=list)  # regression pin for defects


@dataclass
class ReproResult:
    case: ReproCase
    q: int
    generator_is_root: bool
    coefficients_match: bool
    is_permutation: bool
    passed: bool
    built_terms: dict
    expected_terms: dict
    report: object


def _resolve(spec, ext: QuadExtension):
    big = ext.big
    q = ext.q
    if spec is None:
        return None
    kind, val = spec
    if kind == "int":
        return big.from_int(val)
    if kind == "pow":
        return big.gen_pow(val if isinstance(val, int) else val(q))
    if kind == "coords":
        return big.element(val)
    if kind == "sum_pow":  # sum of generator powers, exponents as fns of q
        acc = big.zero()
        for f in val:
            acc = acc + big.gen_pow(f(q))
        return acc
    raise ValueError(f"unknown element spec {spec}")


CASES: list[ReproCase] = [
    ReproCase(
        "Q1/q=5", 5, 1, "Q1", None,
        beta=("int", -1), delta=("pow", 1), delta_t=("pow", 1),
        expected=[
            (lambda q: 3 * q, ("coords", [3, 3])),
            (lambda q: 2 * q + 1, ("coords", [0, 3])),
            (lambda q: q + 2, ("coords", [1, 1])),
            (lambda q: 3, ("coords", [2])),
        ],
    ),
    ReproCase(
        "Q1/q=125", 5, 3, "Q1", [2, 0, 1, 1, 1, 0, 1],
        beta=("int", -1), delta=("pow", 14078), delta_t=("pow", 6470),
        expected=[
            (lambda q: 3 * q, ("pow", 12017)),
            (lambda q: 2 * q + 1, ("pow", 9477)),
            (lambda q: q + 2, ("pow", 10055)),
            (lambda q: 3, ("pow", 7976)),
        ],
        known_defect=True,
        built_pin=[
            (lambda q: 3 * q, ("pow", 13497)),
            (lambda q: 2 * q + 1, ("pow", 13444)),
            (lambda q: q + 2, ("pow", 10412)),
            (lambda q: 3, ("pow", 8257)),
        ],
    ),
    ReproCase(
        "Q2a/q=8", 2, 3, "Q2a", [1, 1, 0, 1, 1, 0, 1],
        beta=("int", 1), delta=("pow", 1), delta_t=("pow", 1),
        expected=[
            (lambda q: q * q - q + 1, ("coords", [1, 0, 0, 1, 0, 1])),
            (lambda q: 2 * q - 1, ("coords", [0, 1, 0, 1])),
            (lambda q: q, ("coords", [1, 1, 0, 0, 1, 1])),
            (lambda q: 1, ("coords", [0, 0, 1, 0, 0, 1])),
        ],
    ),
    ReproCase(
        "Q3/q=3", 3, 1, "Q3", None,
        beta=("int", 2), delta=("pow", 1), delta_t=("pow", 1), aux=("int", 2),
        expected=[
            (lambda q: 2 * q + 1, ("coords", [1, 1])),
            (lambda q: q + 2, ("coords", [2, 2])),
            (lambda q: 3, ("coords", [1, 2])),
            (lambda q: 1, ("coords", [1, 2])),  # 3q = 9 reduces to 1 mod 8
        ],
    ),
    ReproCase(
        "Q3/q=81", 3, 4, "Q3", [2, 2, 2, 0, 1, 2, 0, 0, 1],
        beta=("int", -1), delta=("pow", 4898), delta_t=("pow", 332),
        aux=("pow", lambda q: q + 1),
        expected=[
            (lambda q: 3 * q, ("pow", 1523)),
            (lambda q: 2 * q + 1, ("pow", 1681)),
            (lambda q: q + 2, ("pow", 4961)),
            (lambda q: 3, ("pow", 3736)),
        ],
    ),
    ReproCase(
        "Q4c/q=9", 3, 2, "Q4c", [2, 0, 0, 2, 1],
        beta=("int", 1), delta=("pow", 1), delta_t=("pow", 1),
        aux=("pow", lambda q: q + 1),
        expected=[
            (lambda q: 3 * q, ("coords", [1, 1])),
            (lambda q: 2 * q + 1, ("coords", [1, 1, 0, 1])),
            (lambda q: q + 2, ("coords", [1, 1, 0, 1])),
            (lambda q: 3, ("coords", [2, 0, 1, 1])),
        ],
    ),
    ReproCase(
        "P1/q=4", 2, 2, "P1", None,
        beta=("int", 1), delta=("pow", 3), delta_t=("pow", 3), aux=("int", 1),
        expected=[
            (lambda q: 3 * q + 1, ("coords", [1, 1, 1])),
            (lambda q: 2 * q + 2, ("coords", [1])),
            (lambda q: q + 3, ("coords", [1, 1, 1])),
            (lambda q: 4, ("coords", [1, 0, 1])),
            (lambda q: 1, ("coords", [1, 1])),  # 4q = 16 reduces to 1 mod 15
        ],
    ),
    ReproCase(
        "P1/q=256", 2, 8, "P1", [1, 0, 1, 1, 0, 1] + [0] * 10 + [1],
        beta=("int", 1), delta=("pow", 321), delta_t=("pow", 47351),
        aux=("sum_pow", [lambda q: q + 1, lambda q: (q + 1) * (q - 2)]),
        expected=[
            (lambda q: 4 * q, ("pow", 8722)),
            (lambda q: 3 * q + 1, ("pow", 48830)),
            (lambda q: 2 * q + 2, ("pow", 53713)),
            (lambda q: q + 3, ("pow", 48830)),
            (lambda q: 4, ("pow", 47311)),
        ],
    ),
    ReproCase(
        "P4/q=4", 2, 2, "P4", None,
        beta=("pow", 3), delta=("pow", 1), delta_t=("pow", 1), aux=("coords", [0, 1, 1]),
        expected=[
            (lambda q: 3 * q + 1, ("coords", [1, 0, 1])),
            (lambda q: 2 * q + 2, ("coords", [0, 1, 1, 1])),
            (lambda q: q + 3, ("coords", [1, 0, 0, 1])),
            (lambda q: 4, ("coords", [0, 0, 1, 1])),
            (lambda q: 1, ("coords", [1, 0, 1, 1])),
        ],
    ),
    ReproCase(
        "P4/q=64", 2, 6, "P4", [1, 1, 0, 1, 0, 1, 1, 1, 0, 0, 0, 0, 1],
        beta=("pow", 3087), delta=("pow", 3894), delta_t=("pow", 3990),
        aux=("pow", lambda q: q + 1),
        expected=[
            (lambda q: 4 * q, ("pow", 28)),
            (lambda q: 3 * q + 1, ("pow", 3477)),
            (lambda q: 2 * q + 2, ("pow", 2469)),
            (lambda q: q + 3, ("pow", 1461)),
            (lambda q: 4, ("pow", 3107)),
        ],
    ),
    ReproCase(
        "B1/q=4", 2, 2, "B1", None,
        beta=("pow", 3), delta=("pow", 1), delta_t=("pow", 3),
        expected=[
            (lambda q: q * q - q + 2, ("coords", [0, 0, 1, 1])),
            (lambda q: 3 * q - 1, ("coords", [1, 1, 0, 1])),
        ],
    ),
    ReproCase(
        "B1/q=256", 2, 8, "B1", [1, 0, 1, 1, 0, 1] + [0] * 10 + [1],
        beta=("pow", 31110), delta=("pow", 53660), delta_t=("pow", 33334),
        expected=[
            (lambda q: q * q - q + 2, ("pow", 34047)),
            (lambda q: 3 * q - 1, ("pow", 53717)),
        ],
    ),
]


_EXT_CACHE: dict = {}


def case_extension(case: ReproCase) -> QuadExtension:
    key = (case.p, case.m, tuple(case.modulus) if case.modulus else None)
    if key not in _EXT_CACHE:
        _EXT_CACHE[key] = quad_extension(case.p, case.m, case.modulus)
    return _EXT_CACHE[key]


def expected_terms(case: ReproCase, ext: QuadExtension, pins=None) -> dict:
    q = ext.q
    out = {}
    for exp_fn, coeff_spec in (pins if pins is not None else case.expected):
        out[exp_fn(q)] = _resolve(coeff_spec, ext)
    return out


def run_case(case: ReproCase) -> ReproResult:
    ext = case_extension(case)
    big = ext.big
    beta = _resolve(case.beta, ext)
    params = ConstructionParams(
        case.family, beta, derive_beta_t(case.family, beta),
        _resolve(case.delta, ext), _resolve(case.delta_t, ext),
        _resolve(case.aux, ext),
    )
    built = build_family(case.family, params, ext)
    report = verify_both(built.r, built.h, built.poly, ext)
    exp = expected_terms(case, ext)
    match = built.poly.terms == exp
    return ReproResult(
        case=case,
        q=ext.q,
        generator_is_root=big.generator_is_root,
        coefficients_match=match,
        is_permutation=report.is_permutation,
        passed=match and report.is_permutation,
        built_terms=built.poly.terms,
        expected_terms=exp,
        report=report,
    )


def run_all() -> list[ReproResult]:
    return [run_case(c) for c in CASES]


def format_results(results: list[ReproResult]) -> str:
    lines = []
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        mod = "stated" if r.case.modulus else "canonical"
        lines.append(
            f"{status}  {r.case.name:<12} modulus={mod:<9} "
            f"root_primitive={str(r.generator_is_root):<5} "
            f"coeff_match={str(r.coefficients_match):<5} "
            f"permutation={r.is_permutation}"
        )
        if not r.passed and r.case.known_defect:
            lines.append(
                "      ^ known source defect: quoted coefficients are not "
                "producible from the quoted parameters under the quoted "
                "modulus, and the quoted polynomial is not a permutation; "
                "the constructed polynomial above is a verified permutation."
            )
    return "\n".join(lines)
