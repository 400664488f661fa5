"""The four benchmark workloads: grid, bigfield, classify, falsify.

Each workload builds its fields in `setup`, turns a seed into rounds of
units in `rounds`, and runs one unit through the program's public entry
points in `run`.  A unit's output lines go to a `Sink`, whose digest is
compared with the unit's pin in bench/data/<workload>.json (written by
bench/pin.py).  `rounds(seed)` yields rounds without end; every round of a
workload has the same composition, so the seed changes the inputs but not
the amount of work.

The program is called through module attributes (`cli.construct_grid_entries`,
`serialize.dumps_line`, ...) so that the traced run can wrap them.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import random
import re
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

from circleperm import cli, families, fields, qm, repro, serialize, verify
from circleperm.polynomials import SparsePolynomial

DATA = Path(__file__).resolve().parent / "data"

# Moduli the worked examples and the acceptance suite fix, least degree first.
MOD_2_6 = [1, 1, 0, 1, 1, 0, 1]
MOD_3_4 = [2, 0, 0, 2, 1]
MOD_2_12 = [1, 1, 0, 1, 0, 1, 1, 1, 0, 0, 0, 0, 1]
MOD_5_6 = [2, 0, 1, 1, 1, 0, 1]
MOD_2_16 = [1, 0, 1, 1, 0, 1] + [0] * 10 + [1]

# report.ms is wall-clock time inside catalog data, so two identical runs
# differ in it.  It is cut from every line before hashing; drop this once
# timings move out of the catalog (ROADMAP item 1).
_MS_FIELD = re.compile(r',"ms":[-+0-9.eE]+')


def strip_timing(line: str) -> str:
    return _MS_FIELD.sub("", line)


class Sink:
    """JSONL sink that hashes each line without its timing."""

    def __init__(self):
        self._hash = hashlib.blake2b(digest_size=16)

    def write(self, line: str):
        self._hash.update(strip_timing(line).encode())
        self._hash.update(b"\n")

    def digest(self) -> str:
        return self._hash.hexdigest()


def load_data(name: str) -> dict:
    with open(DATA / f"{name}.json", encoding="utf-8") as fh:
        return json.load(fh)


@dataclass
class Unit:
    """One call sequence of a workload, with the output it must produce."""

    key: str
    payload: object
    items: int  # items the unit must complete
    digest: str  # pinned digest of the unit's stripped output lines
    classes: int | None = None  # pinned QM class count, for a catalog
    # Units of one kind do the same amount of work, so a run takes the
    # median latency over a kind's repetitions; by default a unit is its own kind.
    kind: str = ""

    def __post_init__(self):
        self.kind = self.kind or self.key


@dataclass
class Outcome:
    latencies: list = field(default_factory=list)  # seconds, one per item
    digest: str = ""
    problem: str = ""  # why the output is wrong, empty when it is right


def execute(workload, unit: Unit) -> tuple[list, str, str]:
    """Run one unit: (item latencies, problem or "", output digest)."""
    sink = Sink()
    try:
        out = workload.run(unit, sink)
    except Exception as exc:  # a failed unit is counted, and the run goes on
        traceback.print_exc(file=sys.stderr)
        return [], f"{unit.key}: {type(exc).__name__}: {exc}", ""
    digest = out.digest or sink.digest()
    problem = out.problem
    if not problem and (digest != unit.digest or len(out.latencies) != unit.items):
        problem = f"{unit.key}: output differs from its pin"
    return out.latencies, problem, digest


def _rng(workload: str, seed: int, *tag) -> random.Random:
    return random.Random("/".join([workload, str(seed), *map(str, tag)]))


# ---------------------------------------------------------------------------
# grid: the acceptance-grid schedule through the construct --grid path

GRID_FIELDS = {
    3: (3, 1, None), 4: (2, 2, None), 5: (5, 1, None), 8: (2, 3, MOD_2_6),
    9: (3, 2, MOD_3_4), 11: (11, 1, None), 16: (2, 4, None),
}
GRID_QS = {"2mod3": (5, 8, 11), "0mod3": (3, 9), "even": (4, 8, 16)}


def grid_limits(q: int) -> tuple[int, int, list[int]]:
    """(delta stride, delta_t stride, beta indices) of the acceptance schedule."""
    if q in (3, 4, 5):
        return 1, 1, list(range(q + 1))
    return {
        8: (5, 5, list(range(9))),
        9: (12, 10, list(range(10))),
        11: (11, 10, list(range(12))),
        16: (30, 24, list(range(0, 17, 4))),
    }[q]


def grid_cells() -> list[tuple[str, int]]:
    return [
        (fam, q)
        for fam, spec in families.FAMILIES.items()
        for q in GRID_QS[spec.congruence]
    ]


def grid_unit_key(fam: str, q: int, b: int) -> str:
    return f"{fam}/{q}/{b}"


class Grid:
    """Units are (family, q, beta index) slices of the acceptance schedule.

    A round takes one seeded beta index from each of the 48 (family, q)
    cells, so every round enumerates the same number of tuples per cell.
    """

    name = "grid"
    # p99.9 moved by 2.5x between runs (collector pauses land there); p99 holds
    tail_percentile = 99
    standard_rounds = None  # every round does the same work

    def build_fields(self):
        self.exts = {q: fields.quad_extension(*GRID_FIELDS[q]) for q in GRID_FIELDS}
        for ext in self.exts.values():
            ext.circle_members()

    def setup(self):
        self.build_fields()
        self.pins = load_data("grid")["units"]

    def unit(self, fam: str, q: int, b: int) -> Unit:
        key = grid_unit_key(fam, q, b)
        pin = self.pins[key]
        return Unit(key, (fam, q, b), pin["n"], pin["digest"])

    def rounds(self, seed: int):
        order = {}
        for fam, q in grid_cells():
            betas = grid_limits(q)[2]
            _rng(self.name, seed, fam, q).shuffle(betas)
            order[fam, q] = betas
        for r in itertools.count():
            yield [self.unit(fam, q, betas[r % len(betas)]) for (fam, q), betas in order.items()]

    def run(self, unit: Unit, sink: Sink) -> Outcome:
        fam, q, b = unit.payload
        ds, dts, _ = grid_limits(q)
        limits = families.GridLimits(delta_stride=ds, delta_t_stride=dts, beta_indices=[b])
        out = Outcome()
        t = time.perf_counter()
        # a grid entry that does not permute raises in CatalogEntry
        for entry in cli.construct_grid_entries(self.exts[q], fam, limits):
            sink.write(serialize.dumps_line(serialize.entry_to_json(entry)))
            now = time.perf_counter()
            out.latencies.append(now - t)
            t = now
        return out


# ---------------------------------------------------------------------------
# bigfield: worked examples plus valid tuples at the largest fields

# P4 at q=64 (about 4 ms a tuple) makes a round 19 items, so the round's
# median item is the 37 ms Q3/q=81 worked example and not the boundary
# between it and the q=256 items, which moved item_p50_ms by 20 % between runs.
BIG_CELLS = [("P1", 256), ("B1", 256), ("P4", 256), ("Q1", 125), ("Q3", 243), ("Q4a", 243),
             ("P4", 64)]
TABLEFREE_CAP = 1 << 18


class Bigfield:
    """A round is the 12 worked examples plus one pool tuple per cell.

    The first round is X^5 over GF(2^18) alone, through the verify path;
    that field is above LOG_TABLE_MAX, so it runs on table-free arithmetic.
    """

    name = "bigfield"
    tail_percentile = 90
    # items_per_s counts the opening round once against this many others,
    # about as many as a 20 s run fits on the VM the benchmark was tuned on
    # (8-15); see run.items_per_s
    standard_rounds = 12

    def build_fields(self):
        cases = {case.name: repro.case_extension(case) for case in repro.CASES}
        # q = 256, 125 and 64 reuse the worked-example fields and moduli
        self.exts = {
            256: cases["P1/q=256"], 125: cases["Q1/q=125"], 64: cases["P4/q=64"],
            243: fields.quad_extension(3, 5), 512: fields.quad_extension(2, 9),
        }

    def setup(self):
        self.build_fields()
        self.data = load_data("bigfield")

    def rounds(self, seed: int):
        tf = self.data["tablefree"]
        yield [Unit("tablefree/512", ("verify", 512, tf["poly"]), 1, tf["digest"])]
        pool = self.data["pool"]
        picks = {}
        for fam, q in BIG_CELLS:
            idx = list(range(len(pool[f"{fam}/{q}"])))
            _rng(self.name, seed, fam, q).shuffle(idx)
            picks[fam, q] = idx
        for r in itertools.count():
            units = [
                Unit(f"repro/{c.name}", ("repro", c), 1, self.data["repro"][c.name])
                for c in repro.CASES
            ]
            for (fam, q), idx in picks.items():
                item = pool[f"{fam}/{q}"][idx[r % len(idx)]]
                # a cell's tuples have the same term count: one kind
                units.append(
                    Unit(f"pool/{fam}/{q}/{idx[r % len(idx)]}", ("pool", fam, q, item["params"]),
                         1, item["digest"], kind=f"pool/{fam}/{q}")
                )
            yield units

    def run(self, unit: Unit, sink: Sink) -> Outcome:
        out = Outcome()
        t = time.perf_counter()
        kind = unit.payload[0]
        if kind == "repro":
            res = repro.run_case(unit.payload[1])
            big = repro.case_extension(res.case).big
            line = {
                "case": res.case.name,
                "coefficients_match": res.coefficients_match,
                "passed": res.passed,
                "poly": serialize.poly_to_json(SparsePolynomial(big, res.built_terms)),
                "report": serialize.report_to_json(res.report),
            }
            sink.write(serialize.dumps_line(line))
            out.problem = _repro_problem(res)
        elif kind == "pool":
            _, fam, q, params_json = unit.payload
            ext = self.exts[q]
            params = serialize.params_from_json(params_json, ext)
            built = families.build_family(fam, params, ext)
            report = verify.verify_both(built.r, built.h, built.poly, ext)
            entry = serialize.CatalogEntry(ext, built, report, "user")
            sink.write(serialize.dumps_line(serialize.entry_to_json(entry)))
        else:
            _, q, poly_json = unit.payload
            report = verify_path(self.exts[q], poly_json, TABLEFREE_CAP)
            if not report.is_permutation:
                out.problem = "X^5 over GF(2^18) must permute"
            sink.write(serialize.dumps_line(serialize.report_to_json(report)))
        out.latencies.append(time.perf_counter() - t)
        return out


def _repro_problem(res) -> str:
    """The pinned outcome of a worked example, beyond its output digest."""
    case = res.case
    if not case.known_defect:
        return "" if res.passed else f"worked example {case.name} failed"
    # the documented source defect: FAIL, and our build equals built_pin
    pinned = repro.expected_terms(case, repro.case_extension(case), pins=case.built_pin)
    if res.passed or res.coefficients_match or not res.is_permutation:
        return f"known-defect case {case.name} changed verdict"
    if res.built_terms != pinned:
        return f"known-defect case {case.name} no longer builds built_pin"
    return ""


def verify_path(ext, poly_json: dict, cap: int):
    """The `circleperm verify` path for a decomposable polynomial."""
    poly = serialize.poly_from_json(poly_json, ext.big)
    reduced = poly.reduce_exponents()
    r, h = verify.decompose(reduced, ext)
    return verify.verify_both(r, h, reduced, ext, cap=cap)


# ---------------------------------------------------------------------------
# classify: QM classification of two catalogs through the qm-classify path

def twist_terms(terms, a: int, b: int, m: int):
    """Coefficient logs of g^a * f(g^b X): c_e -> c_e + a + b*e (mod m)."""
    return [[e, {"pow": (c + a + b * e) % m}] for e, c in terms]


def partition_digest(classes) -> str:
    canon = sorted(sorted(c) for c in classes)
    return hashlib.blake2b(json.dumps(canon).encode(), digest_size=16).hexdigest()


class Classify:
    """A round classifies both pinned catalogs, each under a fresh seeded twist.

    The twist f -> u*f(vX) (d = 1) keeps each polynomial in its QM class and
    keeps the catalog order, so the partition and the pairs the loop
    compares are the same for every seed.  Every polynomial of a catalog
    is done when the classify_catalog call returns, so each one's latency
    is the call's latency.
    """

    name = "classify"
    # items share their call's latency, so p99 is the run's slowest call;
    # p75 falls among the many-class catalog's calls, which are a third of the items
    tail_percentile = 75
    standard_rounds = None  # every round does the same work

    def setup(self):
        self.data = load_data("classify")
        self.exts = {}
        for cat in self.data["catalogs"]:
            desc = cat["field"]
            self.exts[cat["name"]] = fields.quad_extension(
                desc["p"], (len(desc["modulus"]) - 1) // 2, desc["modulus"], desc["generator"]
            )

    def catalog_unit(self, cat: dict, rng: random.Random, size: int | None = None,
                     pin: dict | None = None) -> Unit:
        """The first `size` polynomials of a catalog under one twist; `pin`
        overrides the catalog's pinned partition and class count."""
        m = self.exts[cat["name"]].big.order - 1
        polys = cat["polys"][:size]
        a, b = rng.randrange(m), rng.randrange(m)
        lines = [
            serialize.dumps_line({"field": cat["field"], "poly": {"terms": twist_terms(t, a, b, m)}})
            for t in polys
        ]
        pin = pin or cat
        return Unit(f"catalog/{cat['name']}", (cat["name"], lines), len(lines),
                    pin["partition"], classes=pin["classes"])

    def rounds(self, seed: int):
        rng = _rng(self.name, seed)
        while True:
            yield [self.catalog_unit(cat, rng) for cat in self.data["catalogs"]]

    def run(self, unit: Unit, sink: Sink) -> Outcome:
        name, lines = unit.payload
        ext = self.exts[name]
        out = Outcome()
        t = time.perf_counter()
        entries = [json.loads(line) for line in lines]
        if any(e["field"] != entries[0]["field"] for e in entries):
            raise ValueError("catalog mixes field descriptors")
        polys = [serialize.poly_from_json(e["poly"], ext.big) for e in entries]
        part = qm.classify_catalog(polys, ext)
        sink.write(serialize.dumps_line(
            {"classes": part.classes, "representatives": part.representatives}))
        elapsed = time.perf_counter() - t
        out.latencies = [elapsed] * len(lines)
        out.digest = partition_digest(part.classes)
        if len(part.classes) != unit.classes:
            out.problem = f"{name}: {len(part.classes)} classes, pinned {unit.classes}"
        return out


# ---------------------------------------------------------------------------
# falsify: random decomposable polynomials, mostly not permutations

FALSIFY_FIELDS = {64: (2, 6, MOD_2_12), 125: (5, 3, MOD_5_6), 256: (2, 8, MOD_2_16)}


class Falsify:
    """A round verifies every pinned pool polynomial, each times a seeded unit.

    u*f permutes iff f does and has the same first collision in generator
    order, so the pinned verdict and witness hold for every seed.
    """

    name = "falsify"
    tail_percentile = 99
    standard_rounds = None  # every round does the same work

    def build_fields(self):
        self.exts = {q: fields.quad_extension(*FALSIFY_FIELDS[q]) for q in FALSIFY_FIELDS}

    def setup(self):
        self.build_fields()
        self.pool = load_data("falsify")["pool"]

    def item_unit(self, q: int, i: int, a: int) -> Unit:
        item = self.pool[str(q)][i]
        m = self.exts[q].big.order - 1
        poly = {"terms": [[e, {"pow": (c + a) % m}] for e, c in item["terms"]]}
        return Unit(f"{q}/{i}", (q, poly), 1, item["digest"])

    def rounds(self, seed: int):
        rng = _rng(self.name, seed)
        while True:
            units = [
                self.item_unit(q, i, rng.randrange(self.exts[q].big.order - 1))
                for q in FALSIFY_FIELDS
                for i in range(len(self.pool[str(q)]))
            ]
            rng.shuffle(units)
            yield units

    def run(self, unit: Unit, sink: Sink) -> Outcome:
        q, poly = unit.payload
        out = Outcome()
        t = time.perf_counter()
        report = verify_path(self.exts[q], poly, verify.EXHAUSTIVE_CAP)
        sink.write(serialize.dumps_line(serialize.report_to_json(report)))
        out.latencies.append(time.perf_counter() - t)
        return out


WORKLOADS = {w.name: w for w in (Grid, Bigfield, Classify, Falsify)}
