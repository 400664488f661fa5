"""Fixed layer probe for the traced run, the same on every workload.

The probe runs one grid unit, 20 falsify polynomials, the pinned
24-polynomial sub-catalog and the 12 worked examples under its own tracer,
so every layer and entry path reports on every workload.  It then times
single calls outside any span: field arithmetic on GF(2^16) (p = 2,
tables), GF(3^10) (odd p, tables) and GF(2^18) (table-free),
SparsePolynomial.eval on the circle, and qm_equivalent on every pair of
the sub-catalog.
"""

from __future__ import annotations

import random
import statistics
import time

from circleperm import qm, serialize, verify

import workloads as W
from tracing import traced

REPS = 7
FIELD_CALLS = 20000  # operand pairs per field timing; the tables see this many lookups


def _ns_per_call(fn, args, reps=REPS) -> float:
    """Median over `reps` passes of the time per fn(*a) call, in ns."""
    for a in args:  # warm-up pass, not timed
        fn(*a)
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        for a in args:
            fn(*a)
        times.append(time.perf_counter() - t0)
    return statistics.median(times) / len(args) * 1e9


def field_timings(exts) -> dict:
    rng = random.Random("fields-probe")
    ctxs = {"p2": exts[256].big, "odd": exts[243].big, "tablefree": exts[512].big}

    def operands(ctx):
        return [(rng.randrange(1, ctx.order), rng.randrange(1, ctx.order))
                for _ in range(FIELD_CALLS)]

    out = {}
    for label, ctx in ctxs.items():
        out[f"fields.mul_ns.{label}"] = _ns_per_call(ctx.mul_enc, operands(ctx))
        if label != "tablefree":
            out[f"fields.add_ns.{label}"] = _ns_per_call(ctx.add_enc, operands(ctx))
            out[f"fields.pow_ns.{label}"] = _ns_per_call(ctx.pow_enc, operands(ctx))
    return out


def run(tracer) -> dict:
    """Run the probe; returns its item counts, problems and micro-timings."""
    grid, falsify, classify, bigfield = W.Grid(), W.Falsify(), W.Classify(), W.Bigfield()
    for wl in (grid, falsify, classify, bigfield):
        wl.setup()
    cat = classify.data["catalogs"][0]
    pin = classify.data["probe"]
    sub = classify.catalog_unit(cat, random.Random("probe"), pin["size"], pin)
    plan = [(grid, grid.unit("P1", 8, 0)), (classify, sub)]
    plan += [(falsify, falsify.item_unit(q, i, 0)) for q in (64, 125) for i in range(10)]
    rounds = bigfield.rounds(0)
    next(rounds)  # the table-free round
    plan += [(bigfield, u) for u in next(rounds) if u.key.startswith("repro/")]

    items, failed, problems = 0, 0, []
    with traced(tracer):
        for wl, unit in plan:
            problem = W.execute(wl, unit)[1]
            items += unit.items
            if problem:
                failed += unit.items
                problems.append(problem)

    metrics = field_timings(bigfield.exts)

    # SparsePolynomial.eval on the unit circle, for the h of each probe item
    evals = []
    for wl, unit in plan:
        if wl is not falsify:
            continue
        q, poly = unit.payload
        ext = falsify.exts[q]
        reduced = serialize.poly_from_json(poly, ext.big).reduce_exponents()
        h = verify.decompose(reduced, ext)[1]
        evals += [(h, z) for z in ext.circle_members()]
    metrics["polynomials.eval_ns"] = _ns_per_call(lambda h, z: h.eval(z), evals)

    # qm_equivalent on every pair of the sub-catalog, with its own counters
    ext = classify.exts[cat["name"]]
    polys = [serialize.poly_from_json({"terms": [[e, {"pow": c}] for e, c in t]}, ext.big)
             for t in cat["polys"][: pin["size"]]]
    pairs = [(f, g) for i, f in enumerate(polys) for g in polys[i + 1:]]
    examined = rejected = 0
    t0 = time.perf_counter()
    for f, g in pairs:
        res = qm.qm_equivalent(f, g, ext)
        examined += res.d_candidates_examined
        rejected += res.prefilter_rejected
    metrics["qm.pair_us"] = (time.perf_counter() - t0) / len(pairs) * 1e6
    metrics["qm.d_examined_per_pair"] = examined / len(pairs)
    metrics["qm.prefilter_reject_frac"] = rejected / (rejected + examined)
    return {"items": items, "failed": failed, "problems": problems, "metrics": metrics}
