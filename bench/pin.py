"""Regenerate bench/data/*.json: the pinned inputs and expected outputs.

    python3 bench/pin.py [workload ...]

Each expected digest is what the current program writes for that unit,
with report.ms cut out.  Re-pin only when a change is meant to alter
outputs, and say so in CHANGES.md: a pin that moves is a changed verdict,
witness, coefficient or catalog byte.
"""

from __future__ import annotations

import json
import random
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

from circleperm import families, fields, qm, repro, serialize, verify  # noqa: E402
from circleperm.polynomials import SparsePolynomial  # noqa: E402

import workloads as W  # noqa: E402

BIG_POOL = 8  # pinned tuples per large-field cell
FALSIFY_POOL = 200  # pinned polynomials per falsify field
CATALOGS = [("P1/q=16", "P1", 2, 4, 150), ("Q1/q=5", "Q1", 5, 1, 300)]
PROBE_CATALOG = 24  # leading polynomials of the first catalog used by the probe


def outcome(workload, unit):
    sink = W.Sink()
    out = workload.run(unit, sink)
    if out.problem:
        raise SystemExit(f"{unit.key}: {out.problem}")
    return out.digest or sink.digest(), len(out.latencies)


def terms_of(poly: SparsePolynomial):
    return [[e, c.dlog()] for e, c in poly.sorted_terms()]


def save(name: str, data: dict):
    path = W.DATA / f"{name}.json"
    path.parent.mkdir(exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(data, fh, sort_keys=True, separators=(",", ":"))
        fh.write("\n")
    print(f"wrote {path}")


def pin_grid():
    wl = W.Grid()
    wl.build_fields()
    units = {}
    for fam, q in W.grid_cells():
        for b in W.grid_limits(q)[2]:
            unit = W.Unit(W.grid_unit_key(fam, q, b), (fam, q, b), 0, "")
            digest, n = outcome(wl, unit)
            units[unit.key] = {"n": n, "digest": digest}
    print("grid tuples:", sum(u["n"] for u in units.values()))
    save("grid", {"units": units})


def random_valid_params(fam: str, ext, rng: random.Random):
    big, q = ext.big, ext.q
    mu = ext.circle_members()
    auxes = families.aux_candidates(fam, ext)

    def nonsub():
        while True:
            k = rng.randrange(big.order - 1)
            if k % (q + 1):
                return big.gen_pow(k)

    while True:
        beta = mu[rng.randrange(q + 1)]
        params = families.ConstructionParams(
            fam, beta, families.derive_beta_t(fam, beta), nonsub(), nonsub(), rng.choice(auxes)
        )
        # the advertised term count keeps every pool tuple of a cell equally costly
        if (not families.validate_params(fam, params, ext)
                and families.build_family(fam, params, ext).term_count
                == families.FAMILIES[fam].advertised_terms):
            return params


def pin_bigfield():
    wl = W.Bigfield()
    wl.build_fields()
    data = {"repro": {}, "pool": {}}
    for case in repro.CASES:
        data["repro"][case.name] = outcome(wl, W.Unit(case.name, ("repro", case), 1, ""))[0]
    for fam, q in W.BIG_CELLS:
        ext = wl.exts[q]
        rng = random.Random(f"bigfield-pool/{fam}/{q}")
        items = []
        for _ in range(BIG_POOL):
            params = serialize.params_to_json(random_valid_params(fam, ext, rng))
            digest = outcome(wl, W.Unit(fam, ("pool", fam, q, params), 1, ""))[0]
            items.append({"params": params, "digest": digest})
        data["pool"][f"{fam}/{q}"] = items
    poly = {"terms": [[5, {"pow": 0}]]}
    data["tablefree"] = {"poly": poly, "digest": outcome(wl, W.Unit("tf", ("verify", 512, poly), 1, ""))[0]}
    save("bigfield", data)


def pin_classify():
    catalogs = []
    for name, fam, p, m, size in CATALOGS:
        ext = fields.quad_extension(p, m)
        polys = []
        for params in families.param_grid(fam, ext):
            polys.append(families.build_family(fam, params, ext).poly)
            if len(polys) == size:
                break
        part = qm.classify_catalog(polys, ext)
        catalogs.append({
            "name": name, "field": serialize.ext_to_json(ext),
            "polys": [terms_of(f) for f in polys],
            "classes": len(part.classes), "partition": W.partition_digest(part.classes),
        })
        print(name, len(polys), "polynomials,", len(part.classes), "classes")
        if len(catalogs) == 1:
            sub = qm.classify_catalog(polys[:PROBE_CATALOG], ext)
            probe = {"size": PROBE_CATALOG, "classes": len(sub.classes),
                     "partition": W.partition_digest(sub.classes)}
    save("classify", {"catalogs": catalogs, "probe": probe})


def pin_falsify():
    wl = W.Falsify()
    wl.build_fields()
    pool = {}
    for q, ext in wl.exts.items():
        big = ext.big
        m = big.order - 1
        rng = random.Random(f"falsify-pool/{q}")
        items = []
        for _ in range(FALSIFY_POOL):
            r = rng.randint(1, q - 1)
            h = SparsePolynomial(big, [(e, big.gen_pow(rng.randrange(m)))
                                       for e in rng.sample(range(q + 1), rng.randint(1, 5))])
            terms = terms_of(verify.expand_decomposition(r, h, ext))
            poly = {"terms": [[e, {"pow": c}] for e, c in terms]}
            digest = outcome(wl, W.Unit("f", (q, poly), 1, ""))[0]
            items.append({"terms": terms, "digest": digest})
        pool[str(q)] = items
    save("falsify", {"pool": pool})


PINNERS = {"grid": pin_grid, "bigfield": pin_bigfield, "classify": pin_classify,
           "falsify": pin_falsify}

if __name__ == "__main__":
    for name in sys.argv[1:] or PINNERS:
        PINNERS[name]()
