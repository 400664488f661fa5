"""The benchmark's contract with the package, checked in tier-1.

bench/tracing.py wraps package functions by name, and end-to-end runs never
import it, so a renamed or removed name would go unseen there.  The probe
enters `traced` (a getattr on every SPANS name) and runs units of all four
workloads against their pins.  The opening rounds of every workload then
run untraced, each unit against its pin, so a change to a grid catalog, a
bigfield digest, a classify partition or a falsify verdict fails here.
"""

from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "bench"


def test_probe_runs_clean(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    import probe
    import tracing

    out = probe.run(tracing.Tracer())
    assert out["items"] > 0
    assert out["failed"] == 0 and out["problems"] == []


# bigfield's first round is X^5 over GF(2^18) alone; its second holds the
# worked examples and one pool tuple per (family, q) cell
@pytest.mark.parametrize("name,rounds", [("grid", 1), ("bigfield", 2), ("classify", 1),
                                         ("falsify", 1)])
def test_opening_rounds_match_pins(monkeypatch, name, rounds):
    monkeypatch.syspath_prepend(str(BENCH))
    import workloads

    wl = workloads.WORKLOADS[name]()
    wl.setup()
    it = wl.rounds(1)
    problems = [workloads.execute(wl, unit)[1] for _ in range(rounds) for unit in next(it)]
    assert problems and not any(problems)
