"""The benchmark's contract with the package, checked in tier-1.

bench/tracing.py wraps package functions by name, and end-to-end runs never
import it, so a renamed or removed name would go unseen there.  The probe
enters `traced` (a getattr on every SPANS name) and runs units of all four
workloads against their pins.
"""

from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent / "bench"


def test_probe_runs_clean(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    import probe
    import tracing

    out = probe.run(tracing.Tracer())
    assert out["items"] > 0
    assert out["failed"] == 0 and out["problems"] == []
