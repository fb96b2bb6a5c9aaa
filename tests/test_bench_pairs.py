"""The no-regression verdicts of ``scripts/bench_pairs.py``, on synthetic runs."""

import importlib.util
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "bench_pairs.py"


def _load_script():
    spec = importlib.util.spec_from_file_location("bench_pairs", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


bench_pairs = _load_script()

SPREAD = [0.8, 1.2] * 5  # quartiles 0.8 and 1.2 around a median of 1.0: a spread of 0.4

# (better, parent runs, change runs, verdict): with a bound of 0.1, worse by 0.2, within the
# parent's spread but not all better, better in every run despite that spread, and a plain match
CASES = [
    ("lower", [1.0] * 10, [1.2] * 10, "over bound"),
    ("lower", SPREAD, [1.05] * 10, "unresolved"),
    ("lower", SPREAD, [0.7] * 10, "within bound"),
    ("lower", [1.0] * 10, [1.05] * 10, "within bound"),
    ("higher", [1.0] * 10, [0.8] * 10, "over bound"),
    ("higher", SPREAD, [0.95] * 10, "unresolved"),
    ("higher", SPREAD, [1.3] * 10, "within bound"),
    ("higher", [1.0] * 10, [0.95] * 10, "within bound"),
]


@pytest.mark.parametrize("better, parent, change, verdict", CASES)
def test_summary_verdicts(monkeypatch, better, parent, change, verdict):
    monkeypatch.setattr(bench_pairs, "METRICS", {"m": {"name": "m", "better": better, "bound": 0.1}})
    runs = {side: [{"metrics": {"m": {"value": v}}} for v in values]
            for side, values in (("parent", parent), ("change", change))}
    entry = bench_pairs.summary(runs)["m"]
    ratio = entry["change_median"] / entry["parent_median"]
    assert entry["verdict"] == verdict
    assert entry["bound"] == 0.1
    assert entry["shift"] == pytest.approx(ratio - 1 if better == "lower" else 1 - ratio, abs=1e-4)
    assert entry["change_lower_in"] == f"{sum(c < p for p, c in zip(parent, change))} of 10"
    assert entry["parent_q1_q3"] == ([0.8, 1.2] if parent == SPREAD else [1.0, 1.0])


def test_summary_covers_every_end_to_end_metric():
    runs = {side: [{"metrics": {name: {"value": 1.0} for name in bench_pairs.METRICS}}] * 10
            for side in ("parent", "change")}
    out = bench_pairs.summary(runs)
    assert set(out) == {"setup_s", "wall_s", "peak_rss_mb"}
    assert {entry["verdict"] for entry in out.values()} == {"within bound"}
