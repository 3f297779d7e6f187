"""The summary of ``tools/bench_pairs.py`` on synthetic pairs: no benchmark
run, no subprocess."""

import pathlib

import pytest

TOOLS = pathlib.Path(__file__).resolve().parents[1] / "tools"


@pytest.fixture
def bench_pairs(monkeypatch):
    monkeypatch.syspath_prepend(str(TOOLS))
    import bench_pairs

    return bench_pairs


def pairs_of(base, change, name="rounds_per_s"):
    return [{"base": {"metrics": {name: b}}, "change": {"metrics": {name: c}}} for b, c in zip(base, change)]


def test_medians_quartiles_ratio_and_signs(bench_pairs):
    base = [100.0, 200.0, 300.0, 400.0, 500.0]
    change = [110.0, 180.0, 330.0, 440.0, 500.0]
    s = bench_pairs.summarize(pairs_of(base, change), {"rounds_per_s": "higher"})["rounds_per_s"]
    assert s["pairs"] == 5 and s["better"] == "higher"
    assert s["base"] == {"median": 300.0, "q1": 200.0, "q3": 400.0}
    assert s["change"] == {"median": 330.0, "q1": 180.0, "q3": 440.0}
    # Ratios 1.1, 0.9, 1.1, 1.1, 1.0.
    assert s["median_ratio"] == pytest.approx(1.1)
    assert s["sign"] == {"better": 3, "worse": 1, "equal": 1}
    lo, hi = s["ratio_ci95"]
    assert 0.9 - 1e-12 <= lo <= s["median_ratio"] <= hi <= 1.1 + 1e-12


def test_lower_is_better_counts_the_other_way(bench_pairs):
    s = bench_pairs.summarize(pairs_of([1.0, 1.0, 1.0], [0.5, 0.8, 2.0], "setup_s"), {"setup_s": "lower"})["setup_s"]
    assert s["sign"] == {"better": 2, "worse": 1, "equal": 0}
    assert s["median_ratio"] == 0.8


def test_consistent_gain_ci_excludes_one_and_is_seeded(bench_pairs):
    base = [1000.0 + 10 * i for i in range(10)]
    change = [b * (1.09 + 0.003 * (i % 3)) for i, b in enumerate(base)]
    better = {"rounds_per_s": "higher"}
    a = bench_pairs.summarize(pairs_of(base, change), better, seed=3)["rounds_per_s"]
    assert a["ratio_ci95"][0] > 1.0
    assert a["sign"]["better"] == 10
    assert bench_pairs.summarize(pairs_of(base, change), better, seed=3) == {"rounds_per_s": a}


def test_noise_ci_covers_one(bench_pairs):
    base = [100.0] * 8
    change = [95.0, 105.0, 97.0, 103.0, 99.0, 101.0, 96.0, 104.0]
    s = bench_pairs.summarize(pairs_of(base, change), {"rounds_per_s": "higher"})["rounds_per_s"]
    lo, hi = s["ratio_ci95"]
    assert lo < 1.0 < hi


def test_failed_sides_are_left_out(bench_pairs):
    pairs = pairs_of([100.0, 100.0], [120.0, 80.0])
    pairs.append({"base": {"error": "exit 1"}, "change": {"metrics": {"rounds_per_s": 1.0}}})
    s = bench_pairs.summarize(pairs, {"rounds_per_s": "higher"})["rounds_per_s"]
    assert s["pairs"] == 2 and s["median_ratio"] == 1.0
    assert bench_pairs.summarize(pairs[2:], {"rounds_per_s": "higher"}) == {"rounds_per_s": {"pairs": 0}}


def test_single_pair(bench_pairs):
    s = bench_pairs.summarize(pairs_of([2.0], [3.0]), {"rounds_per_s": "higher"})["rounds_per_s"]
    assert s["base"] == {"median": 2.0, "q1": 2.0, "q3": 2.0}
    assert s["ratio_ci95"] == [1.5, 1.5]
