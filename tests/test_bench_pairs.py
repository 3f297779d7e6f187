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


def test_zero_base_counts_in_the_signs_but_not_the_ratios(bench_pairs):
    # A base target_accuracy of 0.0 has no ratio; the pair still counts.
    pairs = pairs_of([0.0, 0.8, 0.5], [0.5, 0.8, 0.6], "target_accuracy")
    s = bench_pairs.summarize(pairs, {"target_accuracy": "higher"})["target_accuracy"]
    assert s["pairs"] == 3 and s["ratio_pairs"] == 2
    assert s["sign"] == {"better": 2, "worse": 0, "equal": 1}
    assert s["median_ratio"] == pytest.approx(1.1)
    lo, hi = s["ratio_ci95"]
    assert 1.0 <= lo <= hi <= 1.2 + 1e-12
    none = bench_pairs.summarize(pairs_of([0.0, 0.0], [0.0, 0.5], "target_accuracy"), {"target_accuracy": "higher"})
    assert none["target_accuracy"]["ratio_pairs"] == 0
    assert none["target_accuracy"]["median_ratio"] is None and none["target_accuracy"]["ratio_ci95"] is None
    assert none["target_accuracy"]["sign"] == {"better": 1, "worse": 0, "equal": 1}


@pytest.mark.parametrize(
    "change, pairs, holds",
    [
        ([b * 1.05 for b in range(1000, 1100, 10)], 10, True),
        ([b * 1.05 for b in range(1000, 1090, 10)], 9, False),  # too few pairs to claim
        ([b * (0.99 if i < 2 else 1.05) for i, b in enumerate(range(1000, 1100, 10))], 10, False),  # 8 of 10
        ([b + 1.0 for b in range(1000, 1100, 10)], 10, False),  # every pair better, the gap inside the IQR
    ],
    ids=["ten-of-ten", "nine-pairs", "eight-of-ten", "gap-inside-iqr"],
)
def test_claim_rule(bench_pairs, change, pairs, holds):
    base = [float(b) for b in range(1000, 1000 + 10 * pairs, 10)]
    s = bench_pairs.summarize(pairs_of(base, change), {"rounds_per_s": "higher"})["rounds_per_s"]
    assert s["claim"]["base_iqr"] == pytest.approx(s["base"]["q3"] - s["base"]["q1"])
    assert s["claim"]["median_gap"] == pytest.approx(s["change"]["median"] - s["base"]["median"])
    assert s["claim"]["holds"] is holds


def test_claim_rule_lower_is_better_signs_the_gap(bench_pairs):
    base = [1.0 + 0.01 * i for i in range(10)]
    faster = bench_pairs.summarize(pairs_of(base, [b - 0.2 for b in base], "setup_s"), {"setup_s": "lower"})
    assert faster["setup_s"]["claim"]["median_gap"] == pytest.approx(0.2)
    assert faster["setup_s"]["claim"]["holds"] is True
    slower = bench_pairs.summarize(pairs_of(base, [b + 0.2 for b in base], "setup_s"), {"setup_s": "lower"})
    assert slower["setup_s"]["claim"]["median_gap"] == pytest.approx(-0.2)
    assert slower["setup_s"]["claim"]["holds"] is False


def test_run_side_keeps_the_raw_setup_samples(bench_pairs, monkeypatch, tmp_path):
    probes = [
        {"setup_s": 0.2, "raw_setup_s": 0.1, "host_slowdown": 0.5},
        {"setup_s": 0.15, "raw_setup_s": 0.3, "host_slowdown": 2.0},
        {"setup_s": 0.1, "raw_setup_s": 0.2, "host_slowdown": 2.0},
    ]
    metrics = {"setup_s": 0.15, "rounds_per_s": 100.0, "peak_rss_mb": 40.0, "target_accuracy": 0.9}
    (tmp_path / ".bench_out").mkdir()
    (tmp_path / ".bench_out" / "encrypted-seed7-trace0.json").write_text(
        bench_pairs.json.dumps({
            "setup_samples": probes,
            "rounds_per_s_samples": [100.0],
            "raw_rounds_per_s_samples": [80.0],
            "attempted": 1,
            "failed": 0,
            "digests": {"a": "x"},
            "environment": {"host": "h"},
        }),
        encoding="utf-8",
    )
    final = {"metrics": {name: {"value": v, "unit": "u"} for name, v in metrics.items()}}

    def fake_run(cmd, cwd, **kwargs):
        assert cwd == tmp_path and cmd[-6:] == ["--seed", "7", "--seconds", "30", "--trace", "0"]
        return bench_pairs.subprocess.CompletedProcess(cmd, 0, stdout="report\n" + bench_pairs.json.dumps(final))

    monkeypatch.setattr(bench_pairs.subprocess, "run", fake_run)
    side = bench_pairs._run_side(tmp_path, "encrypted", 7, 30)
    assert side["metrics"] == {**metrics, "raw_setup_s": 0.2}
    kept = [{"raw_setup_s": p["raw_setup_s"], "host_slowdown": p["host_slowdown"]} for p in probes]
    assert side["setup_samples"] == kept
    assert side["environment"] == {"host": "h"}


def test_compare_keeps_the_first_environment_present(bench_pairs, monkeypatch):
    # Each side's first run fails; the environment comes from its second.
    runs = []

    def run_side(tree, workload, seed, seconds):
        runs.append(tree)
        if runs.count(tree) == 1:
            return {"error": "exit 1: boom"}
        metrics = {"setup_s": 0.2, "rounds_per_s": 100.0, "peak_rss_mb": 40.0, "target_accuracy": 0.9}
        return {
            "metrics": {**metrics, "raw_setup_s": 0.1},
            "failed": 0,
            "digests": {"a": "x"},
            "environment": {"tree": str(tree), "seed": seed},
        }

    monkeypatch.setattr(bench_pairs, "_run_side", run_side)
    trees = {"base": pathlib.Path("b"), "change": pathlib.Path("c")}
    doc = bench_pairs.compare(trees, ["encrypted"], 3, 30, 5)
    assert doc["environment"] == {"base": {"tree": "b", "seed": 6}, "change": {"tree": "c", "seed": 6}}
    pairs = doc["results"]["encrypted"]["pairs"]
    assert [p["base"].get("error") for p in pairs] == ["exit 1: boom", None, None]
    assert not any("environment" in p[side] for p in pairs for side in ("base", "change"))
    assert doc["results"]["encrypted"]["summary"]["raw_setup_s"]["pairs"] == 2
