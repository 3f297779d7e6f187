"""Paired base/change benchmark comparison, written to ``BENCH_<label>.json``.

    python3 tools/bench_pairs.py --base <sha> [--change <sha|path>] \\
        --workload W [--workload W2 ...] --pairs N [--first-seed S] [--label L]

Each side is a ``git worktree`` of its commit, made under a temporary
directory and removed on exit; a ``--change`` that names a directory is
used as it stands (the default is this checkout).  For every workload the
tool runs each side's own ``bench/run.py --workload W --seed S --trace 0``
in N pairs, at the run length ``BENCHMARK.json`` sets, with a fresh seed
per pair and the side that runs first alternating, and reads each run's
full result from that side's ``.bench_out/``.  The file is written at the
root of this checkout.

The file holds, per workload, every pair (the four end-to-end metrics of
both sides and ``raw_setup_s``, the median set-up before host scaling;
their raw and host-scaled ``rounds_per_s`` samples; each set-up's raw time
and host slowdown; and whether the ``final_params_sha256`` digests are
equal) and, per metric, a summary (see :func:`summarize`): the median and
quartiles of each side, the median of the per-pair change/base ratios, how
many pairs the change was better, worse or equal in, a seeded bootstrap 95%
confidence interval of that median ratio, and whether the claim rule holds.
The environment block names the host (the benchmark's own
``environment()`` as each side recorded it, from its first run that
succeeded), the OpenBLAS kernel, and whether either side's tree held
uncommitted changes.
"""

from __future__ import annotations

import argparse
import json
import random
import signal
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
BOOTSTRAP_RESAMPLES = 10000
RATE_SAMPLES = ("rounds_per_s_samples", "raw_rounds_per_s_samples")
SETUP_KEYS = ("raw_setup_s", "host_slowdown")
# A gain may be claimed from at least this many pairs (see ``summarize``).
CLAIM_PAIRS = 10


def _quartiles(values: list[float]) -> dict:
    if len(values) == 1:
        return {"median": values[0], "q1": values[0], "q3": values[0]}
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def summarize(pairs: list[dict], better: dict[str, str], seed: int = 0) -> dict:
    """Per metric of ``better`` (name -> ``"higher"`` or ``"lower"``), over
    the pairs whose two sides both ran: each side's median and quartiles,
    ``sign`` (the pairs the change was better, worse and equal in),
    ``median_ratio`` (the median of change / base) and ``ratio_ci95``, a
    bootstrap 95% interval of the median ratio from ``BOOTSTRAP_RESAMPLES``
    resamples drawn by ``random.Random(seed)``.  The ratios are taken over
    the ``ratio_pairs`` pairs whose base is nonzero (a base metric such as
    ``target_accuracy`` can read 0); with none, both read None.

    ``claim`` records the rule a claimed gain must meet: at least
    ``CLAIM_PAIRS`` pairs, the change better in at least nine tenths of them
    (ties count for neither side), and a ``median_gap`` (the change's
    median less the base's, signed so that better is positive) above
    ``base_iqr``, the distance between the base's quartiles.

    A pair is ``{"base": {"metrics": {...}}, "change": {"metrics": {...}}}``;
    a side that failed has no ``metrics``."""
    done = [p for p in pairs if "metrics" in p["base"] and "metrics" in p["change"]]
    out = {}
    for name, direction in better.items():
        base = [p["base"]["metrics"][name] for p in done]
        change = [p["change"]["metrics"][name] for p in done]
        if not done:
            out[name] = {"pairs": 0}
            continue
        ratios = [c / b for b, c in zip(base, change) if b != 0]
        up = sum(c > b for b, c in zip(base, change))
        down = sum(c < b for b, c in zip(base, change))
        better_n, worse_n = (up, down) if direction == "higher" else (down, up)
        base_q, change_q = _quartiles(base), _quartiles(change)
        gap = (change_q["median"] - base_q["median"]) * (1 if direction == "higher" else -1)
        spread = base_q["q3"] - base_q["q1"]
        median_ratio = ci95 = None
        if ratios:
            rng = random.Random(seed)
            medians = sorted(
                statistics.median(rng.choices(ratios, k=len(ratios))) for _ in range(BOOTSTRAP_RESAMPLES)
            )
            median_ratio = statistics.median(ratios)
            ci95 = [medians[int(0.025 * BOOTSTRAP_RESAMPLES)], medians[int(0.975 * BOOTSTRAP_RESAMPLES) - 1]]
        out[name] = {
            "pairs": len(done),
            "better": direction,
            "base": base_q,
            "change": change_q,
            "ratio_pairs": len(ratios),
            "median_ratio": median_ratio,
            "sign": {"better": better_n, "worse": worse_n, "equal": len(done) - better_n - worse_n},
            "ratio_ci95": ci95,
            "claim": {
                "median_gap": gap,
                "base_iqr": spread,
                "holds": len(done) >= CLAIM_PAIRS and 10 * better_n >= 9 * len(done) and gap > spread,
            },
        }
    return out


def _git(*args: str, cwd: Path = ROOT) -> str:
    return subprocess.run(["git", *args], cwd=cwd, check=True, capture_output=True, text=True).stdout.strip()


def _dirty(tree: Path) -> bool:
    return bool(_git("status", "--porcelain", cwd=tree))


def _run_side(tree: Path, workload: str, seed: int, seconds: int) -> dict:
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed)]
    cmd += ["--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=tree, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    if proc.returncode != 0:
        return {"error": f"exit {proc.returncode}: {proc.stderr.strip()[-500:]}"}
    final = json.loads(proc.stdout.strip().splitlines()[-1])
    res = json.loads((tree / ".bench_out" / f"{workload}-seed{seed}-trace0.json").read_text(encoding="utf-8"))
    side = {"metrics": {name: metric["value"] for name, metric in final["metrics"].items()}}
    side["setup_samples"] = [{key: probe[key] for key in SETUP_KEYS} for probe in res["setup_samples"]]
    side["metrics"]["raw_setup_s"] = statistics.median(probe["raw_setup_s"] for probe in side["setup_samples"])
    side.update({key: res[key] for key in RATE_SAMPLES})
    side.update(attempted=res["attempted"], failed=res["failed"], digests=res["digests"])
    side["environment"] = res["environment"]
    return side


def _blas_kernel() -> str | None:
    sys.path.insert(0, str(ROOT / "src"))
    from fedalign.cli import _blas_kernel

    return _blas_kernel()


def compare(trees: dict[str, Path], workloads: list[str], n_pairs: int, seconds: int, first_seed: int) -> dict:
    """Run the pairs and summarize them, per workload."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    better = {m["name"]: m["better"] for m in spec["end_to_end"]} | {"raw_setup_s": "lower"}
    results, environment = {}, {}
    for w, workload in enumerate(workloads):
        pairs = []
        for i in range(n_pairs):
            seed = first_seed + w * n_pairs + i
            order = ("base", "change") if i % 2 == 0 else ("change", "base")
            pair = {"seed": seed, "first": order[0]}
            for side in order:
                pair[side] = _run_side(trees[side], workload, seed, seconds)
                if "environment" in pair[side]:
                    environment.setdefault(side, pair[side].pop("environment"))
                print(f"{workload} seed {seed} {side}: {pair[side].get('metrics', pair[side].get('error'))}",
                      file=sys.stderr)
            b, c = pair["base"], pair["change"]
            pair["digests_equal"] = "digests" in b and b.get("digests") == c.get("digests")
            pairs.append(pair)
        failed = sum(p[s].get("failed", 0) for p in pairs for s in ("base", "change"))
        results[workload] = {"pairs": pairs, "failed_runs": failed, "summary": summarize(pairs, better)}
    return {"results": results, "environment": environment}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", required=True, help="commit of the base side")
    parser.add_argument("--change", default=str(ROOT), help="commit, or directory used as it stands")
    parser.add_argument("--workload", action="append", required=True, help="benchmark workload; repeatable")
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--first-seed", type=int, default=1000, help="seed of the first pair; each pair takes the next")
    parser.add_argument("--label", default=None, help="file label (default: <base>-<change>)")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be >= 1")
    seconds = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))["run_seconds"]
    # A terminated comparison still removes its worktrees (the ``finally`` below).
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    with tempfile.TemporaryDirectory(prefix="bench-pairs-") as tmp:
        trees, added, revs, names = {}, [], {}, {}
        try:
            for side, rev in (("base", args.base), ("change", args.change)):
                if Path(rev).is_dir():
                    trees[side], names[side] = Path(rev).resolve(), None
                    revs[side] = _git("rev-parse", "HEAD", cwd=trees[side])
                else:
                    trees[side], names[side] = Path(tmp) / side, rev
                    revs[side] = _git("rev-parse", rev)
                    _git("worktree", "add", "--detach", str(trees[side]), revs[side])
                    added.append(trees[side])
            dirty = {side: _dirty(tree) for side, tree in trees.items()}
            doc = compare(trees, args.workload, args.pairs, seconds, args.first_seed)
        finally:
            for tree in added:
                subprocess.run(["git", "worktree", "remove", "--force", str(tree)], cwd=ROOT, capture_output=True)
            subprocess.run(["git", "worktree", "prune"], cwd=ROOT, capture_output=True)

    label = args.label or f"{revs['base'][:7]}-{revs['change'][:7]}"
    doc = {
        "label": label,
        # ``rev`` is null for a directory used as it stands: ``sha`` is then its HEAD.
        **{side: {"rev": names[side], "sha": revs[side], "dirty": dirty[side]} for side in trees},
        "workloads": args.workload,
        "pairs_per_workload": args.pairs,
        "seconds": seconds,
        "first_seed": args.first_seed,
        "environment": {**doc["environment"], "blas_kernel": _blas_kernel()},
        "results": doc["results"],
    }
    path = ROOT / f"BENCH_{label}.json"
    path.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    for workload, res in doc["results"].items():
        for name, s in res["summary"].items():
            if s["pairs"]:
                ratio = "no nonzero base"
                if s["ratio_pairs"]:
                    lo, hi = s["ratio_ci95"]
                    ratio = f"ratio {s['median_ratio']:.4f} [{lo:.4f}, {hi:.4f}]"
                claim = "holds" if s["claim"]["holds"] else "does not hold"
                print(
                    f"{workload} {name}: {s['base']['median']:.6g} -> {s['change']['median']:.6g}, "
                    f"{ratio}, better in {s['sign']['better']} of {s['pairs']}, "
                    f"gap {s['claim']['median_gap']:.6g} against base IQR {s['claim']['base_iqr']:.6g}: "
                    f"claim rule {claim}"
                )
        print(f"{workload}: {res['failed_runs']} failed runs; digests equal in "
              f"{sum(p['digests_equal'] for p in res['pairs'])} of {len(res['pairs'])} pairs")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
