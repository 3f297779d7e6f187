"""Child process of ``run.py``: one set-up probe, or one measured workload.

    python3 bench/worker.py setup   --workload NAME --seed N [--rounds R]
    python3 bench/worker.py measure --workload NAME --seed N --seconds S --trace 0|1 [--rounds R]

Both print one JSON object on stdout.  ``setup`` times interpreter-level
set-up: importing fedalign, generating the suite and building the model and
configs.  ``measure`` repeats the workload until ``--seconds`` are used up
and reports the end-to-end figures (``--trace 0``) or alternates untraced
and traced repetitions and reports per-layer figures (``--trace 1``).

Times and rates are scaled to a nominal host speed, because a shared host
can drift in speed for the same work by a third over minutes.  A fixed reference pass that uses no fedalign code
(Python objects and small numpy operations, the mix fedalign runs) is
timed; its median time over ``REFERENCE_S`` is the host slowdown.  A
set-up probe divides its time by the slowdown measured right after it.  A
measured run times the pass before the first repetition and after each
one, and multiplies each repetition's rounds per second by the mean
slowdown on either side of it.  Raw figures and slowdowns are kept in the
result file.
"""

import time

_T0 = time.perf_counter()  # set-up is timed from here, before fedalign is imported

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
REFERENCE_S = 0.010  # nominal time of one reference pass
OUT = ROOT / ".bench_out"
sys.path.insert(0, str(ROOT / "src"))


def _import_workloads():
    import fedalign

    if not Path(fedalign.__file__).resolve().is_relative_to(ROOT / "src"):
        raise SystemExit(f"fedalign imported from {fedalign.__file__}, not from {ROOT / 'src'}")
    import workloads

    return workloads


def environment() -> dict:
    import numpy

    sha = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True)
        sha = proc.stdout.strip() or None
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "cpu_count": os.cpu_count(),
        "platform": platform.platform(),
        "git_sha": sha,
    }


def setup(args) -> dict:
    workloads = _import_workloads()
    workloads.build(args.workload, args.seed, args.rounds)
    raw = time.perf_counter() - _T0
    slowdown = host_slowdown()
    return {"setup_s": raw / slowdown, "raw_setup_s": raw, "host_slowdown": slowdown}


def _peak_rss_mb() -> float:
    """Peak resident set of this process plus its largest waited-for child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0  # ru_maxrss is in KiB on Linux


def _reference_pass() -> float:
    import numpy as np

    v = np.arange(642.0)
    objs = []
    total = 0
    t0 = time.perf_counter()
    for i in range(3000):
        objs.append((i, i * 2.0, "x"))
        d = {"a": i, "b": v[i % 642]}
        w = v * 0.5 + 1.0
        total += int(w[i % 642]) + d["a"]
    return time.perf_counter() - t0


def host_slowdown() -> float:
    """Median of five reference passes over ``REFERENCE_S``: above 1 on a
    host running slower than nominal."""
    return statistics.median(_reference_pass() for _ in range(5)) / REFERENCE_S


def measure(args) -> dict:
    workloads = _import_workloads()
    import instrument

    inp = workloads.build(args.workload, args.seed, args.rounds)
    OUT.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT)
    untraced, traced, per_rep = [], [], []
    first_tracer = None
    start = time.perf_counter()
    slowdown = host_slowdown()
    try:
        while True:
            tracer = instrument.Tracer() if args.trace and len(untraced) > len(traced) else None
            t0 = time.perf_counter()
            rep = workloads.run_rep(inp, workdir, tracer)
            last = time.perf_counter() - t0
            after = host_slowdown()
            rep.slowdown, slowdown = (slowdown + after) / 2, after
            if tracer is None:
                untraced.append(rep)
            else:
                traced.append(rep)
                per_rep.append(instrument.rep_metrics(tracer, rep, workloads.SWEEP_JOBS))
                first_tracer = first_tracer or tracer
            enough = bool(untraced) and (bool(traced) or not args.trace)
            if enough and time.perf_counter() - start + last > args.seconds:
                break
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    reps = untraced + traced
    attempted, failed, digests = workloads.tally(reps)
    raw = [rep.rounds / rep.wall_s for rep in untraced]
    rates = [r * rep.slowdown for r, rep in zip(raw, untraced)]
    accuracies = [r.accuracy for r in reps[0].runs if r.accuracy is not None]
    result = {
        "attempted": attempted,
        "failed": failed,
        "problems": sorted({p for rep in reps for run in rep.runs for p in run.problems}),
        "digests": digests,
        "repetitions": len(untraced),
        "rounds_per_repetition": reps[0].rounds,
        "runs_per_repetition": len(reps[0].runs),
        "rounds_per_s": statistics.median(rates),
        "rounds_per_s_samples": rates,
        "raw_rounds_per_s_samples": raw,
        "host_slowdown_samples": [rep.slowdown for rep in untraced],
        "peak_rss_mb": _peak_rss_mb(),
        "target_accuracy": sum(accuracies) / len(accuracies) if accuracies else 0.0,
        "environment": environment(),
    }
    if args.trace:
        traced_rate = statistics.median(rep.rounds / rep.wall_s * rep.slowdown for rep in traced)
        layers = instrument.combine(per_rep)
        layers["trace.untraced_rounds_per_s"] = result["rounds_per_s"]
        layers["trace.traced_rounds_per_s"] = traced_rate
        layers["trace.overhead"] = result["rounds_per_s"] / traced_rate - 1.0
        result["per_layer"] = layers
        result["traced_repetitions"] = len(traced)
        spans_path = OUT / f"{args.workload}-seed{args.seed}-spans.json"
        with open(spans_path, "w", encoding="utf-8") as fh:
            json.dump(first_tracer.to_json(), fh)
        result["spans_file"] = str(spans_path.relative_to(ROOT))
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=("setup", "measure"))
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=1.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--rounds", type=int, default=None)
    args = parser.parse_args(argv)
    out = setup(args) if args.mode == "setup" else measure(args)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
