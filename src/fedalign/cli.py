"""Command-line entry point: ``fedalign run | sweep | gen-data``.

Configuration is a single JSON document per invocation.  Every run
directory is self-describing: ``manifest.json`` snapshots the normalized
config (with any ``--seed`` override applied), and feeding a manifest back
to ``run --config`` reproduces ``summary.json`` byte for byte — the
manifest plus the package is the whole experiment.

Exit codes: 0 success, 1 runtime failure (I/O, numerical), 2 configuration
error (the diagnostic names the offending field or file position, or the
``--jobs`` flag when it is below 1).

Output goes under ``--out``; when omitted, under ``$FEDALIGN_OUT`` (or the
current directory) in a folder named after the config file.

A run config looks like::

    {
      "target": "dom3",
      "model": {"hidden_dim": 8, "activation": "relu"},
      "data": {"synthetic": {"family": "rotated_two_moons", ...}},
      "federation": {"strategy": "aligned", "rounds": 400, ...}
    }

``data`` is either ``synthetic`` (see SyntheticSpec) or ``csv`` with
``{"path", "feature_cols", "label_col", "domain_col"}``.  A sweep config
replaces ``target`` with a ``sweep`` block (strategies/seeds/targets plus
optional per-strategy overrides); a gen-data spec is the bare synthetic
object.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
from dataclasses import replace
from datetime import datetime, timezone

from . import __version__
from .domains import CsvSchema, DomainSuite, SyntheticSpec, generate, load_csv, save_csv
from .errors import ConfigError, FedAlignError, InvalidLambda, InvalidSpec, ParseError, from_json, to_json
from .federation import ROUND_CSV_COLUMNS, FedConfig, run_experiment
from .models import ModelSpec
from .sweep import RESULT_CSV_COLUMNS, SweepSpec, cell_config, run_sweep

__all__ = ["main", "cmd_run", "cmd_sweep", "cmd_gen_data"]


def _fmt(v) -> str:
    """CSV cell formatting: floats at 17 significant digits so files diff
    meaningfully; everything else via str."""
    if isinstance(v, bool):
        return str(v).lower()
    if isinstance(v, float):
        return f"{v:.17g}"
    if v is None:
        return ""
    return str(v)


def _write_csv(path: str, columns, rows) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(columns)
        for row in rows:
            writer.writerow([_fmt(row[c]) for c in columns])


def _finite_or_null(v):
    """``v`` with every non-finite float (a diverged or overflowed metric)
    replaced by None, which JSON writes as null."""
    if isinstance(v, float):
        return v if math.isfinite(v) else None
    if isinstance(v, dict):
        return {k: _finite_or_null(x) for k, x in v.items()}
    if isinstance(v, (list, tuple)):
        return [_finite_or_null(x) for x in v]
    return v


def _write_json(path: str, obj) -> None:
    """Write ``obj`` as indented JSON, non-finite floats as null.  The
    document is serialized before the file is opened, so a failure leaves
    no partial file behind."""
    text = json.dumps(_finite_or_null(obj), indent=2, allow_nan=False) + "\n"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def _load_json(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except json.JSONDecodeError as exc:
        raise ParseError(exc.lineno, str(exc.colno), exc.msg) from exc


def _say(quiet: bool, msg: str) -> None:
    if not quiet:
        print(msg)


def _out_dir(args, suffix: str) -> str:
    if args.out:
        return args.out
    root = os.environ.get("FEDALIGN_OUT", ".")
    stem = os.path.splitext(os.path.basename(args.config_path))[0]
    return os.path.join(root, f"{stem}-{suffix}")


def _section(doc: dict, key: str) -> dict:
    """A config section; only a missing section or null means defaults."""
    block = doc.get(key)
    if block is None:
        return {}
    if not isinstance(block, dict):
        raise ConfigError(key, "must be a JSON object")
    return block


def _suite_from_config(data: dict) -> tuple[DomainSuite, dict]:
    """Build the domain suite from the config's data block; returns the
    suite and the normalized block for the manifest."""
    if not isinstance(data, dict) or len(data) != 1 or next(iter(data)) not in ("synthetic", "csv"):
        raise ConfigError("data", 'must contain exactly one of "synthetic" or "csv"')
    if "synthetic" in data:
        spec = from_json(SyntheticSpec, data["synthetic"], "data.synthetic")
        return generate(spec), {"synthetic": to_json(spec)}
    block = data["csv"]
    if not isinstance(block, dict):
        raise ConfigError("data.csv", "must be a JSON object")
    schema_doc = dict(block)
    path = schema_doc.pop("path", None)
    if not isinstance(path, str):
        raise ConfigError("data.csv.path", "must be a file path string")
    suite = load_csv(path, from_json(CsvSchema, schema_doc, "data.csv"))
    return suite, {"csv": dict(block)}


def _model_from_config(block: dict, suite: DomainSuite) -> ModelSpec:
    """The model section; ``input_dim`` and ``num_classes`` come from the data."""
    return from_json(
        ModelSpec,
        {"hidden_dim": 8, **block},
        "model",
        input_dim=suite.num_features,
        num_classes=suite.num_classes,
    )


def _warn_duplicate_of_fedavg(cfg: FedConfig) -> None:
    """fedprox's proximal pull acts between local steps, so with one step a
    fedprox run repeats fedavg's exactly; say so on stderr."""
    if cfg.strategy == "fedprox" and cfg.local_steps == 1:
        print(
            "warning: strategy fedprox with local_steps 1 computes the same run as fedavg; "
            "its proximal term needs local_steps > 1",
            file=sys.stderr,
        )


def _model_dict(model: ModelSpec) -> dict:
    return {"hidden_dim": model.hidden_dim, "activation": model.activation}


def _manifest(command: str, config: dict, seed_list: list, outputs: dict) -> dict:
    return {
        "tool_version": __version__,
        "created_at": datetime.now(timezone.utc).isoformat(),
        "command": command,
        "seed_list": seed_list,
        "config": config,
        "outputs": outputs,
    }


def _unwrap_manifest(doc: dict) -> dict:
    """Accept either a bare config or a previously written manifest."""
    if isinstance(doc, dict) and "config" in doc and "tool_version" in doc:
        return doc["config"]
    return doc


def _load_config(path: str, head: str) -> tuple[dict, DomainSuite, dict, ModelSpec]:
    """A run or sweep config (or its manifest) whose own section is
    ``head``: the document, the domain suite, the normalized data block and
    the model."""
    doc = _unwrap_manifest(_load_json(path))
    if not isinstance(doc, dict):
        raise ConfigError("config", "top level must be a JSON object")
    known = {head, "model", "data", "federation"}
    for key in doc:
        if key not in known:
            raise ConfigError(key, "unknown config section")
    if head not in doc or "data" not in doc:
        raise ConfigError("config", f'"{head}" and "data" are required')

    suite, data_block = _suite_from_config(doc["data"])
    return doc, suite, data_block, _model_from_config(_section(doc, "model"), suite)


def cmd_run(args) -> int:
    doc, suite, data_block, model = _load_config(args.config_path, "target")
    cfg = FedConfig.from_dict(_section(doc, "federation"))
    if args.seed is not None:
        cfg = replace(cfg, seed=args.seed)
    target = doc["target"]
    if target not in suite.domain_ids:
        raise ConfigError("target", f"unknown domain {target!r}")
    _warn_duplicate_of_fedavg(cfg)

    result = run_experiment(suite, target, model, cfg)

    outdir = _out_dir(args, "run")
    os.makedirs(outdir, exist_ok=True)
    paths = {
        "manifest": os.path.join(outdir, "manifest.json"),
        "rounds": os.path.join(outdir, "rounds.csv"),
        "summary": os.path.join(outdir, "summary.json"),
    }
    normalized = {
        "target": target,
        "model": _model_dict(model),
        "data": data_block,
        "federation": cfg.to_dict(),
    }
    s = result.summary()
    _write_csv(paths["rounds"], ROUND_CSV_COLUMNS, result.csv_rows())
    _write_json(paths["summary"], s)
    _write_json(
        paths["manifest"],
        _manifest("run", normalized, [cfg.seed], {k: os.path.basename(v) for k, v in paths.items()}),
    )
    _say(
        args.quiet,
        f"{cfg.strategy} target={target} seed={cfg.seed} rounds={s['rounds']}: "
        f"target accuracy {s['final_target_accuracy']:.4f} "
        f"(conflict rounds {s['conflict_round_fraction']:.0%})",
    )
    _say(args.quiet, f"wrote {outdir}")
    return 0


def cmd_sweep(args) -> int:
    doc, suite, data_block, model = _load_config(args.config_path, "sweep")
    spec = SweepSpec.from_dict(doc["sweep"])
    if args.seed is not None:
        spec = replace(spec, seeds=(args.seed,))
    base = dict(_section(doc, "federation"))
    base.pop("strategy", None)
    base.pop("seed", None)
    for key in ("lambda", "mu"):
        if key in base:
            raise ConfigError(
                f"federation.{key}", "belongs to one strategy; set it in sweep.overrides for that strategy"
            )
    # Build every strategy's cell config now, so a bad shared field or
    # override fails before any cell runs.
    cell_configs = [cell_config(base, spec, strategy, spec.seeds[0]) for strategy in spec.strategies]
    for tgt in spec.targets:
        if tgt not in suite.domain_ids:
            raise ConfigError("sweep.targets", f"unknown domain {tgt!r}")
    for cfg in cell_configs:
        _warn_duplicate_of_fedavg(cfg)

    result = run_sweep(
        suite,
        model,
        base,
        spec,
        jobs=args.jobs,
        progress=None if args.quiet else lambda line: print(line),
    )

    outdir = _out_dir(args, "sweep")
    os.makedirs(outdir, exist_ok=True)
    paths = {
        "manifest": os.path.join(outdir, "manifest.json"),
        "results": os.path.join(outdir, "results.csv"),
        "aggregate": os.path.join(outdir, "aggregate.csv"),
        "summary": os.path.join(outdir, "summary.json"),
    }
    normalized = {
        "sweep": to_json(spec),
        "model": _model_dict(model),
        "data": data_block,
        "federation": base,
    }
    _write_csv(paths["results"], RESULT_CSV_COLUMNS, result.results_rows())
    _write_csv(paths["aggregate"], result.aggregate_columns(), result.aggregate_rows())
    _write_json(paths["summary"], result.to_dict())
    _write_json(
        paths["manifest"],
        _manifest(
            "sweep", normalized, list(spec.seeds), {k: os.path.basename(v) for k, v in paths.items()}
        ),
    )
    if not args.quiet:
        for row in result.aggregate_rows():
            cells = "  ".join(f"{t}={row[t]:.4f}" for t in spec.targets)
            print(f"{row['strategy']:>8}: {cells}  average={row['average']:.4f}")
        failed = [c for c in result.cells if c.error]
        if failed:
            print(f"{len(failed)} cell(s) failed; see results.csv")
    _say(args.quiet, f"wrote {outdir}")
    return 0


def cmd_gen_data(args) -> int:
    doc = _unwrap_manifest(_load_json(args.config_path))
    spec = from_json(SyntheticSpec, doc, "data.synthetic")
    if args.seed is not None:
        spec = replace(spec, seed=args.seed)
    suite = generate(spec)
    out = args.out
    if not out:
        root = os.environ.get("FEDALIGN_OUT", ".")
        stem = os.path.splitext(os.path.basename(args.config_path))[0]
        out = os.path.join(root, f"{stem}.csv")
    parent = os.path.dirname(out)
    if parent:
        os.makedirs(parent, exist_ok=True)
    save_csv(suite, out)
    rows = sum(d.num_rows for d in suite.domains)
    _say(args.quiet, f"wrote {rows} rows across {len(suite.domains)} domains to {out}")
    return 0


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {text!r}")
    return value


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fedalign",
        description="Deterministic federated-learning simulator with gradient-alignment aggregation.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run one leave-one-domain-out experiment")
    run_p.add_argument("--config", dest="config_path", required=True, help="run config or manifest JSON")
    run_p.set_defaults(func=cmd_run)

    sweep_p = sub.add_parser("sweep", help="run a strategy x target x seed grid")
    sweep_p.add_argument("--spec", dest="config_path", required=True, help="sweep config or manifest JSON")
    sweep_p.add_argument(
        "--jobs", type=_positive_int, default=1, help="worker processes, at most one per cell (default 1: sequential)"
    )
    sweep_p.set_defaults(func=cmd_sweep)

    gen_p = sub.add_parser("gen-data", help="generate a synthetic multi-domain CSV")
    gen_p.add_argument("--spec", dest="config_path", required=True, help="synthetic spec JSON")
    gen_p.set_defaults(func=cmd_gen_data)

    for p in (run_p, sweep_p, gen_p):
        p.add_argument("--out", default=None, help="output directory (gen-data: output file)")
        p.add_argument("--seed", type=int, default=None, help="override the config seed")
        p.add_argument("--quiet", action="store_true", help="suppress progress output")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, InvalidSpec, InvalidLambda, ParseError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (FedAlignError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
