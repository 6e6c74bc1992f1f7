"""Command-line entry points.

Subcommands: `run` executes a configured experiment, `synth` emits a
synthetic scenario as plain CSV files, and `transfer` / `importance`
recompute their artifacts from the serialized models of a finished run.
Exit codes: 0 success, 2 validation error, 3 partial failure.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import report as rpt
from .cart import IMPORTANCE_MODES
from .dataset import write_county_csv
from .errors import AllZeroImportance, HazardLensError, InvalidConfig
from .importance import (
    ImportanceVector,
    build_rank_matrix,
    forest_importance,
    normalize,
    overall_importance,
)
from .pipeline import (
    PRESETS,
    RunConfig,
    canonical_family,
    load_run_models,
    load_run_summary,
    rebuild_eval_splits,
    run,
)
from .seeds import child_seed
from .synth import generate_county, planted_oracle, synth6x3_feature_groups, synth6x3_specs
from .transfer import BASELINE_BOTH, TransferPolicy, cross_county, cross_hazard

EXIT_OK = 0
EXIT_INVALID = 2
EXIT_PARTIAL = 3


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hazardlens",
        description="Tree-ensemble analysis of hazard exposure drivers",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute a configured experiment")
    p_run.add_argument("--config", help="JSON config file")
    p_run.add_argument("--preset", choices=sorted(PRESETS), help="built-in scenario")
    p_run.add_argument("--seed", type=int, help="master seed (overrides config)")
    p_run.add_argument("--out", help="output directory (overrides config)")
    p_run.add_argument("--workers", type=int, help="parallel worker count")
    p_run.add_argument("--beta", type=float, help="F-score beta")

    p_synth = sub.add_parser("synth", help="emit synthetic scenario CSV files")
    p_synth.add_argument("--preset", choices=["synth6x3"], default="synth6x3")
    p_synth.add_argument("--seed", type=int, required=True)
    p_synth.add_argument("--out", required=True)
    p_synth.add_argument("--noise", type=float, default=0.3)

    p_tr = sub.add_parser("transfer", help="recompute transfer matrices from a run")
    p_tr.add_argument("--run", required=True, help="finished run directory")
    p_tr.add_argument("--out", help="output directory (default <run>/transfer_recomputed)")

    p_imp = sub.add_parser("importance", help="recompute importance from a run")
    p_imp.add_argument("--run", required=True, help="finished run directory")
    p_imp.add_argument("--out", help="output directory (default <run>/importance_recomputed)")
    p_imp.add_argument("--mode", choices=IMPORTANCE_MODES, help="importance formula")

    return parser


def _cmd_run(args) -> int:
    if args.config:
        raw = json.loads(Path(args.config).read_text("utf-8"))
        if args.seed is not None:
            raw["seed"] = args.seed
        if args.out:
            raw["out_dir"] = args.out
        if args.workers is not None:
            raw["workers"] = args.workers
        if args.beta is not None:
            raw["beta"] = args.beta
        config = RunConfig.from_dict(raw)
    elif args.preset:
        if args.seed is None or not args.out:
            raise InvalidConfig("--preset runs need --seed and --out")
        config = PRESETS[args.preset](args.seed, args.out, workers=args.workers or 1)
        if args.beta is not None:
            raw = config.to_dict()
            raw["beta"] = args.beta
            config = RunConfig.from_dict(raw)
    else:
        raise InvalidConfig("run needs --config or --preset")
    report = run(config)
    for (county, hazard), res in report.results.items():
        scores = ", ".join(
            f"{family} F{config.beta:g}={outcome.fbeta * 100:.2f}"
            for family, outcome in sorted(res.outcomes.items())
        )
        print(f"{county}/{hazard}: n={res.labeled_n} {scores}")
    if report.absent:
        print(f"absent pairs: {', '.join('/'.join(p) for p in report.absent)}")
    if report.failures:
        for failure in report.failures:
            print(
                f"FAILED {failure['county']}/{failure['hazard']}: "
                f"{failure['error']}: {failure['message']}",
                file=sys.stderr,
            )
        return EXIT_PARTIAL
    print(f"report written to {report.out_dir}")
    return EXIT_OK


def _cmd_synth(args) -> int:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    specs = synth6x3_specs(child_seed(args.seed, "synth"), noise=args.noise)
    oracle = {}
    for spec in specs:
        county = generate_county(spec)
        write_county_csv(county, out / f"{county.county_id}.csv")
        told = planted_oracle(spec)
        oracle[county.county_id] = {
            "informative": list(told.top_features),
            "per_hazard_informative": {
                h: list(s) for h, s in zip(spec.hazards, told.per_hazard_informative)
            },
            "law": spec.law,
            "coupling": spec.coupling,
        }
        print(f"wrote {county.county_id}.csv ({county.n} tracts)")
    (out / "oracle.json").write_text(
        json.dumps(oracle, sort_keys=True, indent=2) + "\n", "utf-8"
    )
    (out / "feature_groups.json").write_text(
        json.dumps(synth6x3_feature_groups(), sort_keys=True, indent=2) + "\n", "utf-8"
    )
    return EXIT_OK


def _transfer_policy(summary: dict) -> TransferPolicy:
    cfg = summary["config"]
    return TransferPolicy(
        threshold=cfg["transfer"]["threshold"],
        beta=cfg["beta"],
        baseline=cfg["transfer"]["baseline"],
        eval_on=cfg["transfer"]["eval_on"],
    )


def _finished_run(path: str) -> tuple[Path, dict]:
    """The run directory and its summary; checked before anything is written."""
    run_dir = Path(path)
    if not (run_dir / "summary.json").is_file():
        raise InvalidConfig(f"{run_dir} is not a finished run: no summary.json")
    return run_dir, load_run_summary(run_dir)


def _cmd_transfer(args) -> int:
    run_dir, summary = _finished_run(args.run)
    out = Path(args.out) if args.out else run_dir / "transfer_recomputed"
    out.mkdir(parents=True, exist_ok=True)
    policy = _transfer_policy(summary)
    canonical = canonical_family(summary["config"]["families"])
    models = load_run_models(run_dir)
    splits = rebuild_eval_splits(run_dir)

    def emit(matrix, stem):
        rpt.write_transfer_csv(out / f"{stem}.csv", matrix)
        rpt.write_heatmap(out / f"{stem}.svg", matrix)
        print(f"wrote {stem}.csv / {stem}.svg")

    hazards = tuple(summary["hazards"])
    counties = tuple(summary["counties"])
    for hazard in hazards:
        ms = {c: m for (c, h, fam), m in models.items() if h == hazard and fam == canonical}
        evals = {c: s for (c, h), s in splits.items() if h == hazard}
        if len(set(ms) & set(evals)) < 2:
            continue
        outcome = cross_county(hazard, ms, evals, policy, registry=counties)
        if policy.baseline == BASELINE_BOTH:
            for name, matrix in sorted(outcome.items()):
                emit(matrix, f"cross_county_{hazard}__{name}")
        else:
            emit(outcome, f"cross_county_{hazard}")
    for county in counties:
        ms = {h: m for (c, h, fam), m in models.items() if c == county and fam == canonical}
        evals = {h: s for (c, h), s in splits.items() if c == county}
        if len(set(ms) & set(evals)) < 2:
            continue
        outcome = cross_hazard(county, ms, evals, policy, registry=hazards)
        if policy.baseline == BASELINE_BOTH:
            for name, matrix in sorted(outcome.items()):
                emit(matrix, f"cross_hazard_{county}__{name}")
        else:
            emit(outcome, f"cross_hazard_{county}")
    return EXIT_OK


def _cmd_importance(args) -> int:
    run_dir, summary = _finished_run(args.run)
    out = Path(args.out) if args.out else run_dir / "importance_recomputed"
    out.mkdir(parents=True, exist_ok=True)
    mode = args.mode or summary["config"]["importance_mode"]
    top_k = summary["config"]["top_k"]
    models = load_run_models(run_dir)

    by_hazard: dict[str, dict[str, ImportanceVector]] = {}
    skipped = []
    for (county, hazard, family), model in sorted(models.items()):
        if family != "forest":
            continue
        try:
            vector = normalize(forest_importance(model, mode))
        except AllZeroImportance as exc:
            skipped.append((county, hazard))
            print(f"skipping {county}/{hazard}: {exc}", file=sys.stderr)
            continue
        by_hazard.setdefault(hazard, {})[county] = vector
    for hazard in sorted(by_hazard):
        rpt.write_importance_csv(out / f"importance_{hazard}.csv", by_hazard[hazard])
        overall = overall_importance(build_rank_matrix(by_hazard[hazard]), top_k)
        rpt.write_overall_csv(out / f"overall_importance_{hazard}.csv", overall)
        print(f"wrote importance_{hazard}.csv / overall_importance_{hazard}.csv")
    return EXIT_PARTIAL if skipped else EXIT_OK


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "run": _cmd_run,
        "synth": _cmd_synth,
        "transfer": _cmd_transfer,
        "importance": _cmd_importance,
    }
    try:
        return handlers[args.command](args)
    except InvalidConfig as exc:
        print(f"invalid configuration: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except HazardLensError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INVALID


if __name__ == "__main__":
    sys.exit(main())
