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

from .cart import IMPORTANCE_MODES
from .errors import HazardLensError, InvalidConfig
from .pipeline import (
    PRESETS,
    RunConfig,
    canonical_family,
    load_run_config,
    load_run_models,
    load_run_summary,
    importance_vectors,
    publish,
    rebuild_eval_splits,
    run,
    scenario_specs,
    study_inputs,
    write_importance,
    write_scenario,
    write_transfer,
)

# Not called here: the recompute commands reach them through pipeline's
# functions. perfbench/spans.py wraps these names in this module as well as in
# pipeline, so they stay bound.
from .importance import forest_importance  # noqa: F401
from .transfer import cross_county, cross_hazard  # noqa: F401

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
        try:
            raw = json.loads(Path(args.config).read_text("utf-8-sig"))
        except (OSError, ValueError) as exc:
            raise InvalidConfig(f"cannot read config {args.config}: {exc}") from None
        if not isinstance(raw, dict):
            raise InvalidConfig("config must be a JSON object")
    elif args.preset:
        raw = {"synth": {"preset": args.preset}}
    else:
        raise InvalidConfig("run needs --config or --preset")
    overrides = {"seed": args.seed, "out_dir": args.out, "workers": args.workers, "beta": args.beta}
    raw.update((key, value) for key, value in overrides.items() if value is not None)
    config = RunConfig.from_dict(raw)
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


def _publish(out_dir: Path, write) -> None:
    for rel in publish(out_dir, write)[1]:
        print(f"wrote {rel}")


def _cmd_synth(args) -> int:
    specs, groups = scenario_specs({"preset": args.preset, "noise": args.noise}, args.seed)
    _publish(Path(args.out), lambda stage: write_scenario(specs, groups, stage))
    return EXIT_OK


def _finished_run(path: str) -> tuple[Path, dict, RunConfig]:
    """The run directory, its summary and its config; checked before
    anything is written. The summary is read and the config built once per
    command, and handed to every loader."""
    run_dir = Path(path)
    if not (run_dir / "summary.json").is_file():
        raise InvalidConfig(f"{run_dir} is not a finished run: no summary.json")
    summary = load_run_summary(run_dir)
    return run_dir, summary, load_run_config(run_dir, summary)


def _cmd_transfer(args) -> int:
    run_dir, summary, config = _finished_run(args.run)
    out = Path(args.out) if args.out else run_dir / "transfer_recomputed"
    models = load_run_models(run_dir, summary, canonical_family(config.families))
    evals = rebuild_eval_splits(run_dir, summary, config)
    _publish(out, lambda stage: write_transfer(
        stage, models, evals, tuple(summary["counties"]), tuple(summary["hazards"]), config.policy
    ))
    return EXIT_OK


def _cmd_importance(args) -> int:
    run_dir, summary, config = _finished_run(args.run)
    out = Path(args.out) if args.out else run_dir / "importance_recomputed"
    mode = args.mode or config.importance_mode
    _, groups = study_inputs(config, run_dir)
    models = load_run_models(run_dir, summary, "forest") if "forest" in config.families else {}
    vectors, notes = importance_vectors(models, mode)
    for (county, hazard), note in sorted(notes.items()):
        print(f"skipping {county}/{hazard}: {note}", file=sys.stderr)
    _publish(out, lambda stage: write_importance(stage, vectors, config.top_k, groups))
    return EXIT_PARTIAL if notes else EXIT_OK


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
