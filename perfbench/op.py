"""One benchmark operation, run in a fresh interpreter by run.py.

    python3 perfbench/op.py setup --workload NAME --seed N --result FILE [--trace]
    python3 perfbench/op.py run   --workload NAME --seed N --result FILE [--trace] [--workers N]

The working directory is the workload's scratch directory. `setup`
generates the workload's input CSVs (and, for recompute, trains the run that
is read back); `run` performs the timed operation and writes its wall time,
CPU time and peak resident set to FILE as JSON. With --trace, spans are
recorded around the hazardlens calls, written to trace/, and the per-layer
metrics are added to FILE.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import hazardlens  # noqa: E402
from hazardlens import cli, dataset, pipeline, synth  # noqa: E402

import spans  # noqa: E402
from workloads import INPUTS, RUN_OUT, TINY, TRAIN_OUT, WORKLOADS, scenario_specs  # noqa: E402


def _input_paths() -> list[str]:
    return sorted(p.as_posix() for p in Path(INPUTS).glob("*.csv"))


def setup(workload, seed: int) -> None:
    """Write the workload's inputs, and the planted informative features
    per hazard (as feature names) that oracle_topk_recall is scored against."""
    inputs = Path(INPUTS)
    inputs.mkdir(parents=True, exist_ok=True)
    planted: dict[str, set[str]] = {}
    for spec in scenario_specs(workload, seed):
        county = synth.generate_county(spec)
        dataset.write_county_csv(county, inputs / f"{county.county_id}.csv")
        names = county.schema.feature_names
        told = synth.planted_oracle(spec)
        for hazard, informative in zip(spec.hazards, told.per_hazard_informative):
            planted.setdefault(hazard, set()).update(names[j] for j in informative)
    (inputs / "planted.json").write_text(
        json.dumps({h: sorted(s) for h, s in sorted(planted.items())}, indent=1), "utf-8"
    )
    if workload.kind == "recompute":
        config = workload.run_config(seed, _input_paths(), TRAIN_OUT, workload.workers)
        pipeline.run(config)


def operation(workload, seed: int, workers: int) -> list[int]:
    """The timed operation; returns the exit codes of the commands it ran."""
    if workload.kind == "run":
        pipeline.run(workload.run_config(seed, _input_paths(), RUN_OUT, workers))
        return [0]
    run_dir = TRAIN_OUT
    with contextlib.redirect_stdout(io.StringIO()):
        return [
            cli.main(["transfer", "--run", run_dir]),
            cli.main(["importance", "--run", run_dir]),
            cli.main(
                ["importance", "--run", run_dir, "--mode", "paper_literal",
                 "--out", f"{run_dir}/importance_literal"]
            ),
        ]


def _cpu_s(usage) -> float:
    return usage.ru_utime + usage.ru_stime


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("action", choices=("setup", "run"))
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--result", required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--workers", type=int)
    parser.add_argument("--label", default="op")
    args = parser.parse_args()

    src = (ROOT / "src").resolve()
    if src not in Path(hazardlens.__file__).resolve().parents:
        print(f"hazardlens imported from outside {src}", file=sys.stderr)
        return 2
    workload = TINY if args.workload == TINY.name else WORKLOADS[args.workload]
    workers = args.workers or workload.workers

    tracer = None
    if args.trace:
        tracer = spans.Tracer(Path("trace") / f"children-{args.label}")
        spans.install(tracer)
        # calls the benchmark makes directly
        pipeline.run = tracer.wrap("pipeline.run", pipeline.run)
        cli.main = tracer.wrap("cli.main", cli.main)

    self0 = resource.getrusage(resource.RUSAGE_SELF)
    child0 = resource.getrusage(resource.RUSAGE_CHILDREN)
    start = time.perf_counter()
    if args.action == "setup":
        setup(workload, args.seed)
        codes = [0]
    else:
        codes = operation(workload, args.seed, workers)
    run_s = time.perf_counter() - start
    self1 = resource.getrusage(resource.RUSAGE_SELF)
    child1 = resource.getrusage(resource.RUSAGE_CHILDREN)

    result = {
        "exit_codes": codes,
        "run_s": run_s,
        "cpu_s": _cpu_s(self1) - _cpu_s(self0) + _cpu_s(child1) - _cpu_s(child0),
        "peak_rss_mb": max(self1.ru_maxrss, child1.ru_maxrss) / 1024.0,
    }
    if tracer is not None:
        tracer.collect_children()
        Path("trace").mkdir(exist_ok=True)
        tracer.write(Path("trace") / f"spans-{args.label}.jsonl")
        result["layers"] = spans.layer_metrics(tracer.spans, run_s, workers)
    Path(args.result).write_text(json.dumps(result), "utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
