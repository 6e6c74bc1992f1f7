"""hazardlens benchmark: end-to-end and per-layer metrics for one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-check

Run from the root of a checkout. Every set-up and every timed operation runs
in a fresh interpreter (perfbench/op.py) with the checkout's `src/` on the
path, inside `.bench_work/<workload>/`.

--trace 0: set up five times (setup_s is the median), then run the timed
operation repeatedly for about S seconds (at least three times) and report
medians. --trace 1: set up once and run the operation once untraced and
twice traced; report the per-layer metrics, which must agree exactly in their
counts across the two traced operations. Every operation's outputs are
checked; the last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from spans import EXACT_COUNTS  # noqa: E402
from workloads import (  # noqa: E402
    INPUTS,
    RECOMPUTE_OUTS,
    RUN_OUT,
    TINY,
    TRAIN_OUT,
    WORKLOADS,
)

SETUPS = 5
MIN_OPS = 3
DEADLINE_S = 170.0  # every run ends within 180 s
EXPECTED = json.loads((HERE / "record.json").read_text("utf-8"))["manifest_sha256"]


class Run:
    """Operations attempted in one benchmark run and the problems found."""

    def __init__(self, workload, seed: int, work: Path):
        self.workload = workload
        self.seed = seed
        self.work = work
        self.started = time.monotonic()
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.digests: dict[str, str] = {}

    def fail(self, what: str) -> None:
        self.problems.append(what)
        print(f"FAILED: {what}", file=sys.stderr)

    def op(self, action: str, label: str, trace: bool = False, workers: int | None = None):
        """Run op.py once; returns (wall seconds, result dict) or None on failure."""
        self.attempted += 1
        result_path = self.work / f"result-{label}.json"
        result_path.unlink(missing_ok=True)
        cmd = [sys.executable, str(HERE / "op.py"), action, "--workload", self.workload.name,
               "--seed", str(self.seed), "--result", result_path.name, "--label", label]
        if trace:
            cmd.append("--trace")
        if workers is not None:
            cmd += ["--workers", str(workers)]
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        budget = max(1.0, DEADLINE_S - (time.monotonic() - self.started))
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=self.work, env=env, stdout=subprocess.DEVNULL,
                                start_new_session=True)
        # A blocking wait returns as the process exits; Popen.wait(timeout)
        # polls, which would round wall times up to 50 ms steps.
        deadline = threading.Timer(budget, _kill_group, (proc.pid,))
        deadline.start()
        try:
            code = proc.wait()
        finally:
            deadline.cancel()
        wall = time.perf_counter() - start
        _kill_group(proc.pid)  # anything the operation left in its process group
        if code != 0 or not result_path.is_file():
            self.failed += 1
            self.fail(f"{action} {label}: exit status {code}")
            return None
        result = json.loads(result_path.read_text("utf-8"))
        if any(result["exit_codes"]):
            self.failed += 1
            self.fail(f"{action} {label}: command exit codes {result['exit_codes']}")
            return None
        return wall, result

    def check(self, label: str, problems: list[str]) -> bool:
        """Count an operation whose outputs failed the check as failed."""
        for problem in problems:
            self.fail(f"{label}: {problem}")
        if problems:
            self.failed += 1
        return not problems

    def same_digest(self, key: str, digest: str) -> list[str]:
        """Digests of one kind must agree within the run and, where one was
        recorded for this workload and seed, with the recorded value."""
        problems = []
        first = self.digests.setdefault(key, digest)
        if digest != first:
            problems.append(f"{key} digest {digest[:12]} differs from {first[:12]} earlier")
        if key == "manifest":
            expected = EXPECTED.get(self.workload.name, {}).get(str(self.seed))
            if expected is not None and digest != expected:
                problems.append(f"manifest digest {digest[:12]} != recorded {expected[:12]}")
        return problems


def _kill_group(pgid: int) -> None:
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        pass


# -- output checks -------------------------------------------------------------

def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def check_run_dir(run_dir: Path) -> tuple[list[str], str | None]:
    """Every file the manifest lists hashes as recorded, and no pair failed.
    Returns (problems, sha256 of manifest.json)."""
    manifest_path = run_dir / "manifest.json"
    if not manifest_path.is_file():
        return ["manifest.json missing"], None
    problems = []
    for rel, digest in json.loads(manifest_path.read_text("utf-8")).items():
        path = run_dir / rel
        if not path.is_file():
            problems.append(f"{rel} missing")
        elif sha256(path) != digest:
            problems.append(f"{rel} does not match its manifest hash")
    summary_path = run_dir / "summary.json"
    if summary_path.is_file():
        failures = json.loads(summary_path.read_text("utf-8"))["failures"]
        if failures:
            problems.append(f"{len(failures)} pairs failed")
    return problems, sha256(manifest_path)


def _same_files(produced: Path, reference: Path, names: list[str]) -> list[str]:
    problems = []
    for name in names:
        if not (reference / name).is_file():
            problems.append(f"{produced.name}/{name} has no counterpart in {reference.name}/")
        elif (produced / name).read_bytes() != (reference / name).read_bytes():
            problems.append(f"{produced.name}/{name} differs from {reference.name}/{name}")
    return problems


def check_recompute(run_dir: Path) -> tuple[list[str], str]:
    """Recomputed transfer and importance files equal the run's own bytes;
    returns (problems, digest of the paper_literal importance files)."""
    transfer = sorted(p.name for p in (run_dir / "transfer_recomputed").glob("*"))
    importance = sorted(p.name for p in (run_dir / "importance_recomputed").glob("*.csv"))
    problems = []
    if sorted(p.name for p in (run_dir / "transfer").glob("*")) != transfer:
        problems.append("transfer_recomputed/ holds other files than transfer/")
    if not importance:
        problems.append("importance_recomputed/ is empty")
    problems += _same_files(run_dir / "transfer_recomputed", run_dir / "transfer", transfer)
    problems += _same_files(run_dir / "importance_recomputed", run_dir / "reports", importance)
    literal = hashlib.sha256()
    for path in sorted((run_dir / "importance_literal").glob("*.csv")):
        literal.update(path.name.encode() + b"\0" + path.read_bytes())
    return problems, literal.hexdigest()


def quality(work: Path, run_dir: Path) -> dict[str, float]:
    """mean_fbeta from summary.json; oracle_topk_recall from the planted
    informative features of the specs the benchmark generated."""
    summary = json.loads((run_dir / "summary.json").read_text("utf-8"))
    planted = json.loads((work / INPUTS / "planted.json").read_text("utf-8"))
    scores = [
        family["fbeta"]
        for pair in summary["pairs"].values()
        for family in pair["families"].values()
    ]
    recalls = [
        len(set(planted[h]) & set(top["top_features"])) / len(planted[h])
        for h, top in summary["overall_importance"].items()
    ]
    return {
        "mean_fbeta": statistics.fmean(scores),
        "oracle_topk_recall": statistics.fmean(recalls),
    }


def _clear(path: Path) -> None:
    if path.is_dir():
        shutil.rmtree(path)


def _clear_outputs(run: Run) -> None:
    if run.workload.kind == "run":
        _clear(run.work / RUN_OUT)
    else:
        for name in RECOMPUTE_OUTS:
            _clear(run.work / TRAIN_OUT / name)


def run_dir_of(run: Run) -> Path:
    return run.work / (RUN_OUT if run.workload.kind == "run" else TRAIN_OUT)


def check_op(run: Run, label: str) -> bool:
    """Check one finished operation's outputs and count it if they fail."""
    problems, digest = check_run_dir(run_dir_of(run))
    if digest is not None:
        problems += run.same_digest("manifest", digest)
    if run.workload.kind == "recompute" and label != "setup":
        more, literal = check_recompute(run_dir_of(run))
        problems += more + run.same_digest("paper_literal", literal)
    return run.check(label, problems)


def do_setup(run: Run, trace: bool = False, label: str = "setup"):
    _clear(run.work)
    run.work.mkdir(parents=True)
    done = run.op("setup", label, trace=trace)
    if done is not None and run.workload.kind == "recompute" and not check_op(run, "setup"):
        return None
    return done


def do_op(run: Run, label: str, trace: bool = False, workers: int | None = None):
    _clear_outputs(run)
    done = run.op("run", label, trace=trace, workers=workers)
    if done is None or not check_op(run, label):
        return None
    return done


# -- the two kinds of run --------------------------------------------------------

def end_to_end(run: Run, seconds: float) -> dict[str, float] | None:
    workload = run.workload
    setup_walls = []
    for i in range(SETUPS):
        done = do_setup(run, label=f"setup{i}")
        if done is not None:
            setup_walls.append(done[0])
    if not setup_walls:
        return None

    results = []
    scores = None
    window_start = time.perf_counter()
    last_wall = 0.0
    while len(results) < MIN_OPS or (
        time.perf_counter() - window_start + last_wall <= seconds
    ):
        if run.attempted > SETUPS + 4 * MIN_OPS and not results:
            break  # nothing succeeds; stop trying
        done = do_op(run, f"op{len(results)}")
        if done is not None:
            last_wall = done[0]
            results.append(done[1])
            scores = scores or quality(run.work, run_dir_of(run))
    if workload.reference_workers is not None:
        do_op(run, "reference", workers=workload.reference_workers)
    if not results:
        return None

    workers = workload.workers if workload.kind == "run" else 1
    run_s = [r["run_s"] for r in results]
    cpu_s = [r["cpu_s"] for r in results]
    metrics = {
        "setup_s": statistics.median(setup_walls),
        "run_s": statistics.median(run_s),
        "cpu_s": statistics.median(cpu_s),
        "pairs_per_s": statistics.median(workload.pairs / t for t in run_s),
        "core_utilization": statistics.median(
            c / (t * workers) for c, t in zip(cpu_s, run_s)
        ),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in results),
        "success_rate": 1.0 - run.failed / run.attempted,
        **scores,
    }
    print(f"timed operations: {len(results)} in {time.perf_counter() - window_start:.1f} s",
          file=sys.stderr)
    return metrics


def traced(run: Run) -> dict[str, float] | None:
    setup = do_setup(run, trace=True)
    if setup is None:
        return None
    plain = do_op(run, "untraced")
    first = do_op(run, "traced1", trace=True)
    second = do_op(run, "traced2", trace=True)
    if plain is None or first is None or second is None:
        return None
    a, b = first[1]["layers"], second[1]["layers"]
    run.check("traced2", [
        f"count {name} changed between traced runs: {a[name]} -> {b[name]}"
        for name in EXACT_COUNTS
        if a[name] != b[name]
    ])
    layers = {name: (a[name] + b[name]) / 2.0 for name in a}
    layers.update({name: a[name] for name in EXACT_COUNTS})
    # set-up layers are measured on the traced set-up, not the operation
    for name in ("synth.generate_s", "synth.self_s", "dataset.write_s"):
        layers[name] = setup[1]["layers"][name]
    layers["trace.overhead_s"] = layers["trace.run_s"] - plain[1]["run_s"]
    return layers


# -- reporting ------------------------------------------------------------------

def benchmark_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text("utf-8"))


def render(run: Run, values: dict[str, float], declared: list[dict]) -> dict:
    """The result object; every declared metric must have been measured."""
    metrics = {}
    for spec in declared:
        if spec["name"] not in values:
            run.fail(f"metric {spec['name']} was not measured")
            continue
        metrics[spec["name"]] = {"value": float(values[spec["name"]]), "unit": spec["unit"]}
    for name, entry in metrics.items():
        print(f"{name:34s} {entry['value']:>16.6g} {entry['unit']}")
    return {
        "correct": not run.problems,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": metrics,
    }


def environment() -> str:
    import numpy  # the checkout's program needs it; only the version is read here

    return (f"python {platform.python_version()}, numpy {numpy.__version__}, "
            f"nproc {os.cpu_count()}")


def benchmark(workload_name: str, seed: int, seconds: float, trace: bool) -> int:
    workload = WORKLOADS[workload_name]
    spec = benchmark_spec()
    declared = spec["per_layer"] if trace else spec["end_to_end"]
    run = Run(workload, seed, ROOT / ".bench_work" / workload.name)
    print(f"{workload.name} seed={seed} trace={int(trace)}; {environment()}", file=sys.stderr)
    values = traced(run) if trace else end_to_end(run, seconds)
    if values is None:
        print("no operation succeeded: " + "; ".join(run.problems), file=sys.stderr)
        return 1
    print(json.dumps(render(run, values, declared)))
    return 0


def self_check() -> int:
    """Harness self-check on a tiny scenario."""
    spec = benchmark_spec()
    verdicts = []

    def verdict(name: str, ok: bool, detail: str = "") -> None:
        verdicts.append(ok)
        print(f"SELF-CHECK {name}: {'PASS' if ok else 'FAIL'} {detail}".rstrip())

    work = ROOT / ".bench_work" / TINY.name
    plain = Run(TINY, 1, work)
    values = end_to_end(plain, 0.0)
    result = render(plain, values or {}, spec["end_to_end"])
    named = all(
        m["name"] in result["metrics"] and result["metrics"][m["name"]]["unit"] == m["unit"]
        for m in spec["end_to_end"]
    )
    verdict("end-to-end metrics printed by name and unit", named and result["correct"])
    verdict("untraced run has no failures", result["failed"] == 0 and result["attempted"] > 0)

    traced_run = Run(TINY, 1, work)
    layers = traced(traced_run)
    result = render(traced_run, layers or {}, spec["per_layer"])
    verdict("per-layer metrics printed by name and unit, counts repeat, "
            "traced and untraced manifests agree",
            result["correct"] and len(result["metrics"]) == len(spec["per_layer"]))

    # corrupt one output file of a finished operation: the check must catch it
    victim = work / RUN_OUT / "reports" / "cv_table.csv"
    victim.write_bytes(victim.read_bytes() + b"x")
    caught = Run(TINY, 1, work)
    caught.attempted = 1
    ok = check_op(caught, "corrupted")
    verdict("corrupted output is caught and counted as failed",
            not ok and caught.failed == 1, f"({'; '.join(caught.problems)})")
    shutil.rmtree(work)
    return 0 if all(verdicts) else 1


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1))
    parser.add_argument("--self-check", action="store_true")
    args = parser.parse_args()
    if not (ROOT / "src" / "hazardlens" / "__init__.py").is_file():
        print(f"no hazardlens sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.self_check:
        return self_check()
    if None in (args.workload, args.seed, args.seconds, args.trace):
        parser.error("--workload, --seed, --seconds and --trace are required")
    return benchmark(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
