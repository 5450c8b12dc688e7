"""Parent-versus-change benchmark pairs, written as one BENCH_<n>.json.

Three series, each run alternately on two checkouts (a parent and a change),
one process at a time; in odd pairs the parent runs first, in even pairs the
change does:

- perfbench: `python3 perfbench/run.py --workload W --seed S --seconds T
  --trace 0` in each checkout, with T the run_seconds of BENCHMARK.json.
  Every workload gets 10 pairs, seeds 100 k + 1 to 100 k + 10 for the k-th
  workload (from 1). The report gives each end-to-end metric's median,
  quartiles, IQR and runs per side, the change's relative move, whether it
  stays within BENCHMARK.json's bound, and the pairs the change wins (ties
  count for neither). It also compares the output digests of every sub-seed
  both sides ran.
- criterion 5: 6 pairs of yardstick.py's criterion-5 run (seed 0), each a
  fresh process pinned to one CPU: the wall time and the digests of the
  three output files.
- stages: one more such run per side with a perf_counter pair and the
  minor page faults (getrusage) around each call of the engine's stages,
  as shares of the run's wall time.

    python scripts/bench_pairs.py --parent PARENT --change CHANGE --out BENCH_25.json \\
        --claim cbi-short:evo_job_s_p50

PARENT and CHANGE are checkout roots (each with src/, perfbench/ and
BENCHMARK.json). perfbench writes its records under each root's .perfbench/.
The claim is met when the change's median is better, the change wins at
least nine tenths of the pairs, and the medians differ by more than the
parent's IQR.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import yardstick

WORKLOADS = ("cbi-short", "long-fresh", "external-cli")
PAIRS = 10
C5_PAIRS = 6
# (module, owner attribute or None, name) of each timed stage, outermost first
STAGES = (
    ("evocf.evolution", None, "initialize"),
    ("evocf.evolution", None, "select"),
    ("evocf.evolution", None, "crossover"),
    ("evocf.evolution", None, "mutate"),
    ("evocf.evolution", None, "recombine"),
    ("evocf.evolution", None, "_cycle_stats"),
    ("evocf.viability", "ViabilityScorer", "score_batch"),
    ("evocf.viability", None, "_row_keys"),
    ("evocf.viability", None, "edit_distances"),
    ("evocf.markov", None, "feasibility"),
    ("evocf.predictor", "LogisticOutcomePredictor", "predict_proba_batch"),
)


# ---------------------------------------------------------------------------
# the stage worker: one criterion-5 run in this process, its stages timed


def staged_criterion_5(out_dir: Path) -> dict:
    """yardstick.run_seed(0) with each STAGES call timed: wall time, digests and stages."""
    import importlib
    import resource

    spent: dict[str, list] = {}

    def timed(name, function):
        def wrapper(*args, **kwargs):
            faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
            started = time.perf_counter()
            try:
                return function(*args, **kwargs)
            finally:
                entry = spent.setdefault(name, [0, 0.0, 0])
                entry[0] += 1
                entry[1] += time.perf_counter() - started
                entry[2] += resource.getrusage(resource.RUSAGE_SELF).ru_minflt - faults

        return wrapper

    for module_name, owner_name, name in STAGES:
        module = importlib.import_module(module_name)
        owner = getattr(module, owner_name) if owner_name else module
        setattr(owner, name, timed(name, getattr(owner, name)))
    result = yardstick.run_seed(0, out_dir)
    return {
        "evocf": result["evocf"],
        "wall_s": result["wall_s"],
        "digests": result["digests"],
        "stages": {
            name: {"calls": calls, "seconds": seconds, "share": seconds / result["wall_s"],
                   "minor_faults": faults}
            for name, (calls, seconds, faults) in spent.items()
        },
    }


def staged_in_fresh_process(root: Path) -> dict:
    with tempfile.TemporaryDirectory() as out_dir:
        return yardstick.in_fresh_process(root / "src", [__file__, "--stages", out_dir], cpu=1)


# ---------------------------------------------------------------------------
# perfbench pairs


def perfbench(root: Path, workload: str, seed: int, seconds: float) -> dict:
    """One perfbench run in root: its metrics, correctness and digests by sub-seed."""
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=root, capture_output=True, text=True, check=True,
    )
    summary = json.loads(done.stdout.splitlines()[-1])
    record = json.loads(
        (root / ".perfbench" / "results" / f"{workload}-seed{seed}-trace0.json").read_text()
    )
    return {
        "correct": summary["correct"],
        "failed": summary["failed"],
        "metrics": {name: entry["value"] for name, entry in summary["metrics"].items()},
        "rounds": len(record["rounds"]),
        "digests": {r["sub_seed"]: r["digests"] for r in record["rounds"] if r["ok"]},
    }


def quartiles(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "iqr": q3 - q1,
            "runs": values}


def wins(parent: list[float], change: list[float], better: str) -> str:
    won = sum((c < p) if better == "lower" else (c > p) for p, c in zip(parent, change))
    return f"{won}/{len(parent)}"


def relative(parent: float, change: float) -> float:
    return (change - parent) / parent if parent else 0.0


def summarize_workload(runs: list[dict], bench: dict) -> dict:
    parent = [pair["parent"] for pair in runs]
    change = [pair["change"] for pair in runs]
    digests = {"common_sub_seeds": 0, "identical": 0, "differing": []}
    for p, c in zip(parent, change):
        for sub_seed in sorted(set(p["digests"]) & set(c["digests"])):
            digests["common_sub_seeds"] += 1
            if p["digests"][sub_seed] == c["digests"][sub_seed]:
                digests["identical"] += 1
            else:
                digests["differing"].append(sub_seed)
    metrics = {}
    for metric in bench["end_to_end"]:
        name, better = metric["name"], metric["better"]
        p_runs = [run["metrics"][name] for run in parent]
        c_runs = [run["metrics"][name] for run in change]
        move = relative(statistics.median(p_runs), statistics.median(c_runs))
        metrics[name] = {
            "parent": quartiles(p_runs),
            "change": quartiles(c_runs),
            "change_vs_parent": move,
            "within_bound": (move if better == "lower" else -move) <= metric["bound"],
            "change_wins": wins(p_runs, c_runs, better),
        }
    return {
        "seeds": [pair["seed"] for pair in runs],
        "pairs": len(runs),
        "rounds": {side: sum(run["rounds"] for run in side_runs)
                   for side, side_runs in (("parent", parent), ("change", change))},
        "correct": {side: all(run["correct"] for run in side_runs)
                    for side, side_runs in (("parent", parent), ("change", change))},
        "failed_jobs": {side: sum(run["failed"] for run in side_runs)
                        for side, side_runs in (("parent", parent), ("change", change))},
        "digests": digests,
        "metrics": metrics,
    }


def claim_verdict(workloads: dict, workload: str, metric: str, bench: dict) -> dict:
    entry = workloads[workload]["metrics"][metric]
    better = next(m["better"] for m in bench["end_to_end"] if m["name"] == metric)
    parent, change = entry["parent"]["median"], entry["change"]["median"]
    won, pairs = map(int, entry["change_wins"].split("/"))
    gain = parent - change if better == "lower" else change - parent
    return {
        "metric": metric,
        "workload": workload,
        "parent_median": parent,
        "change_median": change,
        "change_vs_parent": entry["change_vs_parent"],
        "parent_iqr": entry["parent"]["iqr"],
        "change_wins": entry["change_wins"],
        "required": "better median, wins in at least 9 of 10 pairs, gain above the parent IQR",
        "met": gain > entry["parent"]["iqr"] and won * 10 >= 9 * pairs,
    }


# ---------------------------------------------------------------------------


def ordered_sides(pair: int) -> tuple[str, str]:
    """Odd pairs (1, 3, ...) run the parent first, even pairs the change."""
    return ("parent", "change") if pair % 2 else ("change", "parent")


def environment() -> dict:
    import numpy

    cpu = platform.processor()
    for line in Path("/proc/cpuinfo").read_text().splitlines():
        if line.startswith("model name"):
            cpu = line.split(":", 1)[1].strip()
            break
    return {"nproc": os.cpu_count(), "cpu_model": cpu, "platform": platform.platform(),
            "python": platform.python_version(), "numpy": numpy.__version__}


def describe(root: Path) -> str:
    probe = subprocess.run(["git", "rev-parse", "--short", "HEAD"], cwd=root,
                           capture_output=True, text=True)
    if probe.returncode == 0 and (root / ".git").exists():
        return f"git checkout at commit {probe.stdout.strip()}"
    digest = hashlib.sha256()
    for path in sorted((root / "src" / "evocf").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return f"a copy of the tree, src/evocf sha256 {digest.hexdigest()[:16]}"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", type=Path)
    parser.add_argument("--change", type=Path)
    parser.add_argument("--out", type=Path, help="the BENCH_<n>.json to write")
    parser.add_argument("--title", default="")
    parser.add_argument("--claim", metavar="WORKLOAD:METRIC")
    parser.add_argument("--stages", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.stages:
        print(json.dumps(staged_criterion_5(Path(args.stages))))
        return 0
    if not (args.parent and args.change and args.out):
        parser.error("give --parent, --change and --out")
    roots = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    bench = json.loads((roots["change"] / "BENCHMARK.json").read_text())
    seconds = bench["run_seconds"]
    report: dict = {
        "title": args.title,
        "method": (
            f"scripts/bench_pairs.py: per workload {PAIRS} alternating pairs of "
            f"python3 perfbench/run.py --workload W --seed S --seconds {seconds:g} "
            f"--trace 0 (odd pairs parent first), then {C5_PAIRS} alternating pairs of "
            "criterion-5 runs, each a fresh process pinned to one CPU, and one "
            "criterion-5 run per side with its stages timed"
        ),
    }
    workloads = {}
    for k, workload in enumerate(WORKLOADS, start=1):
        runs = []
        for pair in range(1, PAIRS + 1):
            runs.append({"seed": 100 * k + pair})
            for side in ordered_sides(pair):
                runs[-1][side] = perfbench(roots[side], workload, runs[-1]["seed"], seconds)
            print(f"{workload} pair {pair}: " + "  ".join(
                f"{side} run_s {runs[-1][side]['metrics']['run_s']:.4f}"
                for side in ("parent", "change")), file=sys.stderr)
        workloads[workload] = summarize_workload(runs, bench)
    if args.claim:
        report["claim"] = claim_verdict(workloads, *args.claim.split(":"), bench)
    report["workloads"] = workloads

    c5 = {"parent": [], "change": []}
    for pair in range(1, C5_PAIRS + 1):
        for side in ordered_sides(pair):
            c5[side].append(yardstick.run_in_fresh_process(roots[side] / "src", 0, cpu=pair % 2))
        print(f"criterion 5 pair {pair}: " + "  ".join(
            f"{side} {c5[side][-1]['wall_s']:.2f} s" for side in ("parent", "change")),
            file=sys.stderr)
    walls = {side: [run["wall_s"] for run in runs] for side, runs in c5.items()}
    digests = [run["digests"] for runs in c5.values() for run in runs]
    report["criterion_5"] = {
        "wall_s": {side: quartiles(values) for side, values in walls.items()},
        "change_vs_parent": relative(statistics.median(walls["parent"]),
                                     statistics.median(walls["change"])),
        "change_wins": wins(walls["parent"], walls["change"], "lower"),
        "digests_identical": all(d == digests[0] for d in digests),
        "digests": digests[0],
    }
    report["stages"] = {side: staged_in_fresh_process(root) for side, root in roots.items()}
    report["environment"] = environment()
    report["sides"] = {side: describe(root) for side, root in roots.items()}
    args.out.write_text(json.dumps(report, indent=1) + "\n")
    print(f"wrote {args.out}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
