"""evocf benchmark: run one workload, check its outputs, print its metrics.

Usage, from the root of an evocf checkout:

    python3 perfbench/run.py --workload cbi-short --seed 1 --seconds 30 --trace 0

The run is a series of rounds. Each round is a fresh worker process that sets
up one experiment (`prepare_experiment`) and runs it (`run_benchmark`), under
a wall-clock timeout. Round k uses sub-seed `seed * 1000 + k`, so one run
covers several inputs; rounds start until `--seconds` have passed, and at
least the workload's `min_rounds` run. Timings are medians over the rounds.

With `--trace 0` a last round repeats the first sub-seed; its outputs must
match the first round's byte for byte, and its timings count as one more
sample. With `--trace 1` every sub-seed runs twice, untraced then traced:
the traced round gives the per-layer figures, the difference in run time is
the tracing overhead, and both rounds must write identical files.

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` (jobs) and `metrics`. A full record of the
run (environment, every round's raw values, output digests) goes to
`.perfbench/results/` under the checkout.
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
import time
from pathlib import Path

import verify
import workloads

HERE = Path(__file__).resolve().parent
MIN_TRACED_PAIRS = 2
MAX_ROUNDS = 40
ROUND_TIMEOUT_S = 60.0
# every run must end within this many seconds, whatever the rounds do
HARD_LIMIT_S = 170.0
POLL_S = 0.02


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


# ---------------------------------------------------------------------------
# rounds


def run_worker(round_path: Path, out_dir: Path, result_path: Path, trace: bool, cpu: int,
               log_path: Path, tmp_dir: Path, timeout: float) -> dict:
    """Run one worker to completion or timeout; returns exit data and peak RSS."""
    env = dict(
        os.environ,
        OMP_NUM_THREADS="1",
        OPENBLAS_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
        PYTHONHASHSEED="0",
        TMPDIR=str(tmp_dir),
    )
    argv = [sys.executable, str(HERE / "worker.py"), str(round_path), str(out_dir),
            str(result_path), "1" if trace else "0", str(cpu)]
    with log_path.open("w") as log:
        proc = subprocess.Popen(argv, env=env, stdout=log, stderr=subprocess.STDOUT,
                                start_new_session=True)
    deadline = time.monotonic() + timeout
    timed_out = False
    while True:
        pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
        if pid:
            break
        if time.monotonic() > deadline:
            # the worker's own children (an external scorer) share its group
            os.killpg(proc.pid, signal.SIGKILL)
            pid, status, usage = os.wait4(proc.pid, 0)
            timed_out = True
            break
        time.sleep(POLL_S)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {
        "exit_code": proc.returncode,
        "timed_out": timed_out,
        # ru_maxrss is in KiB on Linux; wait4 covers the worker and its children
        "peak_rss_mb": usage.ru_maxrss / 1024,
    }


def run_round(work: Path, index: int, sub_seed: int, trace: bool, timeout: float,
              workload: str) -> dict:
    name = f"round{index:02d}-{'traced' if trace else 'plain'}"
    out_dir = work / name
    tmp_dir = work / "tmp"
    inputs = work / "inputs"
    for path in (out_dir, tmp_dir, inputs):
        path.mkdir(parents=True, exist_ok=True)
    round_ = workloads.round_spec(workload, sub_seed, inputs)
    round_path = work / f"{name}.json"
    round_path.write_text(json.dumps(round_, indent=1))
    result_path = work / f"{name}.result.json"
    # each vCPU of a shared host drifts between a fast and a slow state on
    # its own; rounds take turns on the CPUs so a run averages over both,
    # and the rounds of one sub-seed share a CPU
    cpus = sorted(os.sched_getaffinity(0))
    cpu = cpus[sub_seed % len(cpus)]
    exit_info = run_worker(round_path, out_dir, result_path, trace, cpu,
                           work / f"{name}.log", tmp_dir, timeout)
    rows, malformed = verify.read_candidates(out_dir)
    ok = exit_info["exit_code"] == 0 and result_path.is_file()
    record = {
        "index": index,
        "sub_seed": sub_seed,
        "traced": trace,
        "cpu": cpu,
        "ok": ok,
        "jobs_attempted": workloads.job_count(round_),
        "jobs_completed": len(verify.completed_jobs(rows, round_)),
        "requested_scorings": workloads.requested_scorings(round_),
        **exit_info,
        "digests": verify.digests(out_dir),
        "problems": [],
    }
    if ok:
        record.update(json.loads(result_path.read_text()))
        record["bytes_written"] = sum(p.stat().st_size for p in out_dir.iterdir())
        record["problems"] = verify.check_round(out_dir, round_, rows)
        if malformed:
            record["problems"].append(f"{malformed} malformed candidate rows")
    else:
        reason = "timed out" if exit_info["timed_out"] else f"exit code {exit_info['exit_code']}"
        tail = (work / f"{name}.log").read_text()[-2000:]
        record["problems"] = [f"worker {reason}"]
        print(f"round {index} ({name}) failed: {reason}\n{tail}", file=sys.stderr)
    record["evo_rows"] = [
        (r["total"], r["rank"], r["delta"]) for r in rows if r["generator"] not in workloads.BASELINES
    ]
    return record


def run_rounds(args, work: Path) -> list[dict]:
    started = time.monotonic()
    hard_deadline = started + HARD_LIMIT_S
    rounds: list[dict] = []

    def remaining():
        return hard_deadline - time.monotonic()

    def go(sub_seed, trace):
        if remaining() < 1.0:
            return False
        rounds.append(run_round(work, len(rounds), sub_seed, trace,
                                min(ROUND_TIMEOUT_S, remaining()), args.workload))
        return rounds[-1]["ok"]

    least = MIN_TRACED_PAIRS if args.trace else workloads.WORKLOADS[args.workload]["min_rounds"]
    k = 0
    while k < MAX_ROUNDS and (k < least or time.monotonic() - started < args.seconds):
        sub_seed = workloads.sub_seed(args.seed, k)
        if args.trace:
            if not (go(sub_seed, False) and go(sub_seed, True)):
                break
        elif not go(sub_seed, False):
            break
        k += 1
    if not args.trace and rounds and rounds[0]["ok"]:
        # the repeat checks determinism and counts as one more timing sample
        go(rounds[0]["sub_seed"], False)
    return rounds


# ---------------------------------------------------------------------------
# metrics


def median(values):
    return statistics.median(values) if values else float("nan")


def determinism_problems(rounds: list[dict]) -> list[str]:
    """Rounds of one sub-seed must write identical files."""
    by_seed: dict[int, list[dict]] = {}
    for r in rounds:
        if r["ok"]:
            by_seed.setdefault(r["sub_seed"], []).append(r)
    problems = []
    checked = 0
    for sub_seed, group in by_seed.items():
        if len(group) > 1:
            checked += 1
            if any(r["digests"] != group[0]["digests"] for r in group[1:]):
                problems.append(f"sub-seed {sub_seed}: outputs differ between rounds")
    if not checked:
        problems.append("no sub-seed ran twice, so determinism was not checked")
    return problems


def end_to_end(measured: list[dict], everything: list[dict], quality_rounds: int):
    """Metric -> (value, sample count) from untraced rounds."""
    setup = [s for r in measured for s in r["setup_s"]]
    run = [r["run_s"] for r in measured]
    rates = [r["requested_scorings"] / r["run_s"] for r in measured]
    evo_jobs = [j["seconds"] for r in measured for j in r["jobs"] if j["kind"] == "evolution"]
    # one round per sub-seed, first quality_rounds sub-seeds: the repeat
    # round would count its sub-seed twice
    by_seed = {r["sub_seed"]: r for r in measured}
    rows = [row for k in sorted(by_seed)[:quality_rounds] for row in by_seed[k]["evo_rows"]]
    rank1 = [row for row in rows if row[1] == 1]
    attempted = sum(r["jobs_attempted"] for r in everything)
    completed = sum(r["jobs_completed"] for r in everything)
    return {
        "setup_s": (median(setup), len(setup)),
        "run_s": (median(run), len(run)),
        "scorings_per_s": (median(rates), len(rates)),
        "evo_job_s_p50": (median(evo_jobs), len(evo_jobs)),
        "peak_rss_mb": (median([r["peak_rss_mb"] for r in measured]), len(measured)),
        "completed_share": (completed / attempted if attempted else 0.0, attempted),
        "cf_median_total": (median([row[0] for row in rows]), len(rows)),
        "flip_share": (
            sum(1 for row in rank1 if row[2] > 0) / len(rank1) if rank1 else 0.0,
            len(rank1),
        ),
    }


def per_layer(plain: list[dict], traced: list[dict]):
    """Metric -> (value, sample count): medians over traced rounds."""
    by_seed = {r["sub_seed"]: r["run_s"] for r in plain}
    values = {
        "trace.overhead_s": [r["run_s"] - by_seed[r["sub_seed"]] for r in traced],
        "event_log.traces": [r["traces_encoded"] for r in traced],
        "harness.bytes_written": [r["bytes_written"] for r in traced],
    }
    for name in traced[0]["layers"]:
        values[name] = [r["layers"][name] for r in traced]
    return {name: (median(v), len(v)) for name, v in values.items()}


# ---------------------------------------------------------------------------
# environment


def environment(root: Path, rounds: list[dict]) -> dict:
    cpu = platform.processor()
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    commit = "unavailable: not a git checkout"
    if (root / ".git").exists():
        probe = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                               capture_output=True, text=True)
        if probe.returncode == 0:
            commit = probe.stdout.strip()
    source = hashlib.sha256()
    for path in sorted((root / "src" / "evocf").glob("*.py")):
        source.update(path.name.encode() + b"\0" + path.read_bytes())
    done = next((r for r in rounds if "numpy" in r), {})
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "platform": platform.platform(),
        "python": done.get("python", platform.python_version()),
        "numpy": done.get("numpy", "unknown"),
        "git_commit": commit,
        "source_sha256": source.hexdigest(),
    }


# ---------------------------------------------------------------------------


def main(argv: list[str]) -> int:
    args = parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "evocf" / "__init__.py").is_file():
        print(f"error: {root} holds no src/evocf; run from the root of an evocf checkout",
              file=sys.stderr)
        return 2
    # BENCHMARK.json names the metrics, their units and why each workload exists
    bench = json.loads((root / "BENCHMARK.json").read_text())
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work = root / ".perfbench" / "work" / tag
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    rounds = run_rounds(args, work)

    ok_rounds = [r for r in rounds if r["ok"]]
    plain = [r for r in ok_rounds if not r["traced"]]
    traced = [r for r in ok_rounds if r["traced"]]
    problems = [f"round {r['index']}: {p}" for r in rounds for p in r["problems"]]
    problems += determinism_problems(rounds)

    workload = workloads.WORKLOADS[args.workload]
    metrics = end_to_end(plain, rounds, workload["min_rounds"]) if plain else {}
    if args.trace:
        metrics.update(per_layer(plain, traced) if traced else {})
    units = {m["name"]: m["unit"] for m in bench["end_to_end"] + bench["per_layer"]}
    wanted = [m["name"] for m in bench["per_layer" if args.trace else "end_to_end"]]
    missing = [name for name in wanted if name not in metrics]
    if missing:
        problems.append(f"no value for {', '.join(missing)}")
    attempted = sum(r["jobs_attempted"] for r in rounds)
    failed = attempted - sum(r["jobs_completed"] for r in rounds)
    correct = not problems and failed == 0

    record = {
        "workload": args.workload,
        "why": next(w["why"] for w in bench["workloads"] if w["name"] == args.workload),
        "spec": workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": environment(root, ok_rounds),
        "correct": correct,
        "problems": problems,
        "metrics": {
            n: {"value": v, "unit": units.get(n), "samples": c} for n, (v, c) in metrics.items()
        },
        "rounds": [{k: v for k, v in r.items() if k != "evo_rows"} for r in rounds],
    }
    results = root / ".perfbench" / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{tag}.json").write_text(json.dumps(record, indent=1))
    shutil.rmtree(work / "tmp", ignore_errors=True)

    print(f"workload {args.workload}  seed {args.seed}  rounds {len(rounds)}  "
          f"trace {args.trace}  record {results / (tag + '.json')}")
    for problem in problems:
        print(f"problem: {problem}")
    for name, (value, count) in metrics.items():
        print(f"{name:30s} {value:>16.6g} {units.get(name, '?'):10s} n={count}")
    print(json.dumps({
        "correct": correct,
        "attempted": max(attempted, 1),
        "failed": failed if attempted else 1,
        "metrics": {n: {"value": metrics[n][0], "unit": units[n]} for n in wanted if n in metrics},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
