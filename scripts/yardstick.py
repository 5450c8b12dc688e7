"""Quality yardstick: the acceptance criterion-5 spec on K seeds, per generator.

Each seed sets up (`prepare_experiment`) and runs `run_benchmark` on the
criterion-5 spec (CBI-ES-UC3-SBM-RR and CBI-RWS-OPC-SBM-FSR plus the RGW,
SBGW and CBGW baselines; a synthetic log of 200 cases and 5 activities, 10
factuals, 50 candidates per factual, 200 cycles, population 1000, offspring
100), with only the seed varied. Every run is a fresh process that imports
evocf from the side's src directory. Per generator the report gives, as the
median and the min-max over the seeds:

- median_total: the median total viability of the generator's candidate rows
  (the `medians` entry of benchmark_report.json);
- margin_over_cbgw: median_total minus CBGW's median_total;
- flip_share: the share of its rank-1 rows (one per factual) with delta > 0;
- delta_share: the share of all its candidate rows with delta > 0.

Each seed also records the sha256 of the three output files and, per
generator, of its rows of candidates.csv (header included), so two trees
that should draw the same rows for a generator can be compared row for row.

    python scripts/yardstick.py --side parent=PARENT/src --side change=src \\
        --seeds 0-9 --out QUALITY.json

Sides run alternately, seed by seed, one process at a time. A run takes
about 15-25 s on a 2-vCPU machine.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

CONFIGS = ("CBI-ES-UC3-SBM-RR", "CBI-RWS-OPC-SBM-FSR")
OUTPUTS = ("benchmark_report.json", "candidates.csv", "trajectories.csv")
METRICS = ("median_total", "margin_over_cbgw", "flip_share", "delta_share")


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run_seed(seed: int, out_dir: Path) -> dict:
    """One criterion-5 run in this process: per-generator figures and output digests."""
    import evocf
    from evocf.harness import ExperimentSpec, SyntheticSpec, prepare_experiment, run_benchmark

    spec = ExperimentSpec(
        config_names=CONFIGS,
        synthetic=SyntheticSpec(200, 5),
        n_factuals=10,
        counterfactuals_per_factual=50,
        cycles=200,
        seed=seed,
        output_dir=str(out_dir),
        population_size=1000,
        offspring_per_cycle=100,
    )
    # the wall time covers set-up and the run
    started = time.perf_counter()
    report = run_benchmark(spec, prepare_experiment(spec))
    wall_s = time.perf_counter() - started
    flips: dict[str, list[bool]] = {}
    deltas: dict[str, list[bool]] = {}
    for row in report.candidate_rows:
        deltas.setdefault(row.generator, []).append(row.score.delta > 0)
        if row.rank == 1:
            flips.setdefault(row.generator, []).append(row.score.delta > 0)
    lines = (out_dir / "candidates.csv").read_text().splitlines(keepends=True)
    column = next(csv.reader(lines[:1])).index("generator")
    rows: dict[str, list[str]] = {}
    for line, row in zip(lines[1:], csv.reader(lines[1:])):
        rows.setdefault(row[column], [lines[0]]).append(line)
    return {
        "evocf": evocf.__file__,
        "wall_s": wall_s,
        "generators": {
            name: {
                "median_total": median,
                "margin_over_cbgw": median - report.medians["CBGW"],
                "flip_share": sum(flips[name]) / len(flips[name]),
                "delta_share": sum(deltas[name]) / len(deltas[name]),
            }
            for name, median in report.medians.items()
        },
        "digests": {name: _sha256((out_dir / name).read_bytes()) for name in OUTPUTS},
        "rows_sha256": {name: _sha256("".join(text).encode()) for name, text in rows.items()},
    }


def in_fresh_process(src: Path, argv: list[str], cpu: int | None = None) -> dict:
    """Run a worker script (argv) in a new interpreter that imports evocf from src.

    The worker prints one JSON object last, with evocf.__file__ under "evocf".
    With cpu, the process is pinned to that CPU and its math libraries to
    one thread.
    """
    env = {**os.environ, "PYTHONPATH": str(src)}
    if cpu is not None:
        env.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    done = subprocess.run(
        [sys.executable, *argv],
        env=env,
        preexec_fn=None if cpu is None else lambda: os.sched_setaffinity(0, {cpu}),
        capture_output=True,
        text=True,
        check=True,
    )
    result = json.loads(done.stdout.splitlines()[-1])
    imported = Path(result.pop("evocf")).resolve()
    if src.resolve() not in imported.parents:
        raise RuntimeError(f"{argv} imported evocf from {imported}, not from {src}")
    return result


def run_in_fresh_process(src: Path, seed: int, cpu: int | None = None) -> dict:
    """run_seed in a new interpreter that imports evocf from src (see in_fresh_process)."""
    with tempfile.TemporaryDirectory() as out_dir:
        return in_fresh_process(src, [__file__, "--one", str(seed), "--dir", out_dir], cpu)


def spread(values: list[float]) -> dict:
    return {"median": statistics.median(values), "min": min(values), "max": max(values)}


def summarize(runs: dict[int, dict]) -> dict:
    """Per generator and metric, the median and min-max over the seeds."""
    names = next(iter(runs.values()))["generators"]
    return {
        name: {
            metric: spread([run["generators"][name][metric] for run in runs.values()])
            for metric in METRICS
        }
        for name in names
    }


def parse_seeds(text: str) -> list[int]:
    """'0-9' or '0,3,7'."""
    if "-" in text:
        first, last = map(int, text.split("-"))
        return list(range(first, last + 1))
    return [int(seed) for seed in text.split(",")]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--side", action="append", default=[], metavar="NAME=SRC_DIR")
    parser.add_argument("--seeds", default="0-9", help="a range 'A-B' or a list 'A,B,C'")
    parser.add_argument("--out", help="write the report here as JSON (default: stdout)")
    parser.add_argument("--one", type=int, help=argparse.SUPPRESS)
    parser.add_argument("--dir", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.one is not None:
        print(json.dumps(run_seed(args.one, Path(args.dir))))
        return 0
    if not args.side:
        parser.error("give at least one --side NAME=SRC_DIR")
    sides = dict(side.split("=", 1) for side in args.side)
    seeds = parse_seeds(args.seeds)
    runs: dict[str, dict[int, dict]] = {name: {} for name in sides}
    for seed in seeds:
        for name, src in sides.items():
            runs[name][seed] = run_in_fresh_process(Path(src), seed)
            print(f"seed {seed} {name}: {runs[name][seed]['wall_s']:.1f} s", file=sys.stderr)
    report = {
        "what": __doc__.split("\n\n")[1].replace("\n", " "),
        "seeds": seeds,
        "sides": {
            name: {"generators": summarize(by_seed), "per_seed": by_seed}
            for name, by_seed in runs.items()
        },
    }
    text = json.dumps(report, indent=1)
    if args.out:
        Path(args.out).write_text(text + "\n")
    else:
        print(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
