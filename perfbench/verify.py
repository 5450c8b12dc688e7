"""Checks on the files one round wrote, and their digests.

A job is one (generator, factual) pair. `candidates.csv` is flushed after
every job, so the jobs whose rows it holds are the completed ones even when
the round was killed part way.
"""

from __future__ import annotations

import csv
import hashlib
import json
import statistics
from pathlib import Path

from workloads import BASELINES

OUTPUT_FILES = ("candidates.csv", "trajectories.csv", "benchmark_report.json")
# float slack for range checks only; the sum check is exact
RANGE_SLACK = 1e-12
RANGES = {
    "similarity": (0.0, 1.0),
    "sparsity": (0.0, 1.0),
    "feasibility": (0.0, 1.0),
    "delta": (-1.0, 1.0),
}


def digests(out_dir: Path) -> dict[str, str | None]:
    return {
        name: hashlib.sha256((out_dir / name).read_bytes()).hexdigest()
        if (out_dir / name).is_file()
        else None
        for name in OUTPUT_FILES
    }


def read_candidates(out_dir: Path) -> tuple[list[dict], int]:
    """Parsed rows, and the count of rows that do not parse.

    A worker killed while writing can leave a torn last line.
    """
    path = out_dir / "candidates.csv"
    if not path.is_file():
        return [], 0
    rows, malformed = [], 0
    with path.open(newline="") as handle:
        for row in csv.DictReader(handle):
            try:
                for key in ("similarity", "sparsity", "feasibility", "delta", "total"):
                    row[key] = float(row[key])
                row["rank"] = int(row["rank"])
                row["valid_len"] = int(row["valid_len"])
            except (TypeError, ValueError):
                malformed += 1
                continue
            rows.append(row)
    return rows, malformed


def expected_rows(generator: str, spec: dict) -> int:
    if generator in BASELINES:
        return spec["counterfactuals_per_factual"]
    return min(spec["counterfactuals_per_factual"], spec["population_size"])


def completed_jobs(rows: list[dict], round_: dict) -> set[tuple[str, str]]:
    """Jobs whose every row is in the file."""
    counts: dict[tuple[str, str], int] = {}
    for row in rows:
        job = (row["generator"], row["factual_id"])
        counts[job] = counts.get(job, 0) + 1
    return {
        job for job, n in counts.items() if n == expected_rows(job[0], round_["spec"])
    }


def check_round(out_dir: Path, round_: dict, rows: list[dict]) -> list[str]:
    """Problems found in a finished round's outputs; empty when all hold."""
    spec = round_["spec"]
    problems: list[str] = []
    groups: dict[tuple[str, str], list[dict]] = {}
    for row in rows:
        groups.setdefault((row["generator"], row["factual_id"]), []).append(row)
        where = f"{row['generator']}/{row['factual_id']} rank {row['rank']}"
        for key, (low, high) in RANGES.items():
            if not low - RANGE_SLACK <= row[key] <= high + RANGE_SLACK:
                problems.append(f"{where}: {key} {row[key]} outside [{low}, {high}]")
        total = row["similarity"] + row["sparsity"] + row["feasibility"] + row["delta"]
        if total != row["total"]:
            problems.append(f"{where}: total {row['total']} is not the sum {total}")
        activities = row["activities"].split("|")
        if row["valid_len"] < 1 or len(activities) != row["valid_len"] or "" in activities:
            problems.append(f"{where}: valid_len {row['valid_len']} vs {row['activities']!r}")

    generators = list(spec["config_names"]) + list(BASELINES)
    expected_factuals = spec["n_factuals"]
    for generator in generators:
        factuals = {f for g, f in groups if g == generator}
        if len(factuals) != expected_factuals:
            problems.append(f"{generator}: {len(factuals)} factuals, expected {expected_factuals}")
    for (generator, factual), group in groups.items():
        want = expected_rows(generator, spec)
        if [r["rank"] for r in group] != list(range(1, want + 1)):
            problems.append(f"{generator}/{factual}: ranks are not 1..{want}")
        totals = [r["total"] for r in group]
        if any(a < b for a, b in zip(totals, totals[1:])):
            problems.append(f"{generator}/{factual}: rows not in rank order")

    problems += _check_trajectories(out_dir, spec)
    problems += _check_report(out_dir, groups)
    return problems


def _check_trajectories(out_dir: Path, spec: dict) -> list[str]:
    path = out_dir / "trajectories.csv"
    if not path.is_file():
        return ["trajectories.csv missing"]
    cycles: dict[tuple[str, str], list[int]] = {}
    with path.open(newline="") as handle:
        for row in csv.DictReader(handle):
            cycles.setdefault((row["generator"], row["factual_id"]), []).append(int(row["cycle"]))
    want = list(range(1, spec["cycles"] + 1))
    problems = [
        f"trajectories {g}/{f}: cycles {c[:3]}... expected 1..{spec['cycles']}"
        for (g, f), c in cycles.items()
        if c != want
    ]
    if len(cycles) != len(spec["config_names"]) * spec["n_factuals"]:
        problems.append(f"trajectories: {len(cycles)} evolutionary jobs")
    return problems


def _check_report(out_dir: Path, groups: dict) -> list[str]:
    path = out_dir / "benchmark_report.json"
    if not path.is_file():
        return ["benchmark_report.json missing"]
    report = json.loads(path.read_text())
    totals: dict[str, list[float]] = {}
    for (generator, _), group in groups.items():
        totals.setdefault(generator, []).extend(r["total"] for r in group)
    problems = []
    for generator, values in totals.items():
        if report["medians"].get(generator) != statistics.median(values):
            problems.append(f"report median of {generator} does not match the rows")
        if report["means"].get(generator) != statistics.fmean(values):
            problems.append(f"report mean of {generator} does not match the rows")
    if set(report["medians"]) != set(totals):
        problems.append("report generators do not match the rows")
    return problems
