"""Workload definitions and the inputs they are built from.

A workload is a function of the run seed: it returns one round spec per
sub-seed, and writes whatever input files that spec names. Rounds of one run
use different sub-seeds, so a run's medians average over several logs rather
than resting on one draw. Why each workload exists is in BENCHMARK.json.

Every `spec` field is passed to `evocf.harness.ExperimentSpec` unchanged; the
`external` entry, when present, turns on the stdlib scorer through
`predictor_factory`. `min_rounds` rounds always run, and the quality metrics
come from exactly those, so they repeat for a seed whatever the host's
speed; the counts fit in a 30 s run on a 2-core host.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

# every round also runs the three baseline generators on the same factuals
BASELINES = ("RGW", "SBGW", "CBGW")

WORKLOADS = {
    "cbi-short": {
        "spec": {
            "config_names": ["CBI-ES-UC3-SBM-RR", "CBI-RWS-OPC-SBM-FSR"],
            "synthetic": {"n_cases": 200, "n_activities": 5},
            "n_factuals": 2,
            "counterfactuals_per_factual": 50,
            "cycles": 10,
            "population_size": 1000,
            "offspring_per_cycle": 100,
            "mutation_rate": 0.01,
        },
        "setup_repeats": 3,
        "min_rounds": 7,
    },
    "long-fresh": {
        "log": "long",
        "spec": {
            "config_names": ["SBI-TS-UC5-SBM-BBR"],
            "n_factuals": 6,
            "counterfactuals_per_factual": 10,
            "cycles": 5,
            "max_trace_len": 30,
            "population_size": 100,
            "offspring_per_cycle": 20,
            "mutation_rate": 0.05,
        },
        "setup_repeats": 2,
        "min_rounds": 7,
    },
    "external-cli": {
        # the long-trace log: on the 200x5 log the one factual a round picks
        # is a class-1 trace of one or two events, where keeping the factual
        # beats any flip, so flip_share would swing with the seed
        "log": "long",
        "spec": {
            "config_names": ["CBI-RWS-OPC-SBM-FSR"],
            "n_factuals": 1,
            "counterfactuals_per_factual": 10,
            "cycles": 4,
            "max_trace_len": 30,
            "population_size": 100,
            "offspring_per_cycle": 20,
            "mutation_rate": 0.01,
        },
        "external": {"critical_activity": "act9", "min_hits": 2},
        "setup_repeats": 2,
        "min_rounds": 4,
    },
}


def sub_seed(seed: int, round_index: int) -> int:
    """Seed of one round: distinct per (run seed, round), stable across runs."""
    return seed * 1000 + round_index


def round_spec(workload: str, seed: int, input_dir: Path) -> dict:
    """The spec of one round, with its input files written under input_dir."""
    entry = WORKLOADS[workload]
    spec = dict(entry["spec"], seed=seed)
    if entry.get("log") == "long":
        log_path = input_dir / f"long-{seed}.csv"
        schema_path = input_dir / "long-schema.json"
        write_long_log(log_path, schema_path, seed)
        spec["log_path"] = str(log_path)
        spec["schema_path"] = str(schema_path)
    return {
        "workload": workload,
        "spec": spec,
        "external": entry.get("external"),
        "setup_repeats": entry["setup_repeats"],
    }


def requested_scorings(round_: dict) -> int:
    """Scorings the spec asks for, whether or not the program performs them."""
    spec = round_["spec"]
    per_evo_job = spec["population_size"] + spec["cycles"] * spec["offspring_per_cycle"]
    per_baseline_job = spec["counterfactuals_per_factual"]
    return spec["n_factuals"] * (
        len(spec["config_names"]) * per_evo_job + len(BASELINES) * per_baseline_job
    )


def job_count(round_: dict) -> int:
    spec = round_["spec"]
    return (len(spec["config_names"]) + len(BASELINES)) * spec["n_factuals"]


# ---------------------------------------------------------------------------
# the long-trace log

LONG_ACTIVITIES = tuple(f"act{i}" for i in range(10))
LONG_CHANNELS = ("web", "phone", "mail", "branch", "partner")
LONG_TEAMS = ("t1", "t2", "t3", "t4", "t5", "t6")
LONG_CASES = 300
LONG_MIN_EVENTS = 12
LONG_MAX_EVENTS = 30
# outcome 1 iff the escalation activity occurs at least twice (the
# external-cli scorer plants the same rule); it is drawn
# at a fixed rate outside the random chain, so both classes stay near half
# of the log whatever the seed
ESCALATION = "act9"
ESCALATION_RATE = 0.09


def write_long_log(log_path: Path, schema_path: Path, seed: int) -> None:
    """Write a seeded long-trace log in the CSV format `load_csv` reads.

    Activities follow a random first-order chain with escalations mixed in
    at a fixed rate, each activity has its own numeric means and categorical
    preferences, and the outcome counts escalations, so both classes occur
    and a sequence model can learn them.
    """
    rng = random.Random(f"long-fresh:{seed}")
    k = len(LONG_ACTIVITIES)
    escalation = LONG_ACTIVITIES.index(ESCALATION)
    # the chain proper never enters the escalation state
    transition = [
        [0.0 if b == escalation else rng.random() ** 2 for b in range(k)] for _ in range(k)
    ]
    cost_mean = [rng.uniform(20.0, 400.0) for _ in range(k)]
    hours_mean = [rng.uniform(0.5, 48.0) for _ in range(k)]
    channel_weights = [[rng.random() for _ in LONG_CHANNELS] for _ in range(k)]
    team_weights = [[rng.random() for _ in LONG_TEAMS] for _ in range(k)]

    rows = []
    for case in range(LONG_CASES):
        length = rng.randint(LONG_MIN_EVENTS, LONG_MAX_EVENTS)
        current = rng.randrange(k)
        acts = [current]
        while len(acts) < length:
            if rng.random() < ESCALATION_RATE:
                acts.append(escalation)
                continue
            current = rng.choices(range(k), weights=transition[current])[0]
            acts.append(current)
        outcome = int(sum(1 for a in acts if LONG_ACTIVITIES[a] == ESCALATION) >= 2)
        for step, a in enumerate(acts):
            rows.append(
                (
                    f"L{case:04d}",
                    LONG_ACTIVITIES[a],
                    step,
                    outcome,
                    f"{max(0.0, rng.gauss(cost_mean[a], 25.0)):.3f}",
                    f"{rng.expovariate(1.0 / hours_mean[a]):.3f}",
                    rng.choices(LONG_CHANNELS, weights=channel_weights[a])[0],
                    rng.choices(LONG_TEAMS, weights=team_weights[a])[0],
                )
            )
    header = "case_id,activity,timestamp,outcome,cost,hours,channel,team\n"
    log_path.write_text(header + "".join(",".join(map(str, r)) + "\n" for r in rows))
    schema = {
        "attributes": [
            {"name": "cost", "kind": "numeric"},
            {"name": "hours", "kind": "numeric"},
            {"name": "channel", "kind": "categorical"},
            {"name": "team", "kind": "categorical"},
        ]
    }
    schema_path.write_text(json.dumps(schema, indent=2))
