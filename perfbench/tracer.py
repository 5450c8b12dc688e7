"""Span tracer that times evocf's layers from outside the package.

It swaps module and class attributes at each call site for timing wrappers,
so the program under test is unchanged. Each wrapper records a span: its
name, its duration, and the span that was open when it started (its parent).
Spans of one job share the job's id; spans during `prepare_experiment` share
the id "setup".

Job spans (one `evolve` or `generate_baseline` call) and cycle intervals are
kept one by one. Everything below them is summed per (job, name, parent) as
call count, total time and self time, because one run makes millions of
wrapped calls. Self time is a span's duration minus the time its child spans
cover.

With detail off only the job spans are recorded: two clock reads per job,
which is what the untraced run pays for its per-job timings.
"""

from __future__ import annotations

import functools
import importlib
import time

CLOCK = time.perf_counter_ns

PREDICTOR_SPANS = ("predictor.predict_proba", "predictor.predict_proba_batch")
SAMPLE_SPANS = ("markov.sample_sequence", "markov.sample_attributes")


class _CountingSubprocess:
    """Stands in for the `subprocess` module inside `evocf.predictor`."""

    def __init__(self, module, tracer: "Tracer"):
        self._module = module
        self.run = tracer.span("predictor.subprocess", module.run)

    def __getattr__(self, name):
        return getattr(self._module, name)


class Tracer:
    def __init__(self, detailed: bool):
        self.detailed = detailed
        self.job = "setup"
        self._frames = [["root", 0]]  # [name, time covered by child spans]
        self.spans: dict[tuple, list[int]] = {}  # (job, name, parent) -> [calls, total, self]
        self.jobs: list[dict] = []
        self.select_starts: dict[object, list[int]] = {}
        self.dp_cells = 0
        self.scorings: dict[object, int] = {}
        self.genomes: dict[object, set] = {}
        self._undo: list[tuple] = []

    # -- recording -----------------------------------------------------------

    def span(self, name, fn, before=None):
        frames = self._frames
        spans = self.spans

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if before is not None:
                before(args)
            frame = [name, 0]
            frames.append(frame)
            start = CLOCK()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = CLOCK() - start
                frames.pop()
                parent = frames[-1]
                parent[1] += elapsed
                key = (self.job, name, parent[0])
                entry = spans.get(key)
                if entry is None:
                    spans[key] = [1, elapsed, elapsed - frame[1]]
                else:
                    entry[0] += 1
                    entry[1] += elapsed
                    entry[2] += elapsed - frame[1]

        return wrapper

    def job_span(self, kind, fn, generator_of):
        traced = self.span(f"{kind}.job", fn) if self.detailed else fn

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            job_id = len(self.jobs)
            self.job = job_id
            start = CLOCK()
            try:
                return traced(*args, **kwargs)
            finally:
                self.jobs.append(
                    {
                        "id": job_id,
                        "kind": kind,
                        "generator": generator_of(args),
                        "seconds": (CLOCK() - start) / 1e9,
                    }
                )
                self.job = "harness"

        return wrapper

    def _count_dp(self, args):
        factual, candidate = args[0], args[1]
        self.dp_cells += factual.valid_len * candidate.valid_len

    def _count_genome(self, args):
        candidate = args[1]
        job = self.job
        self.scorings[job] = self.scorings.get(job, 0) + 1
        self.genomes.setdefault(job, set()).add(
            (
                candidate.valid_len,
                candidate.activity_ids.tobytes(),
                candidate.features.tobytes(),
            )
        )

    def _mark_cycle(self, args):
        self.select_starts.setdefault(self.job, []).append(CLOCK())

    # -- installation --------------------------------------------------------

    def _swap(self, owner, attr, replacement):
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def install(self) -> None:
        harness = importlib.import_module("evocf.harness")
        self._swap(
            harness,
            "evolve",
            self.job_span("evolution", harness.evolve, lambda a: a[1].name),
        )
        self._swap(
            harness,
            "generate_baseline",
            self.job_span("baselines", harness.generate_baseline, lambda a: a[0]),
        )
        if not self.detailed:
            return

        predictor = importlib.import_module("evocf.predictor")
        markov = importlib.import_module("evocf.markov")
        evolution = importlib.import_module("evocf.evolution")
        # `evocf.viability` as an attribute of the package is the viability
        # function, which shadows the module of the same name
        viability = importlib.import_module("evocf.viability")

        for name in ("synthesize_log", "load_csv", "encode_log"):
            self._swap(harness, name, self.span(f"event_log.{name}", getattr(harness, name)))
        self._swap(predictor, "train", self.span("predictor.train", predictor.train))
        self._swap(predictor, "subprocess", _CountingSubprocess(predictor.subprocess, self))
        for cls in (predictor.LogisticOutcomePredictor, predictor.ExternalProcessPredictor):
            for method in ("predict_proba", "predict_proba_batch"):
                if method in cls.__dict__:
                    self._swap(cls, method, self.span(f"predictor.{method}", cls.__dict__[method]))
        for name in ("fit", "feasibility", "sample_sequence", "sample_attributes"):
            self._swap(markov, name, self.span(f"markov.{name}", getattr(markov, name)))
        for name in ("initialize", "crossover", "mutate", "recombine"):
            self._swap(evolution, name, self.span(f"evolution.{name}", getattr(evolution, name)))
        self._swap(
            evolution,
            "select",
            self.span("evolution.select", evolution.select, before=self._mark_cycle),
        )
        self._swap(
            viability,
            "similarity_score",
            self.span("viability.similarity", viability.similarity_score, before=self._count_dp),
        )
        self._swap(
            viability,
            "sparsity_score",
            self.span("viability.sparsity", viability.sparsity_score, before=self._count_dp),
        )
        scorer = viability.ViabilityScorer
        self._swap(
            scorer,
            "score",
            self.span("viability.score", scorer.__dict__["score"], before=self._count_genome),
        )

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # -- summaries -----------------------------------------------------------

    def _sum(self, names, field, jobs=None, exclude_parents=()):
        index = {"calls": 0, "total": 1, "self": 2}[field]
        return sum(
            entry[index]
            for (job, name, parent), entry in self.spans.items()
            if name in names
            and parent not in exclude_parents
            and (jobs is None or jobs(job))
        )

    def cycle_intervals(self) -> dict[object, list[float]]:
        """Per job, milliseconds between consecutive `select` calls."""
        return {
            job: [(b - a) / 1e6 for a, b in zip(starts, starts[1:])]
            for job, starts in self.select_starts.items()
        }

    def layer_metrics(self, setup_repeats: int, run_s: float) -> dict[str, float]:
        """Per-layer figures of one round; setup figures are per set-up."""

        def in_setup(job):
            return job == "setup"

        def in_run(job):
            return job != "setup"

        def seconds(names, field="total", jobs=in_run, exclude_parents=()):
            return self._sum(names, field, jobs, exclude_parents) / 1e9

        def calls(names, jobs=in_run, exclude_parents=()):
            return self._sum(names, "calls", jobs, exclude_parents)

        intervals = sorted(ms for job in self.cycle_intervals().values() for ms in job)
        evo_jobs = [j["id"] for j in self.jobs if j["kind"] == "evolution"]
        ratios = sorted(
            len(self.genomes[j]) / self.scorings[j] for j in evo_jobs if self.scorings.get(j)
        )
        dp_s = seconds(["viability.similarity", "viability.sparsity"])
        job_s = sum(j["seconds"] for j in self.jobs)
        per_setup = 1.0 / setup_repeats
        return {
            "event_log.load_s": per_setup
            * seconds(["event_log.synthesize_log", "event_log.load_csv"], jobs=in_setup),
            "event_log.encode_s": per_setup * seconds(["event_log.encode_log"], jobs=in_setup),
            "predictor.train_s": per_setup * seconds(["predictor.train"], jobs=in_setup),
            "predictor.calls": calls(PREDICTOR_SPANS, exclude_parents=PREDICTOR_SPANS),
            "predictor.busy_s": seconds(PREDICTOR_SPANS, exclude_parents=PREDICTOR_SPANS),
            "predictor.subprocesses": calls(["predictor.subprocess"]),
            "markov.fit_s": per_setup * seconds(["markov.fit"], jobs=in_setup),
            "markov.feasibility.calls": calls(["markov.feasibility"]),
            "markov.feasibility.busy_s": seconds(["markov.feasibility"]),
            "markov.sample.calls": calls(SAMPLE_SPANS),
            "markov.sample.busy_s": seconds(SAMPLE_SPANS),
            "viability.score.calls": calls(["viability.score"]),
            "viability.score.self_s": seconds(["viability.score"], field="self"),
            "viability.similarity.busy_s": seconds(["viability.similarity"]),
            "viability.sparsity.busy_s": seconds(["viability.sparsity"]),
            "viability.dp_cells": self.dp_cells,
            "viability.ns_per_dp_cell": dp_s * 1e9 / self.dp_cells if self.dp_cells else 0.0,
            "viability.distinct_ratio": _quantile(ratios, 0.5),
            "evolution.initialize.busy_s": seconds(["evolution.initialize"]),
            "evolution.select.busy_s": seconds(["evolution.select"]),
            "evolution.crossover.busy_s": seconds(["evolution.crossover"]),
            "evolution.mutate.calls": calls(["evolution.mutate"]),
            "evolution.mutate.busy_s": seconds(["evolution.mutate"]),
            "evolution.recombine.busy_s": seconds(["evolution.recombine"]),
            "evolution.evolve.self_s": seconds(["evolution.job"], field="self"),
            "evolution.cycle_ms_p50": _quantile(intervals, 0.5),
            "evolution.cycle_ms_p99": _quantile(intervals, 0.99),
            "baselines.busy_s": seconds(["baselines.job"]),
            "harness.self_s": run_s - job_s,
        }


def _quantile(sorted_values: list[float], q: float) -> float:
    """Nearest-rank quantile; 0.0 for an empty sample."""
    if not sorted_values:
        return 0.0
    rank = min(len(sorted_values) - 1, max(0, round(q * len(sorted_values)) - 1))
    return sorted_values[rank]
