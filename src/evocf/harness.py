"""Experiment runner: operator grid search, baseline benchmark, rendering.

Everything a report contains is recomputable from the raw per-candidate rows
the runner emits; aggregation happens after emission, never instead of it.
Runs are reproducible from the experiment spec and the seed alone: every
(generator, factual) pair derives its own generator seed from the global seed
and stable keys, and output rows are written in a deterministic order so
files are byte-stable across repeat runs.
"""

from __future__ import annotations

import csv
import json
import math
import statistics
import zlib
from dataclasses import dataclass, field, fields, replace
from pathlib import Path

import numpy as np

from . import markov as markov_mod
from . import predictor as predictor_mod
from .errors import ConfigurationError
from .event_log import (
    EncodedTrace,
    EncoderSpec,
    Trace,
    encode_log,
    fit_encoder,
    load_csv,
    load_schema_config,
    preprocess,
    split_train_test,
    synthesize_log,
)
# evolve and generate_baseline are looked up at call time, so a caller can
# wrap either name in this module to observe every job
from .evolution import (
    BASELINES,
    TOTAL,
    CycleStats,
    EvoConfig,
    GenerationResult,
    MutationRates,
    Population,
    evolve,
    generate_baseline,
    parse_config_name,
)
from .viability import EditAlignment, ViabilityScore

DEFAULT_BENCHMARK_CONFIGS = ("CBI-ES-UC3-SBM-RR", "CBI-RWS-OPC-SBM-FSR")

# the two preset operator grids; the uniform crosser needs explicit rates, so
# the wider preset fixes one rate per mutator while the narrower one sweeps
# rates with the sampling-based mutator only
GRID_PRESET_162 = tuple(
    f"{ini}-{sel}-{cro}-{mut}-{rec}"
    for ini in ("RI", "SBI", "CBI")
    for sel in ("RWS", "TS", "ES")
    for cro in ("UC3", "OPC", "TPC")
    for mut in ("RM", "SBM")
    for rec in ("FSR", "BBR", "RR")
)
GRID_PRESET_135 = tuple(
    f"{ini}-{sel}-{cro}-SBM-{rec}"
    for ini in ("RI", "SBI", "CBI")
    for sel in ("RWS", "TS", "ES")
    for cro in ("UC1", "UC3", "UC5", "OPC", "TPC")
    for rec in ("FSR", "BBR", "RR")
)


@dataclass(frozen=True)
class SyntheticSpec:
    n_cases: int = 200
    n_activities: int = 5

    def __post_init__(self):
        if self.n_cases < 10:
            raise ConfigurationError("synthetic n_cases must be >= 10")
        if self.n_activities < 3:
            raise ConfigurationError("synthetic n_activities must be >= 3")


@dataclass
class ExperimentSpec:
    config_names: tuple[str, ...] = DEFAULT_BENCHMARK_CONFIGS
    log_path: str | None = None
    schema_path: str | None = None
    synthetic: SyntheticSpec | None = None
    n_factuals: int = 10
    counterfactuals_per_factual: int = 50
    cycles: int = 100
    seed: int = 0
    output_dir: str | None = None
    test_fraction: float = 0.2
    max_trace_len: int = 25
    population_size: int = 1000
    offspring_per_cycle: int = 100
    mutation_rate: float = 0.01
    smoothing_epsilon: float = 1e-6
    n_bins: int = 10
    predictor_epochs: int = 500

    def __post_init__(self):
        if self.n_factuals < 1:
            raise ValueError("n_factuals must be >= 1")
        if self.synthetic is None and (self.log_path is None or self.schema_path is None):
            raise ValueError("need either a synthetic spec or log_path plus schema_path")
        if self.counterfactuals_per_factual < 1:
            raise ValueError("counterfactuals_per_factual must be >= 1")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")
        # set-up parameters, checked here so a bad value fails before any work
        if not 0.0 < self.test_fraction < 1.0:
            raise ValueError("test_fraction must be in (0, 1)")
        if self.max_trace_len < 1:
            raise ValueError("max_trace_len must be >= 1")
        if self.n_bins < 2:
            raise ValueError("n_bins must be >= 2")
        if not 0.0 <= self.smoothing_epsilon < math.inf:
            raise ValueError("smoothing_epsilon must be >= 0 and finite")
        if self.predictor_epochs < 0:
            raise ValueError("predictor_epochs must be >= 0")
        # every config shares these run parameters, so one config checks them
        EvoConfig(**self._run_parameters())
        for name in self.config_names:
            self.build_config(name)

    def _run_parameters(self) -> dict:
        rate = self.mutation_rate
        return dict(
            population_size=self.population_size,
            offspring_per_cycle=self.offspring_per_cycle,
            mutation_rates=MutationRates(insert=rate, delete=rate, change=rate),
            cycles=self.cycles,
        )

    def build_config(self, name: str) -> EvoConfig:
        return parse_config_name(name, **self._run_parameters())


@dataclass
class PreparedExperiment:
    encoder: EncoderSpec
    train: list[EncodedTrace]
    test: list[EncodedTrace]
    predictor: object
    feas_model: markov_mod.MarkovFeasibilityModel
    factuals: list[EncodedTrace]


def run_seed(global_seed: int, generator_name: str, factual_index: int) -> int:
    """Stable per-run seed: same generator name and factual give the same seed."""
    key = zlib.crc32(generator_name.encode())
    seq = np.random.SeedSequence([global_seed, key, factual_index])
    return int(seq.generate_state(1)[0])


def pick_factuals(
    test: list[EncodedTrace], n: int, rng: np.random.Generator
) -> list[EncodedTrace]:
    """Sample factuals from the test split, alternating outcome classes."""
    if n > len(test):
        raise ConfigurationError(
            f"n_factuals is {n} but the test split holds only {len(test)} encodable traces"
        )
    by_class = {0: [t for t in test if t.outcome == 0], 1: [t for t in test if t.outcome == 1]}
    for traces in by_class.values():
        if traces:
            order = rng.permutation(len(traces))
            traces[:] = [traces[i] for i in order]
    picked: list[EncodedTrace] = []
    turn = 1
    while len(picked) < n and (by_class[0] or by_class[1]):
        if by_class[turn]:
            picked.append(by_class[turn].pop())
        turn = 1 - turn
    return picked


def prepare_experiment(
    spec: ExperimentSpec, predictor_factory=None
) -> PreparedExperiment:
    """Load or synthesize the log, fit encoder/predictor/model, pick factuals.

    predictor_factory, when given, receives the fitted encoder and must return
    the outcome predictor to use; no internal model is trained in that case.
    """
    if spec.synthetic is not None:
        log = synthesize_log(
            spec.synthetic.n_cases, spec.synthetic.n_activities, seed=spec.seed
        )
    else:
        schemas = load_schema_config(spec.schema_path)
        log = load_csv(spec.log_path, schemas)
    log = preprocess(log, spec.max_trace_len)
    train_log, test_log = split_train_test(log, spec.test_fraction, spec.seed)
    encoder = fit_encoder(train_log)
    train = encode_log(train_log, encoder)
    # test traces longer than the training maximum cannot be represented
    encodable = test_log._subset(tuple(t for t in test_log.traces if len(t) <= encoder.max_len))
    test = encode_log(encodable, encoder)
    # before any fitting, so too many factuals fail at once
    factuals = pick_factuals(test, spec.n_factuals, np.random.default_rng(spec.seed))
    if predictor_factory is not None:
        trained = predictor_factory(encoder)
    else:
        trained = predictor_mod.train(
            train, epochs=spec.predictor_epochs, seed=spec.seed, encoder=encoder
        )
    feas_model = markov_mod.fit(
        train, encoder, smoothing_epsilon=spec.smoothing_epsilon, n_bins=spec.n_bins
    )
    return PreparedExperiment(
        encoder=encoder,
        train=train,
        test=test,
        predictor=trained,
        feas_model=feas_model,
        factuals=factuals,
    )


# ---------------------------------------------------------------------------
# report structures


@dataclass(frozen=True)
class CandidateRow:
    factual_id: str
    generator: str
    rank: int
    score: ViabilityScore
    activities: str
    valid_len: int


@dataclass(frozen=True)
class TrajectoryRow:
    generator: str
    factual_id: str
    stats: CycleStats


@dataclass
class BenchmarkReport:
    candidate_rows: list[CandidateRow] = field(default_factory=list)
    trajectory_rows: list[TrajectoryRow] = field(default_factory=list)
    medians: dict[str, float] = field(default_factory=dict)
    means: dict[str, float] = field(default_factory=dict)
    component_medians: dict[str, dict[str, float]] = field(default_factory=dict)
    ranking: list[tuple[str, float]] = field(default_factory=list)

    def aggregate(self) -> None:
        """Recompute every summary statistic from the raw candidate rows."""
        by_generator: dict[str, list[ViabilityScore]] = {}
        for row in self.candidate_rows:
            by_generator.setdefault(row.generator, []).append(row.score)
        self.medians = {
            g: statistics.median(s.total for s in scores) for g, scores in by_generator.items()
        }
        self.means = {
            g: statistics.fmean(s.total for s in scores) for g, scores in by_generator.items()
        }
        self.component_medians = {
            g: {
                "similarity": statistics.median(s.similarity for s in scores),
                "sparsity": statistics.median(s.sparsity for s in scores),
                "feasibility": statistics.median(s.feasibility for s in scores),
                "delta": statistics.median(s.delta for s in scores),
            }
            for g, scores in by_generator.items()
        }


def activities_string(trace: EncodedTrace, encoder: EncoderSpec) -> str:
    id_to_activity = encoder.id_to_activity
    return "|".join(
        id_to_activity[int(a)] for a in trace.activity_ids[: trace.valid_len]
    )


def candidate_rows(
    generator: str, factual_id: str, top: Population, encoder: EncoderSpec
) -> list[CandidateRow]:
    """One row per candidate, ranked from 1 in the given order."""
    return [
        CandidateRow(
            factual_id=factual_id,
            generator=generator,
            rank=rank,
            score=ViabilityScore(*row),
            activities=activities_string(genome, encoder),
            valid_len=genome.valid_len,
        )
        for rank, (genome, row) in enumerate(zip(top.genomes, top.scores.tolist()), start=1)
    ]


CANDIDATE_COLUMNS = (
    "factual_id",
    "generator",
    "rank",
    *(f.name for f in fields(ViabilityScore)),
    "activities",
    "valid_len",
)

TRAJECTORY_COLUMNS = ("generator", "factual_id", *(f.name for f in fields(CycleStats)))


def _field_reprs(record) -> list[str]:
    # repr keeps every float bit; an int's repr is the text csv writes anyway
    return [repr(getattr(record, f.name)) for f in fields(record)]


def _candidate_values(row: CandidateRow) -> list:
    return [
        row.factual_id,
        row.generator,
        row.rank,
        *_field_reprs(row.score),
        row.activities,
        row.valid_len,
    ]


def _trajectory_values(row: TrajectoryRow) -> list:
    return [row.generator, row.factual_id, *_field_reprs(row.stats)]


class _IncrementalCsv:
    """Opens lazily, writes a header once, flushes after every row batch."""

    def __init__(self, path: Path | None, columns: tuple[str, ...]):
        self.path = path
        self.columns = columns
        self._handle = None
        self._writer = None

    def write_rows(self, rows: list[list]) -> None:
        if self.path is None:
            return
        if self._writer is None:
            self._handle = self.path.open("w", newline="")
            self._writer = csv.writer(self._handle)
            self._writer.writerow(self.columns)
        self._writer.writerows(rows)
        self._handle.flush()

    def close(self) -> None:
        if self._handle is not None:
            self._handle.close()


def run_job(
    spec: ExperimentSpec,
    prepared: PreparedExperiment,
    name: str,
    factual_index: int,
    factual: EncodedTrace,
) -> GenerationResult:
    """Run one generator against one factual on the job's own run_seed.

    A baseline name (RGW, SBGW, CBGW) draws spec.counterfactuals_per_factual
    candidates; any other name is an operator config evolved for spec.cycles.
    """
    seed = run_seed(spec.seed, name, factual_index)
    if name in BASELINES:
        return generate_baseline(
            name,
            factual,
            spec.counterfactuals_per_factual,
            prepared.train,
            prepared.feas_model,
            prepared.predictor,
            seed,
        )
    config = replace(spec.build_config(name), seed=seed)
    return evolve(factual, config, prepared.predictor, prepared.feas_model, prepared.train)


def _output_path(spec: ExperimentSpec, filename: str) -> Path | None:
    return Path(spec.output_dir) / filename if spec.output_dir else None


def _run_jobs(
    spec: ExperimentSpec,
    prepared: PreparedExperiment,
    names,
    report: BenchmarkReport,
    on_result,
) -> Path | None:
    """Run every (generator, factual) job in order; return the output directory.

    Each job's trajectory rows go to the report and are flushed to
    trajectories.csv as the job completes, so partial results survive a
    failure; on_result(name, factual, result) then sees the job's result.
    """
    out_dir = Path(spec.output_dir) if spec.output_dir else None
    if out_dir:
        out_dir.mkdir(parents=True, exist_ok=True)
    trajectories = _IncrementalCsv(_output_path(spec, "trajectories.csv"), TRAJECTORY_COLUMNS)
    try:
        for name in names:
            for fi, factual in enumerate(prepared.factuals):
                result = run_job(spec, prepared, name, fi, factual)
                rows = [TrajectoryRow(name, factual.case_id, s) for s in result.stats]
                report.trajectory_rows.extend(rows)
                trajectories.write_rows([_trajectory_values(r) for r in rows])
                on_result(name, factual, result)
    finally:
        trajectories.close()
    return out_dir


def run_grid(spec: ExperimentSpec, prepared: PreparedExperiment | None = None) -> BenchmarkReport:
    """Run every config against every factual and rank configs by final mean."""
    if len(spec.config_names) < 2:
        raise ValueError("grid search needs at least two configs")
    if prepared is None:
        prepared = prepare_experiment(spec)
    report = BenchmarkReport()
    final_means: dict[str, list[float]] = {}

    def record(name, factual, result):
        # fmean rounds an exact sum, so this equals the last cycle's mean_total
        final_means.setdefault(name, []).append(
            statistics.fmean(result.population.scores[:, TOTAL].tolist())
        )

    out_dir = _run_jobs(spec, prepared, spec.config_names, report, record)
    report.ranking = sorted(
        ((name, statistics.fmean(values)) for name, values in final_means.items()),
        key=lambda pair: -pair[1],
    )
    if out_dir:
        _write_ranking(out_dir, report.ranking)
    return report


def _write_ranking(out_dir: Path, ranking: list[tuple[str, float]]) -> None:
    with (out_dir / "ranking.csv").open("w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["config", "final_mean_viability"])
        for name, value in ranking:
            writer.writerow([name, repr(value)])
    top = ranking[:5]
    bottom = ranking[-5:]
    payload = {
        "ranking": [{"config": n, "final_mean_viability": v} for n, v in ranking],
        "top_5": [n for n, _ in top],
        "bottom_5": [n for n, _ in bottom],
    }
    (out_dir / "grid_report.json").write_text(json.dumps(payload, indent=2))
    lines = ["| rank | config | final mean viability |", "| --- | --- | --- |"]
    for position, (name, value) in enumerate(ranking, start=1):
        lines.append(f"| {position} | {name} | {value:.4f} |")
    (out_dir / "grid_report.md").write_text("\n".join(lines) + "\n")


def run_benchmark(
    spec: ExperimentSpec, prepared: PreparedExperiment | None = None
) -> BenchmarkReport:
    """Feed the same factuals to every generator and record the top candidates."""
    if not spec.config_names:
        raise ValueError("benchmark needs at least one evolutionary config")
    if prepared is None:
        prepared = prepare_experiment(spec)
    report = BenchmarkReport()
    candidates = _IncrementalCsv(_output_path(spec, "candidates.csv"), CANDIDATE_COLUMNS)

    def record(name, factual, result):
        top = result.population.head(spec.counterfactuals_per_factual)
        rows = candidate_rows(name, factual.case_id, top, prepared.encoder)
        report.candidate_rows.extend(rows)
        candidates.write_rows([_candidate_values(r) for r in rows])

    try:
        out_dir = _run_jobs(spec, prepared, [*spec.config_names, *BASELINES], report, record)
    finally:
        candidates.close()
    report.aggregate()
    if out_dir:
        _write_benchmark_report(out_dir, report)
    return report


def _write_benchmark_report(out_dir: Path, report: BenchmarkReport) -> None:
    payload = {
        "medians": report.medians,
        "means": report.means,
        "component_medians": report.component_medians,
    }
    (out_dir / "benchmark_report.json").write_text(json.dumps(payload, indent=2, sort_keys=True))
    lines = [
        "| generator | median total | mean total |",
        "| --- | --- | --- |",
    ]
    for name in report.medians:
        lines.append(f"| {name} | {report.medians[name]:.4f} | {report.means[name]:.4f} |")
    (out_dir / "benchmark_report.md").write_text("\n".join(lines) + "\n")


# ---------------------------------------------------------------------------
# side-by-side rendering


def _format_event(event, other=None) -> str:
    """Render event; given other, bold the attribute values that differ from its."""
    parts = [event.activity]
    for name, value in event.attributes.items():
        text = f"{name}={value:.4g}" if isinstance(value, float) else f"{name}={value}"
        if other is not None:
            other_value = other.attributes.get(name)
            if isinstance(value, float) and isinstance(other_value, float):
                changed = abs(value - other_value) > 1e-9
            else:
                changed = value != other_value
            text = f"**{text}**" if changed else text
        parts.append(text)
    return " ".join(parts)


GAP = "—"


def render_counterfactual(
    factual: Trace,
    counterfactual: Trace,
    alignment: EditAlignment,
    p_factual: float | None = None,
    p_counterfactual: float | None = None,
) -> str:
    """Markdown table aligning the two traces along the edit script.

    Matched and substituted events sit side by side, inserts and deletes show
    a gap on the missing side, transposed pairs appear crosswise, and
    attribute values that changed within a matched pair are bolded.
    """
    lines = []
    if p_factual is not None:
        lines.append(f"factual outcome probability: {p_factual:.4f}")
    if p_counterfactual is not None:
        lines.append(f"counterfactual outcome probability: {p_counterfactual:.4f}")
    if lines:
        lines.append("")
    lines.append("| op | factual | counterfactual |")
    lines.append("| --- | --- | --- |")
    for op in alignment.ops:
        if op.kind == "match":
            f_event = factual.events[op.i - 1]
            c_event = counterfactual.events[op.j - 1]
            lines.append(
                f"| match | {_format_event(f_event, c_event)} "
                f"| {_format_event(c_event, f_event)} |"
            )
        elif op.kind == "substitute":
            f_event = factual.events[op.i - 1]
            c_event = counterfactual.events[op.j - 1]
            lines.append(
                f"| substitute | {_format_event(f_event)} | {_format_event(c_event)} |"
            )
        elif op.kind == "delete":
            lines.append(f"| delete | {_format_event(factual.events[op.i - 1])} | {GAP} |")
        elif op.kind == "insert":
            lines.append(f"| insert | {GAP} | {_format_event(counterfactual.events[op.j - 1])} |")
        elif op.kind == "transpose":
            first_f = factual.events[op.i - 2]
            second_f = factual.events[op.i - 1]
            first_c = counterfactual.events[op.j - 2]
            second_c = counterfactual.events[op.j - 1]
            lines.append(
                f"| transpose | {_format_event(first_f)} | {_format_event(first_c)} |"
            )
            lines.append(
                f"| transpose | {_format_event(second_f)} | {_format_event(second_c)} |"
            )
    return "\n".join(lines) + "\n"
