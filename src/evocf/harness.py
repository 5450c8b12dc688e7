"""Experiment runner: operator grid search, baseline benchmark, generate, rendering.

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
    EncodedLog,
    EncoderSpec,
    EventLog,
    Trace,
    decode,
    encode,
    encode_log,
    fit_encoder,
    load_csv,
    load_schema_config,
    preprocess,
    split_train_test,
    synthesize_log,
    write_csv,
)
# evolve and generate_baseline are looked up at call time, so a caller can
# wrap either name in this module to observe every job
from .evolution import (
    BASELINES,
    CycleStats,
    EvoConfig,
    GenerationResult,
    MutationRates,
    Population,
    check_frame,
    evolve,
    generate_baseline,
)
from .viability import TOTAL, EditOp, ViabilityScore, ViabilityScorer, ssdld

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
    smoothing_epsilon: float = markov_mod.DEFAULT_SMOOTHING
    n_bins: int = markov_mod.DEFAULT_BINS
    predictor_epochs: int = 500

    def __post_init__(self):
        if self.n_factuals < 1:
            raise ConfigurationError("n_factuals must be >= 1")
        # Path("") is the working directory, so "" would not mean "no path"
        for name in ("log_path", "schema_path", "output_dir"):
            if getattr(self, name) == "":
                raise ConfigurationError(f"{name} is empty")
        paths = ("log_path", "schema_path")
        missing = [name for name in paths if getattr(self, name) is None]
        if len(missing) == 1 and self.synthetic is None:
            (given,) = set(paths) - set(missing)
            raise ConfigurationError(f"{given} is set but {missing[0]} is not: a log needs both")
        if len(missing) != (0 if self.synthetic is None else 2):
            raise ConfigurationError(
                "need either a synthetic spec or log_path plus schema_path, not both"
            )
        repeated = [n for i, n in enumerate(self.config_names) if n in self.config_names[:i]]
        if repeated:
            raise ConfigurationError(f"config {repeated[0]} is named more than once")
        if self.counterfactuals_per_factual < 1:
            raise ConfigurationError("counterfactuals_per_factual must be >= 1")
        if self.seed < 0:
            raise ConfigurationError("seed must be >= 0")
        # set-up parameters, checked here so a bad value fails before any work
        if not 0.0 < self.test_fraction < 1.0:
            raise ConfigurationError("test_fraction must be in (0, 1)")
        if self.max_trace_len < 1:
            raise ConfigurationError("max_trace_len must be >= 1")
        if self.n_bins < 2:
            raise ConfigurationError("n_bins must be >= 2")
        if not 0.0 <= self.smoothing_epsilon < math.inf:
            raise ConfigurationError("smoothing_epsilon must be >= 0 and finite")
        if self.predictor_epochs < 0:
            raise ConfigurationError("predictor_epochs must be >= 0")
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
        return EvoConfig(name, **self._run_parameters())


@dataclass
class PreparedExperiment:
    encoder: EncoderSpec
    train: EncodedLog
    test: EncodedLog
    predictor: object
    feas_model: markov_mod.MarkovFeasibilityModel
    factuals: EncodedLog


def run_seed(global_seed: int, generator_name: str, factual_index: int) -> int:
    """Stable per-run seed: same generator name and factual give the same seed."""
    key = zlib.crc32(generator_name.encode())
    seq = np.random.SeedSequence([global_seed, key, factual_index])
    return int(seq.generate_state(1)[0])


def pick_factuals(test: EncodedLog, n: int, rng: np.random.Generator) -> EncodedLog:
    """Sample factuals from the test split, alternating outcome classes."""
    if n > len(test):
        raise ConfigurationError(
            f"n_factuals is {n} but the test split holds only {len(test)} encodable traces"
        )
    zeros, ones = (np.flatnonzero(test.outcomes == outcome) for outcome in (0, 1))
    # each class's rows in a random order, class 0's drawn first, read from the end
    zeros, ones = (rows[rng.permutation(len(rows))][::-1].tolist() for rows in (zeros, ones))
    # the classes take turns, class 1 first, until one runs out; the other's rest follows
    k = min(len(zeros), len(ones))
    picked = [row for pair in zip(ones, zeros) for row in pair] + ones[k:] + zeros[k:]
    return test.take(np.array(picked[:n], dtype=np.intp))


def load_log(spec: ExperimentSpec) -> EventLog:
    """The spec's whole event log: synthesized from its seed, or loaded from its CSV."""
    if spec.synthetic is not None:
        return synthesize_log(spec.synthetic.n_cases, spec.synthetic.n_activities, seed=spec.seed)
    return load_csv(spec.log_path, load_schema_config(spec.schema_path))


def prepare_experiment(spec: ExperimentSpec, predictor_factory=None) -> PreparedExperiment:
    """Load or synthesize the spec's log and set up on it (prepare_from_log)."""
    return prepare_from_log(spec, load_log(spec), predictor_factory)


def prepare_from_log(spec: ExperimentSpec, log: EventLog, predictor_factory) -> PreparedExperiment:
    """Fit encoder/predictor/model on the spec's whole log (load_log), pick factuals.

    predictor_factory, when not None, receives the fitted encoder and must
    return the outcome predictor to use; no internal model is trained then.
    """
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
    return PreparedExperiment(encoder, train, test, trained, feas_model, factuals)


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


def candidate_rows(
    generator: str, factual_id: str, top: Population, encoder: EncoderSpec
) -> list[CandidateRow]:
    """One row per candidate, ranked from 1 in the given order."""
    id_to_activity = encoder.id_to_activity
    return [
        CandidateRow(
            factual_id=factual_id,
            generator=generator,
            rank=rank,
            score=ViabilityScore(*row),
            activities="|".join(map(id_to_activity.__getitem__, ids[:length])),
            valid_len=length,
        )
        for rank, (ids, length, row) in enumerate(
            zip(top.ids.tolist(), top.lengths.tolist(), top.scores.tolist()), start=1
        )
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
    scorer: ViabilityScorer,
) -> GenerationResult:
    """Run one generator against the scorer's factual on the job's own run_seed.

    A baseline name (RGW, SBGW, CBGW) draws spec.counterfactuals_per_factual
    candidates; any other name is an operator config evolved for spec.cycles.
    """
    seed = run_seed(spec.seed, name, factual_index)
    if name in BASELINES:
        n = spec.counterfactuals_per_factual
        return generate_baseline(name, scorer, n, prepared.train, seed)
    return evolve(scorer, replace(spec.build_config(name), seed=seed), prepared.train)


def _output_path(spec: ExperimentSpec, filename: str) -> Path | None:
    return None if spec.output_dir is None else Path(spec.output_dir) / filename


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
    Each factual keeps one scorer for the whole run, so its CBI jobs score
    each training row once; it holds at most one score row per training
    trace, and the factual's own.
    """
    for name in spec.config_names:
        check_frame(spec.build_config(name), prepared.encoder.max_len)
    out_dir = None if spec.output_dir is None else Path(spec.output_dir)
    if out_dir is not None:
        out_dir.mkdir(parents=True, exist_ok=True)
    factuals = list(prepared.factuals)
    scorers = [ViabilityScorer(f, prepared.predictor, prepared.feas_model) for f in factuals]
    trajectories = _IncrementalCsv(_output_path(spec, "trajectories.csv"), TRAJECTORY_COLUMNS)
    try:
        for name in names:
            for fi, factual in enumerate(factuals):
                result = run_job(spec, prepared, name, fi, scorers[fi])
                rows = [TrajectoryRow(name, factual.case_id, s) for s in result.stats]
                report.trajectory_rows.extend(rows)
                trajectories.write_rows([_trajectory_values(r) for r in rows])
                on_result(name, factual, result)
    finally:
        trajectories.close()
    return out_dir


# the run rules: each runner checks its own, and a caller can check it before set-up


def check_grid(spec: ExperimentSpec) -> None:
    """A ranking needs at least two configs."""
    if len(spec.config_names) < 2:
        raise ConfigurationError("grid search needs at least two configs")


def check_benchmark(spec: ExperimentSpec) -> None:
    """At least one evolutionary config, and check_candidate_count."""
    if not spec.config_names:
        raise ConfigurationError("benchmark needs at least one evolutionary config")
    check_candidate_count(spec)


def check_candidate_count(spec: ExperimentSpec) -> None:
    """The generate rule: an operator config's candidates are its final population."""
    if spec.config_names and spec.population_size < (cfs := spec.counterfactuals_per_factual):
        raise ConfigurationError(f"population_size ({spec.population_size}) is below the "
                                 f"{cfs} counterfactuals asked for per factual")


def run_grid(spec: ExperimentSpec, prepared: PreparedExperiment) -> BenchmarkReport:
    """Run every config against every factual and rank configs by final mean."""
    check_grid(spec)
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
    payload = {
        "ranking": [{"config": n, "final_mean_viability": v} for n, v in ranking],
        "top_5": [n for n, _ in ranking[:5]],
        "bottom_5": [n for n, _ in ranking[-5:]],
    }
    (out_dir / "grid_report.json").write_text(json.dumps(payload, indent=2))
    lines = ["| rank | config | final mean viability |", "| --- | --- | --- |"]
    for position, (name, value) in enumerate(ranking, start=1):
        lines.append(f"| {position} | {name} | {value:.4f} |")
    (out_dir / "grid_report.md").write_text("\n".join(lines) + "\n")


def run_benchmark(spec: ExperimentSpec, prepared: PreparedExperiment) -> BenchmarkReport:
    """Feed the same factuals to every generator and record the top candidates."""
    check_benchmark(spec)
    report = BenchmarkReport()
    candidates = _IncrementalCsv(_output_path(spec, "candidates.csv"), CANDIDATE_COLUMNS)

    def record(name, factual, result):
        top = result.population.take(slice(spec.counterfactuals_per_factual))
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


def run_generate(
    spec: ExperimentSpec, prepared: PreparedExperiment, log: EventLog, name: str,
    factual_id: str | None,
) -> CandidateRow:
    """Counterfactuals of one factual from generator name in spec.output_dir; returns the best row.

    log is the log set-up ran on (load_log); the factual is case factual_id, or the
    first picked factual. counterfactuals.csv gets the top candidates' rows,
    counterfactual_events.csv their events (outcome: the predicted class) and
    best_render.md the best one's render_pair. A baseline's spec names no config.
    """
    check_candidate_count(spec)
    if spec.output_dir is None:
        raise ConfigurationError("generate writes its files to output_dir, which is not set")
    for config_name in spec.config_names:
        check_frame(spec.build_config(config_name), prepared.encoder.max_len)
    factual = prepared.factuals[0]
    if factual_id is not None:
        splits = (prepared.test, prepared.train)
        found = [s[i] for s in splits for i in np.flatnonzero(s.case_ids == factual_id)]
        if not found:
            raise ConfigurationError(
                f"case {factual_id!r} not found among the encoded cases: set-up drops the "
                f"traces longer than max_trace_len ({spec.max_trace_len}) or than the encoder's "
                f"max_len ({prepared.encoder.max_len})"
            )
        factual = found[0]

    scorer = ViabilityScorer(factual, prepared.predictor, prepared.feas_model)
    result = run_job(spec, prepared, name, 0, scorer)
    top = result.population.take(slice(spec.counterfactuals_per_factual))
    rows = candidate_rows(name, factual.case_id, top, prepared.encoder)
    out = Path(spec.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    candidates = _IncrementalCsv(out / "counterfactuals.csv", CANDIDATE_COLUMNS)
    candidates.write_rows([_candidate_values(r) for r in rows])
    candidates.close()

    # the render batch: the factual's row, then the output candidates' rows
    batch = (np.concatenate(pair) for pair in zip(factual.frame, top.frame))
    p_factual, *p_top = prepared.predictor.predict_proba_batch(*batch)
    case_ids = [f"cf_{rank:03d}" for rank in range(1, len(top) + 1)]
    predicted = (np.array(p_top) > predictor_mod.DECISION_THRESHOLD).astype(np.int64)
    decoded = EncodedLog(*top.frame, predicted, np.array(case_ids))
    events = out / "counterfactual_events.csv"
    traces = tuple(decode(trace, prepared.encoder) for trace in decoded)
    write_csv(EventLog(traces, log.schemas, log.activity_vocabulary), events)
    # read back, so the table is the one render --counterfactual-log shows
    cf_log = load_csv(events, log.schemas)
    rendered = render_pair(log, cf_log, factual.case_id, case_ids[0], p_factual, p_top[0])
    (out / "best_render.md").write_text(rendered)
    return rows[0]


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
    ops: tuple[EditOp, ...],
    p_factual: float | None = None,
    p_counterfactual: float | None = None,
) -> str:
    """Markdown table aligning the two traces along the edit script ops (ssdld's).

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
    for op in ops:
        # a transpose covers events (i-1, i) and (j-1, j); position 0 is a gap
        for back in (1, 0) if op.kind == "transpose" else (0,):
            f_event = factual.events[op.i - 1 - back] if op.i else None
            c_event = counterfactual.events[op.j - 1 - back] if op.j else None
            bold = op.kind == "match"
            f_text = GAP if f_event is None else _format_event(f_event, c_event if bold else None)
            c_text = GAP if c_event is None else _format_event(c_event, f_event if bold else None)
            lines.append(f"| {op.kind} | {f_text} | {c_text} |")
    return "\n".join(lines) + "\n"


def render_pair(
    log: EventLog,
    cf_log: EventLog,
    factual_id: str,
    counterfactual_id: str,
    p_factual: float | None = None,
    p_counterfactual: float | None = None,
) -> str:
    """render_counterfactual of case factual_id of log and case counterfactual_id of cf_log.

    Both traces are encoded with one encoder fitted on log's traces plus the
    counterfactual, so numeric ranges also span the counterfactual, and
    aligned by ssdld. A category or activity only cf_log holds (such as the
    empty cell generate writes for an RM code that decodes to no category)
    follows log's own, so the encoder knows it and log's codes and ids stay
    as they are.
    """
    by_case = {t.case_id: t for t in log.traces}
    cf_by_case = {t.case_id: t for t in cf_log.traces}
    if factual_id not in by_case or counterfactual_id not in cf_by_case:
        raise ConfigurationError(
            f"factual {factual_id!r} or counterfactual {counterfactual_id!r} not found"
        )
    factual, counterfactual = by_case[factual_id], cf_by_case[counterfactual_id]
    joined = tuple(
        replace(s, categories=tuple(dict.fromkeys(s.categories + cf.categories)))
        for s, cf in zip(log.schemas, cf_log.schemas, strict=True)
    )
    vocabulary = tuple(dict.fromkeys(log.activity_vocabulary + cf_log.activity_vocabulary))
    # both logs passed load_csv's checks, which the joined schemas and vocabulary keep
    encoder = fit_encoder(EventLog._trusted((*log.traces, counterfactual), joined, vocabulary))
    _, ops = ssdld(
        encode(factual, encoder), encode(counterfactual, encoder), "euclidean", encoder.slices()
    )
    return render_counterfactual(
        factual, counterfactual, ops, p_factual=p_factual, p_counterfactual=p_counterfactual
    )
