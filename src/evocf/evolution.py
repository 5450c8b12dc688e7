"""Evolutionary counterfactual generation: operator catalog and search loop.

A genome is one encoded trace; a gene is one event, i.e. an activity id
together with its feature row. Operator configurations are five-slot
combinations named like "CBI-RWS-OPC-SBM-FSR" (initiator, selector, crosser,
mutator, recombiner); the uniform crosser carries its rate as a digit, so
"UC3" crosses roughly 30% of gene positions.

Each cycle selects parents by fitness (total viability), crosses them over
the padded gene frame, mutates the offspring with per-position insert/delete/
change passes, scores the cycle's mutants as one batch, and recombines
survivors back into the population. Termination is a fixed cycle count. All
randomness flows through one seeded generator, so runs are reproducible bit
for bit.

The reference generators RGW, SBGW and CBGW are zero-cycle runs: the RI, SBI
and CBI initiators, scored and sorted by total viability.
"""

from __future__ import annotations

import re
import statistics
from dataclasses import dataclass, field

import numpy as np

from . import markov as markov_mod
from .errors import ConfigNameError, SelectionError
from .event_log import PAD_ID, EncodedTrace
from .markov import MarkovFeasibilityModel
from .viability import ViabilityScorer

INITIATORS = ("RI", "SBI", "CBI")
SELECTORS = ("RWS", "TS", "ES")
CROSSERS = ("UC", "OPC", "TPC")
MUTATORS = ("RM", "SBM")
RECOMBINERS = ("FSR", "BBR", "RR")

# total viability can go negative through delta; proportional selection
# needs a positive fitness
FITNESS_FLOOR = 1e-6
# below this chance of a mutation without events, drawing ahead costs more
# than it saves (break-even measured with SBM on traces of 12-28 events)
NO_EVENT_MIN_CHANCE = 0.2


@dataclass(frozen=True)
class MutationRates:
    insert: float = 0.01
    delete: float = 0.01
    change: float = 0.01

    def __post_init__(self):
        for name in ("insert", "delete", "change"):
            rate = getattr(self, name)
            if not 0.0 <= rate <= 1.0:
                raise ValueError(f"mutation rate {name} outside [0, 1]: {rate}")


@dataclass(frozen=True)
class EvoConfig:
    initiator: str = "CBI"
    selector: str = "RWS"
    crosser: str = "OPC"
    mutator: str = "SBM"
    recombiner: str = "FSR"
    uc_rate: float | None = None
    population_size: int = 1000
    offspring_per_cycle: int = 100
    mutation_rates: MutationRates = field(default_factory=MutationRates)
    cycles: int = 100
    seed: int = 0

    def __post_init__(self):
        if self.initiator not in INITIATORS:
            raise ConfigNameError(f"unknown initiator {self.initiator!r}")
        if self.selector not in SELECTORS:
            raise ConfigNameError(f"unknown selector {self.selector!r}")
        if self.crosser not in CROSSERS:
            raise ConfigNameError(f"unknown crosser {self.crosser!r}")
        if self.mutator not in MUTATORS:
            raise ConfigNameError(f"unknown mutator {self.mutator!r}")
        if self.recombiner not in RECOMBINERS:
            raise ConfigNameError(f"unknown recombiner {self.recombiner!r}")
        if self.crosser == "UC":
            if self.uc_rate is None or not 0.0 < self.uc_rate < 1.0:
                raise ConfigNameError("UC crosser needs a rate in (0, 1)")
        if self.population_size < 1:
            raise ValueError("population_size must be >= 1")
        if self.cycles < 0:
            raise ValueError("cycles must be >= 0")
        # offspring are only bred when the loop runs
        if self.cycles > 0:
            if not self.population_size >= self.offspring_per_cycle >= 2:
                raise ValueError("need population_size >= offspring_per_cycle >= 2")
            if self.offspring_per_cycle % 2 != 0:
                raise ValueError("offspring_per_cycle must be even")

    @property
    def name(self) -> str:
        crosser = self.crosser
        if crosser == "UC":
            crosser = f"UC{int(round(self.uc_rate * 10))}"
        return "-".join([self.initiator, self.selector, crosser, self.mutator, self.recombiner])


def parse_config_name(name: str, **overrides) -> EvoConfig:
    """Build an EvoConfig from a five-token operator name.

    Hyperparameters (population_size, cycles, seed, ...) can be passed as
    keyword overrides. Formatting the result reproduces the input name.
    """
    tokens = name.split("-")
    if len(tokens) != 5:
        raise ConfigNameError(f"expected five dash-separated tokens, got {name!r}")
    initiator, selector, crosser_token, mutator, recombiner = tokens
    uc_rate = None
    crosser = crosser_token
    uc_match = re.fullmatch(r"UC([1-9])", crosser_token)
    if uc_match:
        crosser = "UC"
        uc_rate = int(uc_match.group(1)) / 10.0
    for value, allowed in (
        (initiator, INITIATORS),
        (selector, SELECTORS),
        (crosser, CROSSERS),
        (mutator, MUTATORS),
        (recombiner, RECOMBINERS),
    ):
        if value not in allowed:
            raise ConfigNameError(f"unknown operator token {value!r} in {name!r}")
    return EvoConfig(
        initiator=initiator,
        selector=selector,
        crosser=crosser,
        mutator=mutator,
        recombiner=recombiner,
        uc_rate=uc_rate,
        **overrides,
    )


# columns of Population.scores, in ViabilityScore field order
SIMILARITY, SPARSITY, FEASIBILITY, DELTA, TOTAL = range(5)


def _by_total(scores: np.ndarray) -> np.ndarray:
    """Row order by descending total; ties keep their order."""
    return np.argsort(-scores[:, TOTAL], kind="stable")


@dataclass(frozen=True, eq=False)
class Population:
    """Genomes and their (N, 5) score rows, row i scoring genome i."""

    genomes: tuple[EncodedTrace, ...]
    scores: np.ndarray = field(repr=False)

    def __len__(self) -> int:
        return len(self.genomes)

    def take(self, order: np.ndarray) -> "Population":
        """The genomes at order, in that order, with their score rows."""
        return Population(tuple(map(self.genomes.__getitem__, order.tolist())), self.scores[order])

    def head(self, n: int) -> "Population":
        """The first n genomes and their score rows."""
        return Population(self.genomes[:n], self.scores[:n])


@dataclass(frozen=True)
class CycleStats:
    cycle: int
    best_total: float
    mean_total: float
    median_total: float
    mean_similarity: float
    mean_sparsity: float
    mean_feasibility: float
    mean_delta: float


@dataclass(frozen=True)
class GenerationResult:
    population: Population
    stats: tuple[CycleStats, ...]


# ---------------------------------------------------------------------------
# genome construction helpers


def _build_genome(ids: list[int], rows, max_len: int, feature_dim: int) -> EncodedTrace:
    length = len(ids)
    activity_ids = np.zeros(max_len, dtype=np.int64)
    features = np.zeros((max_len, feature_dim), dtype=float)
    activity_ids[:length] = ids
    features[:length] = rows
    return EncodedTrace(activity_ids, features, length, 0, "cf")


def _clipped_normal(rng: np.random.Generator, shape) -> np.ndarray:
    return np.clip(rng.standard_normal(shape), 0.0, 1.0)


def _random_genome(
    rng: np.random.Generator, vocab_size: int, max_len: int, feature_dim: int
) -> EncodedTrace:
    length = int(rng.integers(1, max_len + 1))
    ids = rng.integers(1, vocab_size + 1, size=length).tolist()
    # one fill draws the normals of length calls of size feature_dim, in order
    rows = _clipped_normal(rng, (length, feature_dim))
    return _build_genome(ids, rows, max_len, feature_dim)


def _sampled_genomes(
    rng: np.random.Generator, feas_model: MarkovFeasibilityModel, n: int
) -> list[EncodedTrace]:
    encoder = feas_model.encoder
    lengths, acts, rows = markov_mod.sample_traces(feas_model, encoder.max_len, n, rng)
    # the valid cells of the stacked frames, row-major: the events in order
    valid = np.arange(encoder.max_len) < np.array(lengths)[:, None]
    ids = np.zeros((n, encoder.max_len), dtype=np.int64)
    features = np.zeros((n, encoder.max_len, encoder.feature_dim))
    ids[valid] = acts
    features[valid] = rows
    return [
        EncodedTrace(ids[g], features[g], length, 0, "cf") for g, length in enumerate(lengths)
    ]


# ---------------------------------------------------------------------------
# operators


def initialize(
    kind: str,
    n: int,
    log: list[EncodedTrace],
    feas_model: MarkovFeasibilityModel,
    scorer: ViabilityScorer,
    rng: np.random.Generator,
) -> Population:
    """Create and score the initial population.

    RI draws uniformly random genomes, SBI samples activities and attributes
    from the feasibility model, CBI draws traces from the log uniformly with
    replacement.
    """
    if n < 1:
        raise ValueError("population size must be >= 1")
    encoder = feas_model.encoder
    genomes: list[EncodedTrace] = []
    if kind == "RI":
        for _ in range(n):
            genomes.append(
                _random_genome(rng, encoder.vocab_size, encoder.max_len, encoder.feature_dim)
            )
    elif kind == "SBI":
        genomes = _sampled_genomes(rng, feas_model, n)
    elif kind == "CBI":
        if not log:
            raise ValueError("CBI initiation needs a non-empty log")
        indices = rng.integers(0, len(log), size=n)
        genomes = [log[i] for i in indices]
    else:
        raise ConfigNameError(f"unknown initiator {kind!r}")
    return Population(tuple(genomes), scorer.score_batch(genomes))


def select(
    kind: str, population: Population, sample_size: int, rng: np.random.Generator
) -> list[tuple[EncodedTrace, EncodedTrace]]:
    """Pick sample_size parent genomes and pair them consecutively."""
    genomes = population.genomes
    if not genomes:
        raise SelectionError("cannot select from an empty population")
    if sample_size % 2 != 0:
        raise ValueError("sample_size must be even")
    fitness = np.maximum(population.scores[:, TOTAL], FITNESS_FLOOR)
    if kind == "RWS":
        chosen = rng.choice(len(genomes), size=sample_size, p=fitness / fitness.sum())
    elif kind == "TS":
        # a contest of two uniform draws: i wins with probability f_i / (f_i + f_j)
        fit = fitness.tolist()
        chosen = []
        for _ in range(sample_size):
            i, j = rng.integers(0, len(genomes), size=2).tolist()
            chosen.append(i if rng.random() < fit[i] / (fit[i] + fit[j]) else j)
    elif kind == "ES":
        if sample_size > len(genomes):
            raise SelectionError(
                f"elitism selection of {sample_size} from population of {len(genomes)}"
            )
        chosen = _by_total(population.scores)[:sample_size]
    else:
        raise ConfigNameError(f"unknown selector {kind!r}")
    parents = list(map(genomes.__getitem__, np.asarray(chosen).tolist()))
    return list(zip(parents[0::2], parents[1::2]))


def _normalize_after_crossover(ids: np.ndarray, features: np.ndarray) -> EncodedTrace:
    # events after the first PAD are an encoding artifact of mixing frames;
    # ids and features are fresh arrays, cut here in place. PAD_ID is the
    # smallest id, so argmin finds the first PAD if there is one
    first = int(ids.argmin())
    valid_len = first if ids[first] == PAD_ID else len(ids)
    ids[valid_len:] = PAD_ID
    features[valid_len:] = 0.0
    return EncodedTrace(ids, features, valid_len, 0, "cf")


def crossover(
    kind: str,
    parent_a: EncodedTrace,
    parent_b: EncodedTrace,
    rng: np.random.Generator,
    uc_rate: float | None = None,
) -> tuple[EncodedTrace, EncodedTrace]:
    """Produce two symmetric children over the padded gene frame.

    Positions are indexed over the full frame (padding included), so parents
    of different lengths cross cleanly; children are re-normalized to
    trailing-PAD form afterwards. Position 0 always holds a real gene, so
    children never collapse to length zero.
    """
    max_len = parent_a.max_len
    a_ids, b_ids = parent_a.activity_ids, parent_b.activity_ids
    a_feat, b_feat = parent_a.features, parent_b.features
    if max_len < 2:
        return parent_a, parent_b
    # mask marks the positions child 1 takes from parent_a; child 2 is its mirror
    frame = np.arange(max_len)
    if kind == "UC":
        mask = rng.random(max_len) < uc_rate
    elif kind == "OPC":
        mask = frame < int(rng.integers(1, max_len))
    elif kind == "TPC":
        lo, hi = np.sort(rng.choice(frame[1:], size=2, replace=False)).tolist()
        mask = (frame < lo) | (frame >= hi)
    else:
        raise ConfigNameError(f"unknown crosser {kind!r}")
    rows = mask[:, None]
    return (
        _normalize_after_crossover(np.where(mask, a_ids, b_ids), np.where(rows, a_feat, b_feat)),
        _normalize_after_crossover(np.where(mask, b_ids, a_ids), np.where(rows, b_feat, a_feat)),
    )


def mutate(
    kind: str,
    genome: EncodedTrace,
    rates: MutationRates,
    feas_model: MarkovFeasibilityModel,
    rng: np.random.Generator,
) -> EncodedTrace:
    """Apply the delete, insert, and change passes in that order.

    Deletes hit non-padding positions only (the last survivor is immune, so
    length never drops below 1); inserts fill free padding capacity at a
    uniform position; changes redraw activity and attributes in place. RM
    draws attributes from a clipped standard normal, SBM from the feasibility
    model conditioned on the new activity.
    """
    if kind not in MUTATORS:
        raise ConfigNameError(f"unknown mutator {kind!r}")
    vocab_size = feas_model.encoder.vocab_size
    max_len = genome.max_len
    feature_dim = genome.features.shape[1]

    # A mutation without events draws valid_len delete, max_len - valid_len
    # insert and valid_len change doubles, one at a time. Where it is likely,
    # draw them at once; if one hits its rate, rewind to the path below.
    n = genome.valid_len
    no_event = ((1 - rates.delete) * (1 - rates.change)) ** n * (1 - rates.insert) ** (max_len - n)
    if no_event >= NO_EVENT_MIN_CHANCE:
        state = rng.bit_generator.state
        u = rng.random(n + max_len).tolist()
        if (
            min(u[:n]) >= rates.delete
            and min(u[n:max_len], default=1.0) >= rates.insert
            and min(u[max_len:]) >= rates.change
        ):
            return EncodedTrace(genome.activity_ids, genome.features, n, 0, "cf")
        rng.bit_generator.state = state

    def draw_row(activity_id: int) -> np.ndarray:
        if kind == "RM":
            return _clipped_normal(rng, feature_dim)
        return markov_mod.sample_attributes(feas_model, activity_id, rng)

    ids = genome.activity_ids[: genome.valid_len].tolist()
    rows = [genome.features[t] for t in range(genome.valid_len)]

    # delete
    remove = rng.random(len(ids)) < rates.delete
    if remove.all():
        remove[-1] = False
    ids = [a for a, r in zip(ids, remove) if not r]
    rows = [row for row, r in zip(rows, remove) if not r]

    # insert
    free_slots = max_len - len(ids)
    for _ in range(free_slots):
        if rng.random() < rates.insert:
            position = int(rng.integers(0, len(ids) + 1))
            activity = int(rng.integers(1, vocab_size + 1))
            ids.insert(position, activity)
            rows.insert(position, draw_row(activity))

    # change
    flip = rng.random(len(ids)) < rates.change
    for t in np.flatnonzero(flip):
        activity = int(rng.integers(1, vocab_size + 1))
        ids[t] = activity
        rows[t] = draw_row(activity)

    return _build_genome(ids, rows, max_len, feature_dim)


def recombine(
    kind: str, population: Population, mutants: Population, max_size: int
) -> Population:
    """Merge mutants into the population and cap its size.

    FSR keeps the best of the union by total viability. BBR admits only
    mutants above their generation's mean total, dropping the worst once over
    capacity. RR orders the union lexicographically by the components in
    priority order feasibility, delta, sparsity, similarity. Sorts are stable,
    so ties resolve by insertion order.
    """
    if max_size < 1:
        raise ValueError("max_size must be >= 1")
    scores = np.concatenate([population.scores, mutants.scores])
    union = Population(population.genomes + mutants.genomes, scores)
    if kind == "FSR":
        order = _by_total(scores)
    elif kind == "BBR":
        order = np.arange(len(population))
        if mutants:
            totals = scores[len(population) :, TOTAL]
            admitted = np.flatnonzero(totals > statistics.fmean(totals.tolist()))
            order = np.concatenate([order, len(population) + admitted])
        if len(order) > max_size:
            order = order[_by_total(scores[order])]
    elif kind == "RR":
        # np.lexsort sorts by its last key first
        order = np.lexsort(-scores[:, [SIMILARITY, SPARSITY, DELTA, FEASIBILITY]].T)
    else:
        raise ConfigNameError(f"unknown recombiner {kind!r}")
    return union.take(order[:max_size])


# ---------------------------------------------------------------------------
# the loop


def _cycle_stats(cycle: int, population: Population) -> CycleStats:
    # fmean of a list is fsum / len, the arithmetic it applies to any iterable
    similarity, sparsity, feasibility, delta, totals = population.scores.T.tolist()
    return CycleStats(
        cycle=cycle,
        best_total=max(totals),
        mean_total=statistics.fmean(totals),
        median_total=statistics.median(totals),
        mean_similarity=statistics.fmean(similarity),
        mean_sparsity=statistics.fmean(sparsity),
        mean_feasibility=statistics.fmean(feasibility),
        mean_delta=statistics.fmean(delta),
    )


def evolve(
    factual: EncodedTrace,
    config: EvoConfig,
    predictor,
    feas_model: MarkovFeasibilityModel,
    log: list[EncodedTrace],
) -> GenerationResult:
    """Run the full loop for config.cycles cycles against one factual.

    Returns the final population sorted by total viability (descending) and
    one statistics row per executed cycle. Deterministic under config.seed.
    """
    rng = np.random.default_rng(config.seed)
    scorer = ViabilityScorer(factual, predictor, feas_model)
    population = initialize(
        config.initiator, config.population_size, log, feas_model, scorer, rng
    )
    stats: list[CycleStats] = []
    for cycle in range(1, config.cycles + 1):
        pairs = select(config.selector, population, config.offspring_per_cycle, rng)
        offspring: list[EncodedTrace] = []
        for parent_a, parent_b in pairs:
            for child in crossover(config.crosser, parent_a, parent_b, rng, config.uc_rate):
                offspring.append(
                    mutate(config.mutator, child, config.mutation_rates, feas_model, rng)
                )
        mutants = Population(tuple(offspring), scorer.score_batch(offspring))
        population = recombine(config.recombiner, population, mutants, config.population_size)
        stats.append(_cycle_stats(cycle, population))
    return GenerationResult(population.take(_by_total(population.scores)), tuple(stats))


BASELINES = {"RGW": "RI", "SBGW": "SBI", "CBGW": "CBI"}


def generate_baseline(
    kind: str,
    factual: EncodedTrace,
    n: int,
    log: list[EncodedTrace],
    feas_model: MarkovFeasibilityModel,
    predictor,
    seed: int,
) -> GenerationResult:
    """Draw and score n candidates with the baseline's initiator, best first."""
    if kind not in BASELINES:
        raise ConfigNameError(f"unknown baseline kind {kind!r}")
    config = EvoConfig(initiator=BASELINES[kind], population_size=n, cycles=0, seed=seed)
    return evolve(factual, config, predictor, feas_model, log)
