"""Evolutionary counterfactual generation: operator catalog and search loop.

A genome is one row of a padded frame (event_log.stack's ids, features and
lengths); a gene is one event, i.e. an activity id together with its feature
row. The population and each cycle's offspring are frames, so no genome
becomes an object inside the loop. Operator configurations are five-slot
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
from .event_log import PAD_ID, EncodedTrace, EncoderSpec, Frame, stack
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
    """Genomes as one frame (event_log.stack's ids, features and lengths, padding cells
    PAD_ID with all-zero features) and their (N, 5) score rows, row i scoring genome i."""

    ids: np.ndarray = field(repr=False)
    features: np.ndarray = field(repr=False)
    lengths: np.ndarray
    scores: np.ndarray = field(repr=False)

    def __len__(self) -> int:
        return len(self.lengths)

    @property
    def frame(self) -> Frame:
        return self.ids, self.features, self.lengths

    def take(self, order: np.ndarray) -> "Population":
        """The genomes at order, in that order, with their score rows."""
        return Population(*(column[order] for column in self.frame), self.scores[order])

    def head(self, n: int) -> "Population":
        """The first n genomes and their score rows."""
        return Population(*(column[:n] for column in self.frame), self.scores[:n])


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
# initial genomes


def _random_genomes(rng: np.random.Generator, n: int, encoder: EncoderSpec) -> Frame:
    """The frame of n uniformly random genomes, drawn one genome at a time."""
    ids = np.zeros((n, encoder.max_len), dtype=np.int64)
    features = np.zeros((n, encoder.max_len, encoder.feature_dim))
    lengths = np.empty(n, dtype=np.int64)
    for g in range(n):
        length = lengths[g] = int(rng.integers(1, encoder.max_len + 1))
        ids[g, :length] = rng.integers(1, encoder.vocab_size + 1, size=length)
        # one fill draws the normals of length calls of size feature_dim, in order
        features[g, :length] = np.clip(rng.standard_normal((length, encoder.feature_dim)), 0.0, 1.0)
    return ids, features, lengths


def _sampled_genomes(rng: np.random.Generator, feas_model: MarkovFeasibilityModel, n: int) -> Frame:
    """The frame of n genomes sampled from the feasibility model."""
    encoder = feas_model.encoder
    lengths, acts, rows = markov_mod.sample_traces(feas_model, encoder.max_len, n, rng)
    lengths = np.array(lengths, dtype=np.int64)
    # the valid cells of the frame, row-major: the events in order
    valid = np.arange(encoder.max_len) < lengths[:, None]
    ids = np.zeros((n, encoder.max_len), dtype=np.int64)
    features = np.zeros((n, encoder.max_len, encoder.feature_dim))
    ids[valid] = acts
    features[valid] = rows
    return ids, features, lengths


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
    from the feasibility model, CBI draws rows of the stacked log uniformly
    with replacement.
    """
    if n < 1:
        raise ValueError("population size must be >= 1")
    if kind == "RI":
        frame = _random_genomes(rng, n, feas_model.encoder)
    elif kind == "SBI":
        frame = _sampled_genomes(rng, feas_model, n)
    elif kind == "CBI":
        if not log:
            raise ValueError("CBI initiation needs a non-empty log")
        rows = rng.integers(0, len(log), size=n)
        frame = tuple(column[rows] for column in stack(log))
    else:
        raise ConfigNameError(f"unknown initiator {kind!r}")
    return Population(*frame, scorer.score_batch(*frame))


def select(
    kind: str, population: Population, sample_size: int, rng: np.random.Generator
) -> np.ndarray:
    """The rows of sample_size parents; rows 2p and 2p + 1 are pair p."""
    n = len(population)
    if not n:
        raise SelectionError("cannot select from an empty population")
    if sample_size % 2 != 0:
        raise ValueError("sample_size must be even")
    fitness = np.maximum(population.scores[:, TOTAL], FITNESS_FLOOR)
    if kind == "RWS":
        chosen = rng.choice(n, size=sample_size, p=fitness / fitness.sum())
    elif kind == "TS":
        # a contest of two uniform draws: i wins with probability f_i / (f_i + f_j)
        fit = fitness.tolist()
        chosen = []
        for _ in range(sample_size):
            i, j = rng.integers(0, n, size=2).tolist()
            chosen.append(i if rng.random() < fit[i] / (fit[i] + fit[j]) else j)
    elif kind == "ES":
        if sample_size > n:
            raise SelectionError(f"elitism selection of {sample_size} from population of {n}")
        chosen = _by_total(population.scores)[:sample_size]
    else:
        raise ConfigNameError(f"unknown selector {kind!r}")
    return np.asarray(chosen, dtype=np.intp)


def crossover(
    kind: str, ids: np.ndarray, features: np.ndarray, lengths: np.ndarray,
    rng: np.random.Generator, uc_rate: float | None = None,
) -> None:
    """Cross the two rows of a frame into two symmetric children, in place.

    ids (2, L), features (2, L, D) and lengths (2,) hold the parents a and
    b on entry and their children on return. Positions are indexed over the
    full frame (padding included), so parents of different lengths cross
    cleanly; children are re-normalized to trailing-PAD form afterwards.
    Position 0 always holds a real gene, so children never collapse to
    length zero.
    """
    max_len = ids.shape[1]
    if max_len < 2:
        return
    # mask marks the positions child 1 takes from parent a; child 2 is its mirror
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
    ids[:] = np.where(mask, ids, ids[::-1])
    features[:] = np.where(mask[:, None], features, features[::-1])
    # events after the first PAD are an encoding artifact of mixing frames;
    # PAD_ID is the smallest id, so argmin finds the first PAD if there is one
    for child, row in enumerate(ids):
        first = int(row.argmin())
        length = lengths[child] = first if row[first] == PAD_ID else max_len
        row[length:] = PAD_ID
        features[child, length:] = 0.0


def mutate(
    kind: str, ids: np.ndarray, features: np.ndarray, length: int, rates: MutationRates,
    feas_model: MarkovFeasibilityModel, rng: np.random.Generator,
) -> int:
    """Mutate one genome row in place and return its new length.

    ids (L,) and features (L, D) are the row, its first length cells the
    events. The delete, insert, and change passes apply in that order.
    Deletes hit non-padding positions only (the last survivor is immune, so
    length never drops below 1); inserts fill free padding capacity at a
    uniform position; changes redraw activity and attributes in place. RM
    draws attributes from a clipped standard normal, SBM from the feasibility
    model conditioned on the new activity.
    """
    if kind not in MUTATORS:
        raise ConfigNameError(f"unknown mutator {kind!r}")
    vocab_size = feas_model.encoder.vocab_size
    max_len, feature_dim = features.shape

    # A mutation without events draws n delete, max_len - n insert and n
    # change doubles, one at a time. Where it is likely, draw them at once;
    # if one hits its rate, rewind to the path below.
    n = int(length)
    no_event = ((1 - rates.delete) * (1 - rates.change)) ** n * (1 - rates.insert) ** (max_len - n)
    if no_event >= NO_EVENT_MIN_CHANCE:
        state = rng.bit_generator.state
        u = rng.random(n + max_len).tolist()
        if (
            min(u[:n]) >= rates.delete
            and min(u[n:max_len], default=1.0) >= rates.insert
            and min(u[max_len:]) >= rates.change
        ):
            return n
        rng.bit_generator.state = state

    def draw_row(activity_id: int) -> np.ndarray:
        if kind == "RM":
            return np.clip(rng.standard_normal(feature_dim), 0.0, 1.0)
        return markov_mod.sample_attributes(feas_model, activity_id, rng)

    acts = ids[:n].tolist()
    rows = list(features[:n].copy())

    # delete
    remove = rng.random(len(acts)) < rates.delete
    if remove.all():
        remove[-1] = False
    acts = [a for a, r in zip(acts, remove) if not r]
    rows = [row for row, r in zip(rows, remove) if not r]

    # insert
    for _ in range(max_len - len(acts)):
        if rng.random() < rates.insert:
            position = int(rng.integers(0, len(acts) + 1))
            activity = int(rng.integers(1, vocab_size + 1))
            acts.insert(position, activity)
            rows.insert(position, draw_row(activity))

    # change
    flip = rng.random(len(acts)) < rates.change
    for t in np.flatnonzero(flip):
        activity = int(rng.integers(1, vocab_size + 1))
        acts[t] = activity
        rows[t] = draw_row(activity)

    n = len(acts)
    ids[:n], ids[n:] = acts, PAD_ID
    features[:n], features[n:] = rows, 0.0
    return n


def recombine(
    kind: str, population: Population, mutants: Population, max_size: int
) -> Population:
    """Merge mutants into the population and cap its size.

    FSR keeps the best of the union by total viability. BBR admits only
    mutants above their generation's mean total, dropping the worst once over
    capacity. RR orders the union lexicographically by the components in
    priority order feasibility, delta, sparsity, similarity. Sorts are stable,
    so ties resolve by insertion order. The survivors' rows are gathered from
    both frames, never from a frame of the union.
    """
    if max_size < 1:
        raise ValueError("max_size must be >= 1")
    scores = np.concatenate([population.scores, mutants.scores])
    if kind == "FSR":
        order = _by_total(scores)
    elif kind == "BBR":
        order = np.arange(len(population))
        if len(mutants):
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
    order = order[:max_size]
    n = len(population)
    old = order < n
    columns = []
    for kept, offered in zip(population.frame, mutants.frame):
        column = np.empty((len(order), *kept.shape[1:]), dtype=kept.dtype)
        column[old] = kept[order[old]]
        column[~old] = offered[order[~old] - n]
        columns.append(column)
    return Population(*columns, scores[order])


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
    population = initialize(config.initiator, config.population_size, log, feas_model, scorer, rng)
    stats: list[CycleStats] = []
    for cycle in range(1, config.cycles + 1):
        parents = select(config.selector, population, config.offspring_per_cycle, rng)
        # the offspring block starts as the parents' rows; each pair is
        # crossed and each child mutated in its own rows
        ids, features, lengths = (column[parents] for column in population.frame)
        for p in range(0, len(parents), 2):
            pair = slice(p, p + 2)
            crossover(config.crosser, ids[pair], features[pair], lengths[pair], rng, config.uc_rate)
            for child in (p, p + 1):
                lengths[child] = mutate(
                    config.mutator, ids[child], features[child], lengths[child],
                    config.mutation_rates, feas_model, rng,
                )
        mutants = Population(ids, features, lengths, scorer.score_batch(ids, features, lengths))
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
