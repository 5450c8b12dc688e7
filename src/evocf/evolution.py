"""Evolutionary counterfactual generation: operator catalog and search loop.

A genome is one row of a padded frame (event_log.Rows: ids, features and
lengths); a gene is one event, i.e. an activity id together with its feature
row. The population and each cycle's offspring are frames, so no genome
becomes an object inside the loop. Operator configurations are five-slot
combinations named like "CBI-RWS-OPC-SBM-FSR" (initiator, selector, crosser,
mutator, recombiner); the uniform crosser carries its rate as a digit, so
"UC3" crosses roughly 30% of gene positions.

Each cycle selects parents by fitness (total viability), crosses them over
the padded gene frame, mutates the offspring with per-position insert/delete/
change passes, scores the cycle's mutants as one batch, and recombines
survivors back into the population. The population's frame is allocated
once: a row index gives its order, and a cycle writes only the rows of the
mutants it admits. Initiation, selection, crossover and
mutation each make their draws as a few Generator calls of fixed shape over
the whole population or offspring block, and then apply them as array
arithmetic. Termination is a fixed cycle count. All randomness flows
through one seeded generator, so runs are reproducible bit for bit.

The reference generators RGW, SBGW and CBGW are zero-cycle runs of the
RI, SBI and CBI configs in BASELINES: an initial draw, scored and sorted by
total viability.
"""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass, field

import numpy as np

from . import markov as markov_mod
from .errors import ConfigNameError, ConfigurationError, SelectionError
from .event_log import PAD_ID, EncodedLog, EncoderSpec, Frame, Rows, _cdf
from .markov import MarkovFeasibilityModel
from .viability import DELTA, FEASIBILITY, SIMILARITY, SPARSITY, TOTAL, ViabilityScorer

# the allowed tokens of each slot of a config name; the uniform crosser
# carries its rate as one digit, UC1 to UC9
OPERATOR_TOKENS = (
    ("RI", "SBI", "CBI"),
    ("RWS", "TS", "ES"),
    (*(f"UC{digit}" for digit in range(1, 10)), "OPC", "TPC"),
    ("RM", "SBM"),
    ("FSR", "BBR", "RR"),
)

# total viability can go negative through delta; proportional selection
# needs a positive fitness
FITNESS_FLOOR = 1e-6


@dataclass(frozen=True)
class MutationRates:
    insert: float = 0.01
    delete: float = 0.01
    change: float = 0.01

    def __post_init__(self):
        for name in ("insert", "delete", "change"):
            rate = getattr(self, name)
            if not 0.0 <= rate <= 1.0:
                raise ConfigurationError(f"mutation rate {name} outside [0, 1]: {rate}")


@dataclass(frozen=True)
class EvoConfig:
    """An operator config, named by its five tokens, and the parameters of its run.

    The operator kinds are read-only views of the name: initiator, selector,
    crosser ("UC", "OPC" or "TPC"), mutator and recombiner, and uc_rate (the
    UC digit / 10, else None).
    """

    name: str = "CBI-RWS-OPC-SBM-FSR"
    population_size: int = 1000
    offspring_per_cycle: int = 100
    mutation_rates: MutationRates = field(default_factory=MutationRates)
    cycles: int = 100
    seed: int = 0

    def __post_init__(self):
        tokens = self.name.split("-")
        if len(tokens) != 5:
            raise ConfigNameError(f"expected five dash-separated tokens, got {self.name!r}")
        for token, allowed in zip(tokens, OPERATOR_TOKENS):
            if token not in allowed:
                raise ConfigNameError(f"unknown operator token {token!r} in {self.name!r}")
        # derived once: evolve reads the views every cycle
        crosser, uc_rate = tokens[2], None
        if crosser.startswith("UC"):
            crosser, uc_rate = "UC", int(crosser[2]) / 10.0
        object.__setattr__(self, "_kinds", (*tokens[:2], crosser, *tokens[3:], uc_rate))
        if self.population_size < 1:
            raise ConfigurationError("population_size must be >= 1")
        if self.cycles < 0:
            raise ConfigurationError("cycles must be >= 0")
        # offspring are only bred when the loop runs
        if self.cycles > 0:
            if not self.population_size >= self.offspring_per_cycle >= 2:
                raise ConfigurationError("need population_size >= offspring_per_cycle >= 2")
            if self.offspring_per_cycle % 2 != 0:
                raise ConfigurationError("offspring_per_cycle must be even")

    initiator = property(lambda self: self._kinds[0])
    selector = property(lambda self: self._kinds[1])
    crosser = property(lambda self: self._kinds[2])
    mutator = property(lambda self: self._kinds[3])
    recombiner = property(lambda self: self._kinds[4])
    uc_rate = property(lambda self: self._kinds[5])


def _by_total(scores: np.ndarray) -> np.ndarray:
    """Row order by descending total; ties keep their order."""
    return np.argsort(-scores[:, TOTAL], kind="stable")


@dataclass(frozen=True, eq=False)
class Population(Rows):
    """Genomes as one frame (padding cells PAD_ID with all-zero features) and their
    (N, 5) score rows, row i scoring genome i."""

    scores: np.ndarray = field(repr=False)


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
    """The frame of n uniformly random genomes: three blocks, then padding past each length."""
    max_len = encoder.max_len
    lengths = rng.integers(1, max_len + 1, size=n)
    ids = rng.integers(1, encoder.vocab_size + 1, size=(n, max_len))
    features = np.clip(rng.standard_normal((n, max_len, encoder.feature_dim)), 0.0, 1.0)
    padding = np.arange(max_len) >= lengths[:, np.newaxis]
    ids[padding] = PAD_ID
    features[padding] = 0.0
    return ids, features, lengths


# ---------------------------------------------------------------------------
# operators


def initialize(
    kind: str, n: int, log: EncodedLog, scorer: ViabilityScorer, rng: np.random.Generator
) -> Population:
    """Create the initial population and score it through scorer.

    RI draws uniformly random genomes, SBI samples activities and attributes
    from the scorer's feasibility model, CBI draws rows of the log uniformly
    with replacement.
    """
    if n < 1:
        raise ValueError("population size must be >= 1")
    feas_model = scorer.feas_model
    if kind == "RI":
        frame = _random_genomes(rng, n, feas_model.encoder)
    elif kind == "SBI":
        frame = markov_mod.sample_traces(feas_model, feas_model.encoder.max_len, n, rng)
    else:  # CBI
        if not log:
            raise ValueError("CBI initiation needs a non-empty log")
        draw = rng.integers(0, len(log), size=n)
        # each drawn row is scored once, in order of first draw; its copies take its scores
        rows = np.array(list(dict.fromkeys(draw.tolist())))
        at = np.empty(len(log), dtype=np.intp)
        at[rows] = np.arange(len(rows))
        scores = scorer.score_batch(*log.take(rows).frame)[at[draw]]
        return Population(*log.take(draw).frame, scores)
    return Population(*frame, scorer.score_batch(*frame))


def select(
    kind: str, scores: np.ndarray, sample_size: int, rng: np.random.Generator
) -> np.ndarray:
    """The positions of sample_size parents by their (N, 5) score rows; 2p and 2p + 1 are pair p."""
    n = len(scores)
    if not n:
        raise SelectionError("cannot select from an empty population")
    if sample_size % 2 != 0:
        raise ValueError("sample_size must be even")
    fitness = np.maximum(scores[:, TOTAL], FITNESS_FLOOR)
    if kind == "RWS":
        # Generator.choice(n, size=sample_size, p=p): the same indices and draws
        chosen = _cdf(fitness / fitness.sum()).searchsorted(rng.random(sample_size), side="right")
    elif kind == "TS":
        # a contest of two uniform draws: i wins with probability f_i / (f_i + f_j)
        i, j = rng.integers(0, n, size=(2, sample_size))
        wins = rng.random(sample_size) < fitness[i] / (fitness[i] + fitness[j])
        chosen = np.where(wins, i, j)
    else:  # ES
        if sample_size > n:
            raise SelectionError(f"elitism selection of {sample_size} from population of {n}")
        chosen = _by_total(scores)[:sample_size]
    return np.asarray(chosen, dtype=np.intp)


def _gather(
    ids: np.ndarray, features: np.ndarray, cells: np.ndarray, acts: np.ndarray,
    new_features: np.ndarray,
) -> None:
    """Rewrite a block from cells, which index one table of cells.

    The table holds the block's cells row-major, then the new events acts
    with their feature rows new_features, then one padding cell.
    """
    n_cells = ids.size
    feature_dim = features.shape[2]
    id_table = np.concatenate([ids.reshape(n_cells), acts, [PAD_ID]])
    feature_table = np.concatenate(
        [features.reshape(n_cells, feature_dim), new_features, np.zeros((1, feature_dim))]
    )
    ids[:] = np.take(id_table, cells)
    features[:] = np.take(feature_table, cells, axis=0)


def crossover(
    kind: str, ids: np.ndarray, features: np.ndarray, lengths: np.ndarray,
    rng: np.random.Generator, uc_rate: float | None,
) -> None:
    """Cross the row pairs (2p, 2p + 1) of an offspring block in place.

    One draw per pair decides which cells each child keeps from its own
    row; it takes its partner's elsewhere. UC keeps a cell where a double
    is below uc_rate, OPC the cells before a cut, TPC the cells outside
    two distinct cuts. Positions index the full frame (padding included),
    so parents of different lengths cross cleanly; the events a child holds
    after its first PAD are an artifact of mixing frames, and are cut.
    Position 0 always holds a real gene, so no child has length zero. A
    frame of one cell crosses nothing and draws nothing.
    """
    n_rows, max_len = ids.shape
    if max_len < 2:
        return
    pairs = n_rows // 2
    frame = np.arange(max_len)
    if kind == "UC":
        keep = rng.random((pairs, max_len)) < uc_rate
    else:
        lo = rng.integers(1, max_len, size=pairs)[:, np.newaxis]
        hi = max_len
        if kind == "TPC":
            # a second cut drawn from the other max_len - 2 cut points
            other = rng.integers(1, max_len - 1, size=pairs)[:, np.newaxis]
            other += other >= lo
            lo, hi = np.minimum(lo, other), np.maximum(lo, other)
        keep = (frame < lo) | (frame >= hi)
    own = np.arange(n_rows)[:, np.newaxis]
    cells = np.where(np.repeat(keep, 2, axis=0), own, own ^ 1) * max_len + frame
    pads = ids.reshape(-1)[cells] == PAD_ID
    lengths[:] = np.where(pads.any(axis=1), pads.argmax(axis=1), max_len)
    cells[frame >= lengths[:, np.newaxis]] = ids.size
    no_events = np.empty(0, dtype=np.int64), np.empty((0, features.shape[2]))
    _gather(ids, features, cells, *no_events)


def mutate(
    kind: str, ids: np.ndarray, features: np.ndarray, lengths: np.ndarray,
    rates: MutationRates, feas_model: MarkovFeasibilityModel, rng: np.random.Generator,
) -> None:
    """Mutate each row of an offspring block in place by delete, insert and change passes.

    Each pass is one per-position Bernoulli trial against a block of
    doubles. Deletes try every event; a child that deletes them all keeps
    its last one. Inserts try each slot left free after the deletes, and
    each hit lands at a uniform position of its row as it stands. Changes
    try every event after the inserts and redraw its activity and
    attributes. New events, inserts first and then changes, each in
    row-major order, take one activity draw and one attribute block: RM
    draws clipped standard normals, SBM samples the feasibility model
    conditioned on the new activity. The block is gathered at once.
    """
    n_rows, max_len = ids.shape
    frame = np.arange(max_len)
    deleted = (rng.random((n_rows, max_len)) < rates.delete) & (frame < lengths[:, np.newaxis])
    emptied = np.flatnonzero(deleted.sum(axis=1) == lengths)
    deleted[emptied, lengths[emptied] - 1] = False
    survivors = lengths - deleted.sum(axis=1)
    inserted = rng.random((n_rows, max_len)) < rates.insert
    inserted &= frame < (max_len - survivors)[:, np.newaxis]
    n_inserts = inserted.sum(axis=1)
    # the k-th insert of a row lands among its survivors and k earlier inserts
    owner = np.repeat(np.arange(n_rows), n_inserts)
    rank = np.arange(len(owner)) - np.repeat(np.cumsum(n_inserts) - n_inserts, n_inserts)
    slots = np.zeros((n_rows, n_inserts.max(initial=0)), dtype=np.int64)
    slots[owner, rank] = rng.integers(0, np.repeat(survivors, n_inserts) + rank + 1)
    grown = survivors + n_inserts
    changed = (rng.random((n_rows, max_len)) < rates.change) & (frame < grown[:, np.newaxis])
    encoder = feas_model.encoder
    acts = rng.integers(1, encoder.vocab_size + 1, size=len(owner) + changed.sum())
    if kind == "SBM":
        rows = markov_mod.sample_attributes(
            feas_model, acts, rng.random((len(acts), feas_model._draws_per_event))
        )
    else:
        rows = np.clip(rng.standard_normal((len(acts), encoder.feature_dim)), 0.0, 1.0)
    # as insert k lands at its slot, the row's earlier inserts at or after it move up one
    for k in range(1, slots.shape[1]):
        slots[:, :k] += (slots[:, :k] >= slots[:, k, np.newaxis]) & (k < n_inserts)[:, np.newaxis]
    # new event e is cell ids.size + e of the table, the padding cell the one after them
    pad = ids.size + len(acts)
    cells = np.full((n_rows, max_len), pad)
    cells[owner, slots[owner, rank]] = ids.size + np.arange(len(owner))
    # the survivors fill the other slots of their row in order
    cells[(cells == pad) & (frame < grown[:, np.newaxis])] = np.flatnonzero(
        ~deleted & (frame < lengths[:, np.newaxis])
    )
    cells[changed] = np.arange(ids.size + len(owner), pad)
    lengths[:] = grown
    _gather(ids, features, cells, acts, rows)


def recombine(
    kind: str, frame: Frame, index: np.ndarray, scores: np.ndarray, mutants: Population
) -> tuple[np.ndarray, np.ndarray]:
    """Merge mutants into the population (position p: row index[p] of frame, scores[p]).

    The population keeps its size, len(index). FSR keeps the best of the
    union by total viability. BBR admits only mutants above their
    generation's mean total, dropping the worst once over that size. RR
    orders the union lexicographically by the components in priority order
    feasibility, delta, sparsity, similarity. Sorts are stable, so ties
    resolve by insertion order. Survivors keep their rows; admitted mutants
    are written into rows no survivor holds. Returns the new index and scores.
    """
    n = len(index)
    scores = np.concatenate([scores, mutants.scores])
    if kind == "FSR":
        order = _by_total(scores)
    elif kind == "BBR":
        order = np.arange(n)
        if len(mutants):
            totals = scores[n:, TOTAL]
            admitted = np.flatnonzero(totals > statistics.fmean(totals.tolist()))
            order = np.concatenate([order, n + admitted])
        if len(order) > n:
            order = order[_by_total(scores[order])]
    else:  # RR
        # np.lexsort sorts by its last key first
        order = np.lexsort(-scores[:, [SIMILARITY, SPARSITY, DELTA, FEASIBILITY]].T)
    order = order[:n]
    old = order < n
    rows = np.empty(len(order), dtype=np.intp)
    rows[old] = index[order[old]]
    free = np.ones(len(frame[2]), dtype=bool)
    free[rows[old]] = False
    rows[~old] = slots = np.flatnonzero(free)[: len(order) - np.count_nonzero(old)]
    offered = order[~old] - n
    for column, mutant_column in zip(frame, mutants.frame):
        column[slots] = mutant_column[offered]
    return rows, scores[order]


# ---------------------------------------------------------------------------
# the loop


def _cycle_stats(cycle: int, scores: np.ndarray) -> CycleStats:
    """A cycle's statistics from the (N, 5) score rows in any order, each the float the
    statistics module gives for the column as a list: max keeps the first of equal maxima
    (as argmax does), median reads a stable sort, and fmean is fsum / len, which a
    memoryview feeds the floats a list holds."""
    n = len(scores)
    columns = scores.T.copy()
    totals = columns[TOTAL]
    low, high = np.sort(totals, kind="stable")[[(n - 1) // 2, n // 2]]
    median = high if n % 2 else (low + high) / 2
    # the means in column order: similarity, sparsity, feasibility, delta, total
    means = [math.fsum(memoryview(column)) / n for column in columns]
    best = totals[np.argmax(totals)]
    return CycleStats(cycle, float(best), means[TOTAL], float(median), *means[:TOTAL])


def check_frame(config: EvoConfig, max_len: int) -> None:
    """TPC needs two cut points: a frame of 2 events has one (and one of 1 crosses nothing)."""
    if config.crosser == "TPC" and config.cycles > 0 and max_len == 2:
        raise ConfigurationError(
            f"{config.name}: TPC needs two cut points, and a frame of 2 events has one"
        )


def evolve(scorer: ViabilityScorer, config: EvoConfig, log: EncodedLog) -> GenerationResult:
    """Run the full loop for config.cycles cycles against the scorer's factual.

    Returns the final population sorted by total viability (descending) and
    one statistics row per executed cycle. Deterministic under config.seed.
    scorer is the factual's, which its jobs share: a CBI draw (rows of log)
    scores through it, so a log row is scored once per factual, while every
    other draw and every bred genome scores through the job's copy of it.
    Every score is the one a scorer of the job's own would give.
    """
    feas_model = scorer.feas_model
    check_frame(config, feas_model.encoder.max_len)
    rng = np.random.default_rng(config.seed)
    # the copy comes after a CBI draw, so the job's memo starts with the draw's rows
    if config.initiator == "CBI":
        population = initialize("CBI", config.population_size, log, scorer, rng)
        scorer = scorer.copy()
    else:
        scorer = scorer.copy()
        population = initialize(config.initiator, config.population_size, log, scorer, rng)
    # the frame stays in place: position p of the population is its row index[p]
    frame, scores, index = population.frame, population.scores, np.arange(len(population))
    stats: list[CycleStats] = []
    for cycle in range(1, config.cycles + 1):
        parents = index[select(config.selector, scores, config.offspring_per_cycle, rng)]
        # the offspring block starts as the parents' rows; each operator
        # draws its arrays and applies them to the whole block
        ids, features, lengths = (column[parents] for column in frame)
        crossover(config.crosser, ids, features, lengths, rng, config.uc_rate)
        mutate(config.mutator, ids, features, lengths, config.mutation_rates, feas_model, rng)
        mutants = Population(ids, features, lengths, scorer.score_batch(ids, features, lengths))
        index, scores = recombine(config.recombiner, frame, index, scores, mutants)
        stats.append(_cycle_stats(cycle, scores))
    best = _by_total(scores)
    return GenerationResult(
        Population(*(column[index[best]] for column in frame), scores[best]), tuple(stats)
    )


# each baseline is a zero-cycle run of a named config: only its initiator acts
BASELINES = {
    "RGW": "RI-RWS-OPC-SBM-FSR",
    "SBGW": "SBI-RWS-OPC-SBM-FSR",
    "CBGW": "CBI-RWS-OPC-SBM-FSR",
}


def generate_baseline(
    kind: str, scorer: ViabilityScorer, n: int, log: EncodedLog, seed: int
) -> GenerationResult:
    """Draw n candidates with the baseline's initiator and score them as evolve does, best first."""
    if kind not in BASELINES:
        raise ConfigNameError(f"unknown baseline kind {kind!r}")
    config = EvoConfig(BASELINES[kind], population_size=n, cycles=0, seed=seed)
    return evolve(scorer, config, log)
