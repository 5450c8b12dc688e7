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
from .errors import ConfigNameError, ConfigurationError, SelectionError
from .event_log import PAD_ID, EncodedLog, EncodedTrace, EncoderSpec, Frame, Rows
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
    log: EncodedLog,
    feas_model: MarkovFeasibilityModel,
    scorer: ViabilityScorer,
    rng: np.random.Generator,
) -> Population:
    """Create and score the initial population.

    RI draws uniformly random genomes, SBI samples activities and attributes
    from the feasibility model, CBI draws rows of the log uniformly with
    replacement.
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
        frame = log.take(rng.integers(0, len(log), size=n)).frame
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


class _Stream:
    """The draws rng's calls would make, read ahead from blocks of its raw outputs.

    It reproduces three draws of a PCG64 generator: random() as
    (raw >> 11) * 2**-53; the 32-bit output, the low half of a raw output
    first and its high half kept for the next call (the generator's
    has_uint32/uinteger buffer); and integers(lo, hi) as numpy's 32-bit
    Lemire draw with its rejection loop, where a range of one value draws
    nothing. u holds the doubles of the outputs read so far, pos the index
    of the next unused output. A short block grows by at least ahead
    outputs. sync() leaves the generator where the calls would have: the
    state before the block, advanced by the outputs used, with the buffer
    written back, since advance clears it; the stream draws nothing after
    it. A draw the stream cannot reproduce goes through escape().
    """

    def __init__(self, rng: np.random.Generator):
        self.rng = rng
        self.ahead = 0
        self._resume()

    def _resume(self) -> None:
        self._state = self.rng.bit_generator.state
        self._has32, self._u32 = self._state["has_uint32"], self._state["uinteger"]
        self._raw = np.empty(0, dtype=np.uint64)
        self.u: list[float] = []
        self.pos = 0

    def fill(self, k: int) -> None:
        """Make the next k outputs readable."""
        short = self.pos + k - len(self.u)
        if short > 0:
            raw = self.rng.bit_generator.random_raw(max(short, self.ahead))
            self._raw = np.concatenate([self._raw, raw])
            self.u += ((raw >> np.uint64(11)) * 2.0**-53).tolist()

    def doubles(self, k: int) -> list[float]:
        """What rng.random(k) draws, as a list."""
        self.fill(k)
        self.pos += k
        return self.u[self.pos - k : self.pos]

    def _next32(self) -> int:
        if self._has32:
            self._has32 = 0
            return self._u32
        self.fill(1)
        raw = int(self._raw[self.pos])
        self.pos += 1
        self._has32, self._u32 = 1, raw >> 32
        return raw & 0xFFFFFFFF

    def integers(self, lo: int, hi: int) -> int:
        """What int(rng.integers(lo, hi)) draws, for 1 <= hi - lo <= 2**32."""
        span = hi - lo
        if span == 1:
            return lo
        m = self._next32() * span
        if m & 0xFFFFFFFF < span:
            threshold = (2**32 - span) % span
            while m & 0xFFFFFFFF < threshold:
                m = self._next32() * span
        return lo + (m >> 32)

    def sync(self) -> None:
        bitgen = self.rng.bit_generator
        bitgen.state = self._state
        bitgen.advance(self.pos)
        if self._has32 or self._u32:
            bitgen.state = {**bitgen.state, "has_uint32": self._has32, "uinteger": self._u32}

    def escape(self, draw):
        """draw(rng) on the synced generator; the stream resumes from its new state."""
        self.sync()
        value = draw(self.rng)
        self._resume()
        return value


@dataclass(frozen=True)
class _Breeding:
    """One cycle's crossover and mutation draws, as crossover and mutate apply them.

    masks[p] marks the positions where child 2p takes row 2p's cell and
    child 2p + 1 row 2p + 1's (each takes its partner's elsewhere); masks
    is None when nothing is crossed. crossed holds each child's length
    after crossover. A script lists a mutated child's events in order: a
    position of its crossed row, or -1 - e for new event e, whose activity
    is acts[e] and whose row comes from draws[e] (SBM: the doubles of its
    attribute draw; RM: the row).
    """

    masks: np.ndarray | None
    crossed: list[int]
    scripts: list[tuple[int, list[int]]]
    acts: list[int]
    draws: list


def _mask_lengths(mask: list[bool], la: int, lb: int) -> list[int]:
    """The lengths of the two children mask makes of parents of lengths la and lb.

    Both parents have events below the shorter length and neither from the
    longer one on. In between, a child has an event while it takes the
    longer parent's cell, so it ends at the first cell it takes from the
    shorter parent.
    """
    lo, hi = sorted((la, lb))
    a_longer = la > lb
    tail = mask[lo:hi]
    first = next((lo + t for t, m in enumerate(tail) if m != a_longer), hi)
    second = next((lo + t for t, m in enumerate(tail) if m == a_longer), hi)
    return [first, second]


def _segment_length(own: int, other: int, lo: int, hi: int) -> int:
    """The length of a child that takes cells lo..hi-1 from the other parent, the rest from its own.

    It ends where its own parent ends if that is before lo; otherwise where
    the other parent ends if that is before hi, but not before lo;
    otherwise where its own parent ends, but not before hi.
    """
    if own < lo:
        return own
    return max(lo, other) if other < hi else max(hi, own)


def _two_cuts(stream: _Stream, max_len: int) -> list[int]:
    """TPC's cut points: rng.choice(range(1, max_len), size=2, replace=False), sorted.

    Generator.choice picks two of the p = max_len - 1 cells by Floyd's
    algorithm: a draw over 0..p-2, then one over 0..p-1 that becomes p - 1
    if it repeats the first. It then shuffles the two with a draw over
    0..1, which sorting undoes but which is still drawn. It needs p >= 2,
    which evolve checks before the first draw.
    """
    p = max_len - 1
    first = stream.integers(0, p - 1)
    second = stream.integers(0, p)
    stream.integers(0, 2)
    return sorted((first + 1, p if second == first else second + 1))


def _breed(
    lengths: list[int], max_len: int, crosser: str | None, uc_rate: float | None,
    mutator: str | None, rates: MutationRates | None, feas_model: MarkovFeasibilityModel | None,
    rng: np.random.Generator,
) -> _Breeding:
    """The draws of crossing each row pair of an offspring block and mutating each child.

    The per-genome calls made these draws pair by pair: the pair's
    crossover, then each child's delete, insert and change passes. Which
    draws come next depends only on lengths, so one walk of the generator's
    stream makes them all in that order, with crosser or mutator None
    leaving that operator out (crossing alone needs no rates or model).
    UC's mask is one double per cell; OPC and TPC swap a segment of cells,
    OPC's from its cut to the end, and the children's lengths follow from
    the segment. A child without events reads n delete, max_len - n insert
    and n change doubles, and three slice minima find it. RM's normals
    escape to the generator, so with RM each block is sized for one pair,
    otherwise for the rest of the cycle. The generator ends where the calls
    would have left it.
    """
    crossing = crosser is not None and max_len >= 2
    stream = _Stream(rng)
    masks, crossed, scripts, acts, draws = [], [], [], [], []

    def new_event() -> int:
        acts.append(stream.integers(1, feas_model.encoder.vocab_size + 1))
        if mutator == "SBM":
            draws.append(stream.doubles(feas_model._draws_per_event))
        else:
            feature_dim = feas_model.encoder.feature_dim
            draws.append(
                stream.escape(lambda g: np.clip(g.standard_normal(feature_dim), 0.0, 1.0))
            )
        return -len(acts)

    # each pair's outputs when no child has an event
    cross_need = {"UC": max_len, "OPC": 1, "TPC": 2}[crosser] if crossing else 0
    needs = [
        cross_need + (sum(pair) + max_len * len(pair) if mutator is not None else 0)
        for pair in (lengths[p : p + 2] for p in range(0, len(lengths), 2))
    ]
    escapes = mutator == "RM"
    remaining = sum(needs)
    for first, need in zip(range(0, len(lengths), 2), needs):
        stream.ahead = need if escapes else remaining
        remaining -= need
        pair = lengths[first : first + 2]
        if crossing:
            if crosser == "UC":
                mask = [x < uc_rate for x in stream.doubles(max_len)]
                masks.append(mask)
                pair = _mask_lengths(mask, *pair)
            else:
                lo, hi = (
                    (stream.integers(1, max_len), max_len)
                    if crosser == "OPC"
                    else _two_cuts(stream, max_len)
                )
                masks.append((lo, hi))
                la, lb = pair
                pair = [_segment_length(la, lb, lo, hi), _segment_length(lb, la, lo, hi)]
            crossed += pair
        if mutator is None:
            continue
        for child, n in enumerate(pair, first):
            stream.fill(n + max_len)
            u, i = stream.u, stream.pos
            if (
                min(u[i : i + n]) >= rates.delete
                and min(u[i + n : i + max_len], default=1.0) >= rates.insert
                and min(u[i + max_len : i + max_len + n]) >= rates.change
            ):
                stream.pos = i + max_len + n
                continue
            # deletes spare the last survivor
            script = [t for t, x in enumerate(stream.doubles(n)) if x >= rates.delete] or [n - 1]
            # one insert double per free slot at the start of the pass; only a hit draws more
            slots = max_len - len(script)
            while slots:
                stream.fill(slots)
                free = stream.u[stream.pos : stream.pos + slots]
                if min(free) >= rates.insert:
                    stream.pos += slots
                    break
                hit = next(j for j, x in enumerate(free) if x < rates.insert)
                stream.pos += hit + 1
                slots -= hit + 1
                position = stream.integers(0, len(script) + 1)
                script.insert(position, new_event())
            for t, x in enumerate(stream.doubles(len(script))):
                if x < rates.change:
                    script[t] = new_event()
            scripts.append((child, script))
    stream.sync()
    if not crossing:
        masks = None
    elif crosser == "UC":
        masks = np.array(masks, dtype=bool).reshape(-1, max_len)
    else:
        lo, hi = np.array(masks, dtype=np.int64).reshape(-1, 2).T[:, :, np.newaxis]
        frame = np.arange(max_len)
        masks = (frame < lo) | (frame >= hi)
    return _Breeding(masks, crossed, scripts, acts, draws)


def _gather(
    ids: np.ndarray, features: np.ndarray, rows, cells: np.ndarray, acts: np.ndarray,
    new_features: np.ndarray,
) -> None:
    """Rewrite rows of a block from cells, which index one table of cells.

    The table holds the block's cells row-major, then the new events acts
    with their feature rows new_features, then one padding cell.
    """
    n_cells = ids.size
    feature_dim = features.shape[2]
    id_table = np.concatenate([ids.reshape(n_cells), acts, [PAD_ID]])
    feature_table = np.concatenate(
        [features.reshape(n_cells, feature_dim), new_features, np.zeros((1, feature_dim))]
    )
    ids[rows] = np.take(id_table, cells)
    features[rows] = np.take(feature_table, cells, axis=0)


def crossover(
    ids: np.ndarray, features: np.ndarray, lengths: np.ndarray, bred: _Breeding
) -> None:
    """Cross the row pairs (2p, 2p + 1) of an offspring block in place, by bred's masks.

    Where masks[p] is set, each child of pair p keeps its own row's cell,
    and elsewhere it takes its partner's. Positions index the full frame
    (padding included), so parents of different lengths cross cleanly; the
    events a child holds after its first PAD are an artifact of mixing
    frames, and are cut. Position 0 always holds a real gene, so no child
    has length zero.
    """
    if bred.masks is None:
        return
    n_rows, max_len = ids.shape
    own = np.arange(n_rows)[:, np.newaxis]
    source = np.where(np.repeat(bred.masks, 2, axis=0), own, own ^ 1)
    cells = source * max_len + np.arange(max_len)
    lengths[:] = bred.crossed
    cells[np.arange(max_len) >= lengths[:, np.newaxis]] = ids.size
    no_events = np.empty(0, dtype=np.int64), np.empty((0, features.shape[2]))
    _gather(ids, features, slice(None), cells, *no_events)


def mutate(
    kind: str, ids: np.ndarray, features: np.ndarray, lengths: np.ndarray, bred: _Breeding,
    feas_model: MarkovFeasibilityModel,
) -> None:
    """Apply bred's edit scripts to a crossed offspring block in place.

    The delete, insert and change passes of each child are already in its
    script. Deletes hit non-padding positions only (the last survivor is
    immune, so length never drops below 1); inserts fill free padding
    capacity at a uniform position; changes redraw activity and attributes
    in place. RM draws attributes from a clipped standard normal, SBM from
    the feasibility model conditioned on the new activity, here in one
    markov.sample_attributes call for the whole block. The mutated rows are
    gathered at once.
    """
    if not bred.scripts:
        return
    max_len, feature_dim = features.shape[1:]
    acts = np.array(bred.acts, dtype=np.int64)
    if kind == "SBM":
        u = np.array(bred.draws).reshape(len(acts), feas_model._draws_per_event)
        rows = markov_mod.sample_attributes(feas_model, acts, u)
    else:
        rows = np.array(bred.draws).reshape(len(acts), feature_dim)
    children = [child for child, _ in bred.scripts]
    # new event e is cell ids.size + e of the table, the padding cell the one after them
    cells = np.full((len(children), max_len), ids.size + len(acts))
    for row, (child, script) in zip(cells, bred.scripts):
        row[: len(script)] = [child * max_len + s if s >= 0 else ids.size - 1 - s for s in script]
        lengths[child] = len(script)
    _gather(ids, features, children, cells, acts, rows)


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
    log: EncodedLog,
) -> GenerationResult:
    """Run the full loop for config.cycles cycles against one factual.

    Returns the final population sorted by total viability (descending) and
    one statistics row per executed cycle. Deterministic under config.seed.
    """
    # a frame of one event crosses nothing; one of two has one cut point
    if config.crosser == "TPC" and config.cycles > 0 and feas_model.encoder.max_len == 2:
        raise ConfigurationError(
            f"{config.name}: TPC needs two cut points, and a frame of 2 events has one"
        )
    rng = np.random.default_rng(config.seed)
    scorer = ViabilityScorer(factual, predictor, feas_model)
    population = initialize(config.initiator, config.population_size, log, feas_model, scorer, rng)
    stats: list[CycleStats] = []
    for cycle in range(1, config.cycles + 1):
        parents = select(config.selector, population, config.offspring_per_cycle, rng)
        # the offspring block starts as the parents' rows; one walk of the
        # generator's stream draws the cycle's crossovers and mutations, and
        # each operator then applies its draws to the whole block
        ids, features, lengths = (column[parents] for column in population.frame)
        bred = _breed(
            lengths.tolist(), ids.shape[1], config.crosser, config.uc_rate, config.mutator,
            config.mutation_rates, feas_model, rng,
        )
        crossover(ids, features, lengths, bred)
        mutate(config.mutator, ids, features, lengths, bred, feas_model)
        mutants = Population(ids, features, lengths, scorer.score_batch(ids, features, lengths))
        population = recombine(config.recombiner, population, mutants, config.population_size)
        stats.append(_cycle_stats(cycle, population))
    return GenerationResult(population.take(_by_total(population.scores)), tuple(stats))


BASELINES = {"RGW": "RI", "SBGW": "SBI", "CBGW": "CBI"}


def generate_baseline(
    kind: str,
    factual: EncodedTrace,
    n: int,
    log: EncodedLog,
    feas_model: MarkovFeasibilityModel,
    predictor,
    seed: int,
) -> GenerationResult:
    """Draw and score n candidates with the baseline's initiator, best first."""
    if kind not in BASELINES:
        raise ConfigNameError(f"unknown baseline kind {kind!r}")
    config = EvoConfig(initiator=BASELINES[kind], population_size=n, cycles=0, seed=seed)
    return evolve(factual, config, predictor, feas_model, log)
