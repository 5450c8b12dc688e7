"""First-order Markov feasibility model over encoded traces.

The model estimates the probability of a trace as the product of an initial
activity probability, per-step transition probabilities, and per-event
attribute emission probabilities. Emissions are equal-width histograms over
[0, 1] for numeric attributes and category frequencies for categoricals, so
every factor is a genuine probability in [0, 1].

State indexing: activity ids 1..K are the real states; index 0 doubles as the
virtual END state in the transition matrix (padding never occurs inside an
unpadded prefix, so the reuse is unambiguous). END is estimated from the data
and used to terminate sampling, but the feasibility product stops at the last
real event and never includes an END factor.

The model's fields are the dense tables feasibility reads; sampling reads
CDFs that each model derives from them once.
"""

from __future__ import annotations

import bisect
import functools
import itertools
import json
import math
from dataclasses import dataclass

import numpy as np

from .event_log import EncodedTrace, EncoderSpec, NumericCodec, _cdf, _draw

END_ID = 0

DEFAULT_SMOOTHING = 1e-6
DEFAULT_BINS = 10

# traces per block of doubles in sample_traces; the block is sized for the
# longest traces, so a fixed chunk bounds its memory
_TRACE_CHUNK = 128


@dataclass(frozen=True)
class MarkovFeasibilityModel:
    """Fitted initial/transition/emission distributions plus their encoder.

    emissions holds one table per attribute, in encoder.slices() order,
    indexed [activity, column]: (K+1, n_bins + 1) for a numeric attribute,
    (K+1, C + 1) for a categorical one. Row 0 (END/PAD) and the last column
    are zero; the last column is what _attribute_indices' -1 reads for a
    code outside the categories, and numeric bins never reach it.
    """

    initial_probs: np.ndarray           # (K+1,), index 0 held at 0
    transition: np.ndarray              # (K+1, K+1), column 0 = END, row 0 absorbing
    emissions: tuple[np.ndarray, ...]   # per attribute (K+1, width + 1)
    smoothing_epsilon: float
    n_bins: int
    encoder: EncoderSpec

    @property
    def vocab_size(self) -> int:
        return len(self.initial_probs) - 1

    # the sampling tables are derived from the fields, which never change
    @functools.cached_property
    def _sequence_cdfs(self) -> tuple[np.ndarray, np.ndarray]:
        return _cdf(self.initial_probs), np.array([_cdf(row) for row in self.transition])

    @functools.cached_property
    def _attribute_cdfs(self) -> list[tuple[np.ndarray, np.ndarray | None]]:
        """Per attribute, an emission CDF per activity and, if categorical, the category codes."""
        out = []
        for (codec, _), table in zip(self.encoder.slices(), self.emissions):
            cdfs = np.zeros((len(table), table.shape[1] - 1))
            for a in range(1, len(table)):
                cdfs[a] = _cdf(table[a, :-1])
            codes = None
            if not isinstance(codec, NumericCodec):
                codes = np.array([codec.encode(c) for c in codec.categories])
            out.append((cdfs, codes))
        return out

    @functools.cached_property
    def _draws_per_event(self) -> int:
        """Doubles sample_attributes draws: two per numeric attribute, one per categorical."""
        return sum(1 if codes is not None else 2 for _, codes in self._attribute_cdfs)

    def to_json(self) -> str:
        def emissions_json(numeric: bool) -> dict:
            attrs = [
                (codec.name, table)
                for (codec, _), table in zip(self.encoder.slices(), self.emissions)
                if isinstance(codec, NumericCodec) == numeric
            ]
            return {
                str(a): {name: table[a, :-1].tolist() for name, table in attrs}
                for a in range(1, self.vocab_size + 1)
            }

        return json.dumps(
            {
                "initial_probs": self.initial_probs.tolist(),
                "transition": self.transition.tolist(),
                "numeric_emissions": emissions_json(True),
                "categorical_emissions": emissions_json(False),
                "smoothing_epsilon": self.smoothing_epsilon,
                "n_bins": self.n_bins,
                "encoder": json.loads(self.encoder.to_json()),
            },
            indent=2,
        )


def _smooth(counts: np.ndarray, epsilon: float) -> np.ndarray:
    total = counts.sum()
    denom = total + epsilon * len(counts)
    if denom == 0.0:
        # state never observed and no smoothing: any valid distribution works,
        # because every product touching it already contains a zero factor
        return np.full(len(counts), 1.0 / len(counts))
    return (counts + epsilon) / denom


def _attribute_indices(
    encoder: EncoderSpec, n_bins: int, features: np.ndarray
) -> list[np.ndarray]:
    """Per attribute, the emission column of every row of features (N, D).

    Numeric values map to their equal-width bin, clamped to [0, n_bins - 1];
    categorical codes map to their category index, or -1 when the code is
    absent or not a category (the tables keep a zero column there).
    """
    out = []
    for codec, cols in encoder.slices():
        if isinstance(codec, NumericCodec):
            scaled = np.clip(features[:, cols.start] * n_bins, 0, n_bins - 1)
            out.append(scaled.astype(np.int64))
        else:
            out.append(codec.decode_indices(features[:, cols]))
    return out


def fit(
    train: list[EncodedTrace],
    encoder: EncoderSpec,
    smoothing_epsilon: float = DEFAULT_SMOOTHING,
    n_bins: int = DEFAULT_BINS,
) -> MarkovFeasibilityModel:
    """Estimate the model by counting transitions and emissions in train.

    Padding positions are excluded from every count; the last real event of a
    trace counts one transition into END. Laplace smoothing adds epsilon to
    every cell and epsilon * (number of cells) to the denominator.
    """
    if not train:
        raise ValueError("train must be non-empty")
    if n_bins < 2:
        raise ValueError("n_bins must be >= 2")
    k = encoder.vocab_size

    ids = np.concatenate([t.activity_ids[: t.valid_len] for t in train])
    successors = np.concatenate(
        [np.append(t.activity_ids[1 : t.valid_len], END_ID) for t in train]
    )
    features = np.concatenate([t.features[: t.valid_len] for t in train])

    initial_counts = np.zeros(k + 1)
    np.add.at(initial_counts, [int(t.activity_ids[0]) for t in train], 1.0)
    transition_counts = np.zeros((k + 1, k + 1))
    np.add.at(transition_counts, (ids, successors), 1.0)

    # initial distribution ranges over the K real activities only
    initial_probs = np.zeros(k + 1)
    initial_probs[1:] = _smooth(initial_counts[1:], smoothing_epsilon)

    transition = np.zeros((k + 1, k + 1))
    transition[END_ID, END_ID] = 1.0  # absorbing, keeps every row a distribution
    for a in range(1, k + 1):
        transition[a] = _smooth(transition_counts[a], smoothing_epsilon)

    emissions = []
    for (codec, _), idx in zip(encoder.slices(), _attribute_indices(encoder, n_bins, features)):
        width = n_bins if isinstance(codec, NumericCodec) else len(codec.categories)
        # one spare column takes the -1 of codes outside the categories
        counts = np.zeros((k + 1, width + 1))
        np.add.at(counts, (ids, idx), 1.0)
        table = np.zeros((k + 1, width + 1))
        for a in range(1, k + 1):
            table[a, :width] = _smooth(counts[a, :width], smoothing_epsilon)
        emissions.append(table)

    return MarkovFeasibilityModel(
        initial_probs=initial_probs,
        transition=transition,
        emissions=tuple(emissions),
        smoothing_epsilon=smoothing_epsilon,
        n_bins=n_bins,
        encoder=encoder,
    )


def _emission_factors(
    model: MarkovFeasibilityModel, ids: np.ndarray, features: np.ndarray
) -> np.ndarray:
    # attribute by attribute from 1.0, the order the product is defined in
    factors = np.ones(len(ids))
    indices = _attribute_indices(model.encoder, model.n_bins, features)
    for table, idx in zip(model.emissions, indices):
        factors *= table[ids, idx]
    return factors


def feasibility(model: MarkovFeasibilityModel, trace: EncodedTrace) -> float:
    """Probability of the trace under the model; padding is ignored.

    The product is P(e0) * P(f0|e0) * prod_t P(et|et-1) * P(ft|et) over the
    valid prefix; the END transition is not included. The factors are
    gathered at once and multiplied left to right in that order.
    """
    n = trace.valid_len
    ids = trace.activity_ids[:n]
    factors = np.empty(2 * n)
    factors[0] = model.initial_probs[ids[0]]
    factors[1::2] = _emission_factors(model, ids, trace.features[:n])
    factors[2::2] = model.transition[ids[:-1], ids[1:]]
    return math.prod(factors.tolist())


def feasibility_batch(model: MarkovFeasibilityModel, traces: list[EncodedTrace]) -> list[float]:
    """feasibility of each trace, with the factors of all traces gathered at once.

    The valid prefixes are concatenated; event g contributes the factor at
    2g (its initial or transition probability) and its emission at 2g + 1,
    so each trace's slice holds the factors feasibility multiplies, in the
    same order, and every product is the same float.
    """
    if not traces:
        return []
    lengths = [trace.valid_len for trace in traces]
    ids = np.concatenate([trace.activity_ids[:n] for trace, n in zip(traces, lengths)])
    features = np.concatenate([trace.features[:n] for trace, n in zip(traces, lengths)])
    starts = np.cumsum([0, *lengths[:-1]])
    first = np.zeros(len(ids), dtype=bool)
    first[starts] = True
    factors = np.empty(2 * len(ids))
    # np.roll pairs each first event with the previous trace's last; masked
    factors[0::2] = np.where(
        first, model.initial_probs[ids], model.transition[np.roll(ids, 1), ids]
    )
    factors[1::2] = _emission_factors(model, ids, features)
    flat = factors.tolist()
    return [
        math.prod(flat[2 * start : 2 * (start + n)])
        for start, n in zip(starts.tolist(), lengths)
    ]


def sample_sequence(
    model: MarkovFeasibilityModel, max_len: int, rng: np.random.Generator
) -> list[int]:
    """Sample an activity-id sequence; stops at END or max_len, length >= 1."""
    if max_len < 1:
        raise ValueError("max_len must be >= 1")
    initial_cdf, transition_cdf = model._sequence_cdfs
    current = _draw(initial_cdf, rng)
    sequence = [current]
    while len(sequence) < max_len:
        nxt = _draw(transition_cdf[current], rng)
        if nxt == END_ID:
            break
        sequence.append(nxt)
        current = nxt
    return sequence


def sample_attributes(
    model: MarkovFeasibilityModel, activity_id: int, rng: np.random.Generator
) -> np.ndarray:
    """Sample one feature row (length D) from the activity's emissions.

    A numeric attribute draws its bin, then a uniform position inside it; a
    categorical attribute draws its category and writes that category's code.
    """
    if activity_id == END_ID:
        raise ValueError("cannot sample attributes for the PAD/END id")
    row = np.zeros(model.encoder.feature_dim)
    for (_, cols), (cdfs, codes) in zip(model.encoder.slices(), model._attribute_cdfs):
        idx = _draw(cdfs[activity_id], rng)
        if codes is None:
            row[cols] = (idx + rng.random()) / model.n_bins
        else:
            row[cols] = codes[idx]
    return row


def sample_attribute_rows(
    model: MarkovFeasibilityModel, activity_ids: list[int], rng: np.random.Generator
) -> np.ndarray:
    """sample_attributes for each activity in turn, as rows of an (n, D) array.

    Every event takes the same doubles in the same order, so one
    rng.random((n, k)) holds the draws of the n calls row by row: the rows
    and the generator state come out the same.
    """
    acts = np.asarray(activity_ids, dtype=np.int64)
    return _attribute_rows(model, acts, rng.random((len(acts), model._draws_per_event)))


def _attribute_rows(
    model: MarkovFeasibilityModel, acts: np.ndarray, u: np.ndarray
) -> np.ndarray:
    """The rows sample_attributes makes for the events acts (n,) from their doubles u (n, k).

    Each event's row of u is what its call draws: two doubles per numeric
    attribute (bin, then position) and one per categorical. Counting the CDF
    entries <= u is searchsorted(side="right"), the index _draw picks.
    """
    rows = np.zeros((len(acts), model.encoder.feature_dim))
    col = 0
    for (_, cols), (cdfs, codes) in zip(model.encoder.slices(), model._attribute_cdfs):
        idx = (cdfs[acts] <= u[:, col, np.newaxis]).sum(axis=1)
        if codes is None:
            rows[:, cols.start] = (idx + u[:, col + 1]) / model.n_bins
            col += 2
        else:
            rows[:, cols] = codes[idx]
            col += 1
    return rows


def sample_traces(
    model: MarkovFeasibilityModel, max_len: int, n: int, rng: np.random.Generator
) -> tuple[list[int], np.ndarray, np.ndarray]:
    """n times sample_sequence, then sample_attribute_rows of its activities.

    Returns the n trace lengths, then the activity ids (E,) and attribute
    rows (E, D) of all the events, the traces concatenated in order. Every
    draw of those calls is one double: one per activity draw (END
    included), then k per event. So a chunk of traces walks one block of
    doubles, sized for traces that all reach max_len. The chains step with
    bisect_right on the CDF rows as lists, which picks searchsorted's index,
    and the attribute rows of all the events come from one _attribute_rows.
    The generator is restored after each chunk and advanced by the doubles
    used, so the sequences, the rows and the generator state equal those of
    the per-trace calls.
    """
    if max_len < 1:
        raise ValueError("max_len must be >= 1")
    initial_cdf, transition_cdf = model._sequence_cdfs
    initial, transition = initial_cdf.tolist(), transition_cdf.tolist()
    k = model._draws_per_event
    sequences: list[list[int]] = []
    attribute_draws = []
    for start in range(0, n, _TRACE_CHUNK):
        size = min(_TRACE_CHUNK, n - start)
        state = rng.bit_generator.state
        block = rng.random(size * max_len * (1 + k))
        u = block.tolist()
        used = 0
        for _ in range(size):
            current = bisect.bisect_right(initial, u[used])
            used += 1
            sequence = [current]
            while len(sequence) < max_len:
                nxt = bisect.bisect_right(transition[current], u[used])
                used += 1
                if nxt == END_ID:
                    break
                sequence.append(nxt)
                current = nxt
            sequences.append(sequence)
            attribute_draws.append(block[used : used + len(sequence) * k])
            used += len(sequence) * k
        rng.bit_generator.state = state
        rng.random(used)
    acts = np.fromiter(itertools.chain.from_iterable(sequences), dtype=np.int64)
    draws = np.concatenate(attribute_draws) if attribute_draws else np.empty(0)
    rows = _attribute_rows(model, acts, draws.reshape(len(acts), k))
    return [len(sequence) for sequence in sequences], acts, rows
