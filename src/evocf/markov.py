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
CDFs that each model derives from them once. sample_traces draws a whole
batch of traces as two fixed-shape blocks of doubles, one for the activity
chains and one for the events' attributes.
"""

from __future__ import annotations

import functools
import json
from dataclasses import dataclass

import numpy as np

from .event_log import PAD_ID, EncodedLog, EncoderSpec, Frame, NumericCodec, _cdf, _draw

END_ID = PAD_ID

DEFAULT_SMOOTHING = 1e-6
DEFAULT_BINS = 10


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
            codes = None if isinstance(codec, NumericCodec) else codec.encode(codec.categories)
            out.append((cdfs, codes))
        return out

    @functools.cached_property
    def _draws_per_event(self) -> int:
        """Doubles an event's attribute draw takes: two per numeric attribute, one per categorical."""
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
    train: EncodedLog,
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

    frame_ids, frame_features, lengths = train.frame
    valid = np.arange(frame_ids.shape[1]) < lengths[:, None]
    # an event's successor is the next column; after a trace's last event
    # that is padding, and PAD_ID is END_ID
    successors = np.pad(frame_ids[:, 1:], ((0, 0), (0, 1)), constant_values=END_ID)
    ids, features = frame_ids[valid], frame_features[valid]

    initial_counts = np.zeros(k + 1)
    np.add.at(initial_counts, frame_ids[:, 0], 1.0)
    transition_counts = np.zeros((k + 1, k + 1))
    np.add.at(transition_counts, (ids, successors[valid]), 1.0)

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


def feasibility(
    model: MarkovFeasibilityModel, ids: np.ndarray, features: np.ndarray, lengths: np.ndarray
) -> list[float]:
    """Probability of each trace of a frame (event_log.Rows) under the model; padding is ignored.

    The product is P(e0) * P(f0|e0) * prod_t P(et|et-1) * P(ft|et) over the valid
    prefix, without the END transition: event t of row i puts its initial or transition
    probability at 2t and its emission at 2t + 1, and the first 2 * lengths[i] factors
    are multiplied left to right (every row has an event). The running product of each
    row is one multiply.accumulate, read at column 2 * lengths[i] - 1: the factors meet
    in the order math.prod multiplies them, so the floats are its. One trace's is
    feasibility(model, *trace.frame)[0]."""
    n, max_len = ids.shape
    valid = np.arange(max_len) < lengths[:, None]
    factors = np.zeros((n, max_len, 2))
    factors[:, 0, 0] = model.initial_probs[ids[:, 0]]
    factors[:, 1:, 0] = model.transition[ids[:, :-1], ids[:, 1:]]
    factors[valid, 1] = _emission_factors(model, ids[valid], features[valid])
    products = np.multiply.accumulate(factors.reshape(n, 2 * max_len), axis=1)
    return products[np.arange(n), 2 * lengths - 1].tolist()


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


def sample_attributes(model: MarkovFeasibilityModel, acts: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Sample the feature rows (n, D) of the events acts (n,) from their doubles u (n, k).

    Each event draws from its activity's emissions, one attribute after
    another: a numeric attribute takes two doubles, its bin and then a
    uniform position inside it; a categorical attribute takes one, its
    category, and writes that category's code. Row e of u is event e's k
    doubles in that order. The index drawn is the count of CDF entries <= u,
    searchsorted(side="right") on the activity's CDF.
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
) -> Frame:
    """The frame (ids, features, lengths) of n traces sampled from the model.

    One random((n, max_len)) block walks the n activity chains a column at a
    time: column 0 picks each first activity from the initial CDF, column t
    the next one from the transition CDF row of the activity at t - 1. A
    pick is the count of CDF entries <= u, searchsorted(side="right"). END's
    row is all 1.0, so a chain that draws END stays there and pads the rest
    of its row. The E events, row-major, then take one random((E, k)) block
    through sample_attributes.
    """
    if max_len < 1:
        raise ValueError("max_len must be >= 1")
    initial_cdf, transition_cdf = model._sequence_cdfs
    u = rng.random((n, max_len))
    ids = np.empty((n, max_len), dtype=np.int64)
    ids[:, 0] = initial_cdf.searchsorted(u[:, 0], side="right")
    for t in range(1, max_len):
        ids[:, t] = (transition_cdf[ids[:, t - 1]] <= u[:, t, np.newaxis]).sum(axis=1)
    events = ids != END_ID
    features = np.zeros((n, max_len, model.encoder.feature_dim))
    draws = rng.random((events.sum(), model._draws_per_event))
    features[events] = sample_attributes(model, ids[events], draws)
    return ids, features, events.sum(axis=1)
