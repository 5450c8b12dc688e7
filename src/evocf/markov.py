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

Feasibility and sampling read dense tables that each model builds once from
its fields (see _Tables), so neither walks the emission dicts per event.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass

import numpy as np

from .event_log import EncodedTrace, EncoderSpec, NumericCodec

END_ID = 0

DEFAULT_SMOOTHING = 1e-6
DEFAULT_BINS = 10


@dataclass(frozen=True)
class MarkovFeasibilityModel:
    """Fitted initial/transition/emission distributions plus their encoder."""

    initial_probs: np.ndarray           # (K+1,), index 0 held at 0
    transition: np.ndarray              # (K+1, K+1), column 0 = END, row 0 absorbing
    numeric_emissions: dict[int, dict[str, np.ndarray]]      # activity -> attr -> (B,)
    categorical_emissions: dict[int, dict[str, np.ndarray]]  # activity -> attr -> (C,)
    smoothing_epsilon: float
    n_bins: int
    encoder: EncoderSpec

    @property
    def vocab_size(self) -> int:
        return len(self.initial_probs) - 1

    @functools.cached_property
    def _tables(self) -> "_Tables":
        # derived from the fields, which never change after construction
        return _build_tables(self)

    def to_json(self) -> str:
        return json.dumps(
            {
                "initial_probs": self.initial_probs.tolist(),
                "transition": self.transition.tolist(),
                "numeric_emissions": {
                    str(a): {k: v.tolist() for k, v in attrs.items()}
                    for a, attrs in self.numeric_emissions.items()
                },
                "categorical_emissions": {
                    str(a): {k: v.tolist() for k, v in attrs.items()}
                    for a, attrs in self.categorical_emissions.items()
                },
                "smoothing_epsilon": self.smoothing_epsilon,
                "n_bins": self.n_bins,
                "encoder": json.loads(self.encoder.to_json()),
            },
            indent=2,
        )

    @classmethod
    def from_json(cls, text: str) -> "MarkovFeasibilityModel":
        raw = json.loads(text)
        return cls(
            initial_probs=np.array(raw["initial_probs"], dtype=float),
            transition=np.array(raw["transition"], dtype=float),
            numeric_emissions={
                int(a): {k: np.array(v, dtype=float) for k, v in attrs.items()}
                for a, attrs in raw["numeric_emissions"].items()
            },
            categorical_emissions={
                int(a): {k: np.array(v, dtype=float) for k, v in attrs.items()}
                for a, attrs in raw["categorical_emissions"].items()
            },
            smoothing_epsilon=float(raw["smoothing_epsilon"]),
            n_bins=int(raw["n_bins"]),
            encoder=EncoderSpec.from_json(json.dumps(raw["encoder"])),
        )


def _smooth(counts: np.ndarray, epsilon: float) -> np.ndarray:
    total = counts.sum()
    denom = total + epsilon * len(counts)
    if denom == 0.0:
        # state never observed and no smoothing: any valid distribution works,
        # because every product touching it already contains a zero factor
        return np.full(len(counts), 1.0 / len(counts))
    return (counts + epsilon) / denom


def _cdf(probs: np.ndarray) -> np.ndarray:
    # the same arithmetic as Generator.choice(k, p=probs), so a draw through
    # searchsorted picks the same index and consumes the same single double
    cdf = probs.cumsum()
    cdf /= cdf[-1]
    return cdf


def _draw(cdf: np.ndarray, rng: np.random.Generator) -> int:
    return int(cdf.searchsorted(rng.random(), side="right"))


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


@dataclass(frozen=True)
class _Tables:
    """Dense arrays behind sampling and feasibility, built once per model.

    Emission tables are indexed [activity, column] with one table per
    attribute; a categorical table carries a trailing zero column, which is
    what _attribute_indices' -1 reads for a code outside the categories.
    """

    initial_cdf: np.ndarray                     # (K+1,)
    transition_cdf: np.ndarray                  # (K+1, K+1), one CDF per row
    emissions: tuple[np.ndarray, ...]           # per attribute (K+1, B) or (K+1, C+1)
    emission_cdfs: tuple[np.ndarray, ...]       # per attribute (K+1, B) or (K+1, C)
    code_rows: tuple[np.ndarray | None, ...]    # per attribute (C, width); None if numeric


def _build_tables(model: MarkovFeasibilityModel) -> _Tables:
    rows = model.vocab_size + 1
    emissions, emission_cdfs, code_rows = [], [], []
    for codec, _ in model.encoder.slices():
        if isinstance(codec, NumericCodec):
            source, width, codes = model.numeric_emissions, model.n_bins, None
        else:
            source, width = model.categorical_emissions, len(codec.categories)
            codes = np.array([codec.encode(c) for c in codec.categories])
        table = np.zeros((rows, width if codes is None else width + 1))
        cdfs = np.zeros((rows, width))
        for a, attrs in source.items():
            table[a, :width] = attrs[codec.name]
            cdfs[a] = _cdf(attrs[codec.name])
        emissions.append(table)
        emission_cdfs.append(cdfs)
        code_rows.append(codes)
    return _Tables(
        initial_cdf=_cdf(model.initial_probs),
        transition_cdf=np.array([_cdf(row) for row in model.transition]),
        emissions=tuple(emissions),
        emission_cdfs=tuple(emission_cdfs),
        code_rows=tuple(code_rows),
    )


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

    numeric_emissions: dict[int, dict[str, np.ndarray]] = {a: {} for a in range(1, k + 1)}
    categorical_emissions: dict[int, dict[str, np.ndarray]] = {a: {} for a in range(1, k + 1)}
    for (codec, _), idx in zip(encoder.slices(), _attribute_indices(encoder, n_bins, features)):
        if isinstance(codec, NumericCodec):
            width, target = n_bins, numeric_emissions
        else:
            width, target = len(codec.categories), categorical_emissions
        # one spare column takes the -1 of codes outside the categories
        counts = np.zeros((k + 1, width + 1))
        np.add.at(counts, (ids, idx), 1.0)
        for a in range(1, k + 1):
            target[a][codec.name] = _smooth(counts[a, :width], smoothing_epsilon)

    return MarkovFeasibilityModel(
        initial_probs=initial_probs,
        transition=transition,
        numeric_emissions=numeric_emissions,
        categorical_emissions=categorical_emissions,
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
    for table, idx in zip(model._tables.emissions, indices):
        factors *= table[ids, idx]
    return factors


def emission_probability(
    model: MarkovFeasibilityModel, activity_id: int, feature_row: np.ndarray
) -> float:
    """P(features | activity), factorized over attributes.

    A categorical sub-vector that is not exactly a known category code (within
    1e-9 per bit) has probability 0: the distribution ranges over real
    categories only, so arbitrary real-valued vectors fall outside its
    support.
    """
    ids = np.array([activity_id])
    return float(_emission_factors(model, ids, feature_row[np.newaxis, :])[0])


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
    tables = model._tables
    current = _draw(tables.initial_cdf, rng)
    sequence = [current]
    while len(sequence) < max_len:
        nxt = _draw(tables.transition_cdf[current], rng)
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
    tables = model._tables
    row = np.zeros(model.encoder.feature_dim)
    for (_, cols), cdfs, codes in zip(
        model.encoder.slices(), tables.emission_cdfs, tables.code_rows
    ):
        idx = _draw(cdfs[activity_id], rng)
        if codes is None:
            row[cols] = (idx + rng.random()) / model.n_bins
        else:
            row[cols] = codes[idx]
    return row
