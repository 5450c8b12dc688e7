import math
import os

import numpy as np
import pytest
from hypothesis import settings

from evocf import markov as markov_mod
from evocf import predictor as predictor_mod
from evocf.errors import DataError
from evocf.event_log import (
    CODE_TOLERANCE,
    PAD_ID,
    EncodedTrace,
    EncoderSpec,
    Event,
    NumericCodec,
    Trace,
    encode_log,
    fit_encoder,
    preprocess,
    split_train_test,
    synthesize_log,
)
from evocf.viability import ViabilityScore

# CI selects this profile (HYPOTHESIS_PROFILE=ci) so property tests draw the
# same examples on every run and a slow runner cannot fail one on time
settings.register_profile("ci", derandomize=True, deadline=None)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))


def make_encoded(activities, feature_rows, max_len, outcome=0, case_id="t"):
    """Build an EncodedTrace from per-event activity ids and feature rows."""
    n = len(activities)
    feature_rows = np.asarray(feature_rows, dtype=float)
    if feature_rows.ndim == 1:
        feature_rows = feature_rows.reshape(n, -1)
    d = feature_rows.shape[1] if n else 0
    ids = np.zeros(max_len, dtype=np.int64)
    feats = np.zeros((max_len, d), dtype=float)
    ids[:n] = activities
    feats[:n] = feature_rows
    return EncodedTrace(ids, feats, n, outcome, case_id)


def encoded_equal(a, b) -> bool:
    """The two genomes have the same length, activity ids and feature rows."""
    return (
        a.valid_len == b.valid_len
        and np.array_equal(a.activity_ids, b.activity_ids)
        and np.array_equal(a.features, b.features)
    )


def check_encoded_invariants(enc) -> None:
    """Raise DataError unless padding discipline and feature range hold."""
    if not 1 <= enc.valid_len <= enc.max_len:
        raise DataError("valid_len out of range")
    if np.any(enc.activity_ids[: enc.valid_len] == PAD_ID):
        raise DataError("PAD id inside the valid prefix")
    if np.any(enc.activity_ids[enc.valid_len :] != PAD_ID):
        raise DataError("non-PAD id in the padding region")
    if np.any(enc.features[enc.valid_len :] != 0.0):
        raise DataError("nonzero feature row in the padding region")
    if np.any(enc.features < 0.0) or np.any(enc.features > 1.0):
        raise DataError("feature value outside [0, 1]")


# ---------------------------------------------------------------------------
# scalar reference of the attribute encoding, written out value by value
# from its rules without calling a codec: the == oracle of the batch paths


def reference_width(codec) -> int:
    """1 for a numeric attribute; for C categories, the bits that spell 0..C."""
    if isinstance(codec, NumericCodec):
        return 1
    return max(1, math.ceil(math.log2(len(codec.categories) + 1)))


def reference_code(codec, value) -> list[float]:
    """The code of one value: min-max scaled and clipped, or the bits of category index + 1."""
    if isinstance(codec, NumericCodec):
        span = codec.observed_max - codec.observed_min
        scaled = 0.0 if span <= 0.0 else (float(value) - codec.observed_min) / span
        return [min(max(scaled, 0.0), 1.0)]
    code = codec.categories.index(value) + 1  # ValueError for an unknown value
    width = reference_width(codec)
    return [float((code >> (width - 1 - b)) & 1) for b in range(width)]


def reference_value(codec, code):
    """The value of one code; None where a categorical code spells no category."""
    if isinstance(codec, NumericCodec):
        return codec.observed_min + float(code[0]) * (codec.observed_max - codec.observed_min)
    number = 0
    for entry in map(float, code):
        if not math.isfinite(entry):
            return None
        bit = round(entry)
        if bit not in (0, 1) or abs(entry - bit) > CODE_TOLERANCE:
            return None
        number = 2 * number + bit
    return codec.categories[number - 1] if 1 <= number <= len(codec.categories) else None


def reference_encode(trace, spec) -> tuple[np.ndarray, np.ndarray]:
    """The (max_len,) activity ids and (max_len, D) feature rows of trace, event by event."""
    ids = np.zeros(spec.max_len, dtype=np.int64)
    features = np.zeros((spec.max_len, sum(map(reference_width, spec.codecs))))
    for t, event in enumerate(trace.events):
        ids[t] = spec.activity_to_id[event.activity]
        row = []
        for codec in spec.codecs:
            if codec.name in event.attributes:
                row += reference_code(codec, event.attributes[codec.name])
            else:
                row += [0.0] * reference_width(codec)
        features[t] = row
    return ids, features


def reference_decode(enc, spec) -> Trace:
    """The trace enc encodes: padding dropped, a code that spells no category omitted."""
    id_to_activity = {i: a for a, i in spec.activity_to_id.items()}
    events = []
    for t in range(enc.valid_len):
        attributes = {}
        offset = 0
        for codec in spec.codecs:
            width = reference_width(codec)
            value = reference_value(codec, enc.features[t, offset : offset + width])
            if value is not None:
                attributes[codec.name] = value
            offset += width
        events.append(Event(id_to_activity[int(enc.activity_ids[t])], attributes))
    return Trace(enc.case_id, tuple(events), enc.outcome)


def sample_attribute_rows(model, activity_ids, rng):
    """sample_attributes for each activity in turn, as rows of an (n, D) array.

    Every event takes the same doubles in the same order, so one
    rng.random((n, k)) holds the draws of the n calls row by row: the rows
    and the generator state come out the same.
    """
    acts = np.asarray(activity_ids, dtype=np.int64)
    return markov_mod._attribute_rows(model, acts, rng.random((len(acts), model._draws_per_event)))


def sampled_genome(rng, feas_model):
    """One SBI genome as the per-genome calls draw it: its activity chain, then its attributes."""
    encoder = feas_model.encoder
    ids = markov_mod.sample_sequence(feas_model, encoder.max_len, rng)
    rows = sample_attribute_rows(feas_model, ids, rng)
    return make_encoded(ids, rows, encoder.max_len, outcome=0, case_id="cf")


def scored(population):
    """(genome, ViabilityScore) pairs of a population, in row order."""
    scores = (ViabilityScore(*row) for row in population.scores.tolist())
    return list(zip(population.genomes, scores))


def identity_encoder(vocab=("a", "b", "c"), max_len=8, n_numeric=1):
    """Encoder whose numeric attributes already live on [0, 1]."""
    codecs = tuple(NumericCodec(f"x{i}", 0.0, 1.0) for i in range(n_numeric))
    return EncoderSpec({name: i + 1 for i, name in enumerate(vocab)}, codecs, max_len)


@pytest.fixture(scope="session")
def synth_setup():
    """Synthetic planted-rule log with fitted encoder, predictor, and model."""
    log = preprocess(synthesize_log(200, 5, seed=0), 25)
    train_log, test_log = split_train_test(log, 0.2, seed=0)
    encoder = fit_encoder(train_log)
    train = encode_log(train_log, encoder)
    test = encode_log(test_log, encoder)
    predictor = predictor_mod.train(train, epochs=500, seed=0, encoder=encoder)
    feas_model = markov_mod.fit(train, encoder)
    return {
        "log": log,
        "encoder": encoder,
        "train": train,
        "test": test,
        "predictor": predictor,
        "feas_model": feas_model,
    }
