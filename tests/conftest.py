import os

import numpy as np
import pytest
from hypothesis import settings

from evocf import markov as markov_mod
from evocf import predictor as predictor_mod
from evocf.event_log import (
    EncodedTrace,
    EncoderSpec,
    NumericCodec,
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
