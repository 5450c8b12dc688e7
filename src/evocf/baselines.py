"""Non-iterative reference generators: random, sample-based, and case-based.

Each baseline produces n candidates in one shot, scores them against the
factual with the full viability measure, and returns them sorted by total
viability. They share their generation mechanics with the corresponding
initiation operators, which makes them the natural lower bounds for the
evolutionary search.
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigNameError
from .event_log import EncodedTrace
from .evolution import _random_genome, _sampled_genome
from .markov import MarkovFeasibilityModel
from .predictor import OutcomePredictor
from .viability import ViabilityScore, ViabilityScorer

BASELINE_KINDS = ("RGW", "SBGW", "CBGW")


def generate_baseline(
    kind: str,
    factual: EncodedTrace,
    n: int,
    log: list[EncodedTrace],
    feas_model: MarkovFeasibilityModel,
    predictor: OutcomePredictor,
    rng: np.random.Generator,
) -> list[tuple[EncodedTrace, ViabilityScore]]:
    """Generate and score n candidates, best total viability first."""
    if n < 1:
        raise ValueError("n must be >= 1")
    encoder = feas_model.encoder
    scorer = ViabilityScorer(factual, predictor, feas_model)
    if kind == "RGW":
        candidates = [
            _random_genome(rng, encoder.vocab_size, encoder.max_len, encoder.feature_dim)
            for _ in range(n)
        ]
    elif kind == "SBGW":
        candidates = [_sampled_genome(rng, feas_model) for _ in range(n)]
    elif kind == "CBGW":
        if not log:
            raise ValueError("CBGW needs a non-empty log")
        indices = rng.integers(0, len(log), size=n)
        candidates = [log[i] for i in indices]
    else:
        raise ConfigNameError(f"unknown baseline kind {kind!r}")
    scored = list(zip(candidates, scorer.score_batch(candidates)))
    scored.sort(key=lambda pair: -pair[1].total)
    return scored
