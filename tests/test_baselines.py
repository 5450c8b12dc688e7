import statistics

import numpy as np
import pytest

from conftest import identity_encoder, make_encoded, sampled_genome, scored
from evocf.errors import ConfigNameError
from evocf.event_log import check_encoded_invariants
from evocf.evolution import _random_genome, generate_baseline
from evocf.markov import fit
from evocf.viability import ViabilityScore, ViabilityScorer


class HalfPredictor:
    def predict_proba_batch(self, traces):
        return [0.5] * len(traces)


def t(acts, values, max_len=6):
    return make_encoded(acts, [[v] for v in values], max_len)


def setup_small():
    train = [
        t([1, 2], [0.1, 0.6]),
        t([1, 3], [0.2, 0.7]),
        t([2, 3], [0.4, 0.9]),
    ]
    model = fit(train, identity_encoder(max_len=6), 1e-6, 5)
    return train, model


def reference_baseline(kind, factual, n, log, feas_model, predictor, rng):
    """The one-shot generators as written before they became zero-cycle runs."""
    encoder = feas_model.encoder
    scorer = ViabilityScorer(factual, predictor, feas_model)
    if kind == "RGW":
        candidates = [
            _random_genome(rng, encoder.vocab_size, encoder.max_len, encoder.feature_dim)
            for _ in range(n)
        ]
    elif kind == "SBGW":
        candidates = [sampled_genome(rng, feas_model) for _ in range(n)]
    else:
        indices = rng.integers(0, len(log), size=n)
        candidates = [log[i] for i in indices]
    scores = [ViabilityScore(*row) for row in scorer.score_batch(candidates).tolist()]
    pairs = list(zip(candidates, scores))
    pairs.sort(key=lambda pair: -pair[1].total)
    return pairs


def test_cbgw_single_source_log_returns_the_factual():
    train, model = setup_small()
    factual = train[0]
    result = generate_baseline("CBGW", factual, 10, [factual], model, HalfPredictor(), 0)
    assert len(result.population) == 10
    for genome, score in scored(result.population):
        assert genome.equals(factual)
        assert score.similarity == 1.0
        assert score.sparsity == 1.0
        assert score.delta == 0.0


def test_sbgw_candidates_are_feasible_under_smoothing():
    train, model = setup_small()
    result = generate_baseline("SBGW", train[0], 30, train, model, HalfPredictor(), 1)
    for genome, score in scored(result.population):
        assert score.feasibility > 0.0
        check_encoded_invariants(genome)


def test_rgw_candidates_satisfy_invariants():
    train, model = setup_small()
    result = generate_baseline("RGW", train[0], 30, train, model, HalfPredictor(), 2)
    for genome, score in scored(result.population):
        check_encoded_invariants(genome)
        assert 0.0 <= score.similarity <= 1.0


def test_output_sorted_by_total_and_sized():
    train, model = setup_small()
    for kind in ("RGW", "SBGW", "CBGW"):
        result = generate_baseline(kind, train[0], 25, train, model, HalfPredictor(), 3)
        assert len(result.population) == 25
        assert result.stats == ()
        totals = [score.total for _, score in scored(result.population)]
        assert totals == sorted(totals, reverse=True)


def test_fixed_seed_reproduces_candidates():
    train, model = setup_small()
    first = generate_baseline("SBGW", train[0], 10, train, model, HalfPredictor(), 9)
    second = generate_baseline("SBGW", train[0], 10, train, model, HalfPredictor(), 9)
    for (genome_a, score_a), (genome_b, score_b) in zip(
        scored(first.population), scored(second.population)
    ):
        assert genome_a.equals(genome_b)
        assert score_a == score_b


@pytest.mark.parametrize("kind", ["RGW", "SBGW", "CBGW"])
@pytest.mark.parametrize("n", [1, 7, 25])
def test_zero_cycle_run_equals_the_one_shot_generator(synth_setup, kind, n):
    model = synth_setup["feas_model"]
    predictor = synth_setup["predictor"]
    train = synth_setup["train"]
    for seed, factual in zip((0, 17, 2**40 + 5), synth_setup["test"]):
        expected = reference_baseline(
            kind, factual, n, train, model, predictor, np.random.default_rng(seed)
        )
        result = generate_baseline(kind, factual, n, train, model, predictor, seed)
        assert len(result.population) == len(expected)
        for (got_genome, got_score), (genome, score) in zip(scored(result.population), expected):
            assert got_genome.equals(genome)
            assert got_score == score


def test_random_search_does_not_beat_real_cases(synth_setup):
    # pooled over several factuals, as the benchmark aggregates
    model = synth_setup["feas_model"]
    predictor = synth_setup["predictor"]
    train = synth_setup["train"]
    totals = {"RGW": [], "CBGW": []}
    for fi, factual in enumerate(synth_setup["test"][:6]):
        for kind in totals:
            result = generate_baseline(kind, factual, 50, train, model, predictor, 100 + fi)
            totals[kind].extend(score.total for _, score in scored(result.population))
    assert statistics.median(totals["RGW"]) <= statistics.median(totals["CBGW"])


def test_unknown_kind_and_bad_arguments():
    train, model = setup_small()
    with pytest.raises(ConfigNameError):
        generate_baseline("XXX", train[0], 5, train, model, HalfPredictor(), 0)
    with pytest.raises(ValueError):
        generate_baseline("RGW", train[0], 0, train, model, HalfPredictor(), 0)
