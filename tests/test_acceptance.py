"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s`. The heavyweight benchmark
(criteria 5 and 6) runs once as a shared fixture; everything else is
self-contained. Each test asserts its stated tolerance and time budget.
"""

import hashlib
import itertools
import time

import numpy as np
import pytest

from conftest import (
    check_encoded_invariants,
    cross_genomes,
    genomes_of,
    identity_encoder,
    log_of,
    make_encoded,
    mutate_genome,
)
from evocf import markov as markov_mod
from evocf import predictor as predictor_mod
from evocf.event_log import (
    encode_log,
    fit_encoder,
    preprocess,
    split_train_test,
    synthesize_log,
)
from evocf.evolution import EvoConfig, MutationRates, evolve, initialize
from evocf.harness import ExperimentSpec, SyntheticSpec, prepare_experiment, run_benchmark
from evocf.viability import ViabilityScorer, delta_score, edit_distances
from test_markov import oracle_feasibility, ten_trace_log
from test_viability import naive_ssdld


def report(number: int, label: str, passed: bool, elapsed: float, detail: str = ""):
    status = "PASS" if passed else "FAIL"
    suffix = f" [{detail}]" if detail else ""
    print(f"\nACCEPTANCE {number} ({label}): {status} in {elapsed:.1f}s{suffix}")


# ---------------------------------------------------------------------------
# criterion 1: edit-distance oracle


def test_criterion_1_edit_distance_oracle():
    started = time.time()
    # every activity sequence of length <= 4 over a 3-letter alphabet, with the
    # single numeric attribute held at 0, 0.5, or 1 within a trace
    fixture = []
    for length in (1, 2, 3, 4):
        for combo in itertools.product((1, 2, 3), repeat=length):
            for value in (0.0, 0.5, 1.0):
                acts = list(combo)
                feats = [[value]] * length
                fixture.append(
                    (acts, feats, make_encoded(acts, [[value]] * length, max_len=4))
                )
    assert len(fixture) == 360

    # the engine's kernel, one call per factual over the whole fixture frame;
    # each unordered pair is checked once, as (i, j) with j >= i
    frame = log_of([enc for _, _, enc in fixture]).frame
    one_column = ((None, slice(0, 1)),)  # the numeric attribute is the one feature column
    checked = 0
    for i in range(len(fixture)):
        acts_a, feats_a, enc_a = fixture[i]
        euclidean, count = (dist.tolist() for dist in edit_distances(enc_a, *frame, one_column))
        for j in range(i, len(fixture)):
            acts_b, feats_b, _ = fixture[j]
            for kind, got in (("euclidean", euclidean), ("count", count)):
                assert got[j] == naive_ssdld(acts_a, feats_a, acts_b, feats_b, kind)
            checked += 1
    elapsed = time.time() - started
    report(1, "edit-distance oracle", True, elapsed, f"{checked} pairs, both cost kinds")
    assert elapsed < 30.0


# ---------------------------------------------------------------------------
# criterion 2: feasibility oracle


def test_criterion_2_feasibility_oracle():
    started = time.time()
    train = ten_trace_log()
    encoder = identity_encoder(max_len=8)
    queries = [
        ([1, 2], [0.1, 0.6]),
        ([1, 2, 3], [0.1, 0.6, 0.9]),
        ([3, 1], [0.8, 0.2]),
        ([2], [0.5]),
        ([1, 3, 1], [0.2, 0.8, 0.3]),
    ]
    for epsilon in (0.0, 1e-6):
        model = markov_mod.fit(log_of(train), encoder, epsilon, n_bins=5)
        for acts, values in queries:
            query = make_encoded(acts, [[v] for v in values], 8)
            expected = oracle_feasibility(train, query, encoder.vocab_size, epsilon, 5)
            assert abs(markov_mod.feasibility(model, *query.frame)[0] - expected) < 1e-12
    elapsed = time.time() - started
    report(2, "feasibility oracle", True, elapsed, "5 queries x 2 smoothing levels")
    assert elapsed < 1.0


# ---------------------------------------------------------------------------
# criterion 3: delta collapse


def test_criterion_3_delta_collapse():
    started = time.time()
    grid = [i * 0.05 for i in range(21)]
    for p in grid:
        for q in grid:
            assert delta_score(p, q) == p - q
    elapsed = time.time() - started
    report(3, "delta collapse", True, elapsed, f"{len(grid) ** 2} grid points, exact")
    assert elapsed < 1.0


# ---------------------------------------------------------------------------
# shared synthetic setup for criteria 4-8


@pytest.fixture(scope="module")
def synthetic_200x5():
    log = preprocess(synthesize_log(200, 5, seed=0), 25)
    train_log, test_log = split_train_test(log, 0.2, seed=0)
    encoder = fit_encoder(train_log)
    train = encode_log(train_log, encoder)
    test = encode_log(test_log, encoder)
    predictor = predictor_mod.train(train, epochs=500, seed=0, encoder=encoder)
    feas_model = markov_mod.fit(train, encoder)
    return encoder, train, test, predictor, feas_model


def test_criterion_4_elitist_monotonicity(synthetic_200x5):
    started = time.time()
    encoder, train, test, predictor, feas_model = synthetic_200x5
    config = EvoConfig(
        "CBI-RWS-OPC-SBM-FSR",
        population_size=1000,
        offspring_per_cycle=100,
        cycles=100,
        seed=7,
    )
    result = evolve(ViabilityScorer(test[0], predictor, feas_model), config, train)
    best = [s.best_total for s in result.stats]
    assert len(best) == 100
    violations = sum(1 for earlier, later in zip(best, best[1:]) if later < earlier)
    elapsed = time.time() - started
    report(4, "elitist monotonicity", violations == 0, elapsed, "100 FSR cycles")
    assert violations == 0
    assert elapsed < 120.0


BENCHMARK_CONFIGS = ("CBI-ES-UC3-SBM-RR", "CBI-RWS-OPC-SBM-FSR")


@pytest.fixture(scope="module")
def benchmark_output(tmp_path_factory):
    return tmp_path_factory.mktemp("criterion_5")


@pytest.fixture(scope="module")
def benchmark_run(benchmark_output):
    spec = ExperimentSpec(
        config_names=BENCHMARK_CONFIGS,
        synthetic=SyntheticSpec(200, 5),
        n_factuals=10,
        counterfactuals_per_factual=50,
        cycles=200,
        seed=0,
        output_dir=str(benchmark_output),
        population_size=1000,
        offspring_per_cycle=100,
    )
    started = time.time()
    report_data = run_benchmark(spec, prepare_experiment(spec))
    return report_data, time.time() - started


def test_criterion_5_benchmark_ordering(benchmark_run):
    report_data, elapsed = benchmark_run
    medians = report_data.medians
    ok = True
    for name in BENCHMARK_CONFIGS:
        ok &= medians[name] >= medians["CBGW"] + 0.15
        ok &= medians[name] > medians["RGW"]
    detail = ", ".join(f"{k}={v:.3f}" for k, v in medians.items())
    report(5, "benchmark ordering", ok, elapsed, detail)
    for name in BENCHMARK_CONFIGS:
        assert medians[name] >= medians["CBGW"] + 0.15
        assert medians[name] > medians["RGW"]
    assert elapsed < 600.0


def test_criterion_6_outcome_flipping(benchmark_run):
    report_data, elapsed = benchmark_run
    best_rows = [
        row
        for row in report_data.candidate_rows
        if row.generator in BENCHMARK_CONFIGS and row.rank == 1
    ]
    assert len(best_rows) == len(BENCHMARK_CONFIGS) * 10
    flipped = sum(1 for row in best_rows if row.score.delta > 0)
    fraction = flipped / len(best_rows)
    report(
        6,
        "outcome flipping",
        fraction >= 0.8,
        0.0,
        f"{flipped}/{len(best_rows)} best counterfactuals moved toward the flip",
    )
    assert fraction >= 0.8


# the sha256 of the three output files of the criterion-5 spec, recorded when
# the RI and SBI initial draws moved to fixed-shape blocks (trajectories.csv
# holds only the CBI configs' cycles, so it did not move); BENCH_10.json keeps
# the digests from before breeding moved to fixed-shape draws
CRITERION_5_DIGESTS = {
    "benchmark_report.json": "2b77d17c81d7d7b04b5aa70b375f2b4bf8cb8b3f45b62fc86cc519e1732d738b",
    "candidates.csv": "eaaaedfa3dce5b66b209f6d11f6e4d42a9c149d033add67bb89716fd1345e1fe",
    "trajectories.csv": "33da093361552bf0909cee14f28cda8a6df763d94df6579df07bcadf85b4aba4",
}


def test_criterion_5_outputs_equal_the_recorded_digests(benchmark_run, benchmark_output):
    digests = {
        name: hashlib.sha256((benchmark_output / name).read_bytes()).hexdigest()
        for name in CRITERION_5_DIGESTS
    }
    assert digests == CRITERION_5_DIGESTS


# ---------------------------------------------------------------------------
# criterion 7: predictor quality


def test_criterion_7_predictor_quality(synthetic_200x5):
    started = time.time()
    encoder, train, test, predictor, feas_model = synthetic_200x5
    metrics = predictor_mod.evaluate(predictor, test)

    rng = np.random.default_rng(3)
    features = rng.random((50, 17))
    labels = (rng.random(50) > 0.5).astype(float)
    weights = rng.normal(0, 0.5, 17)
    bias = -0.2
    _, grad_w, grad_b = predictor_mod.loss_and_gradient(weights, bias, features, labels)
    h = 1e-5
    worst = 0.0
    for i in range(17):
        bump = np.zeros(17)
        bump[i] = h
        up, *_ = predictor_mod.loss_and_gradient(weights + bump, bias, features, labels)
        down, *_ = predictor_mod.loss_and_gradient(weights - bump, bias, features, labels)
        worst = max(worst, abs((up - down) / (2 * h) - grad_w[i]))
    up, *_ = predictor_mod.loss_and_gradient(weights, bias + h, features, labels)
    down, *_ = predictor_mod.loss_and_gradient(weights, bias - h, features, labels)
    worst = max(worst, abs((up - down) / (2 * h) - grad_b))

    elapsed = time.time() - started
    ok = metrics.f1 >= 0.9 and worst < 1e-6
    report(7, "predictor quality", ok, elapsed, f"F1={metrics.f1:.3f}, grad err={worst:.2e}")
    assert metrics.f1 >= 0.9
    assert worst < 1e-6
    assert elapsed < 60.0


# ---------------------------------------------------------------------------
# criterion 8: determinism


def test_criterion_8_benchmark_determinism(tmp_path):
    started = time.time()
    outputs = []
    for run in ("first", "second"):
        out_dir = tmp_path / run
        spec = ExperimentSpec(
            config_names=("CBI-RWS-OPC-SBM-FSR",),
            synthetic=SyntheticSpec(120, 4),
            n_factuals=2,
            counterfactuals_per_factual=10,
            cycles=20,
            seed=11,
            output_dir=str(out_dir),
            population_size=200,
            offspring_per_cycle=20,
            predictor_epochs=200,
        )
        run_benchmark(spec, prepare_experiment(spec))
        outputs.append(
            {
                name: (out_dir / name).read_bytes()
                for name in ("candidates.csv", "trajectories.csv", "benchmark_report.json")
            }
        )
    identical = outputs[0] == outputs[1]
    elapsed = time.time() - started
    report(8, "determinism", identical, elapsed, "byte-identical CSV and JSON outputs")
    assert identical
    assert elapsed < 600.0


# ---------------------------------------------------------------------------
# criterion 9: structural invariants


def test_criterion_9_structural_invariants(synthetic_200x5):
    started = time.time()
    encoder, train, test, predictor, feas_model = synthetic_200x5
    scorer = ViabilityScorer(test[0], predictor, feas_model)
    rng = np.random.default_rng(99)

    pool = [tr for tr in train]
    violations = 0

    def checked(genome):
        nonlocal violations
        try:
            check_encoded_invariants(genome)
        except Exception:
            violations += 1
        return genome

    # 10,000 applications per operator family
    for kind in ("RI", "SBI", "CBI"):
        population = initialize(kind, 100, train, scorer, rng)
        genomes = genomes_of(*population.frame)
        for _ in range(10_000 // 100 - 1):
            population = initialize(kind, 100, train, scorer, rng)
            genomes.extend(genomes_of(*population.frame))
        for genome in genomes:
            checked(genome)
        pool.extend(genomes[:100])

    for kind in ("UC", "OPC", "TPC"):
        for _ in range(5_000):  # two children per call -> 10,000 genomes
            i, j = rng.integers(0, len(pool), size=2)
            for child in cross_genomes(kind, pool[i], pool[j], rng, uc_rate=0.5):
                checked(child)

    rates = MutationRates(0.05, 0.05, 0.05)
    for kind in ("RM", "SBM"):
        for _ in range(10_000):
            i = rng.integers(0, len(pool))
            checked(mutate_genome(kind, pool[int(i)], rates, feas_model, rng))

    # score a deterministic subsample and check the component ranges
    range_checked = 0
    for i in range(0, len(pool), max(1, len(pool) // 500)):
        score = scorer.score(pool[i])
        ok = (
            0.0 <= score.similarity <= 1.0
            and 0.0 <= score.sparsity <= 1.0
            and 0.0 <= score.feasibility <= 1.0
            and -1.0 <= score.delta <= 1.0
            and score.total
            == score.similarity + score.sparsity + score.feasibility + score.delta
        )
        if not ok:
            violations += 1
        range_checked += 1

    elapsed = time.time() - started
    report(
        9,
        "structural invariants",
        violations == 0,
        elapsed,
        f"10k per operator family, {range_checked} scored range checks",
    )
    assert violations == 0
    assert elapsed < 60.0
