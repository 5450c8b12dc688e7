"""What perfbench's tracer reads from the engine.

perfbench/tracer.py times the engine by swapping module and class attributes
for wrappers, so it depends on which names the engine calls and how often.
These tests run a small benchmark under the detailed tracer and pin the call
shapes its metrics are built from.
"""

import importlib.util
from pathlib import Path

import pytest

from evocf import harness
from evocf.evolution import BASELINES
from evocf.harness import ExperimentSpec, SyntheticSpec


def _tracer_module():
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def traced_run():
    spec = ExperimentSpec(
        config_names=("CBI-RWS-OPC-SBM-FSR", "SBI-TS-UC5-SBM-BBR"),
        synthetic=SyntheticSpec(60, 4),
        n_factuals=2,
        counterfactuals_per_factual=4,
        cycles=3,
        seed=1,
        population_size=20,
        offspring_per_cycle=6,
        mutation_rate=0.1,
        predictor_epochs=50,
    )
    tracer = _tracer_module().Tracer(detailed=True)
    tracer.install()
    try:
        prepared = harness.prepare_experiment(spec)
        tracer.job = "harness"
        harness.run_benchmark(spec, prepared)
    finally:
        tracer.uninstall()
    return spec, tracer


def test_job_records_name_their_generators_in_run_order(traced_run):
    spec, tracer = traced_run
    generators = [*spec.config_names, *BASELINES]
    expected = [name for name in generators for _ in range(spec.n_factuals)]
    assert [job["generator"] for job in tracer.jobs] == expected
    kinds = ["baselines" if job["generator"] in BASELINES else "evolution" for job in tracer.jobs]
    assert [job["kind"] for job in tracer.jobs] == kinds


def test_layer_metrics_count_the_engine_calls(traced_run):
    spec, tracer = traced_run
    layers = tracer.layer_metrics(1, 1.0)
    evolutionary_jobs = len(spec.config_names) * spec.n_factuals
    # crossover and mutate each draw and breed one cycle's whole offspring block
    assert layers["evolution.mutate.calls"] == evolutionary_jobs * spec.cycles
    assert layers["evolution.crossover.busy_s"] > 0
    assert layers["predictor.calls"] > 0
    assert layers["markov.sample.calls"] > 0
    # the scorer calls markov.feasibility, the name the tracer wraps
    assert layers["markov.feasibility.calls"] > 0
    assert layers["markov.feasibility.busy_s"] > 0


def test_uninstall_restores_the_engine():
    tracer = _tracer_module().Tracer(detailed=True)
    evolve = harness.evolve
    tracer.install()
    tracer.uninstall()
    assert harness.evolve is evolve
