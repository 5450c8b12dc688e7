import csv
import dataclasses
import hashlib
import json
import os
import statistics
import subprocess
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import evocf
from conftest import log_of, make_encoded, reference_pick_factuals
from evocf import evolution, harness
from evocf.cli import main as cli_main
from evocf.errors import ConfigurationError
from evocf.event_log import (
    AttributeSchema,
    Event,
    Trace,
    load_csv,
    load_schema_config,
    synthesize_log,
    write_csv,
    write_schema_config,
)
from evocf.harness import (
    BASELINES,
    ExperimentSpec,
    SyntheticSpec,
    load_log,
    pick_factuals,
    prepare_experiment,
    prepare_from_log,
    render_counterfactual,
    run_benchmark,
    run_generate,
    run_grid,
    run_job,
    run_seed,
)
from evocf.predictor import ExternalProcessPredictor
from evocf.viability import ViabilityScorer, _row_keys, ssdld
from test_run_pins import GENERATE, GENERATE_CYCLES


def small_spec(tmp_path=None, **kwargs):
    defaults = dict(
        config_names=("CBI-RWS-OPC-SBM-FSR", "CBI-ES-UC3-SBM-RR"),
        synthetic=SyntheticSpec(60, 4),
        n_factuals=2,
        counterfactuals_per_factual=5,
        cycles=5,
        seed=0,
        population_size=30,
        offspring_per_cycle=10,
        predictor_epochs=120,
    )
    defaults.update(kwargs)
    if tmp_path is not None:
        defaults["output_dir"] = str(tmp_path)
    return ExperimentSpec(**defaults)


@pytest.fixture(scope="module")
def small_prepared():
    return prepare_experiment(small_spec())


def test_run_seed_is_stable_and_name_keyed():
    assert run_seed(0, "CBI-RWS-OPC-SBM-FSR", 1) == run_seed(0, "CBI-RWS-OPC-SBM-FSR", 1)
    assert run_seed(0, "CBI-RWS-OPC-SBM-FSR", 1) != run_seed(0, "CBI-RWS-OPC-SBM-FSR", 2)
    assert run_seed(0, "A", 1) != run_seed(0, "B", 1)
    assert run_seed(0, "A", 1) != run_seed(1, "A", 1)


def test_pick_factuals_balances_classes():
    traces = [
        make_encoded([1], [[0.5]], 4, outcome=i % 2, case_id=f"c{i}") for i in range(20)
    ]
    picked = pick_factuals(log_of(traces), 6, np.random.default_rng(0))
    outcomes = [t.outcome for t in picked]
    assert outcomes.count(0) == 3
    assert outcomes.count(1) == 3


def test_pick_factuals_single_class_still_works():
    traces = [make_encoded([1], [[0.5]], 4, outcome=1, case_id=f"c{i}") for i in range(5)]
    picked = pick_factuals(log_of(traces), 3, np.random.default_rng(0))
    assert len(picked) == 3


@settings(max_examples=200, deadline=None)
@given(
    outcomes=st.one_of(
        st.lists(st.integers(0, 1), min_size=1, max_size=30),
        st.lists(st.just(0), min_size=1, max_size=8),
        st.lists(st.just(1), min_size=1, max_size=8),
    ),
    data=st.data(),
    seed=st.integers(0, 2**32 - 1),
)
def test_pick_factuals_equals_the_list_reference(outcomes, data, seed):
    # both classes, a single class, and n from 1 up to every trace of the split
    traces = [
        make_encoded([1], [[0.5]], 2, outcome=outcome, case_id=f"c{i}")
        for i, outcome in enumerate(outcomes)
    ]
    for n in (data.draw(st.integers(1, len(traces))), len(traces)):
        ours, reference = np.random.default_rng(seed), np.random.default_rng(seed)
        picked = pick_factuals(log_of(traces), n, ours)
        want = reference_pick_factuals(traces, n, reference)
        assert [t.case_id for t in picked] == [t.case_id for t in want]
        assert len(picked) == n
        assert ours.bit_generator.state == reference.bit_generator.state


def test_run_grid_cardinality_and_ranking(tmp_path, small_prepared):
    spec = small_spec(tmp_path)
    report = run_grid(spec, small_prepared)
    # 2 configs x 2 factuals x 5 cycles trajectory rows, 2-row ranking
    assert len(report.trajectory_rows) == 2 * 2 * 5
    assert len(report.ranking) == 2
    assert (tmp_path / "trajectories.csv").exists()
    assert (tmp_path / "ranking.csv").exists()
    payload = json.loads((tmp_path / "grid_report.json").read_text())
    assert payload["top_5"][0] == report.ranking[0][0]


def test_spec_rejects_a_config_named_twice(small_prepared):
    # its jobs would only repeat the first ones: the same name runs on the same seeds
    with pytest.raises(ValueError, match="CBI-RWS-OPC-SBM-FSR is named more than once"):
        small_spec(config_names=("CBI-RWS-OPC-SBM-FSR", "CBI-ES-UC3-SBM-RR") * 2)
    spec = small_spec()
    scorer = ViabilityScorer(
        small_prepared.factuals[0], small_prepared.predictor, small_prepared.feas_model
    )
    first = run_job(spec, small_prepared, "CBI-RWS-OPC-SBM-FSR", 0, scorer)
    second = run_job(spec, small_prepared, "CBI-RWS-OPC-SBM-FSR", 0, scorer)
    assert first.stats == second.stats


def test_run_benchmark_rows_and_medians(tmp_path, small_prepared):
    spec = small_spec(tmp_path)
    report = run_benchmark(spec, small_prepared)
    generators = {row.generator for row in report.candidate_rows}
    assert generators == {
        "CBI-RWS-OPC-SBM-FSR",
        "CBI-ES-UC3-SBM-RR",
        "RGW",
        "SBGW",
        "CBGW",
    }
    # 5 generators x 2 factuals x 5 candidates
    assert len(report.candidate_rows) == 5 * 2 * 5
    for generator in generators:
        totals = [r.score.total for r in report.candidate_rows if r.generator == generator]
        assert report.medians[generator] == statistics.median(totals)
        assert report.means[generator] == statistics.fmean(totals)
    ranks = [r.rank for r in report.candidate_rows if r.generator == "CBGW"]
    assert sorted(set(ranks)) == [1, 2, 3, 4, 5]


def test_benchmark_statistics_recomputable_from_emitted_csv(tmp_path, small_prepared):
    spec = small_spec(tmp_path)
    report = run_benchmark(spec, small_prepared)
    with (tmp_path / "candidates.csv").open() as handle:
        rows = list(csv.DictReader(handle))
    by_generator = {}
    for row in rows:
        by_generator.setdefault(row["generator"], []).append(float(row["total"]))
    for generator, totals in by_generator.items():
        assert statistics.median(totals) == pytest.approx(report.medians[generator], abs=0)


def test_benchmark_reruns_are_byte_identical(tmp_path, small_prepared):
    dir_1 = tmp_path / "run1"
    dir_2 = tmp_path / "run2"
    run_benchmark(small_spec(dir_1), small_prepared)
    run_benchmark(small_spec(dir_2), small_prepared)
    for name in ("candidates.csv", "trajectories.csv", "benchmark_report.json"):
        assert (dir_1 / name).read_bytes() == (dir_2 / name).read_bytes()


def test_constant_stub_predictor_yields_constant_delta(small_prepared):
    import dataclasses

    class Constant:
        def predict_proba_batch(self, ids, features, lengths):
            return [0.4] * len(lengths)

    prepared = dataclasses.replace(small_prepared, predictor=Constant())
    spec = small_spec(config_names=("CBI-RWS-OPC-SBM-FSR",), cycles=1)
    report = run_benchmark(spec, prepared)
    for row in report.candidate_rows:
        assert row.score.delta == 0.0  # constant predictor: probability never moves


# ---------------------------------------------------------------------------
# rendering


def _trace(case_id, activities, amounts):
    events = tuple(
        Event(a, {"amount": float(v), "resource": "x"}) for a, v in zip(activities, amounts)
    )
    return Trace(case_id, events, 0)


def _encoded_pair(factual, counterfactual):
    import dataclasses

    from evocf.event_log import EventLog, encode, fit_encoder

    vocabulary = []
    for trace in (factual, counterfactual):
        for event in trace.events:
            if event.activity not in vocabulary:
                vocabulary.append(event.activity)
    schemas = (
        AttributeSchema("amount", "numeric"),
        AttributeSchema("resource", "categorical", categories=("x",)),
    )
    log = EventLog(
        (
            dataclasses.replace(factual, case_id="__f"),
            dataclasses.replace(counterfactual, case_id="__c"),
        ),
        schemas,
        tuple(vocabulary),
    )
    spec = fit_encoder(log)
    return encode(factual, spec), encode(counterfactual, spec), spec


def test_render_identical_traces_all_match_no_gaps():
    factual = _trace("f", ["a", "b"], [1.0, 2.0])
    enc_f, enc_c, spec = _encoded_pair(factual, factual)
    _, alignment = ssdld(enc_f, enc_c, "euclidean", spec.slices())
    text = render_counterfactual(factual, factual, alignment, 0.8, 0.2)
    assert "—" not in text
    assert text.count("| match |") == 2
    assert "0.8000" in text and "0.2000" in text


def test_render_insert_shows_one_gap_on_factual_side():
    factual = _trace("f", ["a", "b"], [1.0, 2.0])
    counterfactual = _trace("c", ["a", "x", "b"], [1.0, 5.0, 2.0])
    enc_f, enc_c, spec = _encoded_pair(factual, counterfactual)
    _, alignment = ssdld(enc_f, enc_c, "euclidean", spec.slices())
    text = render_counterfactual(factual, counterfactual, alignment)
    gap_lines = [line for line in text.splitlines() if "| insert | — |" in line]
    assert len(gap_lines) == 1


def test_render_ops_agree_with_alignment():
    factual = _trace("f", ["a", "b", "c", "d"], [1.0, 2.0, 3.0, 4.0])
    counterfactual = _trace("c", ["a", "x", "d", "c"], [1.0, 2.0, 4.0, 3.0])
    enc_f, enc_c, spec = _encoded_pair(factual, counterfactual)
    _, ops = ssdld(enc_f, enc_c, "euclidean", spec.slices())
    text = render_counterfactual(factual, counterfactual, ops)
    rendered_ops = [
        line.split("|")[1].strip()
        for line in text.splitlines()
        if line.startswith("|") and "---" not in line and line.split("|")[1].strip() != "op"
    ]
    expected = []
    for op in ops:
        expected.extend([op.kind, op.kind] if op.kind == "transpose" else [op.kind])
    assert rendered_ops == expected
    assert "substitute" in rendered_ops
    assert "transpose" in rendered_ops


def test_render_highlights_changed_attribute():
    factual = _trace("f", ["a"], [1.0])
    counterfactual = _trace("c", ["a"], [9.0])
    enc_f, enc_c, spec = _encoded_pair(factual, counterfactual)
    _, alignment = ssdld(enc_f, enc_c, "euclidean", spec.slices())
    text = render_counterfactual(factual, counterfactual, alignment)
    assert "**amount=9**" in text


def test_render_pins_full_text_for_every_op():
    factual = _trace("f", ["a", "b", "c", "d", "e", "g"], [1.0, 2.0, 3.0, 4.0, 5.0, 6.0])
    counterfactual = _trace("c", ["a", "x", "d", "c", "g", "h"], [1.5, 2.0, 4.0, 3.0, 6.0, 7.25])
    enc_f, enc_c, spec = _encoded_pair(factual, counterfactual)
    _, alignment = ssdld(enc_f, enc_c, "euclidean", spec.slices())
    text = render_counterfactual(factual, counterfactual, alignment, 0.8125, 0.25)
    assert text == (
        "factual outcome probability: 0.8125\n"
        "counterfactual outcome probability: 0.2500\n"
        "\n"
        "| op | factual | counterfactual |\n"
        "| --- | --- | --- |\n"
        "| match | a **amount=1** resource=x | a **amount=1.5** resource=x |\n"
        "| substitute | b amount=2 resource=x | x amount=2 resource=x |\n"
        "| transpose | c amount=3 resource=x | d amount=4 resource=x |\n"
        "| transpose | d amount=4 resource=x | c amount=3 resource=x |\n"
        "| delete | e amount=5 resource=x | — |\n"
        "| match | g amount=6 resource=x | g amount=6 resource=x |\n"
        "| insert | — | h amount=7.25 resource=x |\n"
    )


# ---------------------------------------------------------------------------
# CLI


def run_cli(*args):
    # the child imports the evocf these tests imported, installed or not
    env = dict(os.environ)
    package_root = str(Path(evocf.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [package_root, env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-m", "evocf.cli", *args],
        capture_output=True,
        text=True,
        env=env,
    )


def test_cli_synthesize_train_generate(tmp_path):
    data = tmp_path / "data"
    result = run_cli(
        "synthesize-log", "--cases", "60", "--activities", "4", "--seed", "1", "--out", str(data)
    )
    assert result.returncode == 0, result.stderr
    assert (data / "log.csv").exists()
    assert (data / "schema.json").exists()

    models = tmp_path / "models"
    result = run_cli(
        "train-predictor",
        "--log", str(data / "log.csv"),
        "--schema", str(data / "schema.json"),
        "--seed", "1",
        "--out", str(models),
    )
    assert result.returncode == 0, result.stderr
    assert (models / "predictor.json").exists()
    assert (models / "encoder.json").exists()
    metrics = json.loads((models / "metrics.json").read_text())
    # the model sees every training trace, so no part of train is held out
    assert set(metrics) == {"train", "test"}

    result = run_cli(
        "fit-markov",
        "--log", str(data / "log.csv"),
        "--schema", str(data / "schema.json"),
        "--seed", "1",
        "--out", str(models),
    )
    assert result.returncode == 0, result.stderr
    assert (models / "markov.json").exists()

    out = tmp_path / "gen"
    result = run_cli(
        "generate",
        "--log", str(data / "log.csv"),
        "--schema", str(data / "schema.json"),
        "--seed", "1",
        "--cycles", "3",
        "--n", "5",
        "--overrides", '{"population_size": 30, "offspring_per_cycle": 10, "predictor_epochs": 120}',
        "--out", str(out),
    )
    assert result.returncode == 0, result.stderr
    assert (out / "counterfactuals.csv").exists()
    assert (out / "counterfactual_events.csv").exists()
    assert (out / "best_render.md").exists()
    with (out / "counterfactuals.csv").open() as handle:
        rows = list(csv.DictReader(handle))
    assert len(rows) == 5
    assert rows[0]["rank"] == "1"

    rendered = (out / "best_render.md").read_text()
    assert "| op | factual | counterfactual |" in rendered


def test_cli_grid_with_explicit_configs(tmp_path):
    out = tmp_path / "grid"
    result = run_cli(
        "grid",
        "--seed", "5",
        "--cycles", "2",
        "--n-factuals", "2",
        "--configs", "CBI-RWS-OPC-SBM-FSR,CBI-ES-UC3-SBM-RR",
        "--overrides",
        '{"synthetic": {"n_cases": 60, "n_activities": 4}, '
        '"population_size": 20, "offspring_per_cycle": 6, "predictor_epochs": 100}',
        "--out", str(out),
    )
    assert result.returncode == 0, result.stderr
    for name in ("trajectories.csv", "ranking.csv", "grid_report.json", "grid_report.md"):
        assert (out / name).exists()
    assert len(result.stdout.strip().splitlines()) == 2


def test_cli_benchmark_and_render(tmp_path):
    out = tmp_path / "bench"
    result = run_cli(
        "benchmark",
        "--seed", "2",
        "--cycles", "3",
        "--n-factuals", "2",
        "--cfs", "4",
        "--configs", "CBI-RWS-OPC-SBM-FSR",
        "--overrides",
        '{"synthetic": {"n_cases": 60, "n_activities": 4}, '
        '"population_size": 30, "offspring_per_cycle": 10, "predictor_epochs": 120}',
        "--out", str(out),
    )
    assert result.returncode == 0, result.stderr
    assert (out / "candidates.csv").exists()
    assert "median total viability" in result.stdout

    data = tmp_path / "data"
    run_cli("synthesize-log", "--cases", "30", "--activities", "3", "--seed", "3", "--out", str(data))
    with (data / "log.csv").open() as handle:
        first_case = next(csv.DictReader(handle))["case_id"]
    result = run_cli(
        "render",
        "--log", str(data / "log.csv"),
        "--schema", str(data / "schema.json"),
        "--factual", first_case,
        "--counterfactual", first_case,
    )
    assert result.returncode == 0, result.stderr
    assert "| match |" in result.stdout


EXTERNAL_SCRIPT = """\
#!/usr/bin/env python3
import csv, sys
in_path, out_path = sys.argv[1], sys.argv[2]
cases = {}
with open(in_path) as handle:
    for row in csv.DictReader(handle):
        cases[row["case_id"]] = 0.9
with open(out_path, "w", newline="") as handle:
    writer = csv.writer(handle)
    writer.writerow(["case_id", "proba"])
    for case_id, proba in cases.items():
        writer.writerow([case_id, proba])
"""


def test_cli_generate_with_external_predictor(tmp_path):
    data = tmp_path / "data"
    run_cli("synthesize-log", "--cases", "40", "--activities", "3", "--seed", "4", "--out", str(data))
    script = tmp_path / "scorer.py"
    script.write_text(EXTERNAL_SCRIPT)
    out = tmp_path / "gen"
    result = run_cli(
        "generate",
        "--log", str(data / "log.csv"),
        "--schema", str(data / "schema.json"),
        "--seed", "4",
        "--cycles", "1",
        "--n", "2",
        "--external-predictor", f"{sys.executable} {script}",
        "--overrides", '{"population_size": 10, "offspring_per_cycle": 4, "predictor_epochs": 50}',
        "--out", str(out),
    )
    assert result.returncode == 0, result.stderr
    with (out / "counterfactuals.csv").open() as handle:
        rows = list(csv.DictReader(handle))
    # constant external probability 0.9 on both sides -> delta exactly 0
    assert all(float(row["delta"]) == 0.0 for row in rows)


def test_cli_grid_with_external_predictor(tmp_path):
    script = tmp_path / "scorer.py"
    script.write_text(EXTERNAL_SCRIPT)
    out = tmp_path / "grid"
    result = run_cli(
        "grid",
        "--seed", "5",
        "--cycles", "2",
        "--n-factuals", "2",
        "--configs", "CBI-RWS-OPC-SBM-FSR,CBI-ES-UC3-SBM-RR",
        "--external-predictor", f"{sys.executable} {script}",
        "--overrides",
        '{"synthetic": {"n_cases": 60, "n_activities": 4}, '
        '"population_size": 20, "offspring_per_cycle": 6, "predictor_epochs": 100}',
        "--out", str(out),
    )
    assert result.returncode == 0, result.stderr
    with (out / "trajectories.csv").open() as handle:
        rows = list(csv.DictReader(handle))
    assert len(rows) == 2 * 2 * 2
    # the trained model would move delta; the constant external scorer cannot
    assert all(float(row["mean_delta"]) == 0.0 for row in rows)


def test_external_predictor_runs_once_per_scoring_batch(tmp_path):
    calls = tmp_path / "calls.txt"
    script = tmp_path / "scorer.py"
    script.write_text(
        f"with open({str(calls)!r}, 'a') as log:\n    log.write('call\\n')\n" + EXTERNAL_SCRIPT
    )
    cycles = 3
    spec = small_spec(
        config_names=("RI-TS-OPC-RM-FSR",), n_factuals=1, cycles=cycles, mutation_rate=0.3
    )
    prepared = prepare_experiment(
        spec,
        predictor_factory=lambda encoder: ExternalProcessPredictor(
            f"{sys.executable} {script}", encoder
        ),
    )
    run_benchmark(spec, prepared)
    # per job one batch for the initial population, which also carries the
    # factual, and the evolutionary job one more per cycle
    evolutionary = 1 + cycles
    baselines = 3
    assert calls.read_text().count("call") == evolutionary + baselines


def test_generate_starts_the_external_command_once_per_batch(tmp_path, capsys):
    calls = tmp_path / "calls.txt"
    script = tmp_path / "scorer.py"
    script.write_text(
        f"with open({str(calls)!r}, 'a') as log:\n    log.write('call\\n')\n" + EXTERNAL_SCRIPT
    )
    data = tmp_path / "data"
    assert cli_main(["synthesize-log", "--cases", "40", "--activities", "3", "--out", str(data)]) == 0
    cycles = 5
    code = cli_main(
        ["generate", "--log", str(data / "log.csv"), "--schema", str(data / "schema.json"),
         "--config", "RI-TS-OPC-RM-FSR", "--cycles", str(cycles), "--n", "2",
         "--external-predictor", f"{sys.executable} {script}",
         "--overrides",
         '{"population_size": 10, "offspring_per_cycle": 4, "predictor_epochs": 20,'
         ' "mutation_rate": 0.3}',
         "--out", str(tmp_path / "gen")]
    )
    assert code == 0, capsys.readouterr().err
    # one batch for the initial population, which also carries the factual,
    # one per cycle, and one asking for the rendered factual and best together
    assert calls.read_text().count("call") == 1 + cycles + 1


def test_run_benchmark_routes_jobs_through_module_level_names(monkeypatch, small_prepared):
    # evolutionary jobs go through harness.evolve and baselines through
    # harness.generate_baseline, looked up at call time, so wrapping either
    # name sees every job of its kind
    evolve, generate_baseline = harness.evolve, harness.generate_baseline
    configs, baselines = [], []
    monkeypatch.setattr(harness, "evolve", lambda *a: configs.append(a[1].name) or evolve(*a))
    monkeypatch.setattr(
        harness,
        "generate_baseline",
        lambda *a: baselines.append(a[0]) or generate_baseline(*a),
    )
    spec = small_spec()
    run_benchmark(spec, small_prepared)
    n_factuals = len(small_prepared.factuals)
    assert sorted(configs) == sorted(list(spec.config_names) * n_factuals)
    assert sorted(baselines) == sorted(["RGW", "SBGW", "CBGW"] * n_factuals)


class RecordingPredictor:
    """Passes every batch to a predictor and keeps each row's memo key with the job asking."""

    def __init__(self, inner):
        self.inner = inner
        self.job = None  # (generator, factual case id)
        self.sent = []  # (job, row key) per row asked for

    def __getattr__(self, name):
        return getattr(self.inner, name)

    def predict_proba_batch(self, ids, features, lengths):
        self.sent += [(self.job, key) for key in _row_keys(ids, features, lengths)]
        return self.inner.predict_proba_batch(ids, features, lengths)


def run_recording_jobs(monkeypatch, prepared, out_dir, share, runner, configs):
    """runner (run_benchmark or run_grid) of configs through a RecordingPredictor.

    Returns the recorder and the scorers the jobs got, by factual; with share
    off, every job gets a fresh scorer of its factual, so each scores on its own.
    """
    recorder = RecordingPredictor(prepared.predictor)
    prepared = dataclasses.replace(prepared, predictor=recorder)
    scorers = {}
    evolve, generate_baseline = evolution.evolve, evolution.generate_baseline

    def job(run, generator, at, args):
        scorer = args[at]
        recorder.job = generator, scorer.factual.case_id
        scorers.setdefault(scorer.factual.case_id, []).append(scorer)
        if not share:
            fresh = ViabilityScorer(scorer.factual, scorer.predictor, scorer.feas_model)
            args = (*args[:at], fresh, *args[at + 1 :])
        return run(*args)

    monkeypatch.setattr(harness, "evolve", lambda *a: job(evolve, a[1].name, 0, a))
    monkeypatch.setattr(
        harness, "generate_baseline", lambda *a: job(generate_baseline, a[0], 1, a)
    )
    runner(small_spec(out_dir, config_names=configs), prepared)
    return recorder, scorers


def test_a_run_scores_each_log_row_once_per_factual(tmp_path, monkeypatch, small_prepared):
    # each factual keeps one scorer for the run: CBI draws (two configs and
    # CBGW) score through it, so a training row reaches the predictor at most
    # once per factual, and outputs equal those of jobs scoring alone
    configs = ("CBI-RWS-OPC-SBM-FSR", "CBI-ES-UC3-SBM-RR", "SBI-TS-UC5-SBM-BBR")
    runs = {
        share: run_recording_jobs(
            monkeypatch, small_prepared, tmp_path / str(share), share, run_benchmark, configs
        )
        for share in (True, False)
    }
    (shared, scorers), (alone, _) = runs[True], runs[False]
    for name in ("candidates.csv", "trajectories.csv", "benchmark_report.json"):
        assert (tmp_path / "True" / name).read_bytes() == (tmp_path / "False" / name).read_bytes()

    train_keys = set(_row_keys(*small_prepared.train.frame))
    factual_keys = {_row_keys(*factual.frame)[0] for factual in small_prepared.factuals}
    per_factual = Counter((job[1], key) for job, key in shared.sent if key in train_keys)
    per_factual_alone = Counter((job[1], key) for job, key in alone.sent if key in train_keys)
    assert per_factual and max(per_factual.values()) == 1
    assert max(per_factual_alone.values()) > 1  # without the shared scorer, CBI jobs rescore rows
    # no job sends a row more than alone, and it skips only rows its factual's scorer knew
    skipped = Counter(alone.sent) - Counter(shared.sent)
    assert not Counter(shared.sent) - Counter(alone.sent)
    assert {key for _, key in skipped} <= train_keys | factual_keys
    for factual in small_prepared.factuals:
        # the SBI job's copy knows the factual from the CBI draws before it
        assert skipped[(configs[2], factual.case_id), _row_keys(*factual.frame)[0]] == 1

    # RI and SBI draws and every bred genome score through each job's copy
    grid_scorers = run_recording_jobs(
        monkeypatch, small_prepared, tmp_path / "grid", True, run_grid,
        ("RI-TS-OPC-RM-FSR", "SBI-RWS-UC3-SBM-BBR"),
    )[1]
    for factual in small_prepared.factuals:
        # one scorer per factual, holding training rows and the factual's own only
        for jobs in (scorers, grid_scorers):
            scorer, *others = jobs[factual.case_id]
            assert all(other is scorer for other in others)
            assert set(scorer._memo) <= train_keys | {_row_keys(*factual.frame)[0]}
            assert len(scorer._table) == len(scorer._memo) <= len(small_prepared.train) + 1
        assert not grid_scorers[factual.case_id][0]._memo  # no CBI draw: nothing of its own


def test_perfbench_tracer_finds_and_restores_every_name_it_swaps(monkeypatch):
    # perfbench/tracer.py times the engine by swapping module and class
    # attributes by name; install() fails on a name that no longer exists
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    from tracer import Tracer

    tracer = Tracer(detailed=True)
    try:
        tracer.install()
        swapped = list(tracer._undo)
        assert len(swapped) > 2  # more than the two job spans
        for owner, attr, original in swapped:
            assert owner.__dict__[attr] is not original
    finally:
        tracer.uninstall()
    for owner, attr, original in swapped:
        assert owner.__dict__[attr] is original


# ---------------------------------------------------------------------------
# CLI errors: one line on stderr, exit code 2, no traceback

SMALL_OVERRIDES = (
    '{"synthetic": {"n_cases": 60, "n_activities": 4}, '
    '"population_size": 20, "offspring_per_cycle": 6, "predictor_epochs": 50}'
)


def refuse_set_up(monkeypatch) -> list:
    """The calls the CLI makes to set up, each recorded instead of run."""
    reached = []
    for name in ("prepare_from_log", "load_log"):
        monkeypatch.setattr(f"evocf.cli.{name}", lambda *a, **k: reached.append(a))
    return reached


def assert_one_line_error(capsys, code, expected):
    err = capsys.readouterr().err
    assert code == 2
    assert err.count("\n") == 1 and err.startswith("evocf: error: ")
    assert expected in err


def test_cli_package_error_is_one_line(tmp_path, capsys):
    script = tmp_path / "failing.py"
    script.write_text("import sys\nsys.exit(1)\n")
    code = cli_main(
        [
            "grid", "--seed", "5", "--cycles", "1", "--n-factuals", "1",
            "--configs", "CBI-RWS-OPC-SBM-FSR,CBI-ES-UC3-SBM-RR",
            "--external-predictor", f"{sys.executable} {script}",
            "--overrides", SMALL_OVERRIDES,
            "--out", str(tmp_path / "grid"),
        ]
    )
    assert_one_line_error(capsys, code, "exited with status 1")


def test_cli_unreadable_scores_file_is_one_line(tmp_path, capsys):
    script = tmp_path / "garbled.py"
    script.write_text("import sys\nopen(sys.argv[2], 'wb').write(b'\\xff\\xfe\\x00bad')\n")
    code = cli_main(
        [
            "benchmark", "--seed", "5", "--cycles", "1", "--n-factuals", "1", "--cfs", "2",
            "--configs", "CBI-RWS-OPC-SBM-FSR",
            "--external-predictor", f"{sys.executable} {script}",
            "--overrides", SMALL_OVERRIDES,
            "--out", str(tmp_path / "bench"),
        ]
    )
    assert_one_line_error(capsys, code, "wrote an unreadable scores file")


def test_cli_repeated_case_in_scores_file_is_one_line(tmp_path, capsys):
    # every case twice, 0.9 then 0.1: neither row may silently win
    script = tmp_path / "twice.py"
    script.write_text(
        "import csv, sys\n"
        "with open(sys.argv[1]) as handle:\n"
        "    cases = list(dict.fromkeys(row['case_id'] for row in csv.DictReader(handle)))\n"
        "with open(sys.argv[2], 'w', newline='') as handle:\n"
        "    writer = csv.writer(handle)\n"
        "    writer.writerow(['case_id', 'proba'])\n"
        "    writer.writerows([case_id, 0.9] for case_id in cases)\n"
        "    writer.writerows([case_id, 0.1] for case_id in cases)\n"
    )
    command = f"{sys.executable} {script}"
    code = cli_main(
        [
            "benchmark", "--seed", "5", "--cycles", "1", "--n-factuals", "1", "--cfs", "2",
            "--configs", "CBI-RWS-OPC-SBM-FSR",
            "--external-predictor", command,
            "--overrides", SMALL_OVERRIDES,
            "--out", str(tmp_path / "bench"),
        ]
    )
    assert_one_line_error(capsys, code, f"{command!r} returned more than one score for case cand_0")


def test_cli_malformed_overrides_json(tmp_path, capsys):
    code = cli_main(["fit-markov", "--overrides", "{not json", "--out", str(tmp_path)])
    assert_one_line_error(capsys, code, "--overrides is not valid JSON")


@pytest.mark.parametrize(
    "overrides, key",
    [('{"populaton_size": 10}', "populaton_size"), ('{"synthetic": {"cases": 60}}', "cases")],
)
def test_cli_unknown_overrides_key(tmp_path, capsys, overrides, key):
    code = cli_main(["fit-markov", "--overrides", overrides, "--out", str(tmp_path)])
    assert_one_line_error(capsys, code, key)


def test_cli_grid_with_one_config(tmp_path, capsys):
    code = cli_main(
        ["grid", "--configs", "CBI-RWS-OPC-SBM-FSR", "--overrides", SMALL_OVERRIDES,
         "--out", str(tmp_path)]
    )
    assert_one_line_error(capsys, code, "at least two configs")


@pytest.mark.parametrize("command", ["grid", "benchmark"])
def test_cli_config_named_twice(tmp_path, capsys, command):
    out = tmp_path / "out"
    code = cli_main(
        [command, "--configs", "CBI-RWS-OPC-SBM-FSR,CBI-RWS-OPC-SBM-FSR", "--cycles", "1",
         "--n-factuals", "1", "--overrides", SMALL_OVERRIDES, "--out", str(out)]
    )
    assert_one_line_error(capsys, code, "config CBI-RWS-OPC-SBM-FSR is named more than once")
    assert not (out / "trajectories.csv").exists()


@pytest.mark.parametrize(
    "extra, expected",
    [
        (
            {"log_path": "/nonexistent/log.csv", "schema_path": "/nonexistent/s.json"},
            "--overrides cannot set log_path; a flag or the benchmark command sets it",
        ),
        (
            {"schema_path": "/nonexistent/s.json"},
            "--overrides cannot set schema_path; a flag or the benchmark command sets it",
        ),
        (
            {"output_dir": "elsewhere"},
            "--overrides cannot set output_dir; a flag or the benchmark command sets it",
        ),
    ],
)
def test_cli_overrides_cannot_set_what_a_flag_sets(tmp_path, capsys, monkeypatch, extra, expected):
    monkeypatch.chdir(tmp_path)
    overrides = json.dumps({**json.loads(SMALL_OVERRIDES), **extra})
    code = cli_main(
        ["benchmark", "--cycles", "1", "--n-factuals", "1", "--cfs", "2", "--overrides", overrides]
    )
    assert_one_line_error(capsys, code, expected)
    assert not (tmp_path / "elsewhere").exists()


def test_cli_log_and_synthetic_override_together(tmp_path, capsys):
    data = tmp_path / "data"
    assert cli_main(["synthesize-log", "--cases", "40", "--out", str(data)]) == 0
    capsys.readouterr()
    code = cli_main(
        ["benchmark", "--log", str(data / "log.csv"), "--schema", str(data / "schema.json"),
         "--cycles", "1", "--n-factuals", "1", "--cfs", "2", "--overrides", SMALL_OVERRIDES]
    )
    expected = "need either a synthetic spec or log_path plus schema_path, not both"
    assert_one_line_error(capsys, code, expected)


def test_spec_rejects_a_synthetic_log_and_a_log_path():
    for paths in ({"log_path": "log.csv", "schema_path": "s.json"}, {"schema_path": "s.json"}):
        with pytest.raises(ValueError, match="not both"):
            ExperimentSpec(synthetic=SyntheticSpec(), **paths)


def test_spec_refuses_an_empty_output_dir():
    # Path("") is the working directory, so "" would not mean "no output"
    with pytest.raises(ConfigurationError, match="output_dir is empty"):
        ExperimentSpec(synthetic=SyntheticSpec(), output_dir="")


@pytest.mark.parametrize(
    "command, overrides, expected",
    [
        ("fit-markov", '{"n_bins": "x"}', "--overrides n_bins must be an integer"),
        ("fit-markov", '{"synthetic": {"n_cases": 1.5}}', "--overrides synthetic n_cases"),
        ("generate", '{"population_size": 0}', "population_size must be >= 1"),
        ("generate", '{"population_size": 10, "offspring_per_cycle": 20}', "offspring_per_cycle"),
    ],
)
def test_cli_bad_override_value(tmp_path, capsys, command, overrides, expected):
    code = cli_main([command, "--overrides", overrides, "--out", str(tmp_path)])
    assert_one_line_error(capsys, code, expected)


@pytest.mark.parametrize(
    "overrides, expected",
    [
        ('{"n_bins": 0}', "n_bins must be >= 2"),
        ('{"test_fraction": 5}', "test_fraction must be in (0, 1)"),
        ('{"max_trace_len": 0}', "max_trace_len must be >= 1"),
        ('{"smoothing_epsilon": -1}', "smoothing_epsilon must be >= 0"),
        # json reads Infinity as a float, and it passes a plain >= 0 check
        ('{"smoothing_epsilon": Infinity}', "smoothing_epsilon must be >= 0 and finite"),
        ('{"predictor_epochs": -3}', "predictor_epochs must be >= 0"),
    ],
)
def test_cli_bad_setup_parameter(tmp_path, capsys, overrides, expected):
    code = cli_main(["fit-markov", "--overrides", overrides, "--out", str(tmp_path)])
    assert_one_line_error(capsys, code, expected)
    assert not (tmp_path / "markov.json").exists()


def test_cli_missing_input_files(tmp_path, capsys):
    missing_log = str(tmp_path / "missing.csv")
    missing_schema = str(tmp_path / "missing.json")
    code = cli_main(
        ["fit-markov", "--log", missing_log, "--schema", missing_schema, "--out", str(tmp_path)]
    )
    assert_one_line_error(capsys, code, missing_schema)
    schema = tmp_path / "schema.json"
    schema.write_text('{"attributes": []}')
    code = cli_main(
        ["fit-markov", "--log", missing_log, "--schema", str(schema), "--out", str(tmp_path)]
    )
    assert_one_line_error(capsys, code, missing_log)


@pytest.mark.parametrize(
    "argv, expected",
    [
        (["synthesize-log", "--cases", "3"], "synthetic n_cases must be >= 10"),
        (
            ["fit-markov", "--overrides", '{"synthetic": {"n_cases": 3, "n_activities": 4}}'],
            "synthetic n_cases must be >= 10",
        ),
        (
            ["fit-markov", "--overrides", '{"synthetic": {"n_activities": 0}}'],
            "synthetic n_activities must be >= 3",
        ),
    ],
)
def test_cli_bad_synthetic_size(tmp_path, capsys, argv, expected):
    code = cli_main([*argv, "--out", str(tmp_path / "out")])
    assert_one_line_error(capsys, code, expected)
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["train-predictor", "fit-markov"])
def test_cli_fitting_commands_take_no_external_predictor(tmp_path, capsys, command):
    # they score no candidates, so the flag would be silently ignored
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exit_info:
        cli_main([command, "--external-predictor", "/bin/false", "--out", str(out)])
    assert exit_info.value.code == 2
    assert "unrecognized arguments: --external-predictor" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["generate", "train-predictor", "fit-markov"])
def test_cli_out_is_required(capsys, command):
    with pytest.raises(SystemExit) as exit_info:
        cli_main([command])
    err = capsys.readouterr().err
    assert exit_info.value.code == 2
    assert "the following arguments are required: --out" in err
    assert "Traceback" not in err


def test_cli_too_many_factuals(tmp_path, capsys):
    code = cli_main(
        ["benchmark", "--n-factuals", "500", "--cfs", "2", "--overrides", SMALL_OVERRIDES,
         "--out", str(tmp_path)]
    )
    assert_one_line_error(capsys, code, "n_factuals is 500 but the test split holds only")


def test_cli_tpc_on_a_frame_of_two_is_one_line(tmp_path, capsys):
    # a frame of 2 events has one cut point, and TPC needs two
    code = cli_main(
        ["grid", "--configs", "CBI-RWS-TPC-SBM-FSR,CBI-RWS-OPC-SBM-FSR", "--cycles", "2",
         "--n-factuals", "1",
         "--overrides", '{"max_trace_len": 2, "population_size": 20, "offspring_per_cycle": 4}',
         "--out", str(tmp_path)]
    )
    assert_one_line_error(
        capsys, code, "CBI-RWS-TPC-SBM-FSR: TPC needs two cut points, and a frame of 2 events"
    )
    assert "Traceback" not in capsys.readouterr().err


TWO_EVENT_CONFIGS = ("CBI-RWS-OPC-SBM-FSR", "CBI-RWS-TPC-SBM-FSR")
# synthesize-log's default size, so both outcome classes keep traces of 2 events
TWO_EVENT_FIELDS = dict(
    synthetic=SyntheticSpec(200, 5), max_trace_len=2, config_names=TWO_EVENT_CONFIGS
)


@pytest.fixture(scope="module")
def two_event_prepared():
    prepared = prepare_experiment(small_spec(**TWO_EVENT_FIELDS))
    assert prepared.encoder.max_len == 2
    return prepared


@pytest.mark.parametrize(
    "runner",
    [
        run_grid,
        run_benchmark,
        lambda spec, prepared: run_generate(spec, prepared, None, TWO_EVENT_CONFIGS[1], None),
    ],
    ids=["grid", "benchmark", "generate"],
)
def test_tpc_on_a_frame_of_two_fails_before_the_first_job(tmp_path, two_event_prepared, runner):
    # the OPC config comes first, and no job of it may run or write a row
    spec = small_spec(tmp_path / "out", **TWO_EVENT_FIELDS)
    with pytest.raises(ConfigurationError, match="TPC needs two cut points"):
        runner(spec, two_event_prepared)
    assert not (tmp_path / "out").exists()


def test_cli_benchmark_with_tpc_on_a_frame_of_two_writes_no_row(tmp_path, capsys):
    code = cli_main(
        ["benchmark", "--configs", ",".join(TWO_EVENT_CONFIGS), "--cycles", "50",
         "--n-factuals", "3", "--cfs", "5",
         "--overrides", '{"max_trace_len": 2, "population_size": 50, "offspring_per_cycle": 10}',
         "--out", str(tmp_path / "tpc")]
    )
    assert_one_line_error(capsys, code, "CBI-RWS-TPC-SBM-FSR: TPC needs two cut points")
    assert not (tmp_path / "tpc" / "trajectories.csv").exists()
    assert not (tmp_path / "tpc" / "candidates.csv").exists()


@pytest.mark.parametrize(
    "command, output", [("train-predictor", "predictor.json"), ("fit-markov", "markov.json")]
)
def test_cli_fitting_commands_need_one_factual(tmp_path, command, output):
    # 30 cases leave 6 test traces, fewer than the default 10 factuals
    overrides = '{"synthetic": {"n_cases": 30, "n_activities": 4}, "predictor_epochs": 50}'
    code = cli_main([command, "--overrides", overrides, "--out", str(tmp_path)])
    assert code == 0
    assert (tmp_path / output).exists()


@pytest.mark.parametrize(
    "argv, expected",
    [
        (["benchmark", "--configs", ""], "benchmark needs at least one evolutionary config"),
        (["grid", "--configs", "CBI-RWS-OPC-SBM-FSR"], "grid search needs at least two configs"),
        (["grid", "--configs", "CBI-RWS-OPC-SBM-FSR,XX"], "five dash-separated tokens"),
        (["benchmark", "--configs", "CBI-RWS-OPC-SBM-XX"], "unknown operator token 'XX'"),
        (
            ["grid", "--configs", "CBI-RWS-OPC-SBM-FSR,CBI-ES-UC3-SBM-RR", "--preset", "135"],
            "grid takes --configs or --preset, not both",
        ),
        (["generate", "--config", "CBI-XX-OPC-SBM-FSR"], "unknown operator token 'XX'"),
    ],
)
def test_cli_config_list_is_checked_before_set_up(tmp_path, capsys, monkeypatch, argv, expected):
    reached = refuse_set_up(monkeypatch)
    out = tmp_path / "out"
    code = cli_main([*argv, "--out", str(out)])
    assert_one_line_error(capsys, code, expected)
    assert reached == []
    assert not out.exists()


def test_cli_generate_overrides_cannot_set_the_config(tmp_path, capsys):
    out = tmp_path / "out"
    code = cli_main(
        ["generate", "--overrides", '{"config_names": ["CBI-ES-UC3-SBM-RR"]}', "--out", str(out)]
    )
    assert_one_line_error(
        capsys, code, "--overrides cannot set config_names; a flag or the generate command sets it"
    )
    assert not out.exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["grid", "--configs", "CBI-RWS-OPC-SBM-FSR,CBI-ES-UC3-SBM-RR"],
        ["grid", "--preset", "135"],
        ["benchmark", "--configs", "CBI-RWS-OPC-SBM-FSR"],
        ["benchmark"],
    ],
)
def test_cli_grid_and_benchmark_overrides_cannot_set_the_configs(
    tmp_path, capsys, monkeypatch, argv
):
    reached = refuse_set_up(monkeypatch)
    out = tmp_path / "out"
    overrides = '{"config_names": ["RI-TS-OPC-RM-FSR", "SBI-RWS-TPC-SBM-BBR"]}'
    code = cli_main([*argv, "--overrides", overrides, "--out", str(out)])
    expected = f"--overrides cannot set config_names; a flag or the {argv[0]} command sets it"
    assert_one_line_error(capsys, code, expected)
    assert reached == []
    assert not out.exists()


# each spec command's argv, and the spec fields its flags or the command itself set
SPEC_COMMANDS = {
    "train-predictor": (
        ["train-predictor"],
        ("log_path", "schema_path", "output_dir", "seed", "n_factuals", "config_names"),
    ),
    "fit-markov": (
        ["fit-markov"],
        ("log_path", "schema_path", "output_dir", "seed", "n_factuals", "config_names"),
    ),
    "generate": (
        ["generate"],
        ("log_path", "schema_path", "output_dir", "seed", "cycles", "n_factuals",
         "counterfactuals_per_factual", "config_names"),
    ),
    "grid": (
        ["grid", "--configs", "CBI-RWS-OPC-SBM-FSR,CBI-ES-UC3-SBM-RR"],
        ("log_path", "schema_path", "output_dir", "seed", "cycles", "n_factuals", "config_names"),
    ),
    "benchmark": (
        ["benchmark"],
        ("log_path", "schema_path", "output_dir", "seed", "cycles", "n_factuals",
         "counterfactuals_per_factual", "config_names"),
    ),
}
# a value of the field's type, so only the rule can refuse it
OVERRIDE_VALUES = {
    "log_path": "log.csv",
    "schema_path": "schema.json",
    "output_dir": "elsewhere",
    "seed": 9,
    "cycles": 3,
    "n_factuals": 2,
    "counterfactuals_per_factual": 4,
    "config_names": ["CBI-ES-UC3-SBM-RR", "CBI-RWS-OPC-SBM-FSR"],
}


@pytest.mark.parametrize(
    "command, field",
    [(command, field) for command, (_, fields) in SPEC_COMMANDS.items() for field in fields],
)
def test_cli_overrides_cannot_set_a_field_a_flag_or_the_command_sets(
    tmp_path, capsys, monkeypatch, command, field
):
    reached = refuse_set_up(monkeypatch)
    monkeypatch.chdir(tmp_path)
    argv, _ = SPEC_COMMANDS[command]
    overrides = json.dumps({field: OVERRIDE_VALUES[field]})
    code = cli_main([*argv, "--overrides", overrides, "--out", "out"])
    assert_one_line_error(
        capsys, code, f"--overrides cannot set {field}; a flag or the {command} command sets it"
    )
    assert reached == []
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("command", list(SPEC_COMMANDS))
@pytest.mark.parametrize(
    "paths, expected",
    [
        (["--schema", "schema.json"], "schema_path is set but log_path is not: a log needs both"),
        (["--log", "log.csv"], "log_path is set but schema_path is not: a log needs both"),
        (["--log", ""], "log_path is empty"),
        (["--log", "log.csv", "--schema", ""], "schema_path is empty"),
    ],
    ids=["schema-alone", "log-alone", "empty-log", "empty-schema"],
)
def test_cli_a_lone_or_empty_log_flag_is_refused_before_set_up(
    tmp_path, capsys, monkeypatch, command, paths, expected
):
    # the synthetic log is the default only when neither --log nor --schema is given
    reached = refuse_set_up(monkeypatch)
    argv, _ = SPEC_COMMANDS[command]
    out = tmp_path / "out"
    code = cli_main([*argv, *paths, "--out", str(out)])
    assert_one_line_error(capsys, code, expected)
    assert reached == []
    assert not out.exists()


@pytest.mark.parametrize(
    "paths, expected",
    [
        (["--log", "", "--schema", "s.json"], "--log is empty"),
        (["--log", "log.csv", "--schema", ""], "--schema is empty"),
        (["--log", "log.csv", "--schema", "s.json", "--counterfactual-log", ""],
         "--counterfactual-log is empty"),
    ],
    ids=["log", "schema", "counterfactual-log"],
)
def test_cli_render_refuses_an_empty_path_flag_by_name(
    tmp_path, capsys, monkeypatch, paths, expected
):
    # Path("") is the working directory, which would be read as the log or the schema
    read = []
    monkeypatch.setattr("evocf.cli.load_csv", lambda *a, **k: read.append(a))
    monkeypatch.setattr("evocf.cli.load_schema_config", lambda *a, **k: read.append(a))
    monkeypatch.chdir(tmp_path)
    code = cli_main(["render", *paths, "--factual", "a", "--counterfactual", "b", "--out", "r.md"])
    assert_one_line_error(capsys, code, expected)
    assert read == []
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "argv, expected",
    [
        (["generate", "--factual", "", "--cycles", "1"], "case '' not found among the encoded"),
        (
            ["render", "--counterfactual-log", "", "--factual", "case_0_0000",
             "--counterfactual", "case_0_0001"],
            "--counterfactual-log is empty",
        ),
        (["synthesize-log", "--critical", ""], "critical activity '' is not one of the log's"),
    ],
    ids=["generate-factual", "render-counterfactual-log", "synthesize-log-critical"],
)
def test_cli_an_empty_flag_does_not_fall_back_to_its_default(tmp_path, capsys, argv, expected):
    data = tmp_path / "data"
    assert cli_main(["synthesize-log", "--cases", "30", "--out", str(data)]) == 0
    capsys.readouterr()
    paths = ["--log", str(data / "log.csv"), "--schema", str(data / "schema.json")]
    extra = {
        "generate": [*paths, "--overrides", '{"population_size": 10, "offspring_per_cycle": 4, '
                     '"predictor_epochs": 20}', "--out", str(tmp_path / "gen")],
        "render": paths,
        "synthesize-log": ["--out", str(tmp_path / "synthesized")],
    }
    code = cli_main([*argv, *extra[argv[0]]])
    assert_one_line_error(capsys, code, expected)
    assert not (tmp_path / "gen" / "counterfactuals.csv").exists()
    assert not (tmp_path / "synthesized").exists()


@pytest.mark.parametrize("split", ["test", "train"])
def test_cli_generate_runs_the_named_factual(tmp_path, capsys, split):
    data = tmp_path / "data"
    assert cli_main(["synthesize-log", "--cases", "30", "--out", str(data)]) == 0
    paths = dict(log_path=str(data / "log.csv"), schema_path=str(data / "schema.json"))
    spec = ExperimentSpec(config_names=(), n_factuals=1, **paths)
    prepared = prepare_from_log(spec, load_log(spec), lambda encoder: None)
    case = next(
        c for c in getattr(prepared, split).case_ids.tolist() if c != prepared.factuals[0].case_id
    )
    out = tmp_path / "gen"
    code = cli_main(
        ["generate", "--log", paths["log_path"], "--schema", paths["schema_path"],
         "--factual", case, "--cycles", "1", "--n", "3",
         "--overrides", '{"population_size": 10, "offspring_per_cycle": 4, "predictor_epochs": 20}',
         "--out", str(out)]
    )
    assert code == 0, capsys.readouterr().err
    with (out / "counterfactuals.csv").open(newline="") as handle:
        assert {row["factual_id"] for row in csv.DictReader(handle)} == {case}
    assert (out / "best_render.md").exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["synthesize-log", "--cases", "30"],
        ["train-predictor"],
        ["fit-markov"],
        ["generate"],
        ["grid", "--configs", "CBI-RWS-OPC-SBM-FSR,CBI-ES-UC3-SBM-RR"],
        ["benchmark"],
        ["render", "--factual", "case_0_0000", "--counterfactual", "case_0_0001"],
    ],
)
def test_cli_empty_out_is_refused(tmp_path, capsys, monkeypatch, argv):
    if argv[0] == "render":
        data = tmp_path / "data"
        assert cli_main(["synthesize-log", "--cases", "30", "--out", str(data)]) == 0
        capsys.readouterr()
        argv = [*argv, "--log", str(data / "log.csv"), "--schema", str(data / "schema.json")]
    reached = refuse_set_up(monkeypatch)
    work = tmp_path / "work"
    work.mkdir()
    monkeypatch.chdir(work)
    code = cli_main([*argv, "--out", ""])
    assert_one_line_error(capsys, code, "is empty")
    assert reached == []
    assert list(work.iterdir()) == []


POPULATION_OF_20 = '{"population_size": 20, "offspring_per_cycle": 10}'


@pytest.mark.parametrize(
    "argv",
    [
        ["benchmark", "--cfs", "50"],
        ["benchmark", "--cfs", "21", "--configs", "CBI-RWS-OPC-SBM-FSR"],
        ["generate", "--n", "50"],
        ["generate", "--n", "21", "--config", "RI-TS-OPC-RM-FSR"],
    ],
)
def test_cli_population_below_the_counterfactuals_asked_for_is_refused_before_set_up(
    tmp_path, capsys, monkeypatch, argv
):
    # an evolutionary generator returns its population, so it would write fewer rows
    reached = refuse_set_up(monkeypatch)
    out = tmp_path / "out"
    code = cli_main([*argv, "--overrides", POPULATION_OF_20, "--out", str(out)])
    assert_one_line_error(
        capsys, code, f"population_size (20) is below the {argv[2]} counterfactuals asked for"
    )
    assert reached == []
    assert not out.exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["generate", "--n", "50", "--config", "CBGW"],
        ["grid", "--configs", "CBI-RWS-OPC-SBM-FSR,CBI-ES-UC3-SBM-RR"],
    ],
)
def test_cli_baseline_generate_and_grid_take_any_population_size(
    tmp_path, capsys, monkeypatch, argv
):
    def set_up(*args, **kwargs):
        raise ConfigurationError("set-up reached")

    monkeypatch.setattr("evocf.cli.prepare_from_log", set_up)
    code = cli_main([*argv, "--overrides", POPULATION_OF_20, "--out", str(tmp_path / "out")])
    assert_one_line_error(capsys, code, "set-up reached")


@pytest.mark.parametrize(
    "runner, fields, expected",
    [
        (
            run_benchmark,
            {"population_size": 20, "counterfactuals_per_factual": 50},
            r"population_size \(20\) is below the 50 counterfactuals",
        ),
        (run_benchmark, {"config_names": ()}, "benchmark needs at least one evolutionary config"),
        (run_grid, {"config_names": ("CBI-RWS-OPC-SBM-FSR",)}, "at least two configs"),
        (
            lambda spec, prepared: run_generate(spec, prepared, None, "RI-TS-OPC-RM-FSR", None),
            {"config_names": ("RI-TS-OPC-RM-FSR",), "population_size": 20,
             "counterfactuals_per_factual": 50},
            r"population_size \(20\) is below the 50 counterfactuals",
        ),
    ],
    ids=["benchmark-population", "benchmark-no-config", "grid-one-config", "generate-population"],
)
def test_runners_check_their_rule_before_any_job(
    tmp_path, monkeypatch, small_prepared, runner, fields, expected
):
    # an API caller sets up itself, so the runner checks its own rule
    monkeypatch.setattr(harness, "run_job", lambda *a: pytest.fail("a job ran"))
    with pytest.raises(ConfigurationError, match=expected):
        runner(small_spec(tmp_path / "out", **fields), small_prepared)
    assert not (tmp_path / "out").exists()


def test_run_generate_needs_an_output_dir_before_any_job(monkeypatch, small_prepared):
    monkeypatch.setattr(harness, "run_job", lambda *a: pytest.fail("a job ran"))
    with pytest.raises(ConfigurationError, match="output_dir, which is not set"):
        run_generate(small_spec(config_names=()), small_prepared, None, "CBGW", None)


@pytest.mark.parametrize(
    "fields, expected",
    [
        ({"n_factuals": 0}, "n_factuals must be >= 1"),
        ({"mutation_rate": 1.5}, "mutation rate insert outside"),
        ({"population_size": 0}, "population_size must be >= 1"),
    ],
)
def test_a_bad_spec_is_a_configuration_error_and_a_value_error(fields, expected):
    with pytest.raises(ConfigurationError, match=expected) as info:
        ExperimentSpec(synthetic=SyntheticSpec(), **fields)
    assert isinstance(info.value, ValueError)


@pytest.mark.parametrize("config", list(GENERATE))
def test_run_generate_without_the_cli_writes_the_pinned_files(tmp_path, config):
    data = tmp_path / "data"
    data.mkdir()
    log = synthesize_log(200, 5, seed=0)  # synthesize-log's defaults
    write_csv(log, data / "log.csv")
    write_schema_config(log.schemas, data / "schema.json")
    spec = ExperimentSpec(
        config_names=() if config in BASELINES else (config,),
        log_path=str(data / "log.csv"),
        schema_path=str(data / "schema.json"),
        n_factuals=1,
        counterfactuals_per_factual=5,
        cycles=GENERATE_CYCLES[config],
        output_dir=str(tmp_path / "out"),
    )
    loaded = load_log(spec)
    best = run_generate(spec, prepare_from_log(spec, loaded, None), loaded, config, None)
    digests = {
        name: hashlib.sha256((tmp_path / "out" / name).read_bytes()).hexdigest()
        for name in GENERATE[config]
    }
    assert digests == GENERATE[config]
    with (tmp_path / "out" / "counterfactuals.csv").open(newline="") as handle:
        first = next(csv.DictReader(handle))
    assert (first["rank"], float(first["total"])) == ("1", best.score.total)


def test_generate_loads_the_log_once(tmp_path, capsys, monkeypatch):
    data = tmp_path / "data"
    assert cli_main(["synthesize-log", "--cases", "30", "--out", str(data)]) == 0
    load_log, loads = harness.load_log, []

    def counting_load_log(spec):
        loads.append(spec)
        return load_log(spec)

    monkeypatch.setattr("evocf.cli.load_log", counting_load_log)
    monkeypatch.setattr("evocf.harness.load_log", counting_load_log)
    code = cli_main(
        ["generate", "--log", str(data / "log.csv"), "--schema", str(data / "schema.json"),
         "--cycles", "1", "--n", "3",
         "--overrides", '{"population_size": 10, "offspring_per_cycle": 4, "predictor_epochs": 20}',
         "--out", str(tmp_path / "gen")]
    )
    assert code == 0, capsys.readouterr().err
    assert len(loads) == 1
    assert (tmp_path / "gen" / "best_render.md").exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["generate", "--seed", "-1"],
        ["synthesize-log", "--seed", "-1"],
    ],
)
def test_cli_negative_seed(tmp_path, capsys, argv):
    code = cli_main([*argv, "--out", str(tmp_path / "out")])
    assert_one_line_error(capsys, code, "seed must be >= 0")
    assert not (tmp_path / "out").exists()


def test_cli_unknown_case_is_one_line(tmp_path, capsys):
    data = tmp_path / "data"
    assert cli_main(["synthesize-log", "--cases", "30", "--activities", "3", "--out", str(data)]) == 0
    capsys.readouterr()
    log = ["--log", str(data / "log.csv"), "--schema", str(data / "schema.json")]
    code = cli_main(["render", *log, "--factual", "nope", "--counterfactual", "case_0_0000"])
    assert_one_line_error(capsys, code, "factual 'nope' or counterfactual 'case_0_0000' not found")
    code = cli_main(
        ["generate", *log, "--factual", "nope", "--cycles", "1",
         "--overrides", '{"population_size": 10, "offspring_per_cycle": 4, "predictor_epochs": 20}',
         "--out", str(tmp_path / "gen")]
    )
    assert_one_line_error(capsys, code, "case 'nope' not found")


def test_cli_generate_names_why_a_logged_case_is_not_encoded(tmp_path, capsys):
    data = tmp_path / "data"
    assert cli_main(["synthesize-log", "--out", str(data)]) == 0
    capsys.readouterr()
    schemas = load_schema_config(data / "schema.json")
    long_case = next(t.case_id for t in load_csv(data / "log.csv", schemas).traces if len(t) > 2)
    code = cli_main(
        ["generate", "--log", str(data / "log.csv"), "--schema", str(data / "schema.json"),
         "--factual", long_case, "--cycles", "1",
         "--overrides", '{"max_trace_len": 2, "population_size": 10, "offspring_per_cycle": 4, '
         '"predictor_epochs": 20}',
         "--out", str(tmp_path / "gen")]
    )
    assert_one_line_error(
        capsys, code,
        f"case {long_case!r} not found among the encoded cases: set-up drops the traces longer "
        "than max_trace_len (2) or than the encoder's max_len (2)",
    )


@pytest.mark.parametrize(
    "argv",
    [
        ["synthesize-log"],
        ["train-predictor"],
        ["fit-markov"],
        ["generate"],
        ["grid", "--configs", "CBI-RWS-OPC-SBM-FSR,CBI-ES-UC3-SBM-RR"],
        ["benchmark"],
    ],
)
def test_cli_out_that_is_a_file_fails_before_set_up(tmp_path, capsys, monkeypatch, argv):
    prepared = refuse_set_up(monkeypatch)
    (tmp_path / "taken").write_text("")
    code = cli_main([*argv, "--out", str(tmp_path / "taken")])
    assert_one_line_error(capsys, code, "cannot create directory: File exists")
    assert prepared == []


def test_cli_render_out_in_a_missing_directory(tmp_path, capsys, monkeypatch):
    loaded = []
    monkeypatch.setattr("evocf.cli.load_csv", lambda *a, **k: loaded.append(a))
    code = cli_main(
        ["render", "--log", "log.csv", "--schema", "schema.json", "--factual", "a",
         "--counterfactual", "b", "--out", str(tmp_path / "missing" / "x.md")]
    )
    assert_one_line_error(capsys, code, "its directory does not exist")
    assert loaded == []


def test_cli_write_error_is_one_line(tmp_path, capsys):
    data = tmp_path / "data"
    assert cli_main(["synthesize-log", "--cases", "30", "--activities", "3", "--out", str(data)]) == 0
    capsys.readouterr()
    (tmp_path / "render.md").mkdir()
    code = cli_main(
        ["render", "--log", str(data / "log.csv"), "--schema", str(data / "schema.json"),
         "--factual", "case_0_0000", "--counterfactual", "case_0_0001",
         "--out", str(tmp_path / "render.md")]
    )
    assert_one_line_error(capsys, code, "render.md: Is a directory")


@pytest.mark.parametrize(
    "body, expected",
    [
        (b"c1,a,0,1,1.0,x\nc1,B,1\n", "row 3 has 3 cells but the header has 6"),
        (b"c1,a,0,1,1.0,x\nc1,b,1,1,2.0,\xff\n", "line 3: byte 0xff is not UTF-8 text"),
        (b"c1,a,0,1,1.0,x\nc1,b,2024-01-01T00:00:00,1,2.0,y\n", "case 'c1' mixes timestamps"),
    ],
)
def test_cli_bad_log_file_is_one_line(tmp_path, capsys, body, expected):
    log = tmp_path / "log.csv"
    log.write_bytes(b"case_id,activity,timestamp,outcome,amount,resource\n" + body)
    schema = tmp_path / "schema.json"
    schema.write_text(
        '{"attributes": [{"name": "amount", "kind": "numeric"},'
        ' {"name": "resource", "kind": "categorical"}]}'
    )
    code = cli_main(
        ["fit-markov", "--log", str(log), "--schema", str(schema), "--out", str(tmp_path / "o")]
    )
    assert_one_line_error(capsys, code, expected)


@pytest.mark.parametrize("column", ["case_id", "activity", "outcome", "timestamp"])
def test_cli_attribute_named_after_a_role_column_is_one_line(tmp_path, capsys, column):
    log = tmp_path / "log.csv"
    log.write_text(
        "case_id,activity,timestamp,outcome,amount\n"
        "c1,a,0,1,1.0\nc1,b,1,1,2.0\nc2,a,0,0,3.0\nc2,c,1,0,4.0\n"
    )
    schema = tmp_path / "schema.json"
    schema.write_text(
        '{"attributes": [{"name": "amount", "kind": "numeric"},'
        f' {{"name": "{column}", "kind": "categorical"}}]}}'
    )
    code = cli_main(
        ["fit-markov", "--log", str(log), "--schema", str(schema), "--out", str(tmp_path / "o")]
    )
    assert_one_line_error(
        capsys, code, f"{schema}: attribute {column!r} takes the name of a role column"
    )


def test_cli_synthesize_log_unknown_critical_activity_is_one_line(tmp_path, capsys):
    code = cli_main(["synthesize-log", "--critical", "ZZ", "--out", str(tmp_path / "out")])
    assert_one_line_error(
        capsys, code, "critical activity 'ZZ' is not one of the log's activities: A, B, C, D, E"
    )
    # the rejected input leaves no --out directory behind
    assert not (tmp_path / "out").exists()


def test_cli_renders_every_rm_counterfactual(tmp_path, capsys):
    # RM mutation can leave a categorical code that decodes to no category;
    # generate writes it as an empty cell, which render must still read
    data, out = tmp_path / "data", tmp_path / "out"
    assert cli_main(["synthesize-log", "--cases", "30", "--activities", "3", "--out", str(data)]) == 0
    log = ["--log", str(data / "log.csv"), "--schema", str(data / "schema.json")]
    code = cli_main(
        ["generate", *log, "--config", "CBI-RWS-OPC-RM-FSR", "--cycles", "10", "--n", "10",
         "--overrides",
         '{"population_size": 20, "offspring_per_cycle": 6, "predictor_epochs": 50,'
         ' "mutation_rate": 0.5}',
         "--out", str(out)]
    )
    assert code == 0, capsys.readouterr().err
    with (out / "counterfactual_events.csv").open(newline="") as handle:
        rows = list(csv.DictReader(handle))
    assert any(row["resource"] == "" for row in rows)
    cases = list(dict.fromkeys(row["case_id"] for row in rows))
    assert len(cases) == 10
    for case_id in cases:
        code = cli_main(
            ["render", *log, "--counterfactual-log", str(out / "counterfactual_events.csv"),
             "--factual", "case_0_0000", "--counterfactual", case_id]
        )
        assert code == 0, capsys.readouterr().err
    assert "resource= |" in capsys.readouterr().out



@pytest.mark.parametrize(
    "counterfactual, expected",
    [
        # longer than every trace of the log, with amounts outside its range
        ("cf_long", ["match", "match", "insert", "insert", "insert"]),
        # an activity and a category that the log lacks
        ("cf_new", ["match", "substitute"]),
    ],
)
def test_cli_renders_a_counterfactual_that_the_log_alone_cannot_encode(
    tmp_path, capsys, counterfactual, expected
):
    header = "case_id,activity,timestamp,outcome,amount,resource\n"
    log, cf_log, schema = tmp_path / "log.csv", tmp_path / "cf.csv", tmp_path / "schema.json"
    log.write_text(header + "f,a,0,1,1.0,x\nf,b,1,1,2.0,y\ng,b,0,0,3.0,x\n")
    cf_log.write_text(
        header
        + "".join(f"cf_long,{a},{step},0,{step + 7}.5,y\n" for step, a in enumerate("abbab"))
        + "cf_new,a,0,0,1.0,x\ncf_new,ZZZ,1,0,2.0,z\n"
    )
    schema.write_text(
        '{"attributes": [{"name": "amount", "kind": "numeric"},'
        ' {"name": "resource", "kind": "categorical"}]}'
    )
    code = cli_main(
        ["render", "--log", str(log), "--schema", str(schema), "--counterfactual-log",
         str(cf_log), "--factual", "f", "--counterfactual", counterfactual]
    )
    out, err = capsys.readouterr()
    assert (code, err) == (0, "")
    rows = [line.split(" | ") for line in out.splitlines()[2:]]
    assert [row[0].strip("| ") for row in rows] == expected
    # every event of the counterfactual shows, in order
    events = [line.split(",") for line in cf_log.read_text().splitlines()]
    shown = [row[2].split()[0] for row in rows if row[2] != "— |"]
    assert shown == [event[1] for event in events if event[0] == counterfactual]

# scores 0.9 for a case holding a "B" event, 0.1 otherwise
RULE_SCRIPT = """\
import csv, sys
in_path, out_path = sys.argv[1], sys.argv[2]
cases = {}
with open(in_path) as handle:
    for row in csv.DictReader(handle):
        proba = 0.9 if row["activity"] == "B" else 0.1
        cases[row["case_id"]] = max(cases.get(row["case_id"], 0.1), proba)
with open(out_path, "w", newline="") as handle:
    writer = csv.writer(handle)
    writer.writerow(["case_id", "proba"])
    writer.writerows(cases.items())
"""


@pytest.mark.parametrize("config", ["CBGW", "CBI-RWS-OPC-SBM-FSR", "RI-TS-UC3-RM-BBR"])
def test_generate_outcome_column_is_the_predicted_class(tmp_path, capsys, config):
    # drawn and bred candidates alike carry the class the predictor gives them
    script = tmp_path / "scorer.py"
    script.write_text(RULE_SCRIPT)
    data, out = tmp_path / "data", tmp_path / "out"
    assert cli_main(["synthesize-log", "--cases", "40", "--activities", "3", "--out", str(data)]) == 0
    code = cli_main(
        ["generate", "--log", str(data / "log.csv"), "--schema", str(data / "schema.json"),
         "--config", config, "--cycles", "3", "--n", "8",
         "--external-predictor", f"{sys.executable} {script}",
         "--overrides", '{"population_size": 20, "offspring_per_cycle": 6, "predictor_epochs": 20}',
         "--out", str(out)]
    )
    assert code == 0, capsys.readouterr().err
    with (out / "counterfactual_events.csv").open(newline="") as handle:
        rows = list(csv.DictReader(handle))
    cases = {}
    for row in rows:
        cases.setdefault(row["case_id"], set()).add((row["activity"], row["outcome"]))
    assert len(cases) == 8
    for events in cases.values():
        expected = "1" if any(activity == "B" for activity, _ in events) else "0"
        assert {outcome for _, outcome in events} == {expected}


# at run seed 7 generate once aligned the best candidate under the training
# split's encoder and render under the whole log's, and the two tables
# differed; at run seed 2 the best candidate's resource code decodes to no
# category, which both show as "resource="
@pytest.mark.parametrize("seed", [7, 2])
def test_best_render_shows_the_counterfactual_that_render_shows(tmp_path, capsys, seed):
    data, out = tmp_path / "data", tmp_path / "out"
    assert cli_main(["synthesize-log", "--seed", "0", "--out", str(data)]) == 0
    log = ["--log", str(data / "log.csv"), "--schema", str(data / "schema.json")]
    code = cli_main(
        ["generate", *log, "--config", "SBI-TS-TPC-RM-BBR", "--cycles", "20", "--n", "5",
         "--seed", str(seed), "--out", str(out)]
    )
    assert code == 0, capsys.readouterr().err
    with (out / "counterfactuals.csv").open(newline="") as handle:
        factual = next(csv.DictReader(handle))["factual_id"]
    render_path = tmp_path / "render.md"
    code = cli_main(
        ["render", *log, "--counterfactual-log", str(out / "counterfactual_events.csv"),
         "--factual", factual, "--counterfactual", "cf_001", "--out", str(render_path)]
    )
    assert code == 0, capsys.readouterr().err

    def table(text):
        return [line for line in text.splitlines() if line.startswith("| ")]

    best = (out / "best_render.md").read_text()
    assert table(best) == table(render_path.read_text())
    assert len(table(best)) > 2
    if seed == 2:
        assert "resource= |" in best


@pytest.mark.parametrize("command", ["generate", "grid", "benchmark"])
@pytest.mark.parametrize(
    "value, expected",
    [
        ("", "--external-predictor is empty"),
        ("   ", "--external-predictor is empty"),
        ('"" --flag', "--external-predictor is empty"),
        ('"unclosed', "No closing quotation"),
    ],
)
def test_cli_bad_external_predictor_is_checked_before_set_up(
    tmp_path, capsys, monkeypatch, command, value, expected
):
    prepared = refuse_set_up(monkeypatch)
    configs = ["--configs", "CBI-RWS-OPC-SBM-FSR,CBI-ES-UC3-SBM-RR"] if command == "grid" else []
    code = cli_main(
        [command, *configs, "--external-predictor", value, "--out", str(tmp_path / "out")]
    )
    assert_one_line_error(capsys, code, expected)
    assert prepared == []
    assert not (tmp_path / "out").exists()
