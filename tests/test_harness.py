import csv
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import evocf
from conftest import make_encoded
from evocf import harness
from evocf.cli import main as cli_main
from evocf.event_log import AttributeSchema, Event, Trace
from evocf.harness import (
    ExperimentSpec,
    SyntheticSpec,
    pick_factuals,
    prepare_experiment,
    render_counterfactual,
    run_benchmark,
    run_grid,
    run_seed,
)
from evocf.predictor import ExternalProcessPredictor
from evocf.viability import ssdld


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
    picked = pick_factuals(traces, 6, np.random.default_rng(0))
    outcomes = [t.outcome for t in picked]
    assert outcomes.count(0) == 3
    assert outcomes.count(1) == 3


def test_pick_factuals_single_class_still_works():
    traces = [make_encoded([1], [[0.5]], 4, outcome=1, case_id=f"c{i}") for i in range(5)]
    picked = pick_factuals(traces, 3, np.random.default_rng(0))
    assert len(picked) == 3


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


def test_run_grid_identical_configs_get_identical_trajectories(small_prepared):
    spec = small_spec(config_names=("CBI-RWS-OPC-SBM-FSR", "CBI-RWS-OPC-SBM-FSR"))
    report = run_grid(spec, small_prepared)
    half = len(report.trajectory_rows) // 2
    first, second = report.trajectory_rows[:half], report.trajectory_rows[half:]
    assert first == second
    assert len(report.ranking) == 1  # duplicate names collapse in the ranking


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
        def predict_proba_batch(self, traces):
            return [0.4] * len(traces)

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
    _, alignment = ssdld(enc_f, enc_c, "euclidean", spec.slices())
    text = render_counterfactual(factual, counterfactual, alignment)
    rendered_ops = [
        line.split("|")[1].strip()
        for line in text.splitlines()
        if line.startswith("|") and "---" not in line and line.split("|")[1].strip() != "op"
    ]
    expected = []
    for op in alignment.ops:
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


# ---------------------------------------------------------------------------
# CLI errors: one line on stderr, exit code 2, no traceback

SMALL_OVERRIDES = (
    '{"synthetic": {"n_cases": 60, "n_activities": 4}, '
    '"population_size": 20, "offspring_per_cycle": 6, "predictor_epochs": 50}'
)


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


@pytest.mark.parametrize(
    "command, overrides, expected",
    [
        ("fit-markov", '{"n_bins": "x"}', "--overrides n_bins must be an integer"),
        ("fit-markov", '{"synthetic": {"n_cases": 1.5}}', "--overrides synthetic n_cases"),
        ("fit-markov", '{"config_names": "CBI-RWS-OPC-SBM-FSR"}', "must be a list"),
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
        ["benchmark", "--n-factuals", "500", "--overrides", SMALL_OVERRIDES,
         "--out", str(tmp_path)]
    )
    assert_one_line_error(capsys, code, "n_factuals is 500 but the test split holds only")


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
        (
            ["benchmark", "--overrides", '{"config_names": []}'],
            "benchmark needs at least one evolutionary config",
        ),
        (
            ["grid", "--configs", "CBI-RWS-OPC-SBM-FSR,CBI-ES-UC3-SBM-RR",
             "--overrides", '{"config_names": ["CBI-RWS-OPC-SBM-FSR"]}'],
            "grid search needs at least two configs",
        ),
        (["grid", "--configs", "CBI-RWS-OPC-SBM-FSR,XX"], "five dash-separated tokens"),
        (["benchmark", "--configs", "CBI-RWS-OPC-SBM-XX"], "unknown operator token 'XX'"),
        (
            ["grid", "--configs", "CBI-RWS-OPC-SBM-FSR,CBI-ES-UC3-SBM-RR", "--preset", "135"],
            "grid takes --configs or --preset, not both",
        ),
    ],
)
def test_cli_config_list_is_checked_before_set_up(tmp_path, capsys, monkeypatch, argv, expected):
    prepared = []
    monkeypatch.setattr("evocf.cli.prepare_experiment", lambda *a, **k: prepared.append(a))
    code = cli_main([*argv, "--out", str(tmp_path)])
    assert_one_line_error(capsys, code, expected)
    assert prepared == []


@pytest.mark.parametrize(
    "argv",
    [
        ["generate", "--seed", "-1"],
        ["generate", "--overrides", '{"seed": -1}'],
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
    prepared = []
    monkeypatch.setattr("evocf.cli.prepare_experiment", lambda *a, **k: prepared.append(a))
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
