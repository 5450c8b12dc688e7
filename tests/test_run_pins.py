"""sha256 pins of the run outputs.

A small synthetic benchmark that uses every operator token and the three
baselines pins candidates.csv, trajectories.csv and benchmark_report.json;
`evocf generate` with an SBM config, an RM config and CBGW pins the three
files each run writes. A change to encoding, decoding, scoring or the
operators that moves any of these bytes fails here, even where the scalar
oracles still agree with the fast paths.
"""

import hashlib

import pytest

from evocf.cli import main as cli_main
from evocf.harness import ExperimentSpec, SyntheticSpec, prepare_experiment, run_benchmark

# each of RI SBI CBI, RWS TS ES, UC (at rate 0.3) OPC TPC, RM SBM and FSR BBR RR
BENCHMARK_CONFIGS = ("RI-RWS-UC3-RM-FSR", "SBI-TS-OPC-SBM-BBR", "CBI-ES-TPC-RM-RR")
BENCHMARK = {
    "candidates.csv": "bb7f4ca31ddec03df69ebcf24941d8a8be088269506eba20b4c6386e65e34af8",
    "trajectories.csv": "a00a44e4284e75ed10a4bb518c8f755750594211aab42fbab90404c618f36c7a",
    "benchmark_report.json": "c71e77aa678bbfde44054e9bc96070369308209c4d5564b366c2aa1ad2cce412",
}
GENERATE = {
    "CBI-RWS-OPC-SBM-FSR": {
        "counterfactuals.csv": "4fe49f82b90730b49d0eac339965334479997d86f7f831c2a8daf9c14269b50a",
        "counterfactual_events.csv": "4a58f3c3c893d29f0700256c9f2671e4eb2183b3785863811a1ef90b2a0d44cd",
        "best_render.md": "33fc8c83fee578ce61ea49ba2224a5313e94fd63640517f7c4bff91a8ad5ccdd",
    },
    "SBI-TS-TPC-RM-BBR": {
        "counterfactuals.csv": "6dde0458e3bd3bf696d78c6390d23264e56f3fe88e9fe6dfc38d9feba593105b",
        "counterfactual_events.csv": "2e32ed7fca3d7e70450475aaa29bceb9b7bfc78e3d559206e8c59d7d3b8610da",
        "best_render.md": "6c94e2ea91e95ce723fef06244f6f7a8a0ed01359c32e4e7d4d8a7774a9bb403",
    },
    "CBGW": {
        "counterfactuals.csv": "40551fe1e4ec09d674f3c2fb24c4bdd9d64ca6f366798d6409039f6435ce21fd",
        "counterfactual_events.csv": "71b4ed326874efaa5c5c89e9562154ef6e518b2a615a1a3cc3ab9bd02f72aa84",
        "best_render.md": "1d8ff408a099d8847842b99cdbe25e83d1b988f2f45eef9c1d519c4153c9fdff",
    },
}
GENERATE_CYCLES = {"CBI-RWS-OPC-SBM-FSR": 5, "SBI-TS-TPC-RM-BBR": 20, "CBGW": 0}


def _digests(directory, names) -> dict:
    return {name: hashlib.sha256((directory / name).read_bytes()).hexdigest() for name in names}


def test_benchmark_outputs_are_pinned(tmp_path):
    spec = ExperimentSpec(
        config_names=BENCHMARK_CONFIGS,
        synthetic=SyntheticSpec(60, 4),
        n_factuals=2,
        counterfactuals_per_factual=5,
        cycles=5,
        seed=1,
        output_dir=str(tmp_path),
        population_size=30,
        offspring_per_cycle=10,
        predictor_epochs=120,
    )
    run_benchmark(spec, prepare_experiment(spec))
    assert _digests(tmp_path, BENCHMARK) == BENCHMARK


@pytest.fixture(scope="module")
def synthetic_log(tmp_path_factory):
    data = tmp_path_factory.mktemp("data")
    assert cli_main(["synthesize-log", "--seed", "0", "--out", str(data)]) == 0
    return data


@pytest.mark.parametrize("config", list(GENERATE))
def test_generate_outputs_are_pinned(tmp_path, capsys, synthetic_log, config):
    code = cli_main(
        ["generate", "--log", str(synthetic_log / "log.csv"),
         "--schema", str(synthetic_log / "schema.json"),
         "--config", config, "--cycles", str(GENERATE_CYCLES[config]), "--n", "5",
         "--out", str(tmp_path)]
    )
    assert code == 0, capsys.readouterr().err
    assert _digests(tmp_path, GENERATE[config]) == GENERATE[config]
