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
    "candidates.csv": "d72a8c2ce4d9eee3f57e2d7406a410e1920528c2f160501f20361f78fcd42209",
    "trajectories.csv": "48a6aaba3ad1d7af763b51cc2977ed75f50c9c1b79c10eeb3b4e355fc39fc8ae",
    "benchmark_report.json": "fd974f51b8b808c3ff872e9b09c4ffd8ec07a802a694919428a1613478a8e0b7",
}
GENERATE = {
    "CBI-RWS-OPC-SBM-FSR": {
        "counterfactuals.csv": "e813f6eed802700476ca87a89e3a4dbed849ce92df55712f6c36bfa31666ba32",
        "counterfactual_events.csv": "f798c4ac12204b648a10dd19e4aa19c2995978950dda314632167f573f8c96ec",
        "best_render.md": "c0708699251f99cb1888ca5c3c8a162c22e31988db826cd87dae04d68dcf55cb",
    },
    "SBI-TS-TPC-RM-BBR": {
        "counterfactuals.csv": "a65ce419fdc85d7791b91f8a386ff47483a8c0542b605019c79f2e33a25ebae1",
        "counterfactual_events.csv": "6969d1aae1d159a077cc27875ccc0727636216ca43696840c080242a8a9f05b8",
        "best_render.md": "51ab0d0e6b5c4b247acb3120bf84c9506db4ba67a54e2bc57af4c197587463ba",
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
