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
    "candidates.csv": "aa378c111c04dc4a54017276d9042516097b878e0e0808eb2eb0e8f05e01051d",
    "trajectories.csv": "e7afdcdbbf5b47a680e4a33bdc7caed5508d397ebf0d48b32cf623afcc90c85b",
    "benchmark_report.json": "f7be971eab7d7341a84ddde7271c5d0bcc096482a039eab2e6b6ad6dce7acc77",
}
GENERATE = {
    "CBI-RWS-OPC-SBM-FSR": {
        "counterfactuals.csv": "e813f6eed802700476ca87a89e3a4dbed849ce92df55712f6c36bfa31666ba32",
        "counterfactual_events.csv": "f798c4ac12204b648a10dd19e4aa19c2995978950dda314632167f573f8c96ec",
        "best_render.md": "c0708699251f99cb1888ca5c3c8a162c22e31988db826cd87dae04d68dcf55cb",
    },
    "SBI-TS-TPC-RM-BBR": {
        "counterfactuals.csv": "2e484ed82fd911db967a7aea841899b9c822723a9c27f73947c45948e2ea3d23",
        "counterfactual_events.csv": "287573e6f44a28e0c0a8ef39e7af7ce460566f76dd2e4e3d759311d3c2b82e10",
        "best_render.md": "0590f8d1fdc70cc0bc96e51f1fbd153d584d7cb5b136aea73bbc3b5e037413b8",
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
