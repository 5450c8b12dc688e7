"""sha256 pins of the set-up outputs.

The digests were computed before the set-up path was rewritten for speed
(column encoding, one log check, CDF synthesis). A later change to loading,
splitting, encoding, synthesis or fitting that moves any of these bytes fails
here, even where the scalar oracles still agree with the fast paths.
"""

import hashlib
import json
import random
from datetime import datetime, timedelta

import numpy as np

from evocf.event_log import synthesize_log, write_csv
from evocf.harness import ExperimentSpec, prepare_experiment

SYNTHETIC_CSV = "13963f1462a0d14c1bd081f2eeec41370b2aaaca9ae61ddeede0b933e491d2b1"
PREPARED = {
    "train": "ba5992845a42124f65831c6acfc3e2a76c7eb482972ac35ea4fe3c7b7f4b1652",
    "test": "cf31bd0b7a4128d92c49604f2adfbfac0cd65d462a95e22804b020583790fc9a",
    "factuals": "975664d37d99af5787906c4f32597317896f6a5283bf37cfb0141ea3604bb950",
    "predictor": "dc6834feb638787e530babd83aabc0f649c70c70e188d69a2e6567604f1a1682",
    "markov": "1b05f685a474aac003c1bfc03f22fd8c20ddb1c9e922483054e19204584d0a0b",
}


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _traces_digest(traces) -> str:
    h = hashlib.sha256()
    h.update(np.stack([t.activity_ids for t in traces]).tobytes())
    features = np.stack([t.features for t in traces])
    h.update(repr((features.dtype.str, features.shape)).encode())
    h.update(features.tobytes())
    h.update(repr([(t.valid_len, t.outcome, t.case_id) for t in traces]).encode())
    return h.hexdigest()


def _write_small_log(tmp_path):
    """A seeded CSV log: interleaved rows, integer and ISO timestamps, both kinds."""
    rng = random.Random(7)
    activities = [f"a{i}" for i in range(8)]
    start = datetime(2024, 1, 1)
    rows = []
    for case in range(60):
        length = rng.randint(2, 16)
        outcome = rng.randint(0, 1)
        iso = case % 3 == 0
        for step in range(length):
            stamp = (start + timedelta(hours=case + step)).isoformat() if iso else step * 10
            rows.append(
                [
                    f"c{case:03d}",
                    rng.choice(activities),
                    str(stamp),
                    str(outcome),
                    f"{rng.uniform(0.0, 500.0):.3f}",
                    str(rng.randint(1, 9)),
                    rng.choice(("web", "phone", "mail", "branch")),
                    rng.choice(("t1", "t2", "t3")),
                ]
            )
    rng.shuffle(rows)  # the timestamps restore each case's order
    log_path = tmp_path / "log.csv"
    log_path.write_text(
        "\n".join(
            ["case_id,activity,timestamp,outcome,cost,count,channel,team"]
            + [",".join(r) for r in rows]
        )
        + "\n"
    )
    schema_path = tmp_path / "schema.json"
    kinds = {"cost": "numeric", "count": "numeric", "channel": "categorical", "team": "categorical"}
    schema_path.write_text(
        json.dumps({"attributes": [{"name": n, "kind": k} for n, k in kinds.items()]})
    )
    return log_path, schema_path


def prepared_digests(tmp_path) -> dict:
    log_path, schema_path = _write_small_log(tmp_path)
    spec = ExperimentSpec(
        log_path=str(log_path),
        schema_path=str(schema_path),
        n_factuals=3,
        max_trace_len=12,
        predictor_epochs=40,
        seed=3,
    )
    prepared = prepare_experiment(spec)
    predictor = prepared.predictor
    return {
        "train": _traces_digest(prepared.train),
        "test": _traces_digest(prepared.test),
        "factuals": _traces_digest(prepared.factuals),
        "predictor": _sha(predictor.weights.tobytes() + repr(predictor.bias).encode()),
        "markov": _sha(prepared.feas_model.to_json().encode()),
    }


def test_synthesized_csv_bytes_are_pinned(tmp_path):
    path = tmp_path / "log.csv"
    write_csv(synthesize_log(200, 5, seed=0), path)
    assert _sha(path.read_bytes()) == SYNTHETIC_CSV


def test_prepared_experiment_is_pinned(tmp_path):
    assert prepared_digests(tmp_path) == PREPARED
