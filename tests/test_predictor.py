import stat
import sys
import textwrap
import time

import numpy as np
import pytest

from conftest import make_encoded
from evocf import predictor as predictor_mod
from evocf.errors import ConfigurationError, PredictorError, TrainingError
from evocf.event_log import encode_log, fit_encoder, preprocess, split_train_test, synthesize_log
from evocf.markov import fit as fit_markov
from evocf.predictor import (
    ConstantPredictor,
    ExternalProcessPredictor,
    LogisticOutcomePredictor,
    evaluate,
    extract_features,
    feature_width,
    loss_and_gradient,
    train,
)
from evocf.viability import ViabilityScorer


def test_extract_features_small_trace():
    trace = make_encoded([1, 1, 2], [[0.2], [0.4], [0.9]], max_len=6)
    phi = extract_features(trace, vocab_size=2)
    assert len(phi) == feature_width(2, 1)
    assert phi[0] == 3 / 6  # normalized length
    assert phi[1] == pytest.approx(2 / 3)  # histogram of activity 1
    assert phi[2] == pytest.approx(1 / 3)
    bigrams = phi[3 : 3 + 4]
    assert bigrams.tolist() == [1.0, 1.0, 0.0, 0.0]  # (1,1) and (1,2) observed
    assert phi[-1] == pytest.approx(0.5)  # mean of the attribute column


def test_extract_features_deterministic():
    trace = make_encoded([2, 1], [[0.3], [0.8]], max_len=4)
    assert np.array_equal(extract_features(trace, 2), extract_features(trace, 2))


def _labeled_pair():
    positive = make_encoded([1, 2], [[0.9], [0.9]], max_len=4, outcome=1, case_id="p")
    negative = make_encoded([2, 2], [[0.1], [0.1]], max_len=4, outcome=0, case_id="n")
    return [positive, negative]


def test_train_separable_set_reaches_full_accuracy():
    data = _labeled_pair()
    predictor = train(data, epochs=300, seed=0)
    for trace in data:
        predicted = 1 if predictor.predict_proba(trace) > 0.5 else 0
        assert predicted == trace.outcome


def test_train_is_deterministic():
    data = _labeled_pair()
    first = train(data, epochs=100, seed=5)
    second = train(data, epochs=100, seed=5)
    assert np.array_equal(first.weights, second.weights)
    assert first.bias == second.bias


def test_train_single_class_is_error():
    positive = make_encoded([1], [[0.5]], max_len=4, outcome=1)
    with pytest.raises(TrainingError):
        train([positive, positive], epochs=10, seed=0)


def test_gradient_matches_central_finite_differences():
    rng = np.random.default_rng(7)
    n, width = 40, 13
    features = rng.random((n, width))
    labels = (rng.random(n) > 0.5).astype(float)
    weights = rng.normal(0, 0.5, width)
    bias = 0.3
    _, grad_w, grad_b = loss_and_gradient(weights, bias, features, labels)

    h = 1e-5
    numeric_w = np.zeros(width)
    for i in range(width):
        bump = np.zeros(width)
        bump[i] = h
        up, *_ = loss_and_gradient(weights + bump, bias, features, labels)
        down, *_ = loss_and_gradient(weights - bump, bias, features, labels)
        numeric_w[i] = (up - down) / (2 * h)
    up, *_ = loss_and_gradient(weights, bias + h, features, labels)
    down, *_ = loss_and_gradient(weights, bias - h, features, labels)
    numeric_b = (up - down) / (2 * h)

    assert np.max(np.abs(grad_w - numeric_w)) < 1e-6
    assert abs(grad_b - numeric_b) < 1e-6


def test_training_loss_is_non_increasing():
    rng = np.random.default_rng(11)
    traces = []
    for i in range(30):
        length = int(rng.integers(1, 5))
        traces.append(
            make_encoded(
                rng.integers(1, 4, size=length).tolist(),
                rng.random((length, 2)),
                max_len=6,
                outcome=int(rng.random() > 0.5),
                case_id=f"r{i}",
            )
        )
    predictor = train(traces, epochs=120, learning_rate=4.0, seed=2)
    history = predictor.training_loss
    assert len(history) > 1
    assert all(later <= earlier + 1e-9 for earlier, later in zip(history, history[1:]))


def test_predict_proba_zero_weights_is_half():
    predictor = LogisticOutcomePredictor(
        weights=np.zeros(feature_width(2, 1)), bias=0.0, vocab_size=2, max_len=4, feature_dim=1
    )
    trace = make_encoded([1, 2], [[0.4], [0.6]], max_len=4)
    assert predictor.predict_proba(trace) == 0.5


def test_predict_proba_bounded_on_random_traces():
    data = _labeled_pair()
    predictor = train(data, epochs=200, seed=1)
    rng = np.random.default_rng(3)
    for _ in range(1000):
        length = int(rng.integers(1, 5))
        trace = make_encoded(
            rng.integers(1, 3, size=length).tolist(),
            rng.random((length, 1)),
            max_len=4,
        )
        assert 0.0 < predictor.predict_proba(trace) < 1.0


def test_evaluate_all_correct():
    data = _labeled_pair()
    predictor = train(data, epochs=300, seed=0)
    metrics = evaluate(predictor, data)
    assert (metrics.precision, metrics.recall, metrics.f1) == (1.0, 1.0, 1.0)
    assert not metrics.zero_division


def test_evaluate_degenerate_constant_predictor():
    data = _labeled_pair()
    metrics = evaluate(ConstantPredictor(0.4), data)
    assert metrics.recall == 0.0
    assert metrics.f1 == 0.0
    assert metrics.zero_division


def test_evaluate_confusion_matrix_arithmetic():
    # TP=2, FP=1, FN=1 -> precision = recall = f1 = 2/3
    class Scripted:
        def __init__(self, outputs):
            self.outputs = list(outputs)
            self.calls = 0

        def predict_proba(self, trace):
            value = self.outputs[self.calls]
            self.calls += 1
            return value

    traces = [
        make_encoded([1], [[0.1]], max_len=2, outcome=1),  # predicted 1 -> TP
        make_encoded([1], [[0.2]], max_len=2, outcome=1),  # predicted 1 -> TP
        make_encoded([1], [[0.3]], max_len=2, outcome=0),  # predicted 1 -> FP
        make_encoded([1], [[0.4]], max_len=2, outcome=1),  # predicted 0 -> FN
    ]
    metrics = evaluate(Scripted([0.9, 0.9, 0.9, 0.1]), traces)
    assert metrics.precision == pytest.approx(2 / 3)
    assert metrics.recall == pytest.approx(2 / 3)
    assert metrics.f1 == pytest.approx(2 / 3)


def test_f1_on_synthetic_planted_rule_log(synth_setup):
    metrics = evaluate(synth_setup["predictor"], synth_setup["test"])
    assert metrics.f1 >= 0.9


def test_predictor_json_round_trip():
    predictor = train(_labeled_pair(), epochs=100, seed=0)
    restored = LogisticOutcomePredictor.from_json(predictor.to_json())
    trace = make_encoded([1, 2], [[0.7], [0.2]], max_len=4)
    assert restored.predict_proba(trace) == predictor.predict_proba(trace)


EXTERNAL_SCRIPT = textwrap.dedent(
    """\
    #!/usr/bin/env python3
    import csv, sys

    in_path, out_path = sys.argv[1], sys.argv[2]
    lengths = {}
    with open(in_path) as handle:
        for row in csv.DictReader(handle):
            lengths[row["case_id"]] = lengths.get(row["case_id"], 0) + 1
    with open(out_path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["case_id", "proba"])
        for case_id, n in lengths.items():
            writer.writerow([case_id, min(0.9, 0.1 * n)])
    """
)


def test_external_process_predictor(tmp_path, synth_setup):
    script = tmp_path / "scorer.py"
    script.write_text(EXTERNAL_SCRIPT)
    script.chmod(script.stat().st_mode | stat.S_IEXEC)
    predictor = ExternalProcessPredictor(
        f"{sys.executable} {script}", synth_setup["encoder"]
    )
    traces = synth_setup["test"][:3]
    probs = predictor.predict_proba_batch(traces)
    assert probs == [min(0.9, 0.1 * t.valid_len) for t in traces]
    assert predictor.predict_proba(traces[0]) == probs[0]


def test_logistic_batch_equals_per_trace(synth_setup):
    predictor = synth_setup["predictor"]
    traces = synth_setup["test"][:20]
    assert predictor.predict_proba_batch(traces) == [predictor.predict_proba(t) for t in traces]


def test_reloaded_predictor_keeps_the_encoder_check(synth_setup):
    encoder = synth_setup["encoder"]
    restored = LogisticOutcomePredictor.from_json(synth_setup["predictor"].to_json())
    assert restored.encoder_fingerprint == encoder.fingerprint()
    ViabilityScorer(synth_setup["test"][0], restored, synth_setup["feas_model"])

    other_log = split_train_test(preprocess(synthesize_log(60, 4, seed=9), 25), 0.2, seed=9)[0]
    other_encoder = fit_encoder(other_log)
    assert other_encoder.fingerprint() != encoder.fingerprint()
    other_train = encode_log(other_log, other_encoder)
    with pytest.raises(ConfigurationError):
        ViabilityScorer(other_train[0], restored, fit_markov(other_train, other_encoder))


def _bad_scorer(tmp_path, body):
    script = tmp_path / "bad_scorer.py"
    script.write_text(
        textwrap.dedent(
            """\
            import csv, sys

            in_path, out_path = sys.argv[1], sys.argv[2]
            with open(in_path) as handle:
                cases = list(dict.fromkeys(row["case_id"] for row in csv.DictReader(handle)))
            """
        )
        + textwrap.dedent(body)
    )
    return f"{sys.executable} {script}"


_WRITE_ROWS = """\
with open(out_path, "w", newline="") as handle:
    writer = csv.writer(handle)
    writer.writerow(["case_id", "proba"])
    for case_id in cases:
        writer.writerow([case_id, proba(case_id)])
"""


@pytest.mark.parametrize(
    ("body", "message"),
    [
        ("sys.exit(3)\n", "exited with status 3"),
        ("pass\n", "wrote no scores file"),
        (
            "def proba(case_id):\n    return 0.5\ncases = cases[:-1]\n" + _WRITE_ROWS,
            "returned no score for case cand_2",
        ),
        (
            "def proba(case_id):\n    return 'high' if case_id == 'cand_1' else 0.5\n"
            + _WRITE_ROWS,
            "returned a non-numeric proba 'high' for case cand_1",
        ),
        (
            "def proba(case_id):\n    return 1.5 if case_id == 'cand_0' else 0.5\n"
            + _WRITE_ROWS,
            "returned proba 1.5 outside [0, 1] for case cand_0",
        ),
    ],
    ids=["exit-status", "no-output", "missing-case", "non-numeric", "out-of-range"],
)
def test_external_predictor_failures_are_predictor_errors(tmp_path, synth_setup, body, message):
    command = _bad_scorer(tmp_path, body)
    predictor = ExternalProcessPredictor(command, synth_setup["encoder"])
    with pytest.raises(PredictorError) as info:
        predictor.predict_proba_batch(synth_setup["test"][:3])
    text = str(info.value)
    assert message in text
    assert command in text
    assert "\n" not in text


def test_external_predictor_missing_command_is_predictor_error(tmp_path, synth_setup):
    predictor = ExternalProcessPredictor(str(tmp_path / "no-such-scorer"), synth_setup["encoder"])
    with pytest.raises(PredictorError, match="could not be started"):
        predictor.predict_proba(synth_setup["test"][0])


def test_external_predictor_timeout_is_predictor_error(tmp_path, synth_setup, monkeypatch):
    # one process: the scorer sleeps far past the timeout and is killed
    monkeypatch.setattr(predictor_mod, "EXTERNAL_TIMEOUT_S", 0.5)
    command = _bad_scorer(tmp_path, "import time\ntime.sleep(60)\n")
    predictor = ExternalProcessPredictor(command, synth_setup["encoder"])
    started = time.monotonic()
    with pytest.raises(PredictorError) as info:
        predictor.predict_proba_batch(synth_setup["test"][:2])
    assert time.monotonic() - started < 30.0
    text = str(info.value)
    assert "timed out after 0.5 s" in text
    assert command in text
    assert "\n" not in text
