import csv
import io
import os
import stat
import sys
import textwrap
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import log_of, make_encoded, reference_decode
from evocf import predictor as predictor_mod
from evocf.errors import ConfigurationError, PredictorError, TrainingError, VocabularyError
from evocf.event_log import (
    CategoricalCodec,
    EncodedTrace,
    EncoderSpec,
    NumericCodec,
    decode,
    decode_rows,
    encode_log,
    fit_encoder,
    preprocess,
    split_train_test,
    synthesize_log,
)
from evocf.markov import fit as fit_markov
from evocf.predictor import (
    ExternalProcessPredictor,
    LogisticOutcomePredictor,
    evaluate,
    extract_features_batch,
    feature_width,
    loss_and_gradient,
    train,
)
from evocf.viability import ViabilityScorer


def extract_features(trace, vocab_size):
    """One trace's feature row, built on its own: the oracle of extract_features_batch.

    Concatenates the normalized length, the activity occurrence histogram,
    binary activity-bigram indicators, and per-column attribute means over the
    valid prefix. Total width 1 + K + K^2 + D.
    """
    k = vocab_size
    length = trace.valid_len
    ids = trace.activity_ids[:length]
    histogram = np.bincount(ids - 1, minlength=k).astype(float) / length
    bigrams = np.zeros(k * k)
    if length > 1:
        bigrams[(ids[:-1] - 1) * k + (ids[1:] - 1)] = 1.0
    means = trace.features[:length].mean(axis=0)
    return np.concatenate(([length / trace.max_len], histogram, bigrams, means))


def reference_proba(predictor, trace):
    """One trace's P(outcome=1) from its own feature row: the oracle of predict_proba_batch."""
    phi = extract_features(trace, predictor.vocab_size)
    p = float(predictor_mod._sigmoid(np.array([phi @ predictor.weights + predictor.bias]))[0])
    return min(max(p, 1e-12), 1.0 - 1e-12)


def empty_frame(traces):
    """The frame of no rows, as wide as the traces' frame."""
    return log_of(traces).take(slice(0)).frame


class Constant:
    """Stub predictor giving every trace the same probability."""

    def __init__(self, probability):
        self.probability = probability

    def predict_proba_batch(self, ids, features, lengths):
        return [self.probability] * len(lengths)


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
    return log_of([positive, negative])


def test_train_separable_set_reaches_full_accuracy():
    data = _labeled_pair()
    predictor = train(data, epochs=300, seed=0)
    for trace, p in zip(data, predictor.predict_proba_batch(*data.frame), strict=True):
        predicted = 1 if p > 0.5 else 0
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
        train(log_of([positive, positive]), epochs=10, seed=0)


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


def random_outcome_log():
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
    return log_of(traces)


def test_training_loss_is_non_increasing():
    predictor = train(random_outcome_log(), epochs=120, learning_rate=4.0, seed=2)
    history = predictor.training_loss
    assert len(history) > 1
    assert all(later <= earlier + 1e-9 for earlier, later in zip(history, history[1:]))


def test_training_halves_a_step_that_raises_the_loss():
    log = random_outcome_log()
    # train's starting point: its seed's weights, a zero bias, and the full first step
    features = extract_features_batch(*log.frame, int(log.ids.max()))
    labels = log.outcomes.astype(float)
    weights = np.random.default_rng(2).normal(0.0, 0.01, size=features.shape[1])
    loss, grad_w, grad_b = loss_and_gradient(weights, 0.0, features, labels)
    stepped, _, _ = loss_and_gradient(weights - 50.0 * grad_w, -50.0 * grad_b, features, labels)
    assert stepped > loss
    history = train(log, epochs=120, learning_rate=50.0, seed=2).training_loss
    assert len(history) > 1
    assert all(later <= earlier + 1e-9 for earlier, later in zip(history, history[1:]))


def test_predict_proba_zero_weights_is_half():
    predictor = LogisticOutcomePredictor(
        weights=np.zeros(feature_width(2, 1)), bias=0.0, vocab_size=2, max_len=4, feature_dim=1
    )
    trace = make_encoded([1, 2], [[0.4], [0.6]], max_len=4)
    assert predictor.predict_proba_batch(*trace.frame) == [0.5]


def test_predict_proba_bounded_on_random_traces():
    data = _labeled_pair()
    predictor = train(data, epochs=200, seed=1)
    rng = np.random.default_rng(3)
    traces = []
    for _ in range(1000):
        length = int(rng.integers(1, 5))
        traces.append(
            make_encoded(rng.integers(1, 3, size=length).tolist(), rng.random((length, 1)), 4)
        )
    assert all(0.0 < p < 1.0 for p in predictor.predict_proba_batch(*log_of(traces).frame))


def test_evaluate_all_correct():
    data = _labeled_pair()
    predictor = train(data, epochs=300, seed=0)
    metrics = evaluate(predictor, data)
    assert (metrics.precision, metrics.recall, metrics.f1) == (1.0, 1.0, 1.0)
    assert not metrics.zero_division


def test_evaluate_degenerate_constant_predictor():
    data = _labeled_pair()
    metrics = evaluate(Constant(0.4), data)
    assert metrics.recall == 0.0
    assert metrics.f1 == 0.0
    assert metrics.zero_division


def test_evaluate_confusion_matrix_arithmetic():
    # TP=2, FP=1, FN=1 -> precision = recall = f1 = 2/3
    class Scripted:
        def __init__(self, outputs):
            self.outputs = list(outputs)
            self.calls = 0

        def predict_proba_batch(self, ids, features, lengths):
            self.calls += 1
            return self.outputs[: len(lengths)]

    traces = [
        make_encoded([1], [[0.1]], max_len=2, outcome=1),  # predicted 1 -> TP
        make_encoded([1], [[0.2]], max_len=2, outcome=1),  # predicted 1 -> TP
        make_encoded([1], [[0.3]], max_len=2, outcome=0),  # predicted 1 -> FP
        make_encoded([1], [[0.4]], max_len=2, outcome=1),  # predicted 0 -> FN
    ]
    predictor = Scripted([0.9, 0.9, 0.9, 0.1])
    metrics = evaluate(predictor, log_of(traces))
    assert predictor.calls == 1  # the whole split in one batch
    assert metrics.precision == pytest.approx(2 / 3)
    assert metrics.recall == pytest.approx(2 / 3)
    assert metrics.f1 == pytest.approx(2 / 3)


def test_f1_on_synthetic_planted_rule_log(synth_setup):
    metrics = evaluate(synth_setup["predictor"], synth_setup["test"])
    assert metrics.f1 >= 0.9


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
    traces = synth_setup["test"].take(slice(3))
    probs = predictor.predict_proba_batch(*traces.frame)
    assert probs == [min(0.9, 0.1 * t.valid_len) for t in traces]
    assert predictor.predict_proba_batch(*traces.take(slice(1)).frame) == probs[:1]


def test_logistic_batch_equals_per_trace(synth_setup):
    predictor = synth_setup["predictor"]
    traces = synth_setup["test"].take(slice(20))
    want = [reference_proba(predictor, t) for t in traces]
    assert predictor.predict_proba_batch(*traces.frame) == want


@settings(max_examples=200, deadline=None)
@given(
    k=st.sampled_from([1, 2, 5, 11]),
    d=st.sampled_from([0, 1, 3, 9, 12]),
    max_len=st.sampled_from([1, 2, 7, 25]),
    b=st.integers(1, 24),
    scale=st.sampled_from([0.01, 1.0, 40.0]),
    seed=st.integers(0, 2**32 - 1),
)
def test_batched_features_and_probabilities_equal_per_trace(k, d, max_len, b, scale, seed):
    # D > 8 and traces longer than 8 events reach numpy's pairwise sums;
    # a large weight scale saturates the sigmoid into the clip
    rng = np.random.default_rng(seed)
    traces = []
    for _ in range(b):
        length = int(rng.choice([1, max_len, rng.integers(1, max_len + 1)]))
        rows = rng.random((length, d)) * rng.choice([1e-3, 1.0, 1e3], size=d)
        traces.append(make_encoded(rng.integers(1, k + 1, size=length).tolist(), rows, max_len))
    phi = extract_features_batch(*log_of(traces).frame, k)
    assert phi.tobytes() == np.stack([extract_features(t, k) for t in traces]).tobytes()
    predictor = LogisticOutcomePredictor(
        weights=rng.normal(0.0, scale, size=feature_width(k, d)),
        bias=float(rng.normal(0.0, scale)),
        vocab_size=k,
        max_len=max_len,
        feature_dim=d,
    )
    assert predictor.predict_proba_batch(*log_of(traces).frame) == [
        reference_proba(predictor, t) for t in traces
    ]
    assert predictor.predict_proba_batch(*empty_frame(traces)) == []


def test_batched_features_reject_ids_outside_the_vocabulary():
    with pytest.raises(ValueError):
        extract_features_batch(*make_encoded([1, 3], [[0.1], [0.2]], 4).frame, 2)


def test_predictor_keeps_the_encoder_check(synth_setup):
    encoder = synth_setup["encoder"]
    predictor = synth_setup["predictor"]
    assert predictor.encoder_fingerprint == encoder.fingerprint()
    ViabilityScorer(synth_setup["test"][0], predictor, synth_setup["feas_model"])

    other_log = split_train_test(preprocess(synthesize_log(60, 4, seed=9), 25), 0.2, seed=9)[0]
    other_encoder = fit_encoder(other_log)
    assert other_encoder.fingerprint() != encoder.fingerprint()
    other_train = encode_log(other_log, other_encoder)
    with pytest.raises(ConfigurationError):
        ViabilityScorer(other_train[0], predictor, fit_markov(other_train, other_encoder))


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
        ("open(out_path, 'wb').write(b'\\xff\\xfe\\x00bad')\n", "wrote an unreadable scores file"),
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
        (
            "def proba(case_id):\n    return 0.5\ncases = cases + ['cand_999999']\n" + _WRITE_ROWS,
            "returned a score for case cand_999999, which it was not asked for",
        ),
    ],
    ids=[
        "exit-status", "no-output", "unreadable", "missing-case", "non-numeric", "out-of-range",
        "unknown-case",
    ],
)
def test_external_predictor_failures_are_predictor_errors(tmp_path, synth_setup, body, message):
    command = _bad_scorer(tmp_path, body)
    predictor = ExternalProcessPredictor(command, synth_setup["encoder"])
    with pytest.raises(PredictorError) as info:
        predictor.predict_proba_batch(*synth_setup["test"].take(slice(3)).frame)
    text = str(info.value)
    assert message in text
    assert command in text
    assert "\n" not in text


def test_external_predictor_missing_command_is_predictor_error(tmp_path, synth_setup):
    predictor = ExternalProcessPredictor(str(tmp_path / "no-such-scorer"), synth_setup["encoder"])
    with pytest.raises(PredictorError, match="could not be started"):
        predictor.predict_proba_batch(*synth_setup["test"].take(slice(1)).frame)


def test_external_predictor_timeout_is_predictor_error(tmp_path, synth_setup, monkeypatch):
    # one process: the scorer sleeps far past the timeout and is killed
    monkeypatch.setattr(predictor_mod, "EXTERNAL_TIMEOUT_S", 0.5)
    command = _bad_scorer(tmp_path, "import time\ntime.sleep(60)\n")
    predictor = ExternalProcessPredictor(command, synth_setup["encoder"])
    started = time.monotonic()
    with pytest.raises(PredictorError) as info:
        predictor.predict_proba_batch(*synth_setup["test"].take(slice(2)).frame)
    assert time.monotonic() - started < 30.0
    text = str(info.value)
    assert "timed out after 0.5 s" in text
    assert command in text
    assert "\n" not in text


def test_external_predictor_gets_no_stdin(tmp_path, synth_setup):
    # the scorer fails unless its stdin is /dev/null; evocf's own stdin is an
    # open pipe for the test, which a scorer reading stdin would block on
    command = _bad_scorer(
        tmp_path,
        "import os\n"
        "fd0, null = os.fstat(0), os.stat(os.devnull)\n"
        "if (fd0.st_dev, fd0.st_ino) != (null.st_dev, null.st_ino):\n"
        "    sys.exit(3)\n"
        "def proba(case_id):\n    return 0.5\n" + _WRITE_ROWS,
    )
    predictor = ExternalProcessPredictor(command, synth_setup["encoder"])
    saved = os.dup(0)
    read_end, write_end = os.pipe()
    try:
        os.dup2(read_end, 0)
        assert predictor.predict_proba_batch(*synth_setup["test"].take(slice(2)).frame) == [0.5, 0.5]
    finally:
        os.dup2(saved, 0)
        for fd in (saved, read_end, write_end):
            os.close(fd)


def test_external_predictor_empty_batch_starts_no_command(tmp_path, synth_setup):
    predictor = ExternalProcessPredictor(str(tmp_path / "no-such-scorer"), synth_setup["encoder"])
    assert predictor.predict_proba_batch(*synth_setup["test"].take(slice(0)).frame) == []


# ---------------------------------------------------------------------------
# the columnar candidates.csv writer against a per-trace writer of the
# scalar reference decode


def reference_candidates_csv(traces, spec):
    """candidates.csv written trace by trace from the scalar reference decode."""
    attr_names = [codec.name for codec in spec.codecs]
    handle = io.StringIO(newline="")
    writer = csv.writer(handle)
    writer.writerow(["case_id", "step", "activity", *attr_names])
    for i, enc in enumerate(traces):
        trace = reference_decode(
            EncodedTrace(enc.activity_ids, enc.features, enc.valid_len, enc.outcome, f"cand_{i}"),
            spec,
        )
        for step, event in enumerate(trace.events):
            writer.writerow(
                [
                    trace.case_id,
                    step,
                    event.activity,
                    *[event.attributes.get(n, "") for n in attr_names],
                ]
            )
    return handle.getvalue()


def columnar_candidates_csv(traces, spec):
    handle = io.StringIO(newline="")
    writer = csv.writer(handle)
    writer.writerow(["case_id", "step", "activity", *[codec.name for codec in spec.codecs]])
    case_ids = [f"cand_{i}" for i in range(len(traces))]
    writer.writerows(decode_rows(*log_of(traces).frame, case_ids, spec))
    return handle.getvalue()


_TOL = 1e-9
# entries of a categorical code around the decode tolerance: at it, and one
# float past it, on both sides of each bit
_NEAR_BITS = (
    _TOL,
    float(np.nextafter(_TOL, 1.0)),
    1.0 + _TOL,
    float(np.nextafter(1.0 + _TOL, 2.0)),
    1.0 - _TOL,
    float(np.nextafter(1.0 - _TOL, 0.0)),
)


def _code_row(codec, kind, rng):
    """One attribute's code: valid, absent, off-code, near-tolerance or random."""
    if isinstance(codec, NumericCodec):
        if kind == "edge":
            return [float(rng.choice([0.0, 1.0, -0.0]))]
        return [rng.random() if kind != "off" else rng.normal(0.5, 2.0)]
    width = codec.width
    if kind == "valid":
        return codec.encode([codec.categories[rng.integers(len(codec.categories))]])[0].tolist()
    if kind == "absent":
        return [0.0] * width
    if kind == "off":
        # a bit pattern past the last category, else an entry that is no bit
        if len(codec.categories) + 1 < 2**width:
            value = int(rng.integers(len(codec.categories) + 1, 2**width))
            return [float((value >> (width - 1 - b)) & 1) for b in range(width)]
        row = codec.encode(codec.categories[-1:])[0].tolist()
        row[int(rng.integers(width))] = float(rng.choice([2.0, -1.0]))
        return row
    if kind == "edge":
        bits = codec.encode([codec.categories[rng.integers(len(codec.categories))]])[0]
        row = bits.tolist()
        b = int(rng.integers(width))
        row[b] = float(rng.choice([v for v in _NEAR_BITS if (v > 0.5) == bool(bits[b])]))
        return row
    return rng.random(width).tolist()  # RI-style random row


@settings(max_examples=150, deadline=None)
@given(
    layout=st.sampled_from(["mixed", "numeric", "categorical", "none"]),
    n_categories=st.lists(st.integers(1, 7), min_size=1, max_size=3),
    zero_span=st.booleans(),
    max_len=st.integers(1, 9),
    b=st.integers(1, 12),
    seed=st.integers(0, 2**32 - 1),
)
def test_columnar_writer_equals_per_trace_writer(
    layout, n_categories, zero_span, max_len, b, seed
):
    rng = np.random.default_rng(seed)
    numeric = [
        NumericCodec("amount", -3.25, -3.25 if zero_span else 1e3 / 7),
        NumericCodec("t", 0.0, 1.0),
    ]
    categorical = [
        CategoricalCodec(f"c{i}", tuple(f"v{i}_{j}" for j in range(n)))
        for i, n in enumerate(n_categories)
    ]
    codecs = {
        "mixed": [numeric[0], *categorical, numeric[1]],
        "numeric": numeric,
        "categorical": categorical,
        "none": [],
    }[layout]
    spec = EncoderSpec({f"act{k}": k + 1 for k in range(4)}, tuple(codecs), max_len)
    traces = []
    for i in range(b):
        # the batch holds length 1 and length max_len next to random ones
        n = [1, max_len][i] if i < 2 else int(rng.integers(1, max_len + 1))
        features = np.zeros((max_len, spec.feature_dim))
        for t in range(n):
            kind = rng.choice(["valid", "absent", "off", "edge", "random"])
            features[t] = sum((_code_row(c, kind, rng) for c in codecs), [])
        ids = np.zeros(max_len, dtype=np.int64)
        ids[:n] = rng.integers(1, 5, size=n)
        traces.append(EncodedTrace(ids, features, n, 0, "c"))
    assert columnar_candidates_csv(traces, spec) == reference_candidates_csv(traces, spec)
    assert [decode(t, spec) for t in traces] == [reference_decode(t, spec) for t in traces]


def test_columnar_writer_keeps_the_decode_checks(synth_setup):
    spec = synth_setup["encoder"]
    good = synth_setup["test"][0]
    ids = good.activity_ids.copy()
    ids[good.valid_len - 1] = spec.vocab_size + 7
    unknown = EncodedTrace(ids, good.features, good.valid_len, 0, "u")
    for bad in ([good, unknown], [unknown]):
        with pytest.raises(VocabularyError, match=f"unknown activity id {spec.vocab_size + 7}"):
            list(decode_rows(*log_of(bad).frame, ["a", "b"][: len(bad)], spec))
    # a frame one cell wider than the encoder's, its second row filling it
    width = spec.max_len + 1
    ids = np.ones((2, width), dtype=np.int64)
    ids[0] = np.append(good.activity_ids, 0)
    features = np.zeros((2, width, spec.feature_dim))
    features[0, :-1] = good.features
    lengths = np.array([good.valid_len, width])
    with pytest.raises(VocabularyError, match="longer than encoder max_len"):
        list(decode_rows(ids, features, lengths, ["a", "b"], spec))
    assert list(decode_rows(*empty_frame([good]), [], spec)) == []


def test_external_predictor_writes_the_reference_candidates_csv(tmp_path, synth_setup):
    copy = tmp_path / "candidates.csv"
    command = _bad_scorer(
        tmp_path,
        f"import shutil\nshutil.copy(in_path, {str(copy)!r})\n"
        "def proba(case_id):\n    return 0.5\n" + _WRITE_ROWS,
    )
    traces = synth_setup["test"].take(slice(6))
    ExternalProcessPredictor(command, synth_setup["encoder"]).predict_proba_batch(*traces.frame)
    expected = reference_candidates_csv(traces, synth_setup["encoder"])
    assert copy.read_bytes() == expected.encode()
