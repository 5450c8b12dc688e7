"""Outcome predictors: the pluggable scoring interface plus a reference model.

The generation engine only needs `predict_proba_batch(ids, features,
lengths)`, one P(outcome=1) per row of a frame (event_log.Rows) in order;
any object with that method can drive it, and it is the only way the package
asks a predictor anything. The reference implementation is a logistic
regression over hand-built sequence features, trained from scratch with
full-batch gradient descent. An external process can be plugged in via a CSV
file protocol for models that live outside this package.
"""

from __future__ import annotations

import csv
import json
import shlex
import subprocess
import tempfile
import threading
from dataclasses import dataclass
from pathlib import Path
from typing import Protocol

import numpy as np

from .errors import PredictorError, TrainingError
from .event_log import EncodedLog, EncoderSpec, decode_rows

L2_COEFFICIENT = 1e-4
# a trace is predicted class 1 when P(outcome=1) exceeds this
DECISION_THRESHOLD = 0.5
# seconds one external scoring batch may take before the run stops
EXTERNAL_TIMEOUT_S = 600.0


class OutcomePredictor(Protocol):
    def predict_proba_batch(
        self, ids: np.ndarray, features: np.ndarray, lengths: np.ndarray
    ) -> list[float]:
        """P(outcome=1) of each row of the frame, in order, each in [0, 1]; [] for no rows."""
        ...


def feature_width(vocab_size: int, feature_dim: int) -> int:
    return 1 + vocab_size + vocab_size * vocab_size + feature_dim


def extract_features_batch(
    ids: np.ndarray, features: np.ndarray, lengths: np.ndarray, vocab_size: int
) -> np.ndarray:
    """Fixed-width summaries of the traces of a frame (event_log.Rows), one row per trace.

    A row concatenates the normalized length, the activity occurrence
    histogram, binary activity-bigram indicators and per-column attribute
    means over the valid prefix: width 1 + K + K^2 + D. Attribute means are
    summed per valid length: with D = 1 numpy sums a column pairwise, so
    padding rows would change the floats.
    """
    k = vocab_size
    b, max_len, d = features.shape
    valid = np.arange(max_len) < lengths[:, None]
    if not np.all((ids[valid] >= 1) & (ids[valid] <= k)):
        raise ValueError(f"activity id outside the vocabulary 1..{k}")
    phi = np.zeros((b, feature_width(k, d)))
    phi[:, 0] = lengths / max_len
    counts = np.bincount(np.nonzero(valid)[0] * k + ids[valid] - 1, minlength=b * k)
    phi[:, 1 : 1 + k] = counts.reshape(b, k) / lengths[:, None]
    rows, t = np.nonzero(np.arange(max_len - 1) < lengths[:, None] - 1)
    phi[rows, 1 + k + (ids[rows, t] - 1) * k + ids[rows, t + 1] - 1] = 1.0
    for n in set(lengths.tolist()):
        same = lengths == n
        phi[same, 1 + k + k * k :] = features[same, :n].sum(axis=1) / n
    return phi


def _sigmoid(z: np.ndarray) -> np.ndarray:
    e = np.exp(-np.abs(z))
    return np.where(z >= 0, 1.0 / (1.0 + e), e / (1.0 + e))


def loss_and_gradient(
    weights: np.ndarray,
    bias: float,
    features: np.ndarray,
    labels: np.ndarray,
) -> tuple[float, np.ndarray, float]:
    """Cross-entropy with L2_COEFFICIENT penalty on the weights; returns (loss, dw, db)."""
    z = features @ weights + bias
    # log(1 + exp(z)) - y*z is the stable form of the per-sample cross-entropy
    loss = float(np.mean(np.logaddexp(0.0, z) - labels * z)) + 0.5 * L2_COEFFICIENT * float(
        weights @ weights
    )
    residual = _sigmoid(z) - labels
    grad_w = features.T @ residual / len(labels) + L2_COEFFICIENT * weights
    grad_b = float(np.mean(residual))
    return loss, grad_w, grad_b


@dataclass(frozen=True)
class LogisticOutcomePredictor:
    weights: np.ndarray
    bias: float
    vocab_size: int
    max_len: int
    feature_dim: int
    encoder_fingerprint: tuple | None = None
    training_loss: tuple[float, ...] = ()

    def predict_proba_batch(self, ids, features, lengths) -> list[float]:
        phi = extract_features_batch(ids, features, lengths, self.vocab_size)
        # one 1 x W by W x 1 product per row, each the dot product a lone row
        # takes, so a trace's probability does not depend on its batch (the
        # 2-D phi @ weights sums in another order)
        z = (phi[:, np.newaxis] @ self.weights[:, np.newaxis])[:, 0, 0] + self.bias
        return np.clip(_sigmoid(z), 1e-12, 1.0 - 1e-12).tolist()

    def to_json(self) -> str:
        return json.dumps(
            {
                "weights": self.weights.tolist(),
                "bias": self.bias,
                "vocab_size": self.vocab_size,
                "max_len": self.max_len,
                "feature_dim": self.feature_dim,
                "encoder_fingerprint": self.encoder_fingerprint,
            },
            indent=2,
        )


def train(
    train_traces: EncodedLog,
    epochs: int = 500,
    learning_rate: float = 1.0,
    seed: int = 0,
    encoder: EncoderSpec | None = None,
) -> LogisticOutcomePredictor:
    """Fit the reference classifier by full-batch gradient descent.

    The step size halves whenever an update would increase the loss, so the
    training loss is non-increasing over epochs.
    """
    if not train_traces:
        raise TrainingError("empty training set")
    labels = train_traces.outcomes.astype(float)
    if len(set(labels.tolist())) < 2:
        raise TrainingError("training set contains a single outcome class")

    vocab_size = encoder.vocab_size if encoder is not None else int(train_traces.ids.max())
    features = extract_features_batch(*train_traces.frame, vocab_size)

    rng = np.random.default_rng(seed)
    weights = rng.normal(0.0, 0.01, size=features.shape[1])
    bias = 0.0
    step = learning_rate

    loss, grad_w, grad_b = loss_and_gradient(weights, bias, features, labels)
    history = [loss]
    for _ in range(epochs):
        while True:
            new_weights = weights - step * grad_w
            new_bias = bias - step * grad_b
            new_loss, new_grad_w, new_grad_b = loss_and_gradient(
                new_weights, new_bias, features, labels
            )
            if new_loss <= loss + 1e-12 or step < 1e-18:
                break
            step *= 0.5
        if new_loss > loss + 1e-12:
            break  # step exhausted; keep current parameters
        weights, bias, loss = new_weights, new_bias, new_loss
        grad_w, grad_b = new_grad_w, new_grad_b
        history.append(loss)

    return LogisticOutcomePredictor(
        weights=weights,
        bias=bias,
        vocab_size=vocab_size,
        max_len=train_traces.ids.shape[1],
        feature_dim=train_traces.features.shape[2],
        encoder_fingerprint=encoder.fingerprint() if encoder is not None else None,
        training_loss=tuple(history),
    )


@dataclass(frozen=True)
class PredictionMetrics:
    precision: float
    recall: float
    f1: float
    support_positive: int
    support_negative: int
    zero_division: bool = False


def evaluate(predictor: OutcomePredictor, test: EncodedLog) -> PredictionMetrics:
    """Precision/recall/F1 for class 1 at DECISION_THRESHOLD; zero divisions flag as 0."""
    if not test:
        raise ValueError("test set must be non-empty")
    labels = test.outcomes
    predictions = np.array(predictor.predict_proba_batch(*test.frame)) > DECISION_THRESHOLD
    tp = int(np.sum((predictions == 1) & (labels == 1)))
    fp = int(np.sum((predictions == 1) & (labels == 0)))
    fn = int(np.sum((predictions == 0) & (labels == 1)))

    zero_division = False
    if tp + fp == 0:
        precision, zero_division = 0.0, True
    else:
        precision = tp / (tp + fp)
    if tp + fn == 0:
        recall, zero_division = 0.0, True
    else:
        recall = tp / (tp + fn)
    if precision + recall == 0.0:
        f1, zero_division = 0.0, True
    else:
        f1 = 2 * precision * recall / (precision + recall)
    return PredictionMetrics(
        precision=precision,
        recall=recall,
        f1=f1,
        support_positive=int(np.sum(labels == 1)),
        support_negative=int(np.sum(labels == 0)),
        zero_division=zero_division,
    )


class ExternalProcessPredictor:
    """Scores the rows of a frame through an external command via a CSV file protocol.

    For each batch the engine writes `candidates.csv` (decoded events, columns
    case_id, step, activity, then one column per attribute) and invokes
    `command <candidates.csv> <scores.csv>` with stdin on /dev/null; an empty
    batch starts no command. The command must write back a CSV with
    header `case_id,proba` holding one probability in [0, 1] per case, each
    case once and no other case.
    Any failure of the command or of its output, or a batch that runs longer
    than EXTERNAL_TIMEOUT_S seconds (the command is then killed), raises
    PredictorError naming the command and the case at fault.
    """

    def __init__(self, command: str, encoder: EncoderSpec):
        self.command = command
        self.argv = shlex.split(command)
        self.encoder = encoder

    def predict_proba_batch(self, ids, features, lengths) -> list[float]:
        if not len(lengths):
            return []
        attr_names = [codec.name for codec in self.encoder.codecs]
        case_ids = [f"cand_{i}" for i in range(len(lengths))]
        with tempfile.TemporaryDirectory(prefix="evocf-ext-") as tmp:
            in_path = Path(tmp) / "candidates.csv"
            out_path = Path(tmp) / "scores.csv"
            with in_path.open("w", newline="") as handle:
                writer = csv.writer(handle)
                writer.writerow(["case_id", "step", "activity", *attr_names])
                writer.writerows(decode_rows(ids, features, lengths, case_ids, self.encoder))
            self._run([*self.argv, str(in_path), str(out_path)])
            raw = {}
            try:
                with out_path.open(newline="") as handle:
                    for row in csv.DictReader(handle):
                        case_id = row.get("case_id")
                        if case_id is not None and case_id in raw:
                            raise self._error(f"returned more than one score for case {case_id}")
                        raw[case_id] = row.get("proba")
            except OSError:
                raise self._error("wrote no scores file") from None
            except (UnicodeDecodeError, csv.Error) as exc:
                raise self._error(f"wrote an unreadable scores file: {exc}") from None
        if len(raw) > len(case_ids):  # so at least one case it answered was not asked for
            unknown = next(case_id for case_id in raw if case_id not in case_ids)
            raise self._error(f"returned a score for case {unknown}, which it was not asked for")
        return [self._probability(case_id, raw) for case_id in case_ids]

    def _run(self, argv: list[str]) -> None:
        # a blocking wait sees the exit at once; subprocess.run(timeout=...)
        # polls with sleeps of up to 50 ms, which every batch would pay
        try:
            process = subprocess.Popen(argv, stdin=subprocess.DEVNULL)
        except OSError as exc:
            raise self._error(f"could not be started: {exc.strerror or exc}") from None
        timeout_s = EXTERNAL_TIMEOUT_S
        expired = threading.Event()

        def expire():
            expired.set()
            process.kill()

        timer = threading.Timer(timeout_s, expire)
        with process:
            timer.start()
            try:
                returncode = process.wait()
            except BaseException:
                process.kill()
                raise
            finally:
                timer.cancel()
        if expired.is_set():
            raise self._error(f"timed out after {timeout_s:g} s")
        if returncode != 0:
            raise self._error(f"exited with status {returncode}")

    def _probability(self, case_id: str, raw: dict) -> float:
        if case_id not in raw:
            raise self._error(f"returned no score for case {case_id}")
        try:
            p = float(raw[case_id])
        except (TypeError, ValueError):
            raise self._error(
                f"returned a non-numeric proba {raw[case_id]!r} for case {case_id}"
            ) from None
        if not 0.0 <= p <= 1.0:
            raise self._error(f"returned proba {p!r} outside [0, 1] for case {case_id}")
        return p

    def _error(self, problem: str) -> PredictorError:
        return PredictorError(f"external predictor {self.command!r} {problem}")
