"""Outcome predictors: the pluggable scoring interface plus a reference model.

The generation engine only needs `predict_proba(trace) -> P(outcome=1)`; any
object satisfying that contract can drive it. The reference implementation is
a logistic regression over hand-built sequence features, trained from scratch
with full-batch gradient descent. An external process can be plugged in via a
CSV file protocol for models that live outside this package.
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
from typing import Protocol, runtime_checkable

import numpy as np

from .errors import PredictorError, TrainingError
from .event_log import EncodedTrace, EncoderSpec, decode

L2_COEFFICIENT = 1e-4
# seconds one external scoring batch may take before the run stops
EXTERNAL_TIMEOUT_S = 600.0


@runtime_checkable
class OutcomePredictor(Protocol):
    def predict_proba(self, trace: EncodedTrace) -> float:
        """Probability that the trace's outcome is class 1, in (0, 1)."""
        ...


@dataclass(frozen=True)
class ConstantPredictor:
    """Stub predictor returning a fixed probability; used to isolate the engine."""

    probability: float = 0.5

    def predict_proba(self, trace: EncodedTrace) -> float:
        return self.probability


def feature_width(vocab_size: int, feature_dim: int) -> int:
    return 1 + vocab_size + vocab_size * vocab_size + feature_dim


def extract_features(trace: EncodedTrace, vocab_size: int) -> np.ndarray:
    """Fixed-width summary of a trace for the reference classifier.

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


def _sigmoid(z: np.ndarray) -> np.ndarray:
    out = np.empty_like(z, dtype=float)
    positive = z >= 0
    out[positive] = 1.0 / (1.0 + np.exp(-z[positive]))
    exp_z = np.exp(z[~positive])
    out[~positive] = exp_z / (1.0 + exp_z)
    return out


def loss_and_gradient(
    weights: np.ndarray,
    bias: float,
    features: np.ndarray,
    labels: np.ndarray,
    l2: float = L2_COEFFICIENT,
) -> tuple[float, np.ndarray, float]:
    """Cross-entropy with L2 penalty on the weights; returns (loss, dw, db)."""
    z = features @ weights + bias
    # log(1 + exp(z)) - y*z is the stable form of the per-sample cross-entropy
    loss = float(np.mean(np.logaddexp(0.0, z) - labels * z)) + 0.5 * l2 * float(
        weights @ weights
    )
    residual = _sigmoid(z) - labels
    grad_w = features.T @ residual / len(labels) + l2 * weights
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

    def predict_proba(self, trace: EncodedTrace) -> float:
        phi = extract_features(trace, self.vocab_size)
        p = float(_sigmoid(np.array([phi @ self.weights + self.bias]))[0])
        return min(max(p, 1e-12), 1.0 - 1e-12)

    def predict_proba_batch(self, traces: list[EncodedTrace]) -> list[float]:
        # row by row on purpose: a stacked matmul sums in another order and
        # can differ from predict_proba in the last bit
        return [self.predict_proba(trace) for trace in traces]

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

    @classmethod
    def from_json(cls, text: str) -> "LogisticOutcomePredictor":
        raw = json.loads(text)
        fingerprint = raw.get("encoder_fingerprint")
        return cls(
            weights=np.array(raw["weights"], dtype=float),
            bias=float(raw["bias"]),
            vocab_size=int(raw["vocab_size"]),
            max_len=int(raw["max_len"]),
            feature_dim=int(raw["feature_dim"]),
            encoder_fingerprint=None if fingerprint is None else _as_tuples(fingerprint),
        )


def _as_tuples(value):
    """Turn JSON lists back into the nested tuples of EncoderSpec.fingerprint."""
    if isinstance(value, list):
        return tuple(_as_tuples(item) for item in value)
    return value


def train(
    train_traces: list[EncodedTrace],
    epochs: int = 500,
    learning_rate: float = 1.0,
    seed: int = 0,
    l2: float = L2_COEFFICIENT,
    encoder: EncoderSpec | None = None,
) -> LogisticOutcomePredictor:
    """Fit the reference classifier by full-batch gradient descent.

    The step size halves whenever an update would increase the loss, so the
    training loss is non-increasing over epochs.
    """
    if not train_traces:
        raise TrainingError("empty training set")
    labels = np.array([t.outcome for t in train_traces], dtype=float)
    if len(set(labels.tolist())) < 2:
        raise TrainingError("training set contains a single outcome class")

    vocab_size = encoder.vocab_size if encoder is not None else int(
        max(t.activity_ids.max() for t in train_traces)
    )
    features = np.stack([extract_features(t, vocab_size) for t in train_traces])

    rng = np.random.default_rng(seed)
    weights = rng.normal(0.0, 0.01, size=features.shape[1])
    bias = 0.0
    step = learning_rate

    loss, grad_w, grad_b = loss_and_gradient(weights, bias, features, labels, l2)
    history = [loss]
    for _ in range(epochs):
        while True:
            new_weights = weights - step * grad_w
            new_bias = bias - step * grad_b
            new_loss, new_grad_w, new_grad_b = loss_and_gradient(
                new_weights, new_bias, features, labels, l2
            )
            if new_loss <= loss + 1e-12 or step < 1e-18:
                break
            step *= 0.5
        if new_loss > loss + 1e-12:
            break  # step exhausted; keep current parameters
        weights, bias, loss = new_weights, new_bias, new_loss
        grad_w, grad_b = new_grad_w, new_grad_b
        history.append(loss)

    sample = train_traces[0]
    return LogisticOutcomePredictor(
        weights=weights,
        bias=bias,
        vocab_size=vocab_size,
        max_len=sample.max_len,
        feature_dim=sample.features.shape[1],
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


def evaluate(
    predictor: OutcomePredictor, test: list[EncodedTrace], threshold: float = 0.5
) -> PredictionMetrics:
    """Precision/recall/F1 for class 1 at the threshold; zero divisions flag as 0."""
    if not test:
        raise ValueError("test set must be non-empty")
    labels = np.array([t.outcome for t in test])
    predictions = np.array(
        [1 if predictor.predict_proba(t) > threshold else 0 for t in test]
    )
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
    """Scores traces through an external command via a CSV file protocol.

    For each batch the engine writes `candidates.csv` (decoded events, columns
    case_id, step, activity, then one column per attribute) and invokes
    `command <candidates.csv> <scores.csv>`. The command must write back a CSV
    with header `case_id,proba` holding one probability in [0, 1] per case.
    Any failure of the command or of its output, or a batch that runs longer
    than EXTERNAL_TIMEOUT_S seconds (the command is then killed), raises
    PredictorError naming the command and the case at fault.
    """

    def __init__(self, command: str, encoder: EncoderSpec):
        self.command = command
        self.argv = shlex.split(command)
        self.encoder = encoder

    def predict_proba(self, trace: EncodedTrace) -> float:
        return self.predict_proba_batch([trace])[0]

    def predict_proba_batch(self, traces: list[EncodedTrace]) -> list[float]:
        attr_names = [codec.name for codec in self.encoder.codecs]
        case_ids = [f"cand_{i}" for i in range(len(traces))]
        with tempfile.TemporaryDirectory(prefix="evocf-ext-") as tmp:
            in_path = Path(tmp) / "candidates.csv"
            out_path = Path(tmp) / "scores.csv"
            with in_path.open("w", newline="") as handle:
                writer = csv.writer(handle)
                writer.writerow(["case_id", "step", "activity", *attr_names])
                for case_id, enc in zip(case_ids, traces):
                    trace = decode(
                        EncodedTrace(
                            enc.activity_ids, enc.features, enc.valid_len, enc.outcome, case_id
                        ),
                        self.encoder,
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
            self._run([*self.argv, str(in_path), str(out_path)])
            try:
                with out_path.open(newline="") as handle:
                    raw = {row.get("case_id"): row.get("proba") for row in csv.DictReader(handle)}
            except OSError:
                raise self._error("wrote no scores file") from None
        return [self._probability(case_id, raw) for case_id in case_ids]

    def _run(self, argv: list[str]) -> None:
        # a blocking wait sees the exit at once; subprocess.run(timeout=...)
        # polls with sleeps of up to 50 ms, which every batch would pay
        try:
            process = subprocess.Popen(argv)
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
