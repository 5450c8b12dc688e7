"""The four-part viability score and its edit-distance machinery.

Distance between two multivariate sequences is a cost-weighted
Damerau-Levenshtein dynamic program over the unpadded prefixes: deletions and
insertions pay the cost of the consumed event against the empty vector,
matching activities pay the feature-space cost between the two events,
mismatching activities pay a full delete-plus-insert, and adjacent
transpositions pay the crosswise feature costs. Two cost functions are
supported: scaled euclidean distance between full feature rows (similarity)
and the fraction of attributes whose encoded sub-vectors differ (sparsity).

Both per-event costs are capped at 1 per consumed element, so the distance
never exceeds |a| + |b|; similarity and sparsity scores normalize by that
bound. Delta is the signed change of the predicted probability of the
factual's outcome class. Total viability is the plain sum of the four parts.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Literal

import numpy as np

from . import markov as markov_mod
from .errors import ConfigurationError
from .event_log import EncodedTrace
from .markov import MarkovFeasibilityModel
from .predictor import OutcomePredictor

CostKind = Literal["euclidean", "count"]

FEATURE_DIFF_TOLERANCE = 1e-9
_BACKTRACE_TOLERANCE = 1e-9


@dataclass(frozen=True)
class ViabilityScore:
    similarity: float
    sparsity: float
    feasibility: float
    delta: float
    total: float

    @classmethod
    def combine(
        cls, similarity: float, sparsity: float, feasibility: float, delta: float
    ) -> "ViabilityScore":
        return cls(
            similarity=similarity,
            sparsity=sparsity,
            feasibility=feasibility,
            delta=delta,
            total=similarity + sparsity + feasibility + delta,
        )


@dataclass(frozen=True)
class EditOp:
    """One alignment step; i and j are 1-based positions, 0 when unused.

    A transpose covers positions (i-1, i) of the first sequence aligned
    crosswise to (j-1, j) of the second.
    """

    kind: str  # match | substitute | delete | insert | transpose
    i: int
    j: int
    cost: float


@dataclass(frozen=True)
class EditAlignment:
    ops: tuple[EditOp, ...]
    total_cost: float


def _euclidean_costs(a: EncodedTrace, b: EncodedTrace):
    n, m = a.valid_len, b.valid_len
    av = a.features[:n]
    bv = b.features[:m]
    d = av.shape[1]
    if d == 0:
        zero_nm = np.zeros((n, m))
        return zero_nm, np.zeros(n), np.zeros(m)
    scale = 1.0 / np.sqrt(d)
    diff = av[:, None, :] - bv[None, :, :]
    pair = np.sqrt((diff * diff).sum(axis=-1)) * scale
    delete = np.sqrt((av * av).sum(axis=-1)) * scale
    insert = np.sqrt((bv * bv).sum(axis=-1)) * scale
    return pair, delete, insert


def _count_costs(a: EncodedTrace, b: EncodedTrace, slices):
    n, m = a.valid_len, b.valid_len
    av = a.features[:n]
    bv = b.features[:m]
    n_attrs = len(slices)
    pair = np.zeros((n, m))
    if n_attrs > 0:
        for _, cols in slices:
            differs = (
                np.abs(av[:, None, cols] - bv[None, :, cols]) > FEATURE_DIFF_TOLERANCE
            ).any(axis=-1)
            pair += differs
        pair /= n_attrs
    # against the empty vector every attribute counts as different
    return pair, np.ones(n), np.ones(m)


def _cost_matrices(a: EncodedTrace, b: EncodedTrace, cost_kind: CostKind, slices=None):
    if cost_kind == "euclidean":
        return _euclidean_costs(a, b)
    if cost_kind == "count":
        if slices is None:
            slices = _infer_slices(a)
        return _count_costs(a, b, slices)
    raise ValueError(f"unknown cost kind {cost_kind!r}")


def _infer_slices(a: EncodedTrace):
    # without an encoder, treat every feature column as its own attribute
    return tuple((None, slice(c, c + 1)) for c in range(a.features.shape[1]))


def _dp_table(a: EncodedTrace, b: EncodedTrace, cost_kind: CostKind, slices=None):
    acts_a = a.activity_ids[: a.valid_len].tolist()
    acts_b = b.activity_ids[: b.valid_len].tolist()
    pair_np, delete_np, insert_np = _cost_matrices(a, b, cost_kind, slices)
    pair = pair_np.tolist()
    delete = delete_np.tolist()
    insert = insert_np.tolist()
    n, m = len(acts_a), len(acts_b)

    d = [[0.0] * (m + 1) for _ in range(n + 1)]
    for i in range(1, n + 1):
        d[i][0] = d[i - 1][0] + delete[i - 1]
    for j in range(1, m + 1):
        d[0][j] = d[0][j - 1] + insert[j - 1]
    for i in range(1, n + 1):
        row = d[i]
        prev = d[i - 1]
        ai = acts_a[i - 1]
        pair_i = pair[i - 1]
        del_i = delete[i - 1]
        for j in range(1, m + 1):
            best = prev[j] + del_i
            cand = row[j - 1] + insert[j - 1]
            if cand < best:
                best = cand
            if ai == acts_b[j - 1]:
                cand = prev[j - 1] + pair_i[j - 1]
            else:
                cand = prev[j - 1] + del_i + insert[j - 1]
            if cand < best:
                best = cand
            if (
                i > 1
                and j > 1
                and ai == acts_b[j - 2]
                and acts_a[i - 2] == acts_b[j - 1]
            ):
                cand = d[i - 2][j - 2] + pair_i[j - 2] + pair[i - 2][j - 1]
                if cand < best:
                    best = cand
            row[j] = best
    return d, pair, delete, insert, acts_a, acts_b


def ssdld_distance(
    a: EncodedTrace, b: EncodedTrace, cost_kind: CostKind, slices=None
) -> float:
    """Distance only; skips the alignment backtrace."""
    d, *_ = _dp_table(a, b, cost_kind, slices)
    return d[a.valid_len][b.valid_len]


def ssdld(
    a: EncodedTrace, b: EncodedTrace, cost_kind: CostKind, slices=None
) -> tuple[float, EditAlignment]:
    """Weighted Damerau-Levenshtein distance and its edit script.

    Backtrace ties are broken in the fixed order match/substitute, transpose,
    delete, insert, so alignments are deterministic.
    """
    d, pair, delete, insert, acts_a, acts_b = _dp_table(a, b, cost_kind, slices)
    n, m = len(acts_a), len(acts_b)
    ops: list[EditOp] = []
    i, j = n, m
    tol = _BACKTRACE_TOLERANCE
    while i > 0 or j > 0:
        here = d[i][j]
        if i > 0 and j > 0:
            if acts_a[i - 1] == acts_b[j - 1]:
                cost = pair[i - 1][j - 1]
                if abs(d[i - 1][j - 1] + cost - here) <= tol:
                    ops.append(EditOp("match", i, j, cost))
                    i, j = i - 1, j - 1
                    continue
            else:
                cost = delete[i - 1] + insert[j - 1]
                if abs(d[i - 1][j - 1] + cost - here) <= tol:
                    ops.append(EditOp("substitute", i, j, cost))
                    i, j = i - 1, j - 1
                    continue
        if (
            i > 1
            and j > 1
            and acts_a[i - 1] == acts_b[j - 2]
            and acts_a[i - 2] == acts_b[j - 1]
        ):
            cost = pair[i - 1][j - 2] + pair[i - 2][j - 1]
            if abs(d[i - 2][j - 2] + cost - here) <= tol:
                ops.append(EditOp("transpose", i, j, cost))
                i, j = i - 2, j - 2
                continue
        if i > 0 and abs(d[i - 1][j] + delete[i - 1] - here) <= tol:
            ops.append(EditOp("delete", i, 0, delete[i - 1]))
            i -= 1
            continue
        if j > 0 and abs(d[i][j - 1] + insert[j - 1] - here) <= tol:
            ops.append(EditOp("insert", 0, j, insert[j - 1]))
            j -= 1
            continue
        raise AssertionError("backtrace failed to reproduce the DP value")
    ops.reverse()
    return d[n][m], EditAlignment(tuple(ops), d[n][m])


def similarity_score(factual: EncodedTrace, candidate: EncodedTrace, slices=None) -> float:
    """1 - euclidean edit distance normalized by the attained bound |a| + |b|."""
    distance = ssdld_distance(factual, candidate, "euclidean", slices)
    return 1.0 - distance / (factual.valid_len + candidate.valid_len)


def sparsity_score(factual: EncodedTrace, candidate: EncodedTrace, slices=None) -> float:
    """Like similarity_score, but counting differing attributes as the cost."""
    distance = ssdld_distance(factual, candidate, "count", slices)
    return 1.0 - distance / (factual.valid_len + candidate.valid_len)


def delta_score(p_factual: float, p_counterfactual: float) -> float:
    """Signed probability shift of the factual outcome class, in [-1, 1].

    The paper's four branches over the 0.5 threshold all reduce to
    p_factual minus p_counterfactual. It is written negated so that a tie
    gives -0.0, the value the branches gave, and reports stay byte-identical.
    """
    for name, value in (("p_factual", p_factual), ("p_counterfactual", p_counterfactual)):
        if not 0.0 <= value <= 1.0:
            raise ValueError(f"{name} outside [0, 1]: {value}")
    return -(p_counterfactual - p_factual)


class ViabilityScorer:
    """Scores candidates against one factual with a fixed predictor and model.

    The factual's predicted outcome class and probability are computed once;
    the per-attribute feature slices come from the feasibility model's
    encoder so the count cost sees real attribute boundaries.

    Scores are memoized for the life of the scorer, keyed on the candidate's
    valid prefix: every component reads only that prefix (all candidates
    share the encoder's frame width), so a repeated genome gets the score it
    got the first time without being scored again.
    """

    def __init__(
        self,
        factual: EncodedTrace,
        predictor: OutcomePredictor,
        feas_model: MarkovFeasibilityModel,
    ):
        encoder = feas_model.encoder
        if factual.features.shape[1] != encoder.feature_dim or factual.max_len != encoder.max_len:
            raise ConfigurationError(
                "factual trace shape does not match the feasibility model's encoder"
            )
        predictor_fp = getattr(predictor, "encoder_fingerprint", None)
        if predictor_fp is not None and predictor_fp != encoder.fingerprint():
            raise ConfigurationError("predictor and feasibility model use different encoders")
        self.factual = factual
        self.predictor = predictor
        self.feas_model = feas_model
        self.slices = encoder.slices()
        self._memo: dict[tuple, ViabilityScore] = {}
        p1 = predictor.predict_proba(factual)
        self.factual_class = 1 if p1 > 0.5 else 0
        self.p_factual = p1 if self.factual_class == 1 else 1.0 - p1

    def _class_probabilities(self, traces: list[EncodedTrace]) -> list[float]:
        """P(factual's outcome class | trace) for each trace, one predictor call.

        predict_proba alone satisfies the OutcomePredictor protocol; a
        predictor without predict_proba_batch is asked trace by trace.
        """
        batch = getattr(self.predictor, "predict_proba_batch", None)
        if batch is not None:
            p1s = batch(traces)
        else:
            p1s = [self.predictor.predict_proba(trace) for trace in traces]
        return [p1 if self.factual_class == 1 else 1.0 - p1 for p1 in p1s]

    def score_batch(self, candidates: list[EncodedTrace]) -> list[ViabilityScore]:
        """Score candidates in order; each distinct genome is scored once."""
        memo = self._memo
        keys = []
        misses: dict[tuple, EncodedTrace] = {}
        for candidate in candidates:
            n = candidate.valid_len
            key = (n, candidate.activity_ids[:n].tobytes(), candidate.features[:n].tobytes())
            keys.append(key)
            if key not in memo and key not in misses:
                misses[key] = candidate
        if misses:
            probabilities = self._class_probabilities(list(misses.values()))
            for (key, candidate), probability in zip(
                misses.items(), probabilities, strict=True
            ):
                memo[key] = ViabilityScore.combine(
                    similarity=similarity_score(self.factual, candidate, self.slices),
                    sparsity=sparsity_score(self.factual, candidate, self.slices),
                    feasibility=markov_mod.feasibility(self.feas_model, candidate),
                    delta=delta_score(self.p_factual, probability),
                )
        return [memo[key] for key in keys]

    def score(self, candidate: EncodedTrace) -> ViabilityScore:
        return self.score_batch([candidate])[0]


def viability(
    factual: EncodedTrace,
    candidate: EncodedTrace,
    predictor: OutcomePredictor,
    feas_model: MarkovFeasibilityModel,
) -> ViabilityScore:
    """Score one candidate; see ViabilityScorer for repeated scoring."""
    return ViabilityScorer(factual, predictor, feas_model).score(candidate)
