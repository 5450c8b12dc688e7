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

The scalar DP (ssdld, ssdld_distance) keeps the alignment backtrace and is
the reference; scoring runs edit_distances, which sweeps both cost kinds for
a block of candidates along anti-diagonals and adds every cell's terms in the
scalar order, so its distances are the same floats.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Literal

import numpy as np
from numpy.lib.stride_tricks import as_strided

from . import markov as markov_mod
from .errors import ConfigurationError
from .event_log import EncodedTrace
from .markov import MarkovFeasibilityModel
from .predictor import DECISION_THRESHOLD, OutcomePredictor

CostKind = Literal["euclidean", "count"]

FEATURE_DIFF_TOLERANCE = 1e-9
_BACKTRACE_TOLERANCE = 1e-9

# candidates per wavefront sweep; the sweep's cost tables grow with it, so a
# fixed block bounds memory whatever the size of a scoring batch
_BLOCK = 32


@dataclass(frozen=True)
class ViabilityScore:
    similarity: float
    sparsity: float
    feasibility: float
    delta: float
    total: float


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
    return d[n][m], EditAlignment(tuple(ops))


def _match_costs(factual: EncodedTrace, feats: np.ndarray, same: np.ndarray, slices):
    """Both cost kinds of the factual against a padded block feats (B, M, D).

    same (n, M, B) marks the cells where the factual event and the candidate
    event share their activity: the DP reads a pair cost there and nowhere
    else, so only those cells are computed, as one (P, D) gather; the others
    stay 0. Returns pair (n+1, M+1, 2B), delete (n, 2B) and insert (M+1, 2B),
    indexed by 1-based event positions (pair row and column 0, insert row 0
    unused) and by column: euclidean in the first B, count in the last B.
    Every entry comes from the expression _euclidean_costs or _count_costs
    evaluates for one pair, with the feature reduction on the same
    contiguous last axis, so the floats are equal.
    """
    n = factual.valid_len
    av = factual.features[:n]
    b, m, d = feats.shape
    pair = np.zeros((n + 1, m + 1, 2 * b))
    delete = np.ones((n, 2 * b))
    insert = np.ones((m + 1, 2 * b))
    i, j, lane = np.nonzero(same)
    diff = av[i] - feats[lane, j]
    differs = np.abs(diff) > FEATURE_DIFF_TOLERANCE
    if d:
        scale = 1.0 / np.sqrt(d)
        diff *= diff
        pair[i + 1, j + 1, lane] = np.sqrt(diff.sum(axis=-1)) * scale
        delete[:, :b] = (np.sqrt((av * av).sum(axis=-1)) * scale)[:, None]
        insert[1:, :b] = (np.sqrt((feats * feats).sum(axis=-1)) * scale).T
    else:
        # no features: every euclidean cost is 0, as in _euclidean_costs
        delete[:, :b] = 0.0
        insert[:, :b] = 0.0
    if slices:
        count = np.zeros(len(lane))
        for _, cols in slices:
            count += differs[:, cols].any(axis=-1)
        count /= len(slices)
        pair[i + 1, j + 1, lane + b] = count
    return pair, delete, insert


def _by_diagonal(table: np.ndarray) -> np.ndarray:
    """Read-only view of a (n+1, M+1, ...) table: out[k, i] = table[i, k - i].

    Only entries with 0 <= k - i <= M are cells of the table (the others alias
    neighbouring cells and are never read), so anti-diagonal k is a slice.
    """
    rows, cols, *trail = table.shape
    row_stride, col_stride, *trail_strides = table.strides
    return as_strided(
        table,
        shape=(rows + cols - 1, rows, *trail),
        strides=(col_stride, row_stride - col_stride, *trail_strides),
        writeable=False,
    )


def _wavefront(factual: EncodedTrace, block: list[EncodedTrace], slices):
    """Euclidean and count distances of one block, one anti-diagonal at a time.

    The 2B DPs (both kinds of every candidate) are the last, contiguous axis.
    Candidates are padded to the block's longest prefix; a DP's distance is
    read at (n, m_b), which no padded cell feeds. Each cell adds the terms of
    _dp_table in the same order and keeps the smaller candidate, so every
    distance equals ssdld_distance.
    """
    n = factual.valid_len
    lengths = np.array([candidate.valid_len for candidate in block])
    b, m, d = len(block), int(lengths.max()), factual.features.shape[1]
    acts = np.zeros((b, m), dtype=np.int64)
    feats = np.zeros((b, m, d))
    for row, candidate in enumerate(block):
        acts[row, : candidate.valid_len] = candidate.activity_ids[: candidate.valid_len]
        feats[row, : candidate.valid_len] = candidate.features[: candidate.valid_len]
    same = factual.activity_ids[:n, None, None] == acts.T[None]
    pair, delete, insert = _match_costs(factual, feats, same, slices)
    match = np.zeros((n + 1, m + 1, 2 * b), dtype=bool)
    match[1:, 1:] = np.tile(same, 2)
    swap = np.zeros_like(match)
    swap[2:, 2:] = match[2:, 1:-1] & match[1:-1, 2:]
    has_swap = np.zeros(n + m + 1, dtype=bool)
    swap_i, swap_j = np.nonzero(swap.any(axis=-1))
    has_swap[swap_i + swap_j] = True
    pair_k, match_k, swap_k = _by_diagonal(pair), _by_diagonal(match), _by_diagonal(swap)

    # the DP table stored by anti-diagonal, dp_k[k, i] = D[i][k - i], so each
    # diagonal is contiguous; D[i][0] and D[0][j] are running sums
    dp_k = np.zeros((n + m + 1, n + 1, 2 * b))
    dp_k[1 : m + 1, 0] = np.cumsum(insert[1:], axis=0)
    border = np.arange(1, n + 1)
    dp_k[border, border] = np.cumsum(delete, axis=0)
    for k in range(2, n + m + 1):
        lo, hi = max(1, k - m), min(n, k - 1) + 1
        previous, diagonal = dp_k[k - 1], dp_k[k - 2]
        del_i = delete[lo - 1 : hi - 1]
        ins_j = insert[k - lo : k - hi : -1]
        diag = diagonal[lo - 1 : hi - 1]
        best = dp_k[k, lo:hi]
        np.minimum(previous[lo - 1 : hi - 1] + del_i, previous[lo:hi] + ins_j, out=best)
        # (diag + del_i) + ins_j on a mismatch, diag + pair on a match
        through = diag + del_i
        through += ins_j
        np.add(diag, pair_k[k, lo:hi], out=through, where=match_k[k, lo:hi])
        np.minimum(best, through, out=best)
        if has_swap[k]:
            s_lo, s_hi = max(2, lo), min(hi, k - 1)
            # (D[i-2][j-2] + pair[i-1][j-2]) + pair[i-2][j-1], 0-based pair
            cand = dp_k[k - 4, s_lo - 2 : s_hi - 2] + pair_k[k - 1, s_lo:s_hi]
            cand += pair_k[k - 1, s_lo - 1 : s_hi - 1]
            kept = best[s_lo - lo : s_hi - lo]
            np.copyto(kept, cand, where=swap_k[k, s_lo:s_hi] & (cand < kept))
    distances = dp_k[n + np.tile(lengths, 2), n, np.arange(2 * b)]
    return distances[:b], distances[b:]


def edit_distances(
    factual: EncodedTrace, candidates: list[EncodedTrace], slices=None
) -> tuple[np.ndarray, np.ndarray]:
    """ssdld_distance of the factual to each candidate, for both cost kinds.

    Returns (euclidean, count) as float arrays in candidate order, equal to
    ssdld_distance(factual, c, kind, slices). Candidates are swept in blocks
    of _BLOCK, shortest first so a block pads little, which bounds memory
    for any batch size.
    """
    if slices is None:
        slices = _infer_slices(factual)
    order = sorted(range(len(candidates)), key=lambda r: candidates[r].valid_len)
    euclidean = np.empty(len(candidates))
    count = np.empty(len(candidates))
    for start in range(0, len(order), _BLOCK):
        rows = order[start : start + _BLOCK]
        euclidean[rows], count[rows] = _wavefront(
            factual, [candidates[r] for r in rows], slices
        )
    return euclidean, count


def _normalized(distance: float, factual: EncodedTrace, candidate: EncodedTrace) -> float:
    """1 - distance normalized by the attained bound |a| + |b|."""
    return 1.0 - distance / (factual.valid_len + candidate.valid_len)


def similarity_score(factual: EncodedTrace, candidate: EncodedTrace, slices=None) -> float:
    """1 - euclidean edit distance normalized by the attained bound |a| + |b|."""
    distance = ssdld_distance(factual, candidate, "euclidean", slices)
    return _normalized(distance, factual, candidate)


def sparsity_score(factual: EncodedTrace, candidate: EncodedTrace, slices=None) -> float:
    """Like similarity_score, but counting differing attributes as the cost."""
    distance = ssdld_distance(factual, candidate, "count", slices)
    return _normalized(distance, factual, candidate)


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


def _genome_key(trace: EncodedTrace) -> tuple:
    n = trace.valid_len
    return n, trace.activity_ids[:n].tobytes(), trace.features[:n].tobytes()


class ViabilityScorer:
    """Scores candidates against one factual with a fixed predictor and model.

    The predictor is asked through predict_proba_batch only, once per
    score_batch that holds a genome not yet scored. The factual's predicted
    outcome class and probability are computed once, in the scorer's first
    predictor call; the per-attribute feature slices come from the
    feasibility model's encoder so the count cost sees real attribute
    boundaries.

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
        self._memo: dict[tuple, tuple[float, ...]] = {}
        self._factual_key = _genome_key(factual)
        self.factual_class: int | None = None
        self.p_factual: float | None = None

    def score_batch(self, candidates: list[EncodedTrace]) -> np.ndarray:
        """Score candidates in order; each distinct genome is scored once.

        Returns an (N, 5) float array, one row per candidate, its columns in
        ViabilityScore field order.
        """
        memo = self._memo
        keys = []
        misses: dict[tuple, EncodedTrace] = {}
        if self.factual_class is None and candidates:
            # the first predictor call carries the factual once, first
            misses[self._factual_key] = self.factual
        for candidate in candidates:
            key = _genome_key(candidate)
            keys.append(key)
            if key not in memo and key not in misses:
                misses[key] = candidate
        if misses:
            traces = list(misses.values())
            p1s = self.predictor.predict_proba_batch(traces)
            if self.factual_class is None:
                self.factual_class = 1 if p1s[0] > DECISION_THRESHOLD else 0
                self.p_factual = p1s[0] if self.factual_class == 1 else 1.0 - p1s[0]
            # P(factual's outcome class | trace); the factual's own is p_factual
            flip = self.factual_class == 0
            probabilities = [1.0 - p1 if flip else p1 for p1 in p1s]
            feasibilities = markov_mod.feasibility_batch(self.feas_model, traces)
            euclidean, count = edit_distances(self.factual, traces, self.slices)
            for key, candidate, e_dist, c_dist, feas, probability in zip(
                misses, traces, euclidean.tolist(), count.tolist(), feasibilities,
                probabilities, strict=True,
            ):
                similarity = _normalized(e_dist, self.factual, candidate)
                sparsity = _normalized(c_dist, self.factual, candidate)
                delta = delta_score(self.p_factual, probability)
                total = similarity + sparsity + feas + delta
                memo[key] = (similarity, sparsity, feas, delta, total)
        return np.array([memo[key] for key in keys], dtype=float).reshape(-1, 5)

    def score(self, candidate: EncodedTrace) -> ViabilityScore:
        return ViabilityScore(*self.score_batch([candidate])[0].tolist())
