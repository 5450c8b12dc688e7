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

There is one DP: _sweep fills both cost kinds' tables for a block of
candidates along anti-diagonals of one fixed shape, with inf wherever a term
does not apply (a pair whose activities differ, a transpose without both
cross matches, a cell left of the border). Scoring (edit_distances) keeps a
ring of five diagonals and reads each candidate's distance off row n; ssdld
keeps every diagonal and backtraces one candidate's table into the alignment
that render shows. Each cell adds its terms in the order of the scalar DP that
tests/conftest.py keeps as the reference (reference_ssdld), so every distance
is the same float. That DP's substitute term never wins, so the sweep leaves
it out (_sweep says why).
"""

from __future__ import annotations

import copy
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

# the doubles one sweep's pair table, (n + m + 1, n + 1, 2 rows), may hold:
# a block takes as many rows as fit in it at the batch's longest row, so
# memory stays bounded whatever the size of a scoring batch
_TABLE_BUDGET = 2**16

SIMILARITY, SPARSITY, FEASIBILITY, DELTA, TOTAL = range(5)  # the columns of a score row


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


def _match_costs(factual: EncodedTrace, feats: np.ndarray, same: np.ndarray, slices):
    """Both cost kinds of the factual against a padded block feats (B, M, D).

    same (n, M, B) marks the cells where the factual event and the candidate
    event share their activity: the DP reads a pair cost there and nowhere
    else, so only those cells are computed, as one (P, D) gather. They are
    scattered by anti-diagonal into pair (n+M+1, n+1, 2B), pair[i + j, i]
    for 1-based positions (i, j); every other entry is inf. Returns pair,
    delete (n+1, 2B) and insert (M+1, 2B), indexed by 1-based event positions
    (delete row 0 only meets the inf sentinel, insert row 0 is unused), and
    by column: euclidean in the first B, count in the last B. Every entry
    comes from the expression the scalar reference DP (reference_ssdld in
    tests/conftest.py) evaluates for one pair, with the feature reduction on
    the same contiguous last axis, so the floats are equal. The count cost
    counts by slices, the encoder's attribute layout (EncoderSpec.slices()).
    """
    if slices is None:
        raise TypeError("the count cost needs the encoder's attribute layout, encoder.slices()")
    n = factual.valid_len
    av = factual.features[:n]
    b, m, d = feats.shape
    pair = np.full((n + m + 1, n + 1, 2 * b), np.inf)
    delete = np.ones((n + 1, 2 * b))
    insert = np.ones((m + 1, 2 * b))
    i, j, lane = np.nonzero(same)
    diff = av[i] - feats[lane, j]
    differs = np.abs(diff) > FEATURE_DIFF_TOLERANCE
    euclidean, count = np.zeros(len(lane)), np.zeros(len(lane))
    if d:
        scale = 1.0 / np.sqrt(d)
        diff *= diff
        euclidean = np.sqrt(diff.sum(axis=-1)) * scale
        delete[1:, :b] = (np.sqrt((av * av).sum(axis=-1)) * scale)[:, None]
        insert[1:, :b] = (np.sqrt((feats * feats).sum(axis=-1)) * scale).T
    else:
        # no features: every euclidean cost is 0
        delete[1:, :b] = 0.0
        insert[1:, :b] = 0.0
    if slices:
        for _, cols in slices:
            count += differs[:, cols].any(axis=-1)
        count /= len(slices)
    pair[i + j + 2, i + 1, lane] = euclidean
    pair[i + j + 2, i + 1, lane + b] = count
    return pair, delete, insert


def _sweep(factual: EncodedTrace, acts: np.ndarray, feats: np.ndarray, slices, full=False):
    """Euclidean and count DPs of one block, one anti-diagonal at a time.

    acts (B, M) and feats (B, M, D) are the block's rows of the frame, cut to
    its longest prefix. The 2B DPs (both kinds of every candidate) are the
    last, contiguous axis: euclidean in the first B, count in the last B.

    Every diagonal k = i + j has the same shape: an inf sentinel cell (row
    -1), then rows 0 to n, so diagonal k holds D[i][k - i] at index i + 1.
    Cells with j < 0 read only inf cells and stay inf, so the borders D[i][0]
    and D[0][j] come out of the same recurrence as every other cell. Cells
    with j past a candidate's last event hold values that no cell of its DP
    reads. A cell keeps the smallest of
    - up, D[i-1][j] + delete[i];
    - left, D[i][j-1] + insert[j];
    - match, D[i-1][j-1] + pair[i][j], inf unless the activities match;
    - transpose, (D[i-2][j-2] + pair[i][j-1]) + pair[i-1][j], inf unless
      both cross pairs match.
    The scalar DP's substitute term, (D[i-1][j-1] + delete[i]) + insert[j]
    on a mismatch, never wins, so it is not computed: D[i][j-1] is at most
    D[i-1][j-1] + delete[i] (the up term of cell (i, j-1), or, at j = 1,
    exactly the border value), and rounded addition is monotonic, so the
    left term is never larger. Each term adds in the scalar DP's order, so
    every cell is the same float, and ssdld's backtrace, which still tests
    substitute, finds the same alignment.

    Returns (dp, ends, pair, delete, insert): dp holds the diagonals, as a
    ring of five (k-1, k-2 and k-4 are read) or, when full, all n + M + 1
    of them (in at least five slots), diagonal k at dp[k]; ends[k] is row n
    of diagonal k, so a candidate's distance D[n][m_b] is ends[n + m_b]; the
    cost tables are _match_costs'.
    """
    n = factual.valid_len
    b, m = acts.shape
    lanes, diagonals = 2 * b, n + m + 1
    same = factual.activity_ids[:n, None, None] == acts.T[None]
    pair, delete, insert = _match_costs(factual, feats, same, slices)
    has_swap = np.zeros(diagonals, dtype=bool)
    swap_i, swap_j = np.nonzero((same[1:, :-1] & same[:-1, 1:]).any(axis=-1))
    has_swap[swap_i + swap_j + 4] = True
    # the insert cost of event j = k - i at diagonal k, row i: padded holds
    # insert[j] at n + m - j, and 1 (a finite filler) for j outside 1..M, so
    # each diagonal's costs are a contiguous run of it
    padded = np.ones((2 * n + m + 1, lanes))
    padded[n : n + m] = insert[:0:-1]
    row_stride, lane_stride = padded.strides
    insert_k = as_strided(
        padded[n + m :],
        shape=(diagonals, n + 1, lanes),
        strides=(-row_stride, row_stride, lane_stride),
        writeable=False,
    )

    size = max(diagonals, 5) if full else 5
    dp = np.full((size, n + 2, lanes), np.inf)
    dp[0, 1] = 0.0
    ends = np.empty((diagonals, lanes))
    ends[0] = dp[0, n + 1]
    # views of each slot, by row: 0..n, -1..n-1, 1..n, -1..n-2 and n
    cells, above = [d[1:] for d in dp], [d[:-1] for d in dp]
    swap_cells, swap_from, last_row = [d[2:] for d in dp], [d[:-2] for d in dp], list(dp[:, n + 1])
    # pair by diagonal, rows 1..n and 0..n-1: a transpose's two cross pairs
    pair_here, pair_up = pair[:, 1:], pair[:, :-1]
    through = np.empty((n + 1, lanes))
    swapped = through[1:]
    for k in range(1, diagonals):
        here, one, two = k % size, (k - 1) % size, (k - 2) % size
        best = cells[here]
        np.add(above[one], delete, out=best)  # up
        np.add(cells[one], insert_k[k], out=through)  # left
        np.minimum(best, through, out=best)
        np.add(above[two], pair[k], out=through)  # match
        np.minimum(best, through, out=best)
        if has_swap[k]:  # transpose
            np.add(swap_from[(k - 4) % size], pair_here[k - 1], out=swapped)
            np.add(swapped, pair_up[k - 1], out=swapped)
            np.minimum(swap_cells[here], swapped, out=swap_cells[here])
        ends[k] = last_row[here]
    return dp, ends, pair, delete, insert


def edit_distances(
    factual: EncodedTrace, ids: np.ndarray, features: np.ndarray, lengths: np.ndarray, slices
) -> tuple[np.ndarray, np.ndarray]:
    """Edit distances of the factual to each candidate of a frame (event_log.Rows).

    Returns (euclidean, count) as float arrays in row order. Rows are swept
    shortest first, so a block pads little, in blocks of as many rows as keep
    the pair table of the batch's longest row within _TABLE_BUDGET (at least
    one), which bounds memory for any batch size.
    """
    order = np.argsort(lengths, kind="stable")
    euclidean = np.empty(len(lengths))
    count = np.empty(len(lengths))
    n = factual.valid_len
    block = max(1, _TABLE_BUDGET // (2 * (n + lengths.max(initial=0) + 1) * (n + 1)))
    for start in range(0, len(order), block):
        rows = order[start : start + block]
        b, m = len(rows), lengths[rows].max()
        # only ends outlives the sweep, so a block's tables are freed before the next block's
        ends = _sweep(factual, ids[rows, :m], features[rows, :m], slices)[1]
        distances = ends[n + np.tile(lengths[rows], 2), np.arange(2 * b)]
        euclidean[rows], count[rows] = distances[:b], distances[b:]
    return euclidean, count


def ssdld(
    a: EncodedTrace, b: EncodedTrace, cost_kind: CostKind, slices
) -> tuple[float, tuple[EditOp, ...]]:
    """Weighted Damerau-Levenshtein distance and its edit script.

    Sweeps b's one-row frame and walks lane 0 (euclidean) or lane 1 (count)
    of the sweep's table back from (n, m). Backtrace ties are broken in the
    fixed order match/substitute, transpose, delete, insert, so alignments
    are deterministic.
    """
    if cost_kind not in ("euclidean", "count"):
        raise ValueError(f"unknown cost kind {cost_kind!r}")
    lane = 0 if cost_kind == "euclidean" else 1
    n, m = a.valid_len, b.valid_len
    one_row = b.activity_ids[None, :m], b.features[None, :m]
    dp, _, pair_k, delete_k, insert_k = _sweep(a, *one_row, slices, full=True)
    # d[i][j] = D[i][j] = dp[i + j, i + 1], and the costs indexed from 0
    rows, cols = np.arange(n + 1)[:, None], np.arange(m + 1)
    d = dp[rows + cols, rows + 1, lane].tolist()
    pair = pair_k[(rows + cols)[1:, 1:], rows[1:], lane].tolist()
    delete = delete_k[1:, lane].tolist()
    insert = insert_k[1:, lane].tolist()
    acts_a = a.activity_ids[:n].tolist()
    acts_b = b.activity_ids[:m].tolist()
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
    return d[n][m], tuple(ops)


def similarity_score(factual: EncodedTrace, candidate: EncodedTrace) -> float:
    """1 - euclidean edit distance normalized by the attained bound |a| + |b|."""
    # the euclidean cost reads no attribute layout
    distance, _ = edit_distances(factual, *candidate.frame, ())
    return 1.0 - distance.item() / (factual.valid_len + candidate.valid_len)


def sparsity_score(factual: EncodedTrace, candidate: EncodedTrace, slices) -> float:
    """Like similarity_score, but counting differing attributes as the cost."""
    _, distance = edit_distances(factual, *candidate.frame, slices)
    return 1.0 - distance.item() / (factual.valid_len + candidate.valid_len)


def delta_score(p_factual, p_counterfactual):
    """Signed probability shift of the factual outcome class, in [-1, 1], elementwise on arrays.

    The paper's four branches over the 0.5 threshold all reduce to
    p_factual minus p_counterfactual. It is written negated so that a tie
    gives -0.0, the value the branches gave, and reports stay byte-identical.
    """
    for name, value in (("p_factual", p_factual), ("p_counterfactual", p_counterfactual)):
        values = np.ravel(value)
        for outside in values[~((values >= 0.0) & (values <= 1.0))][:1]:
            raise ValueError(f"{name} outside [0, 1]: {outside}")
    return -(p_counterfactual - p_factual)


def _row_keys(ids: np.ndarray, features: np.ndarray, lengths: np.ndarray) -> list[bytes]:
    """Per row of a frame, its memo key: the bytes of its length, padded ids and feature
    bits, one int64 block's row. The length leads, so equal keys mean equal valid prefixes."""
    n, max_len, feature_dim = features.shape
    bits = features.reshape(n, max_len * feature_dim).view(np.int64)
    block = np.concatenate([lengths[:, np.newaxis], ids, bits], axis=1)
    return block.view(f"V{block.itemsize * block.shape[1]}").ravel().tolist()


class ViabilityScorer:
    """Scores candidates against one factual with a fixed predictor and model.

    The predictor is asked through predict_proba_batch only, once per
    score_batch that holds a genome not yet scored. The factual's predicted
    outcome class and probability are computed once, in the scorer's first
    predictor call; the per-attribute feature slices come from the
    feasibility model's encoder so the count cost sees real attribute
    boundaries.

    Scores are memoized for the life of the scorer, keyed on each row's
    length and padded cells: every component reads only the valid prefix,
    and every engine frame keeps its padding zero, so a repeated genome gets
    the score it got the first time without being scored again. The memo maps
    a key to its row of one (M, 5) score table; a batch adds its rows once all have scored,
    into a new table, so a copy (which shares the table) never sees another's rows.
    """

    def __init__(
        self, factual: EncodedTrace, predictor: OutcomePredictor, feas_model: MarkovFeasibilityModel
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
        self._memo: dict[bytes, int] = {}
        self._table = np.empty((0, 5))
        self.factual_class: int | None = None
        self.p_factual: float | None = None

    def score_batch(self, ids: np.ndarray, features: np.ndarray, lengths: np.ndarray) -> np.ndarray:
        """Score the rows of a frame (event_log.Rows) in order; each distinct genome once.

        Returns an (N, 5) float array, one row per candidate, its columns in
        ViabilityScore field order. The rows not yet scored go to the
        predictor and both scoring kernels as one frame.
        """
        first = self.factual_class is None and len(lengths) > 0
        keys = _row_keys(ids, features, lengths)
        # the factual rides first, once, in the first predictor call; its copies score as it
        misses: dict[bytes, int] = {_row_keys(*self.factual.frame)[0]: -1} if first else {}
        for row, key in enumerate(keys):
            if key not in self._memo:
                misses.setdefault(key, row)
        if misses:
            rows = list(misses.values())[first:]
            frame = ids[rows], features[rows], lengths[rows]
            if first:
                frame = tuple(map(np.concatenate, zip(self.factual.frame, frame)))
            p1s = self.predictor.predict_proba_batch(*frame)
            if self.factual_class is None:
                self.factual_class = 1 if p1s[0] > DECISION_THRESHOLD else 0
                self.p_factual = p1s[0] if self.factual_class == 1 else 1.0 - p1s[0]
            # P(factual's outcome class | trace); the factual's own is p_factual
            probabilities = 1.0 - np.asarray(p1s) if self.factual_class == 0 else np.asarray(p1s)
            feasibilities = markov_mod.feasibility(self.feas_model, *frame)
            # 1 - each distance normalized by the attained bound n + m
            distances = np.stack(edit_distances(self.factual, *frame, self.slices))
            similarity, sparsity = 1.0 - distances / (self.factual.valid_len + frame[2])
            delta = delta_score(self.p_factual, probabilities)
            total = similarity + sparsity + feasibilities + delta
            new = np.stack([similarity, sparsity, feasibilities, delta, total], axis=1)
            self._memo.update(zip(misses, range(len(self._table), len(self._table) + len(new))))
            self._table = np.concatenate([self._table, new])
        return self._table[[self._memo[key] for key in keys]]

    def copy(self) -> ViabilityScorer:
        """A scorer that starts where this one stands: the same table, factual class and
        probability, and a memo of its own, so what either scores next stays its own."""
        twin = copy.copy(self)
        twin._memo = dict(self._memo)
        return twin

    def score(self, candidate: EncodedTrace) -> ViabilityScore:
        return ViabilityScore(*self.score_batch(*candidate.frame)[0].tolist())
