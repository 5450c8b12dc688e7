import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import identity_encoder, make_encoded
from evocf.errors import ConfigurationError
from evocf.evolution import evolve, parse_config_name
from evocf.markov import fit
from evocf.viability import (
    FEATURE_DIFF_TOLERANCE,
    ViabilityScore,
    ViabilityScorer,
    delta_score,
    edit_distances,
    similarity_score,
    sparsity_score,
    ssdld,
    ssdld_distance,
)


def viability(factual, candidate, predictor, feas_model):
    return ViabilityScorer(factual, predictor, feas_model).score(candidate)


# ---------------------------------------------------------------------------
# independent naive recursion implementing the six-case distance definition


def naive_costs(cost_kind, n_attr_columns):
    if cost_kind == "euclidean":
        scale = 1.0 / math.sqrt(n_attr_columns) if n_attr_columns else 0.0

        def pair(x, y):
            return math.sqrt(sum((xi - yi) ** 2 for xi, yi in zip(x, y))) * scale

        def gap(x):
            return math.sqrt(sum(xi * xi for xi in x)) * scale

        return pair, gap

    def pair(x, y):
        differ = sum(1 for xi, yi in zip(x, y) if abs(xi - yi) > 1e-9)
        return differ / len(x) if x else 0.0

    def gap(x):
        return 1.0

    return pair, gap


def naive_ssdld(acts_a, feats_a, acts_b, feats_b, cost_kind):
    """Memoized direct transcription of the recursive distance definition.

    Assumes one feature column per attribute, which is what every fixture in
    this module uses.
    """
    n_cols = len(feats_a[0]) if feats_a else (len(feats_b[0]) if feats_b else 0)
    pair, gap = naive_costs(cost_kind, n_cols)
    memo = {}

    def d(i, j):
        if (i, j) in memo:
            return memo[(i, j)]
        if i == 0 and j == 0:
            value = 0.0
        else:
            candidates = []
            if i > 0:
                candidates.append(d(i - 1, j) + gap(feats_a[i - 1]))
            if j > 0:
                candidates.append(d(i, j - 1) + gap(feats_b[j - 1]))
            if i > 0 and j > 0:
                if acts_a[i - 1] == acts_b[j - 1]:
                    candidates.append(d(i - 1, j - 1) + pair(feats_a[i - 1], feats_b[j - 1]))
                else:
                    candidates.append(
                        d(i - 1, j - 1) + gap(feats_a[i - 1]) + gap(feats_b[j - 1])
                    )
            if (
                i > 1
                and j > 1
                and acts_a[i - 1] == acts_b[j - 2]
                and acts_a[i - 2] == acts_b[j - 1]
            ):
                candidates.append(
                    d(i - 2, j - 2)
                    + pair(feats_a[i - 1], feats_b[j - 2])
                    + pair(feats_a[i - 2], feats_b[j - 1])
                )
            value = min(candidates)
        memo[(i, j)] = value
        return value

    return d(len(acts_a), len(acts_b))


def t(acts, values, max_len=6):
    return make_encoded(acts, [[v] for v in values], max_len)


def random_trace(rng, max_len=6, vocab=3):
    length = int(rng.integers(1, 5))
    acts = rng.integers(1, vocab + 1, size=length).tolist()
    values = rng.random(length).tolist()
    return t(acts, values, max_len)


# ---------------------------------------------------------------------------
# distance


def test_identical_traces_have_zero_distance():
    trace = t([1, 2, 3], [0.2, 0.5, 0.9])
    for kind in ("euclidean", "count"):
        distance, alignment = ssdld(trace, trace, kind)
        assert distance == 0.0
        assert all(op.kind == "match" for op in alignment.ops)


@pytest.mark.parametrize("kind", ["euclidean", "count"])
def test_distance_matches_naive_recursion_on_random_pairs(kind):
    rng = np.random.default_rng(12)
    for _ in range(300):
        a = random_trace(rng)
        b = random_trace(rng)
        expected = naive_ssdld(
            a.activity_ids[: a.valid_len].tolist(),
            a.features[: a.valid_len].tolist(),
            b.activity_ids[: b.valid_len].tolist(),
            b.features[: b.valid_len].tolist(),
            kind,
        )
        assert abs(ssdld_distance(a, b, kind) - expected) < 1e-12


def test_transposition_with_carried_attributes_is_free():
    a = t([1, 2], [0.3, 0.8])
    b = t([2, 1], [0.8, 0.3])
    for kind in ("euclidean", "count"):
        distance, alignment = ssdld(a, b, kind)
        assert distance == 0.0
        assert [op.kind for op in alignment.ops] == ["transpose"]


@pytest.mark.parametrize("kind", ["euclidean", "count"])
def test_distance_symmetry_and_bounds(kind):
    rng = np.random.default_rng(21)
    for _ in range(200):
        a = random_trace(rng)
        b = random_trace(rng)
        d_ab = ssdld_distance(a, b, kind)
        d_ba = ssdld_distance(b, a, kind)
        assert abs(d_ab - d_ba) < 1e-12
        assert -1e-15 <= d_ab <= a.valid_len + b.valid_len + 1e-12
        assert ssdld_distance(a, a, kind) == 0.0


@pytest.mark.parametrize("kind", ["euclidean", "count"])
def test_alignment_costs_sum_to_distance(kind):
    rng = np.random.default_rng(33)
    for _ in range(200):
        a = random_trace(rng)
        b = random_trace(rng)
        distance, alignment = ssdld(a, b, kind)
        assert abs(sum(op.cost for op in alignment.ops) - distance) < 1e-12


def test_alignment_replay_reconstructs_target():
    rng = np.random.default_rng(44)
    for _ in range(200):
        a = random_trace(rng)
        b = random_trace(rng)
        _, alignment = ssdld(a, b, "euclidean")
        acts_a = a.activity_ids[: a.valid_len].tolist()
        acts_b = b.activity_ids[: b.valid_len].tolist()
        rebuilt = []
        consumed_a = 0
        for op in alignment.ops:
            if op.kind in ("match", "substitute"):
                rebuilt.append(acts_b[op.j - 1])
                consumed_a += 1
            elif op.kind == "insert":
                rebuilt.append(acts_b[op.j - 1])
            elif op.kind == "delete":
                consumed_a += 1
            elif op.kind == "transpose":
                rebuilt.extend([acts_b[op.j - 2], acts_b[op.j - 1]])
                consumed_a += 2
        assert rebuilt == acts_b
        assert consumed_a == len(acts_a)


# ---------------------------------------------------------------------------
# batched edit distances against the scalar DP

# feature values whose differences land on both sides of the count tolerance
NEAR_TOLERANCE = (
    0.0,
    FEATURE_DIFF_TOLERANCE,
    2 * FEATURE_DIFF_TOLERANCE,
    1.0,
    1.0 - FEATURE_DIFF_TOLERANCE,
    1.0 - 0.5 * FEATURE_DIFF_TOLERANCE,
    1.0 - 2 * FEATURE_DIFF_TOLERANCE,
)


def kernel_trace(rng, length, max_len, alphabet, d):
    acts = rng.integers(1, alphabet + 1, size=length).tolist()
    near = rng.choice(NEAR_TOLERANCE, size=(length, d))
    feats = np.where(rng.random((length, d)) < 0.6, near, rng.random((length, d)))
    return make_encoded(acts, feats.reshape(length, d), max_len)


def kernel_slices(mode, d):
    if mode == "none":
        return None  # inferred: one attribute per column
    if mode == "empty":
        return ()  # an encoder without attributes
    if mode == "columns":
        return tuple((None, slice(c, c + 1)) for c in range(d))
    # "grouped": a one-column attribute followed by a multi-column code
    return ((None, slice(0, 1)), (None, slice(1, d))) if d > 1 else ((None, slice(0, d)),)


def assert_kernel_equals_scalar(factual, candidates, slices):
    euclidean, count = edit_distances(factual, candidates, slices)
    assert euclidean.shape == count.shape == (len(candidates),)
    for candidate, e_dist, c_dist in zip(candidates, euclidean.tolist(), count.tolist()):
        assert e_dist == ssdld_distance(factual, candidate, "euclidean", slices)
        assert c_dist == ssdld_distance(factual, candidate, "count", slices)


@settings(max_examples=150, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    d=st.sampled_from([0, 1, 3, 12]),  # 12: wider than numpy's 8-way unrolled sum
    max_len=st.integers(1, 8),
    alphabet=st.sampled_from([1, 2, 5, 10]),  # 1: all match, 2: swap-heavy, 10: sparse
    slice_mode=st.sampled_from(["none", "empty", "columns", "grouped"]),
    data=st.data(),
)
def test_edit_distances_equal_the_scalar_dp(seed, d, max_len, alphabet, slice_mode, data):
    rng = np.random.default_rng(seed)
    lengths = data.draw(st.lists(st.integers(1, max_len), min_size=1, max_size=70))
    if data.draw(st.booleans()):
        lengths += [1, max_len]
    factual_len = data.draw(st.integers(1, max_len))
    factual = kernel_trace(rng, factual_len, max_len, alphabet, d)
    candidates = [kernel_trace(rng, n, max_len, alphabet, d) for n in lengths]
    assert_kernel_equals_scalar(factual, candidates, kernel_slices(slice_mode, d))


@pytest.mark.parametrize(
    "d, slice_mode", [(0, "none"), (0, "empty"), (2, "empty"), (2, "grouped"), (12, "grouped")]
)
def test_edit_distances_degenerate_shapes(d, slice_mode):
    rng = np.random.default_rng(d)
    slices = kernel_slices(slice_mode, d)
    for factual_len, lengths in [(1, [1]), (1, [6]), (6, [1]), (1, [1, 6, 3]), (6, [6] * 33)]:
        factual = kernel_trace(rng, factual_len, 6, 2, d)
        candidates = [kernel_trace(rng, n, 6, 2, d) for n in lengths]
        assert_kernel_equals_scalar(factual, candidates, slices)


@pytest.mark.parametrize(
    "d, slice_mode", [(0, "none"), (0, "grouped"), (3, "columns"), (5, "grouped")]
)
def test_edit_distances_of_a_block_without_matching_cells(d, slice_mode):
    # factual activities 1-3, candidate activities 4-6: no pair cost is read
    rng = np.random.default_rng(11)
    slices = kernel_slices(slice_mode, d)
    factual = kernel_trace(rng, 5, 7, 3, d)
    candidates = []
    for n in (1, 7, 4, 7):
        trace = kernel_trace(rng, n, 7, 3, d)
        candidates.append(make_encoded(trace.activity_ids[:n] + 3, trace.features[:n], 7))
    assert_kernel_equals_scalar(factual, candidates, slices)


def test_edit_distances_swap_and_repeat_sequences():
    # alternating and repeated activities make many transposition and match
    # cells at once, with attributes carried across the swap
    rows = [[0.2, 0.9], [0.7, 0.1], [1.0, 0.0], [0.2, 0.9]]
    patterns = [[1, 2] * 3, [2, 1] * 3, [1, 2, 2, 1, 1, 2], [1] * 6, [2, 1, 1], [1, 2]]
    traces = [make_encoded(p, [rows[i % 4] for i in range(len(p))], 6) for p in patterns]
    for factual in traces:
        assert_kernel_equals_scalar(factual, traces, None)


def test_edit_distances_on_the_criterion_1_fixture():
    # the acceptance criterion-1 traces, all 360 as one batch per factual
    fixture = [
        make_encoded(list(combo), [[value]] * length, max_len=4)
        for length in (1, 2, 3, 4)
        for combo in itertools.product((1, 2, 3), repeat=length)
        for value in (0.0, 0.5, 1.0)
    ]
    assert len(fixture) == 360
    for factual in fixture:
        euclidean, count = edit_distances(factual, fixture)
        assert euclidean.tolist() == [ssdld_distance(factual, c, "euclidean") for c in fixture]
        assert count.tolist() == [ssdld_distance(factual, c, "count") for c in fixture]


# ---------------------------------------------------------------------------
# similarity / sparsity


def test_similarity_of_identical_traces():
    trace = t([1, 2], [0.1, 0.9])
    assert similarity_score(trace, trace) == 1.0


def test_similarity_attains_zero_at_maximal_distance():
    a = t([1], [1.0])
    b = t([2], [1.0])
    assert similarity_score(a, b) == 0.0


def test_similarity_in_unit_interval_on_random_pairs():
    rng = np.random.default_rng(55)
    for _ in range(300):
        a = random_trace(rng)
        b = random_trace(rng)
        assert 0.0 <= similarity_score(a, b) <= 1.0
        assert 0.0 <= sparsity_score(a, b) <= 1.0


def test_sparsity_identical_is_one():
    trace = t([1, 2, 3], [0.3, 0.4, 0.5])
    assert sparsity_score(trace, trace) == 1.0


@pytest.mark.parametrize("n", [2, 3, 5])
def test_sparsity_single_attribute_difference(n):
    # four attributes; one event differs in exactly one of them
    feats_a = np.full((n, 4), 0.5)
    feats_b = feats_a.copy()
    feats_b[0, 0] = 0.9
    a = make_encoded([1] * n, feats_a, max_len=6)
    b = make_encoded([1] * n, feats_b, max_len=6)
    slices = tuple((None, slice(i, i + 1)) for i in range(4))
    assert sparsity_score(a, b, slices) == pytest.approx(1.0 - (1 / 4) / (2 * n), abs=1e-12)


def test_sparsity_disjoint_activities_is_zero():
    a = t([1, 1, 1], [0.5, 0.5, 0.5])
    b = t([2, 3], [0.5, 0.5])
    assert sparsity_score(a, b) == pytest.approx(0.0, abs=1e-12)


# ---------------------------------------------------------------------------
# delta


def test_delta_branch_examples():
    assert delta_score(0.8, 0.3) == pytest.approx(0.5)
    assert delta_score(0.8, 0.3) > 0  # case 1: factual confident, moved away
    assert delta_score(0.6, 0.6) == 0.0
    assert delta_score(0.3, 0.7) == pytest.approx(-0.4)
    assert delta_score(0.3, 0.1) == pytest.approx(0.2)


def test_delta_collapses_to_difference_on_grid():
    grid = [i * 0.05 for i in range(21)]
    for p in grid:
        for q in grid:
            assert delta_score(p, q) == p - q


def test_delta_rejects_out_of_range_inputs():
    with pytest.raises(ValueError):
        delta_score(1.2, 0.5)
    with pytest.raises(ValueError):
        delta_score(0.5, -0.1)


@settings(max_examples=200, deadline=None)
@given(
    st.floats(min_value=0.0, max_value=1.0),
    st.floats(min_value=0.0, max_value=1.0),
)
def test_delta_collapse_property(p, q):
    assert delta_score(p, q) == p - q


def branch_delta(p_factual, p_counterfactual):
    """The four branches over the 0.5 threshold, ties on the negative side."""
    if p_factual > 0.5:
        if p_factual > p_counterfactual:
            return abs(p_counterfactual - p_factual)
        return -abs(p_counterfactual - p_factual)
    if p_factual > p_counterfactual:
        return abs(p_counterfactual - p_factual)
    return -abs(p_counterfactual - p_factual)


@settings(max_examples=200, deadline=None)
@given(
    st.floats(min_value=0.0, max_value=1.0),
    st.floats(min_value=0.0, max_value=1.0),
)
def test_delta_is_bit_identical_to_the_branches(p, q):
    # repr tells -0.0 from 0.0, and reports write repr
    assert repr(delta_score(p, q)) == repr(branch_delta(p, q))
    assert repr(delta_score(p, p)) == "-0.0"


# ---------------------------------------------------------------------------
# combined score


class ScriptedPredictor:
    """Probabilities keyed by case_id, defaulting to 0.5."""

    def __init__(self, table):
        self.table = table

    def predict_proba_batch(self, traces):
        return [self.table.get(trace.case_id, 0.5) for trace in traces]


def small_model():
    train = [
        t([1, 2], [0.1, 0.6]),
        t([1, 3], [0.2, 0.7]),
        t([2, 3], [0.4, 0.9]),
    ]
    encoder = identity_encoder(max_len=6)
    return fit(train, encoder, 1e-6, 5), train


def test_viability_of_candidate_equal_to_factual():
    model, train = small_model()
    factual = t([1, 2], [0.1, 0.6])
    predictor = ScriptedPredictor({})
    score = viability(factual, factual, predictor, model)
    assert score.similarity == 1.0
    assert score.sparsity == 1.0
    assert score.delta == 0.0
    assert score.total == pytest.approx(2.0 + score.feasibility)


def test_viability_with_stub_predictor_probabilities():
    model, _ = small_model()
    factual = t([1, 2], [0.1, 0.6])
    factual = make_encoded([1, 2], [[0.1], [0.6]], 6, case_id="f")
    candidate = make_encoded([1, 3], [[0.2], [0.7]], 6, case_id="c")
    predictor = ScriptedPredictor({"f": 0.9, "c": 0.1})
    score = viability(factual, candidate, predictor, model)
    assert score.delta == pytest.approx(0.8)


def test_viability_factual_class_zero_flips_probabilities():
    model, _ = small_model()
    factual = make_encoded([1, 2], [[0.1], [0.6]], 6, case_id="f")
    candidate = make_encoded([1, 3], [[0.2], [0.7]], 6, case_id="c")
    # factual predicted class 0 with p(o=0)=0.8; candidate p(o=0)=0.3
    predictor = ScriptedPredictor({"f": 0.2, "c": 0.7})
    score = viability(factual, candidate, predictor, model)
    assert score.delta == pytest.approx(0.8 - 0.3)


def test_viability_matches_independently_scripted_formulas():
    model, train = small_model()
    factual = make_encoded([1, 2], [[0.1], [0.6]], 6, case_id="f")
    candidate = make_encoded([2, 3], [[0.4], [0.8]], 6, case_id="c")
    predictor = ScriptedPredictor({"f": 0.7, "c": 0.4})

    acts_f = factual.activity_ids[:2].tolist()
    feats_f = factual.features[:2].tolist()
    acts_c = candidate.activity_ids[:2].tolist()
    feats_c = candidate.features[:2].tolist()
    expected_sim = 1.0 - naive_ssdld(acts_f, feats_f, acts_c, feats_c, "euclidean") / 4
    expected_spar = 1.0 - naive_ssdld(acts_f, feats_f, acts_c, feats_c, "count") / 4
    # counting oracle for the feasibility product
    from test_markov import oracle_feasibility

    expected_feas = oracle_feasibility(train, candidate, 3, 1e-6, 5)
    expected_delta = 0.7 - 0.4

    score = viability(factual, candidate, predictor, model)
    assert score.similarity == pytest.approx(expected_sim, abs=1e-9)
    assert score.sparsity == pytest.approx(expected_spar, abs=1e-9)
    assert score.feasibility == pytest.approx(expected_feas, abs=1e-9)
    assert score.delta == pytest.approx(expected_delta, abs=1e-9)
    assert score.total == expected_sim + expected_spar + score.feasibility + score.delta


def test_viability_total_is_exact_sum_and_ranges_hold():
    model, _ = small_model()
    rng = np.random.default_rng(66)
    factual = random_trace(rng)
    predictor = ScriptedPredictor({})
    scorer = ViabilityScorer(factual, predictor, model)
    for _ in range(100):
        candidate = random_trace(rng)
        score = scorer.score(candidate)
        assert score.total == score.similarity + score.sparsity + score.feasibility + score.delta
        assert 0.0 <= score.similarity <= 1.0
        assert 0.0 <= score.sparsity <= 1.0
        assert 0.0 <= score.feasibility <= 1.0
        assert -1.0 <= score.delta <= 1.0


def test_encoder_mismatch_is_configuration_error():
    model, _ = small_model()
    wrong_frame = make_encoded([1], [[0.5, 0.5]], 6)  # two feature columns
    with pytest.raises(ConfigurationError):
        ViabilityScorer(wrong_frame, ScriptedPredictor({}), model)


# ---------------------------------------------------------------------------
# batch scoring and its memo


def content_proba(trace):
    """A probability from a trace's contents only."""
    n = trace.valid_len
    return 0.05 + 0.9 * float(trace.features[:n].mean()) * trace.activity_ids[0] / 3


class ContentPredictor:
    def predict_proba_batch(self, traces):
        return [content_proba(trace) for trace in traces]


def _key(trace):
    n = trace.valid_len
    return n, trace.activity_ids[:n].tobytes(), trace.features[:n].tobytes()


class CountingPredictor:
    """Records the genome key of every trace it is asked to score, per call."""

    def __init__(self, inner=None):
        self.inner = inner or ContentPredictor()
        self.calls = []

    @property
    def batches(self):
        return len(self.calls)

    @property
    def keys(self):
        return [key for call in self.calls for key in call]

    def predict_proba_batch(self, traces):
        self.calls.append([_key(trace) for trace in traces])
        return self.inner.predict_proba_batch(traces)


def _copy(trace):
    # equal contents in fresh arrays, so the memo must key on bytes, not identity
    return make_encoded(
        trace.activity_ids[: trace.valid_len].tolist(),
        trace.features[: trace.valid_len].copy(),
        trace.max_len,
        case_id="copy",
    )


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    pool_size=st.integers(1, 4),
    picks=st.lists(st.integers(0, 3), min_size=1, max_size=24),
    chunk=st.integers(1, 8),
)
def test_score_batch_with_duplicates_matches_reference(seed, pool_size, picks, chunk):
    model, _ = small_model()
    rng = np.random.default_rng(seed)
    factual = random_trace(rng)
    base = random_trace(rng)
    acts = base.activity_ids[: base.valid_len].tolist()
    values = base.features[: base.valid_len, 0].tolist()
    # near-duplicates of base: same activities with new attributes, and the
    # same attributes under other activities
    pool = [
        base,
        t(acts, rng.random(len(acts)).tolist()),
        t([a % 3 + 1 for a in acts], values),
        random_trace(rng),
    ][:pool_size]
    batch = [pool[i % pool_size] for i in picks]
    batch = [_copy(c) if k % 2 else c for k, c in enumerate(batch)]
    predictor = ContentPredictor()
    scorer = ViabilityScorer(factual, predictor, model)
    scores = []
    for start in range(0, len(batch), chunk):
        rows = scorer.score_batch(batch[start : start + chunk]).tolist()
        scores.extend(ViabilityScore(*row) for row in rows)
    assert len(scores) == len(batch)
    for candidate, score in zip(batch, scores):
        reference = viability(factual, candidate, predictor, model)
        for name in ("similarity", "sparsity", "feasibility", "delta", "total"):
            assert getattr(score, name) == getattr(reference, name)


def test_score_batch_sends_each_distinct_genome_to_the_predictor_once():
    model, _ = small_model()
    rng = np.random.default_rng(8)
    factual = random_trace(rng)
    pool = [random_trace(rng) for _ in range(5)]
    predictor = CountingPredictor()
    scorer = ViabilityScorer(factual, predictor, model)
    scorer.score_batch([pool[0], pool[1], _copy(pool[0]), pool[1]])
    scorer.score_batch([pool[1], _copy(pool[2]), pool[2], pool[3]])
    scorer.score_batch([pool[3], _copy(pool[0])])  # all hits: no predictor call
    scorer.score(pool[4])
    assert predictor.batches == 3
    # the five distinct candidates and the factual, which rides in the first batch
    assert len(predictor.keys) == len(set(predictor.keys)) == 6
    assert _key(factual) in predictor.keys


def test_factual_rides_in_the_first_predictor_call_only():
    model, _ = small_model()
    rng = np.random.default_rng(9)
    factual = random_trace(rng)
    pool = [random_trace(rng) for _ in range(3)]
    predictor = CountingPredictor()
    scorer = ViabilityScorer(factual, predictor, model)
    assert scorer.factual_class is None and predictor.batches == 0
    scorer.score_batch([pool[0]])
    # a copy of the factual scored later reuses the first call's probability
    late = ViabilityScore(*scorer.score_batch([pool[1], _copy(factual), pool[2]]).tolist()[1])
    scorer.score(_copy(factual))
    assert [call.count(_key(factual)) for call in predictor.calls] == [1, 0]
    assert predictor.calls[0][0] == _key(factual)
    p1 = content_proba(factual)
    assert scorer.factual_class == (1 if p1 > 0.5 else 0)
    assert scorer.p_factual == (p1 if scorer.factual_class == 1 else 1.0 - p1)
    assert late.delta == 0.0


def test_first_batch_with_a_copy_of_the_factual_sends_it_once():
    model, _ = small_model()
    rng = np.random.default_rng(10)
    factual = random_trace(rng)
    other = random_trace(rng)
    predictor = CountingPredictor()
    scorer = ViabilityScorer(factual, predictor, model)
    rows = scorer.score_batch([other, _copy(factual), other]).tolist()
    scores = [ViabilityScore(*row) for row in rows]
    assert predictor.calls == [[_key(factual), _key(other)]]
    reference = [viability(factual, c, ContentPredictor(), model) for c in (other, factual)]
    assert scores == [reference[0], reference[1], reference[0]]


def test_evolve_scores_each_distinct_genome_once(synth_setup):
    predictor = CountingPredictor(synth_setup["predictor"])
    config = parse_config_name(
        "CBI-RWS-OPC-SBM-FSR", population_size=60, offspring_per_cycle=20, cycles=4, seed=3
    )
    evolve(
        synth_setup["test"][0], config, predictor, synth_setup["feas_model"], synth_setup["train"]
    )
    # one batch for the initial population plus at most one per cycle, and
    # no genome twice (the factual rides in the first batch)
    assert 1 <= predictor.batches <= 1 + config.cycles
    assert len(predictor.keys) == len(set(predictor.keys))
    assert len(predictor.keys) < config.population_size + config.cycles * 20


def test_evocf_viability_is_the_module():
    import types

    import evocf
    import evocf.viability as viability_module

    assert isinstance(viability_module, types.ModuleType)
    assert evocf.viability is viability_module
    assert "viability" not in evocf.__all__
