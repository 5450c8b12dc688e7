import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    _dp_table,
    column_slices,
    genomes_of,
    identity_encoder,
    log_of,
    make_encoded,
    reference_ssdld,
    reference_ssdld_distance,
    scored,
)
import evocf.viability as viability_module
from evocf.errors import ConfigurationError
from evocf.evolution import EvoConfig, evolve, initialize
from evocf.harness import ExperimentSpec, SyntheticSpec, prepare_experiment
from evocf.markov import fit
from evocf.viability import (
    FEATURE_DIFF_TOLERANCE,
    SIMILARITY,
    SPARSITY,
    ViabilityScore,
    ViabilityScorer,
    _sweep,
    delta_score,
    edit_distances,
    similarity_score,
    sparsity_score,
    ssdld,
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


# the layout of t's traces: one one-column attribute
ONE = column_slices(1)


def distance(a, b, kind):
    euclidean, count = edit_distances(a, *b.frame, ONE)
    return (euclidean if kind == "euclidean" else count).item()


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
        distance, ops = ssdld(trace, trace, kind, ONE)
        assert distance == 0.0
        assert all(op.kind == "match" for op in ops)


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
        assert abs(distance(a, b, kind) - expected) < 1e-12


def test_transposition_with_carried_attributes_is_free():
    a = t([1, 2], [0.3, 0.8])
    b = t([2, 1], [0.8, 0.3])
    for kind in ("euclidean", "count"):
        distance, ops = ssdld(a, b, kind, ONE)
        assert distance == 0.0
        assert [op.kind for op in ops] == ["transpose"]


@pytest.mark.parametrize("kind", ["euclidean", "count"])
def test_distance_symmetry_and_bounds(kind):
    rng = np.random.default_rng(21)
    for _ in range(200):
        a = random_trace(rng)
        b = random_trace(rng)
        d_ab = distance(a, b, kind)
        d_ba = distance(b, a, kind)
        assert abs(d_ab - d_ba) < 1e-12
        assert -1e-15 <= d_ab <= a.valid_len + b.valid_len + 1e-12
        assert distance(a, a, kind) == 0.0


@pytest.mark.parametrize("kind", ["euclidean", "count"])
def test_alignment_costs_sum_to_distance(kind):
    rng = np.random.default_rng(33)
    for _ in range(200):
        a = random_trace(rng)
        b = random_trace(rng)
        distance, ops = ssdld(a, b, kind, ONE)
        assert abs(sum(op.cost for op in ops) - distance) < 1e-12


def test_alignment_replay_reconstructs_target():
    rng = np.random.default_rng(44)
    for _ in range(200):
        a = random_trace(rng)
        b = random_trace(rng)
        _, ops = ssdld(a, b, "euclidean", ONE)
        acts_a = a.activity_ids[: a.valid_len].tolist()
        acts_b = b.activity_ids[: b.valid_len].tolist()
        rebuilt = []
        consumed_a = 0
        for op in ops:
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
    if mode == "empty":
        return ()  # an encoder without attributes
    if mode == "columns":
        return column_slices(d)
    # "grouped": a one-column attribute followed by a multi-column code
    return ((None, slice(0, 1)), (None, slice(1, d))) if d > 1 else ((None, slice(0, d)),)


def assert_kernel_equals_scalar(factual, candidates, slices):
    euclidean, count = edit_distances(factual, *log_of(candidates).frame, slices)
    assert euclidean.shape == count.shape == (len(candidates),)
    for candidate, e_dist, c_dist in zip(candidates, euclidean.tolist(), count.tolist()):
        assert e_dist == reference_ssdld_distance(factual, candidate, "euclidean", slices)
        assert c_dist == reference_ssdld_distance(factual, candidate, "count", slices)


@settings(max_examples=150, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    d=st.sampled_from([0, 1, 3, 12]),  # 12: wider than numpy's 8-way unrolled sum
    max_len=st.integers(1, 8),
    alphabet=st.sampled_from([1, 2, 5, 10]),  # 1: all match, 2: swap-heavy, 10: sparse
    slice_mode=st.sampled_from(["empty", "columns", "grouped"]),
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
    "d, slice_mode", [(0, "empty"), (2, "empty"), (2, "grouped"), (12, "grouped")]
)
def test_edit_distances_degenerate_shapes(d, slice_mode):
    rng = np.random.default_rng(d)
    slices = kernel_slices(slice_mode, d)
    for factual_len, lengths in [(1, [1]), (1, [6]), (6, [1]), (1, [1, 6, 3]), (6, [6] * 33)]:
        factual = kernel_trace(rng, factual_len, 6, 2, d)
        candidates = [kernel_trace(rng, n, 6, 2, d) for n in lengths]
        assert_kernel_equals_scalar(factual, candidates, slices)


@pytest.mark.parametrize(
    "d, slice_mode", [(0, "grouped"), (3, "columns"), (5, "grouped")]
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


@pytest.mark.parametrize("d", [0, 3])
def test_edit_distances_of_an_empty_frame(d):
    factual = kernel_trace(np.random.default_rng(d), 4, 6, 3, d)
    empty = np.zeros((0, 6), dtype=np.int64), np.zeros((0, 6, d)), np.zeros(0, dtype=np.int64)
    euclidean, count = edit_distances(factual, *empty, column_slices(d))
    assert euclidean.shape == count.shape == (0,)


@pytest.mark.parametrize(
    "count",
    [
        lambda a, b: edit_distances(a, *b.frame, None)[1],
        lambda a, b: ssdld(a, b, "count", None)[0],
        lambda a, b: sparsity_score(a, b, None),
    ],
    ids=["edit_distances", "ssdld", "sparsity_score"],
)
def test_a_count_without_the_attribute_layout_raises(count):
    # these traces differ in their one attribute: a count of 0 would hide it
    a, b = t([1, 2], [0.2, 0.4]), t([1, 2], [0.9, 0.4])
    with pytest.raises(TypeError, match="attribute layout"):
        count(a, b)


def test_edit_distances_swap_and_repeat_sequences():
    # alternating and repeated activities make many transposition and match
    # cells at once, with attributes carried across the swap
    rows = [[0.2, 0.9], [0.7, 0.1], [1.0, 0.0], [0.2, 0.9]]
    patterns = [[1, 2] * 3, [2, 1] * 3, [1, 2, 2, 1, 1, 2], [1] * 6, [2, 1, 1], [1, 2]]
    traces = [make_encoded(p, [rows[i % 4] for i in range(len(p))], 6) for p in patterns]
    for factual in traces:
        assert_kernel_equals_scalar(factual, traces, column_slices(2))


def test_edit_distances_on_the_criterion_1_fixture():
    # the acceptance criterion-1 traces, all 360 as one batch per factual
    fixture = [
        make_encoded(list(combo), [[value]] * length, max_len=4)
        for length in (1, 2, 3, 4)
        for combo in itertools.product((1, 2, 3), repeat=length)
        for value in (0.0, 0.5, 1.0)
    ]
    assert len(fixture) == 360
    frame = log_of(fixture).frame
    for factual in fixture:
        euclidean, count = edit_distances(factual, *frame, ONE)
        assert euclidean.tolist() == [
            reference_ssdld_distance(factual, c, "euclidean") for c in fixture
        ]
        assert count.tolist() == [reference_ssdld_distance(factual, c, "count") for c in fixture]


@pytest.mark.parametrize("budget", [1, 600, 5000, viability_module._TABLE_BUDGET])
@pytest.mark.parametrize("factual_len", [1, 4, 12])
def test_edit_distances_blocks_equal_one_row_sweeps(factual_len, budget, monkeypatch):
    rng = np.random.default_rng(factual_len)
    max_len, d = 12, 3
    factual = kernel_trace(rng, factual_len, max_len, 3, d)
    slices = kernel_slices("grouped", d)
    pool = [kernel_trace(rng, int(n), max_len, 3, d) for n in rng.integers(1, max_len + 1, 300)]
    single = [edit_distances(factual, *c.frame, slices) for c in pool]
    shapes = []

    def recording_sweep(factual, acts, feats, slices):
        shapes.append(acts.shape)
        return _sweep(factual, acts, feats, slices)

    def table(rows, m):  # the doubles of a block's pair table, (n + m + 1, n + 1, 2 rows)
        return (factual_len + m + 1) * (factual_len + 1) * 2 * rows

    monkeypatch.setattr(viability_module, "_sweep", recording_sweep)
    monkeypatch.setattr(viability_module, "_TABLE_BUDGET", budget)
    for size in (1, 2, 31, 33, 80, 150, len(pool)):
        shapes.clear()
        batch = pool[:size]
        euclidean, count = edit_distances(factual, *log_of(batch).frame, slices)
        assert euclidean.tolist() == [e.item() for e, _ in single[:size]]
        assert count.tolist() == [c.item() for _, c in single[:size]]
        # every row swept once, shortest first, each block cut to its longest row
        lengths = sorted(c.valid_len for c in batch)
        blocks = np.split(lengths, np.cumsum([rows for rows, _ in shapes])[:-1])
        assert sum(map(len, blocks)) == size
        assert shapes == [(len(block), block[-1]) for block in blocks]
        for block in blocks:
            # within the budget, or a row too long for it that sweeps alone
            assert len(block) == 1 or table(len(block), block[-1]) <= budget


@pytest.mark.parametrize(
    "d, slice_mode", [(0, "empty"), (2, "empty"), (1, "columns"), (3, "grouped"), (12, "grouped")]
)
@settings(max_examples=10, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_sweep_table_equals_the_scalar_distance_table_in_every_cell(d, slice_mode, seed):
    # the scalar table keeps the substitute term the sweep leaves out, and
    # has no inf cells; alphabets 1 and 2 make many matches and transposes
    rng = np.random.default_rng(seed)
    slices = kernel_slices(slice_mode, d)
    for alphabet, factual_len in itertools.product((1, 2, 5), (1, 2, 6)):
        factual = kernel_trace(rng, factual_len, 6, alphabet, d)
        n = factual.valid_len
        for lengths in ([1], [2], [1, 2, 4, 6, 6, 3, 1]):
            block = [kernel_trace(rng, length, 6, alphabet, d) for length in lengths]
            ids, features, _ = log_of(block).frame
            m = max(lengths)
            dp = _sweep(factual, ids[:, :m], features[:, :m], slices, full=True)[0]
            assert np.isinf(dp[:, 0]).all()  # the sentinel row -1
            for k in range(n):
                assert np.isinf(dp[k, k + 2 :]).all()  # cells left of the border
            rows = np.arange(n + 1)[:, None]
            for lane, (kind, candidate) in enumerate(
                itertools.product(("euclidean", "count"), block)
            ):
                cols = np.arange(candidate.valid_len + 1)
                table = _dp_table(factual, candidate, kind, slices)[0]
                assert dp[rows + cols, rows + 1, lane].tolist() == table


def assert_backtrace_equals_scalar(a, b, slices):
    """Both kinds' ssdld equal the scalar DP's; returns the two edit scripts.

    repr compares the distance and every op's cost by its float bits.
    """
    alignments = []
    for kind in ("euclidean", "count"):
        got = ssdld(a, b, kind, slices)
        assert repr(got) == repr(reference_ssdld(a, b, kind, slices))
        alignments.append(got[1])
    return alignments


@settings(max_examples=150, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    d=st.sampled_from([0, 1, 3, 12]),
    max_len=st.integers(1, 8),
    alphabet=st.sampled_from([1, 2, 5, 10]),
    slice_mode=st.sampled_from(["empty", "columns", "grouped"]),
    data=st.data(),
)
def test_ssdld_equals_the_scalar_backtrace(seed, d, max_len, alphabet, slice_mode, data):
    rng = np.random.default_rng(seed)
    lengths = st.one_of(st.just(1), st.just(max_len), st.integers(1, max_len))
    a = kernel_trace(rng, data.draw(lengths), max_len, alphabet, d)
    b = kernel_trace(rng, data.draw(lengths), max_len, alphabet, d)
    assert_backtrace_equals_scalar(a, b, kernel_slices(slice_mode, d))


@pytest.mark.parametrize(
    "d, slice_mode", [(0, "empty"), (1, "columns"), (3, "grouped")]
)
def test_ssdld_equals_the_scalar_backtrace_on_every_op_kind(d, slice_mode):
    # lengths 1 and max_len, alphabets 1 (all match) and 2 (swap-heavy)
    rng = np.random.default_rng(17)
    slices = kernel_slices(slice_mode, d)
    seen = set()
    for alphabet, n, m in itertools.product((1, 2), (1, 3, 6), (1, 4, 6)):
        for _ in range(8):
            a = kernel_trace(rng, n, 6, alphabet, d)
            b = kernel_trace(rng, m, 6, alphabet, d)
            for ops in assert_backtrace_equals_scalar(a, b, slices):
                seen.update(op.kind for op in ops)
    assert seen == {"match", "substitute", "transpose", "delete", "insert"}


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
        assert 0.0 <= sparsity_score(a, b, ONE) <= 1.0


def test_sparsity_identical_is_one():
    trace = t([1, 2, 3], [0.3, 0.4, 0.5])
    assert sparsity_score(trace, trace, ONE) == 1.0


@pytest.mark.parametrize("n", [2, 3, 5])
def test_sparsity_single_attribute_difference(n):
    # four attributes; one event differs in exactly one of them
    feats_a = np.full((n, 4), 0.5)
    feats_b = feats_a.copy()
    feats_b[0, 0] = 0.9
    a = make_encoded([1] * n, feats_a, max_len=6)
    b = make_encoded([1] * n, feats_b, max_len=6)
    expected = 1.0 - (1 / 4) / (2 * n)
    assert sparsity_score(a, b, column_slices(4)) == pytest.approx(expected, abs=1e-12)


def test_scalar_scores_with_the_encoder_layout_equal_the_scorer_row():
    prepared = prepare_experiment(ExperimentSpec(synthetic=SyntheticSpec()))
    slices = prepared.encoder.slices()
    factual = prepared.factuals[0]
    columns = column_slices(prepared.encoder.feature_dim)
    scorer = ViabilityScorer(factual, prepared.predictor, prepared.feas_model)
    rows = scorer.score_batch(*prepared.train.frame)
    per_column = 0
    for i in range(len(prepared.train)):
        trace = prepared.train[i]
        assert similarity_score(factual, trace) == rows[i, SIMILARITY]
        assert sparsity_score(factual, trace, slices) == rows[i, SPARSITY]
        per_column += sparsity_score(factual, trace, columns) != rows[i, SPARSITY]
    # in a one-attribute-per-column layout each column of the two-column
    # resource attribute counts as its own attribute
    assert per_column > 0


def test_sparsity_disjoint_activities_is_zero():
    a = t([1, 1, 1], [0.5, 0.5, 0.5])
    b = t([2, 3], [0.5, 0.5])
    assert sparsity_score(a, b, ONE) == pytest.approx(0.0, abs=1e-12)


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


def test_delta_score_on_an_array_equals_the_scalar_calls():
    q = np.concatenate([np.random.default_rng(5).random(40), [0.0, 1.0, 0.3, 0.7]])
    for p in (0.0, 0.3, 0.7, 1.0):
        got = delta_score(p, q)
        # repr tells -0.0 from 0.0
        assert list(map(repr, got.tolist())) == [repr(delta_score(p, x)) for x in q.tolist()]
    with pytest.raises(ValueError, match=r"p_counterfactual outside \[0, 1\]: 1.5$"):
        delta_score(0.5, np.array([0.2, 1.5, -0.1]))
    with pytest.raises(ValueError, match=r"p_counterfactual outside \[0, 1\]: nan$"):
        delta_score(0.5, np.array([0.2, np.nan, 0.4]))
    with pytest.raises(ValueError, match=r"p_factual outside \[0, 1\]: -0.5$"):
        delta_score(np.array([0.1, -0.5]), 0.5)


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
    """Probabilities keyed by the activity ids of a row's events, defaulting to 0.5."""

    def __init__(self, table):
        self.table = table

    def predict_proba_batch(self, ids, features, lengths):
        rows = zip(ids.tolist(), lengths.tolist())
        return [self.table.get(tuple(row[:n]), 0.5) for row, n in rows]


def small_model():
    train = [
        t([1, 2], [0.1, 0.6]),
        t([1, 3], [0.2, 0.7]),
        t([2, 3], [0.4, 0.9]),
    ]
    encoder = identity_encoder(max_len=6)
    return fit(log_of(train), encoder, 1e-6, 5), train


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
    predictor = ScriptedPredictor({(1, 2): 0.9, (1, 3): 0.1})
    score = viability(factual, candidate, predictor, model)
    assert score.delta == pytest.approx(0.8)


def test_viability_factual_class_zero_flips_probabilities():
    model, _ = small_model()
    factual = make_encoded([1, 2], [[0.1], [0.6]], 6, case_id="f")
    candidate = make_encoded([1, 3], [[0.2], [0.7]], 6, case_id="c")
    # factual predicted class 0 with p(o=0)=0.8; candidate p(o=0)=0.3
    predictor = ScriptedPredictor({(1, 2): 0.2, (1, 3): 0.7})
    score = viability(factual, candidate, predictor, model)
    assert score.delta == pytest.approx(0.8 - 0.3)


def test_viability_matches_independently_scripted_formulas():
    model, train = small_model()
    factual = make_encoded([1, 2], [[0.1], [0.6]], 6, case_id="f")
    candidate = make_encoded([2, 3], [[0.4], [0.8]], 6, case_id="c")
    predictor = ScriptedPredictor({(1, 2): 0.7, (2, 3): 0.4})

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
    def predict_proba_batch(self, ids, features, lengths):
        return [content_proba(trace) for trace in genomes_of(ids, features, lengths)]


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

    def predict_proba_batch(self, ids, features, lengths):
        self.calls.append([_key(trace) for trace in genomes_of(ids, features, lengths)])
        return self.inner.predict_proba_batch(ids, features, lengths)


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
        rows = scorer.score_batch(*log_of(batch[start : start + chunk]).frame).tolist()
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
    scorer.score_batch(*log_of([pool[0], pool[1], _copy(pool[0]), pool[1]]).frame)
    scorer.score_batch(*log_of([pool[1], _copy(pool[2]), pool[2], pool[3]]).frame)
    scorer.score_batch(*log_of([pool[3], _copy(pool[0])]).frame)  # all hits: no predictor call
    scorer.score(pool[4])
    assert predictor.batches == 3
    # the five distinct candidates and the factual, which rides in the first batch
    assert len(predictor.keys) == len(set(predictor.keys)) == 6
    assert _key(factual) in predictor.keys


def test_score_batch_of_no_rows_makes_no_predictor_call():
    model, _ = small_model()
    rng = np.random.default_rng(11)
    factual = random_trace(rng)
    predictor = CountingPredictor()
    scorer = ViabilityScorer(factual, predictor, model)
    empty = log_of([factual]).take(slice(0)).frame
    for _ in range(2):
        rows = scorer.score_batch(*empty)
        assert rows.shape == (0, 5) and rows.dtype == float
    assert predictor.batches == 0 and scorer.factual_class is None
    # the first batch that holds a row still carries the factual, first
    scorer.score_batch(*random_trace(rng).frame)
    assert predictor.calls[0][0] == _key(factual)


class FailingPredictor(CountingPredictor):
    """A CountingPredictor whose call number fail_on raises."""

    def __init__(self, fail_on):
        super().__init__()
        self.fail_on = fail_on

    def predict_proba_batch(self, ids, features, lengths):
        if self.batches == self.fail_on:
            self.calls.append(None)
            raise RuntimeError("predictor down")
        return super().predict_proba_batch(ids, features, lengths)


@pytest.mark.parametrize("fail_on", [0, 1])
def test_score_batch_after_a_failed_predictor_call_scores_as_a_fresh_scorer(fail_on):
    model, _ = small_model()
    rng = np.random.default_rng(12)
    factual = random_trace(rng)
    pool = [random_trace(rng) for _ in range(4)]
    batches = [log_of(pool[:2]).frame, log_of([pool[1], pool[2], pool[3], pool[2]]).frame]
    predictor = FailingPredictor(fail_on)
    scorer = ViabilityScorer(factual, predictor, model)
    for frame in batches[:fail_on]:
        scorer.score_batch(*frame)
    memo, table = dict(scorer._memo), scorer._table.copy()
    with pytest.raises(RuntimeError, match="predictor down"):
        scorer.score_batch(*batches[fail_on])
    # nothing of the failed batch is kept
    assert scorer._memo == memo and scorer._table.tobytes() == table.tobytes()
    if fail_on == 0:
        assert scorer.factual_class is None
    retried = scorer.score_batch(*batches[fail_on])
    fresh = ViabilityScorer(factual, ContentPredictor(), model).score_batch(*batches[fail_on])
    assert retried.tobytes() == fresh.tobytes()


def test_factual_rides_in_the_first_predictor_call_only():
    model, _ = small_model()
    rng = np.random.default_rng(9)
    factual = random_trace(rng)
    pool = [random_trace(rng) for _ in range(3)]
    predictor = CountingPredictor()
    scorer = ViabilityScorer(factual, predictor, model)
    assert scorer.factual_class is None and predictor.batches == 0
    scorer.score_batch(*pool[0].frame)
    # a copy of the factual scored later reuses the first call's probability
    rows = scorer.score_batch(*log_of([pool[1], _copy(factual), pool[2]]).frame).tolist()
    late = ViabilityScore(*rows[1])
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
    rows = scorer.score_batch(*log_of([other, _copy(factual), other]).frame).tolist()
    scores = [ViabilityScore(*row) for row in rows]
    assert predictor.calls == [[_key(factual), _key(other)]]
    reference = [viability(factual, c, ContentPredictor(), model) for c in (other, factual)]
    assert scores == [reference[0], reference[1], reference[0]]


def test_cbi_population_holding_the_factual_sends_it_once(synth_setup):
    # CBI draws log traces, so an initial frame can hold rows equal to the factual
    model = synth_setup["feas_model"]
    factual = synth_setup["test"][0]
    log = log_of([factual, *synth_setup["train"].take(slice(5))])
    predictor = CountingPredictor(synth_setup["predictor"])
    scorer = ViabilityScorer(factual, predictor, model)
    population = initialize("CBI", 40, log, scorer, np.random.default_rng(4))
    keys = [_key(genome) for genome in genomes_of(*population.frame)]
    assert keys.count(_key(factual)) > 1
    # the factual first, then each other distinct row in order of first sight
    others = [key for key in dict.fromkeys(keys) if key != _key(factual)]
    assert predictor.calls == [[_key(factual), *others]]
    for genome, score in scored(population):
        assert score == viability(factual, genome, synth_setup["predictor"], model)


def test_evolve_scores_each_distinct_genome_once(synth_setup):
    predictor = CountingPredictor(synth_setup["predictor"])
    config = EvoConfig(
        "CBI-RWS-OPC-SBM-FSR", population_size=60, offspring_per_cycle=20, cycles=4, seed=3
    )
    scorer = ViabilityScorer(synth_setup["test"][0], predictor, synth_setup["feas_model"])
    evolve(scorer, config, synth_setup["train"])
    # one batch for the initial population plus at most one per cycle, and
    # no genome twice (the factual rides in the first batch)
    assert 1 <= predictor.batches <= 1 + config.cycles
    assert len(predictor.keys) == len(set(predictor.keys))
    assert len(predictor.keys) < config.population_size + config.cycles * 20


def test_row_keys_tell_lengths_apart_over_the_same_padded_cells():
    model, _ = small_model()
    rng = np.random.default_rng(13)
    factual = random_trace(rng)
    whole = t([1, 2, 3], [0.1, 0.6, 0.9])
    ids, features, _ = log_of([whole, whole]).frame
    lengths = np.array([3, 2])
    first, second = viability_module._row_keys(ids, features, lengths)
    assert first != second
    rows = ViabilityScorer(factual, ContentPredictor(), model).score_batch(ids, features, lengths)
    # the 2-event row is scored on its prefix, whatever its third cell holds
    prefix = viability(factual, t([1, 2], [0.1, 0.6]), ContentPredictor(), model)
    assert ViabilityScore(*rows[1].tolist()) == prefix and rows[0].tolist() != rows[1].tolist()


def test_row_keys_of_equal_prefixes_and_zero_padding_share_one_predictor_row():
    model, _ = small_model()
    rng = np.random.default_rng(14)
    factual, genome = random_trace(rng), random_trace(rng)
    frame = log_of([genome, _copy(genome), genome]).frame
    keys = viability_module._row_keys(*frame)
    assert keys[0] == keys[1] == keys[2]
    predictor = CountingPredictor()
    rows = ViabilityScorer(factual, predictor, model).score_batch(*frame)
    assert predictor.calls == [[_key(factual), _key(genome)]]
    assert rows[0].tobytes() == rows[1].tobytes() == rows[2].tobytes()


def test_row_keys_of_nonzero_padding_score_as_the_zero_padded_copy():
    model, _ = small_model()
    rng = np.random.default_rng(15)
    factual = random_trace(rng)
    clean = log_of([random_trace(rng) for _ in range(40)]).frame
    ids, features, lengths = (column.copy() for column in clean)
    padding = np.arange(ids.shape[1]) >= lengths[:, None]
    # real activities, so every table lookup of a padding cell stays in range
    ids[padding] = rng.integers(1, 4, size=padding.sum())
    features[padding] = rng.random((padding.sum(), features.shape[2]))
    scorer = ViabilityScorer(factual, ContentPredictor(), model)
    expected = scorer.score_batch(*clean)
    noisy = ViabilityScorer(factual, ContentPredictor(), model).score_batch(ids, features, lengths)
    assert noisy.tobytes() == expected.tobytes()
    # in the scorer that saw the clean rows they are new keys with the same scores
    assert scorer.score_batch(ids, features, lengths).tobytes() == expected.tobytes()


def test_evocf_viability_is_the_module():
    import types

    import evocf
    import evocf.viability as viability_module

    assert isinstance(viability_module, types.ModuleType)
    assert evocf.viability is viability_module
    assert "viability" not in evocf.__all__
