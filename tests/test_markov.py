import hashlib
from collections import Counter, defaultdict

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import identity_encoder, make_encoded
from evocf.event_log import CategoricalCodec, EncoderSpec, NumericCodec
from evocf.evolution import crossover
from evocf.markov import (
    _TRACE_CHUNK,
    _emission_factors,
    feasibility,
    feasibility_batch,
    fit,
    sample_attribute_rows,
    sample_attributes,
    sample_sequence,
    sample_traces,
)

A, B, C = 1, 2, 3


def emission_probability(model, activity_id, feature_row):
    """P(features | activity) through the tables feasibility multiplies.

    A categorical sub-vector that is not exactly a known category code (within
    1e-9 per bit) has probability 0: the distribution ranges over real
    categories only, so arbitrary real-valued vectors fall outside its
    support.
    """
    ids = np.array([activity_id])
    return float(_emission_factors(model, ids, feature_row[np.newaxis, :])[0])


def enc3(activities, values, max_len=8):
    return make_encoded(activities, [[v] for v in values], max_len)


def two_trace_model(epsilon=0.0, n_bins=2):
    train = [enc3([A, B], [0.1, 0.6]), enc3([A, C], [0.2, 0.7])]
    return fit(train, identity_encoder(max_len=8), epsilon, n_bins), train


def test_fit_counts_match_hand_ratios():
    model, _ = two_trace_model()
    assert model.initial_probs[A] == 1.0
    assert model.transition[A][B] == 0.5
    assert model.transition[A][C] == 0.5
    assert model.transition[B][0] == 1.0  # END after b
    assert model.transition[C][0] == 1.0


def test_fit_single_trace_end_probability():
    train = [enc3([A], [0.5])]
    model = fit(train, identity_encoder(max_len=8), 0.0, 2)
    assert model.initial_probs[A] == 1.0
    assert model.transition[A][0] == 1.0


def test_smoothing_makes_everything_positive():
    model, _ = two_trace_model(epsilon=1e-6)
    assert np.all(model.transition[1:] > 0.0)
    assert np.all(model.initial_probs[1:] > 0.0)


def test_distributions_sum_to_one():
    for epsilon in (0.0, 1e-6, 0.5):
        model, _ = two_trace_model(epsilon=epsilon)
        assert abs(model.initial_probs.sum() - 1.0) < 1e-9
        for row in model.transition:
            assert abs(row.sum() - 1.0) < 1e-9
        for table in model.emissions:
            for probs in table[1:, :-1]:
                assert abs(probs.sum() - 1.0) < 1e-9
        assert np.all(model.transition >= 0.0) and np.all(model.transition <= 1.0)


# ---------------------------------------------------------------------------
# feasibility vs an independent counting oracle


def oracle_feasibility(train, query, vocab_size, epsilon, n_bins):
    """Count-based evaluation of the transition/emission product."""
    k = vocab_size
    n = len(train)
    init = Counter(int(t.activity_ids[0]) for t in train)
    trans = defaultdict(Counter)
    bins = defaultdict(Counter)  # activity -> bin -> count
    act_total = Counter()
    for t in train:
        ids = [int(a) for a in t.activity_ids[: t.valid_len]]
        for left, right in zip(ids, ids[1:] + [0]):
            trans[left][right] += 1
        for step, act in enumerate(ids):
            value = float(t.features[step, 0])
            bins[act][min(int(value * n_bins), n_bins - 1)] += 1
            act_total[act] += 1

    def p_init(a):
        return (init.get(a, 0) + epsilon) / (n + epsilon * k)

    def p_trans(i, j):
        total = sum(trans[i].values())
        denom = total + epsilon * (k + 1)
        if denom == 0:
            return 1.0 / (k + 1)
        return (trans[i].get(j, 0) + epsilon) / denom

    def p_emit(a, value):
        idx = min(int(value * n_bins), n_bins - 1)
        denom = act_total.get(a, 0) + epsilon * n_bins
        if denom == 0:
            return 1.0 / n_bins
        return (bins[a].get(idx, 0) + epsilon) / denom

    ids = [int(a) for a in query.activity_ids[: query.valid_len]]
    p = p_init(ids[0]) * p_emit(ids[0], float(query.features[0, 0]))
    for t in range(1, len(ids)):
        p *= p_trans(ids[t - 1], ids[t]) * p_emit(ids[t], float(query.features[t, 0]))
    return p


def ten_trace_log():
    rows = [
        ([A, B], [0.05, 0.55]),
        ([A, B, C], [0.15, 0.65, 0.95]),
        ([A, C], [0.25, 0.85]),
        ([B, C], [0.45, 0.75]),
        ([A, B, B], [0.05, 0.45, 0.55]),
        ([C], [0.95]),
        ([A], [0.35]),
        ([B, A], [0.65, 0.15]),
        ([A, B, C], [0.05, 0.55, 0.85]),
        ([C, A], [0.75, 0.25]),
    ]
    return [enc3(acts, vals) for acts, vals in rows]


@pytest.mark.parametrize("epsilon", [0.0, 1e-6])
def test_feasibility_matches_counting_oracle(epsilon):
    train = ten_trace_log()
    encoder = identity_encoder(max_len=8)
    model = fit(train, encoder, epsilon, n_bins=5)
    queries = [
        enc3([A, B], [0.1, 0.6]),
        enc3([A, B, C], [0.1, 0.6, 0.9]),
        enc3([C, A], [0.8, 0.2]),
        enc3([B], [0.5]),
        enc3([A, C, A], [0.2, 0.8, 0.3]),
    ]
    for query in queries:
        expected = oracle_feasibility(train, query, encoder.vocab_size, epsilon, 5)
        assert abs(feasibility(model, query) - expected) < 1e-12


def test_single_event_trace_is_initial_times_emission():
    model, _ = two_trace_model(n_bins=2)
    query = enc3([A], [0.1])
    expected = float(model.initial_probs[A]) * float(model.emissions[0][A, 0])
    assert feasibility(model, query) == expected


def test_unseen_transition_with_zero_smoothing_is_zero():
    model, _ = two_trace_model(epsilon=0.0)
    assert feasibility(model, enc3([B, A], [0.6, 0.1])) == 0.0


def test_training_traces_have_positive_feasibility_without_smoothing():
    train = ten_trace_log()
    model = fit(train, identity_encoder(max_len=8), 0.0, 5)
    for trace in train:
        assert feasibility(model, trace) > 0.0


def test_feasibility_is_a_probability_and_monotone_in_length():
    train = ten_trace_log()
    model = fit(train, identity_encoder(max_len=8), 1e-6, 5)
    rng = np.random.default_rng(0)
    for _ in range(200):
        length = int(rng.integers(1, 7))
        acts = rng.integers(1, 4, size=length).tolist()
        vals = rng.random(length).tolist()
        trace = enc3(acts, vals)
        p = feasibility(model, trace)
        assert 0.0 <= p <= 1.0
        extended = enc3(
            acts + [int(rng.integers(1, 4))], vals + [float(rng.random())]
        )
        assert feasibility(model, extended) <= p + 1e-15


def test_padding_is_ignored():
    model, _ = two_trace_model()
    short_frame = enc3([A, B], [0.1, 0.6], max_len=2)
    long_frame = enc3([A, B], [0.1, 0.6], max_len=8)
    assert feasibility(model, short_frame) == feasibility(model, long_frame)


def test_invalid_categorical_code_has_zero_emission():
    from evocf.event_log import AttributeSchema, CategoricalCodec, EncoderSpec

    encoder = EncoderSpec({"a": 1}, (CategoricalCodec("r", ("x", "y", "z")),), 4)
    train = [make_encoded([1], [[0.0, 1.0]], 4)]  # category "x"
    model = fit(train, encoder, 1e-6, 4)
    garbage = make_encoded([1], [[0.37, 0.82]], 4)
    assert emission_probability(model, 1, garbage.features[0]) == 0.0
    assert feasibility(model, garbage) == 0.0


# ---------------------------------------------------------------------------
# sampling


def test_sample_sequence_deterministic_chain():
    model = fit([enc3([A], [0.5])], identity_encoder(max_len=8), 0.0, 2)
    rng = np.random.default_rng(0)
    for _ in range(20):
        assert sample_sequence(model, 8, rng) == [A]


def test_sample_sequence_matches_transition_frequencies():
    # b follows a in 7 of 10 traces, c in the remaining 3
    train = [enc3([A, B], [0.1, 0.6])] * 7 + [enc3([A, C], [0.1, 0.6])] * 3
    model = fit(train, identity_encoder(max_len=8), 0.0, 2)
    rng = np.random.default_rng(42)
    follows = Counter()
    for _ in range(10_000):
        seq = sample_sequence(model, 8, rng)
        assert len(seq) >= 1
        if len(seq) > 1:
            follows[seq[1]] += 1
    total = follows[B] + follows[C]
    assert abs(follows[B] / total - 0.7) < 0.02


def test_sample_sequence_seed_reproducible():
    model = fit(ten_trace_log(), identity_encoder(max_len=8), 1e-6, 5)
    first = [sample_sequence(model, 8, np.random.default_rng(9)) for _ in range(1)]
    second = [sample_sequence(model, 8, np.random.default_rng(9)) for _ in range(1)]
    assert first == second


def test_sample_attributes_single_bin_support():
    # all values in bin [0.4, 0.6) of a 5-bin histogram
    train = [enc3([A], [0.45]), enc3([A], [0.5]), enc3([A], [0.55])]
    model = fit(train, identity_encoder(max_len=8), 0.0, 5)
    rng = np.random.default_rng(1)
    for _ in range(100):
        row = sample_attributes(model, A, rng)
        assert 0.4 <= row[0] < 0.6


def test_sample_attributes_point_mass_category():
    from evocf.event_log import CategoricalCodec, EncoderSpec

    encoder = EncoderSpec({"a": 1}, (CategoricalCodec("r", ("x", "y", "z")),), 4)
    train = [make_encoded([1], [[1.0, 0.0]], 4)]  # always category "y"
    model = fit(train, encoder, 0.0, 4)
    rng = np.random.default_rng(2)
    for _ in range(50):
        row = sample_attributes(model, 1, rng)
        assert row.tolist() == [1.0, 0.0]


def test_sample_attributes_matches_histogram():
    rng_data = np.random.default_rng(3)
    train = [enc3([A], [float(v)]) for v in rng_data.random(500)]
    model = fit(train, identity_encoder(max_len=8), 0.0, 5)
    rng = np.random.default_rng(4)
    counts = np.zeros(5)
    n = 10_000
    for _ in range(n):
        row = sample_attributes(model, A, rng)
        counts[min(int(row[0] * 5), 4)] += 1
    fitted = model.emissions[0][A, :5]
    assert np.all(np.abs(counts / n - fitted) < 0.02)


# ---------------------------------------------------------------------------
# tables against the per-event scalar path they replaced


def scalar_decode_index(codec, code, tol=1e-9):
    bits = np.rint(code)
    if np.any(np.abs(code - bits) > tol):
        return None
    value = 0
    for b in bits:
        value = (value << 1) | int(b)
    if value == 0 or value > len(codec.categories):
        return None
    return value - 1


def scalar_emission(model, activity_id, row):
    p = 1.0
    for i, (codec, cols) in enumerate(model.encoder.slices()):
        code = row[cols]
        if isinstance(codec, NumericCodec):
            idx = min(max(int(float(code[0]) * model.n_bins), 0), model.n_bins - 1)
            p *= float(model.emissions[i][activity_id, : model.n_bins][idx])
        else:
            idx = scalar_decode_index(codec, code)
            if idx is None:
                return 0.0
            p *= float(model.emissions[i][activity_id, : len(codec.categories)][idx])
    return p


def scalar_feasibility(model, trace):
    """The per-event loop: initial, emission, then transition and emission per step."""
    ids = trace.activity_ids[: trace.valid_len]
    p = float(model.initial_probs[ids[0]])
    p *= scalar_emission(model, int(ids[0]), trace.features[0])
    for t in range(1, len(ids)):
        p *= float(model.transition[ids[t - 1], ids[t]])
        p *= scalar_emission(model, int(ids[t]), trace.features[t])
    return p


def choice_sample_sequence(model, max_len, rng):
    k = model.vocab_size
    current = int(rng.choice(k + 1, p=model.initial_probs))
    sequence = [current]
    while len(sequence) < max_len:
        nxt = int(rng.choice(k + 1, p=model.transition[current]))
        if nxt == 0:
            break
        sequence.append(nxt)
        current = nxt
    return sequence


def choice_sample_attributes(model, activity_id, rng):
    row = np.zeros(model.encoder.feature_dim)
    for i, (codec, cols) in enumerate(model.encoder.slices()):
        if isinstance(codec, NumericCodec):
            probs = model.emissions[i][activity_id, : model.n_bins]
            bin_idx = int(rng.choice(model.n_bins, p=probs))
            row[cols] = (bin_idx + rng.random()) / model.n_bins
        else:
            probs = model.emissions[i][activity_id, : len(codec.categories)]
            cat_idx = int(rng.choice(len(probs), p=probs))
            row[cols] = codec.encode(codec.categories[cat_idx])
    return row


MIXED_ENCODER = EncoderSpec(
    {"a": 1, "b": 2, "c": 3, "d": 4},
    (
        NumericCodec("x0", 0.0, 1.0),
        CategoricalCodec("r", ("r0", "r1", "r2")),        # width 2, every nonzero code used
        CategoricalCodec("s", ("s0", "s1", "s2", "s3", "s4")),  # width 3, codes 6 and 7 unused
        NumericCodec("x1", 0.0, 1.0),
    ),
    8,
)
N_BINS = 5


def mixed_row(rng, activity):
    r = MIXED_ENCODER.codecs[1]
    s = MIXED_ENCODER.codecs[2]
    return np.concatenate(
        [
            [rng.random()],
            r.encode(r.categories[int(rng.integers(0, 2 + activity % 2))]),
            s.encode(s.categories[int(rng.integers(0, 5))]),
            [rng.random() ** 2],
        ]
    )


def mixed_train(n=40, seed=5):
    rng = np.random.default_rng(seed)
    traces = []
    for i in range(n):
        length = int(rng.integers(1, 7))
        acts = rng.integers(1, 4, size=length).tolist()  # activity 4 never observed
        rows = [mixed_row(rng, a) for a in acts]
        traces.append(make_encoded(acts, rows, 8, case_id=f"m{i}"))
    return traces


MIXED_MODELS = {eps: fit(mixed_train(), MIXED_ENCODER, eps, N_BINS) for eps in (0.0, 1e-6)}


def _numeric_cell(kind, rng):
    return {0: 0.0, 1: 1.0, 2: float(rng.integers(0, N_BINS + 1)) / N_BINS}.get(kind, rng.random())


def _categorical_cell(codec, kind, rng):
    if kind == 0:  # a real category
        return codec.encode(codec.categories[int(rng.integers(0, len(codec.categories)))])
    if kind == 1:  # absent
        return np.zeros(codec.width)
    if kind == 2:  # bits spelling a value past the last category, or off-code noise
        if len(codec.categories) < 2**codec.width - 1:
            return np.ones(codec.width)
        return rng.random(codec.width)
    if kind in (3, 4):  # a code nudged within, or just past, the 1e-9 tolerance
        code = codec.encode(codec.categories[0])
        return np.abs(code - (1e-10 if kind == 3 else 1e-6))
    return rng.random(codec.width)  # off-code


@st.composite
def mixed_genomes(draw):
    length = draw(st.integers(1, 8))
    acts = draw(st.lists(st.integers(1, 4), min_size=length, max_size=length))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    rows = []
    for _ in range(length):
        parts = []
        for codec in MIXED_ENCODER.codecs:
            kind = draw(st.integers(0, 5))
            if isinstance(codec, NumericCodec):
                parts.append([_numeric_cell(kind, rng)])
            else:
                parts.append(_categorical_cell(codec, kind, rng))
        rows.append(np.concatenate(parts))
    return make_encoded(acts, rows, 8)


@settings(max_examples=150, deadline=None)
@given(
    genome_a=mixed_genomes(),
    genome_b=mixed_genomes(),
    kind=st.sampled_from(["UC", "OPC", "TPC"]),
    seed=st.integers(0, 2**32 - 1),
)
def test_table_feasibility_equals_scalar_path(genome_a, genome_b, kind, seed):
    children = crossover(kind, genome_a, genome_b, np.random.default_rng(seed), uc_rate=0.5)
    for model in MIXED_MODELS.values():
        for genome in (genome_a, genome_b, *children):
            assert feasibility(model, genome) == scalar_feasibility(model, genome)
            for t in range(genome.valid_len):
                a, row = int(genome.activity_ids[t]), genome.features[t]
                assert emission_probability(model, a, row) == scalar_emission(model, a, row)
                for codec, cols in MIXED_ENCODER.slices():
                    if isinstance(codec, CategoricalCodec):
                        index = int(codec.decode_indices(row[np.newaxis, cols])[0])
                        expected = scalar_decode_index(codec, row[cols])
                        assert index == (-1 if expected is None else expected)


def test_table_feasibility_equals_scalar_path_on_the_synthetic_log(synth_setup):
    model = synth_setup["feas_model"]
    for trace in synth_setup["train"] + synth_setup["test"]:
        assert feasibility(model, trace) == scalar_feasibility(model, trace)


@settings(max_examples=150, deadline=None)
@given(genomes=st.lists(mixed_genomes(), min_size=1, max_size=12))
def test_feasibility_batch_equals_feasibility(genomes):
    # mixed genomes carry off-codes, codes at and past the decode tolerance and
    # the never-observed activity 4, so epsilon 0 gives many zero factors
    for model in MIXED_MODELS.values():
        assert feasibility_batch(model, genomes) == [feasibility(model, g) for g in genomes]


def test_feasibility_batch_on_the_synthetic_log(synth_setup):
    model = synth_setup["feas_model"]
    traces = synth_setup["train"] + synth_setup["test"]
    assert feasibility_batch(model, traces) == [feasibility(model, t) for t in traces]
    assert feasibility_batch(model, traces[:1]) == [feasibility(model, traces[0])]
    assert feasibility_batch(model, []) == []


@pytest.mark.parametrize("eps", [0.0, 1e-6])
def test_cdf_sampling_replays_generator_choice(eps, synth_setup):
    for model in (MIXED_MODELS[eps], fit(synth_setup["train"], synth_setup["encoder"], eps)):
        ours, reference = np.random.default_rng(17), np.random.default_rng(17)
        for _ in range(300):
            sequence = sample_sequence(model, 8, ours)
            assert sequence == choice_sample_sequence(model, 8, reference)
            for a in sequence:
                row = sample_attributes(model, a, ours)
                assert row.tobytes() == choice_sample_attributes(model, a, reference).tobytes()
        assert ours.bit_generator.state == reference.bit_generator.state


def test_fit_json_is_unchanged_on_the_synthetic_log(synth_setup):
    # sha256 of to_json() as written by the per-trace counting loop
    expected = {
        (1e-6, 10): "5c88b9b03b5bc8e44f84236460bc1abc5f274d53bb62fb95d107e1653c6960f1",
        (0.0, 5): "7b59a8daf7928178d4f06889a30114140ecde66ee54d3e5dfd9fa0381c0b15cc",
    }
    for (eps, n_bins), digest in expected.items():
        model = fit(synth_setup["train"], synth_setup["encoder"], eps, n_bins)
        assert hashlib.sha256(model.to_json().encode()).hexdigest() == digest


def _single_kind_model(codecs, rows_of, eps):
    """A model over activities 1..3 whose attributes are all of one kind."""
    encoder = EncoderSpec({"a": 1, "b": 2, "c": 3}, codecs, 8)
    rng = np.random.default_rng(3)
    train = []
    for _ in range(30):
        acts = rng.integers(1, 4, size=int(rng.integers(1, 7))).tolist()
        train.append(make_encoded(acts, [rows_of(rng) for _ in acts], 8))
    return fit(train, encoder, eps, N_BINS)


def _categorical_row(rng):
    codecs = (CategoricalCodec("r", ("r0", "r1", "r2")), CategoricalCodec("s", ("s0", "s1")))
    return np.concatenate([c.encode(c.categories[rng.integers(0, 2)]) for c in codecs])


BULK_MODELS = {
    "mixed": MIXED_MODELS,
    "numeric": {
        eps: _single_kind_model(
            (NumericCodec("x0", 0.0, 1.0), NumericCodec("x1", 0.0, 1.0)),
            lambda rng: rng.random(2),
            eps,
        )
        for eps in (0.0, 1e-6)
    },
    "categorical": {
        eps: _single_kind_model(
            (CategoricalCodec("r", ("r0", "r1", "r2")), CategoricalCodec("s", ("s0", "s1"))),
            _categorical_row,
            eps,
        )
        for eps in (0.0, 1e-6)
    },
    "none": {eps: _single_kind_model((), lambda rng: np.zeros(0), eps) for eps in (0.0, 1e-6)},
}


@pytest.mark.parametrize("kind", sorted(BULK_MODELS))
@pytest.mark.parametrize("eps", [0.0, 1e-6])
def test_sample_attribute_rows_replays_sample_attributes(kind, eps):
    model = BULK_MODELS[kind][eps]
    ours, reference = np.random.default_rng(23), np.random.default_rng(23)
    for _ in range(200):
        sequence = sample_sequence(model, 8, ours)
        assert sequence == sample_sequence(model, 8, reference)
        rows = sample_attribute_rows(model, sequence, ours)
        expected = np.stack([sample_attributes(model, a, reference) for a in sequence])
        assert rows.shape == expected.shape
        assert rows.tobytes() == expected.tobytes()
        assert ours.bit_generator.state == reference.bit_generator.state


@pytest.mark.parametrize("kind", sorted(BULK_MODELS))
@pytest.mark.parametrize("eps", [0.0, 1e-6])
@pytest.mark.parametrize("max_len", [1, 2, 8])
def test_sample_traces_replay_the_per_trace_calls(kind, eps, max_len):
    model = BULK_MODELS[kind][eps]
    ours, reference = np.random.default_rng(29), np.random.default_rng(29)
    reached = False
    for n in (0, 1, _TRACE_CHUNK, 2 * _TRACE_CHUNK + 3):
        lengths, acts, rows = sample_traces(model, max_len, n, ours)
        sequences, expected = [], []
        for _ in range(n):
            sequences.append(sample_sequence(model, max_len, reference))
            expected.append(sample_attribute_rows(model, sequences[-1], reference))
        assert lengths == [len(sequence) for sequence in sequences]
        assert acts.dtype == np.int64
        assert acts.tolist() == [a for sequence in sequences for a in sequence]
        assert rows.shape == (sum(lengths), model.encoder.feature_dim)
        if n:
            assert rows.tobytes() == np.concatenate(expected).tobytes()
        assert ours.bit_generator.state == reference.bit_generator.state
        # chains that stop at max_len, with no END draw, are covered
        reached = reached or max_len in lengths
    assert reached


def test_sample_traces_rejects_an_empty_frame():
    with pytest.raises(ValueError):
        sample_traces(BULK_MODELS["mixed"][0.0], 0, 3, np.random.default_rng(0))
