from dataclasses import astuple, fields, replace

import numpy as np
import pytest

import evocf.evolution as evolution
from conftest import (
    check_encoded_invariants,
    cross_genomes,
    encoded_equal,
    genomes_of,
    identity_encoder,
    log_of,
    make_encoded,
    mutate_genome,
    reference_crossover,
    reference_cycle_stats,
    reference_evolve,
    reference_mutate,
    reference_random_genomes,
    reference_recombine,
    reference_select,
    sample_attribute_rows,
    sampled_genomes,
    scored,
)
from evocf.errors import ConfigNameError, ConfigurationError, SelectionError
from evocf.evolution import (
    BASELINES,
    FEASIBILITY,
    FITNESS_FLOOR,
    OPERATOR_TOKENS,
    TOTAL,
    EvoConfig,
    MutationRates,
    Population,
    _cycle_stats,
    _random_genomes,
    crossover,
    evolve,
    initialize,
    mutate,
    recombine,
    select,
)
from evocf.harness import GRID_PRESET_135, GRID_PRESET_162
from evocf.markov import fit, sample_traces
from evocf.viability import ViabilityScorer


def t(acts, values, max_len=6):
    return make_encoded(acts, [[v] for v in values], max_len)


def one_event_population(values, scores):
    """Row i is one event, activity 1 + i % 3 with feature values[i], scored by scores[i]."""
    n = len(values)
    ids = np.zeros((n, 6), dtype=np.int64)
    ids[:, 0] = 1 + np.arange(n) % 3
    features = np.zeros((n, 6, 1))
    features[:, 0, 0] = values
    lengths = np.ones(n, dtype=np.int64)
    return Population(ids, features, lengths, np.asarray(scores, dtype=float).reshape(-1, 5))


def population_of(*totals):
    """Distinct one-event genomes scored by total alone; ranking tests read no component."""
    scores = np.zeros((len(totals), 5))
    scores[:, TOTAL] = totals
    return one_event_population(np.arange(len(totals)) / 16, scores)


def same_rows(got, want):
    """The two populations hold the same frame and score rows, byte for byte."""
    return all(a.tobytes() == b.tobytes() for a, b in zip(
        (*got.frame, got.scores), (*want.frame, want.scores)
    )) and len(got) == len(want)


def recombined(kind, population, mutants, max_size):
    """recombine from the index 0..N-1 on a copy of the frame with room for max_size rows.

    Returns the survivors as a frame in their new order.
    """
    spare = max(max_size - len(population), 0)
    frame = tuple(
        np.concatenate([column, np.zeros((spare, *column.shape[1:]), column.dtype)])
        for column in population.frame
    )
    index, scores = recombine(
        kind, frame, np.arange(len(population)), population.scores, mutants, max_size
    )
    return Population(*(column[index] for column in frame), scores)


class HalfPredictor:
    def predict_proba_batch(self, ids, features, lengths):
        return [0.5] * len(lengths)


def training_setup():
    train = log_of([
        t([1, 2], [0.1, 0.6]),
        t([1, 3], [0.2, 0.7]),
        t([2, 3], [0.4, 0.9]),
        t([1, 2, 3], [0.1, 0.5, 0.9]),
    ])
    encoder = identity_encoder(max_len=6)
    model = fit(train, encoder, 1e-6, 5)

    scorer = ViabilityScorer(train[0], HalfPredictor(), model)
    return train, model, scorer


# ---------------------------------------------------------------------------
# config names


def test_config_name_views():
    config = EvoConfig("CBI-RWS-OPC-SBM-FSR")
    assert (config.initiator, config.selector, config.crosser) == ("CBI", "RWS", "OPC")
    assert (config.mutator, config.recombiner) == ("SBM", "FSR")
    assert config.name == "CBI-RWS-OPC-SBM-FSR"


def test_config_name_uniform_rate():
    config = EvoConfig("CBI-RWS-UC3-RM-RR")
    assert config.crosser == "UC"
    assert config.uc_rate == pytest.approx(0.3)
    assert config.name == "CBI-RWS-UC3-RM-RR"


@pytest.mark.parametrize(
    "name", ["RI-TS-TPC-RM-BBR", "SBI-ES-UC7-SBM-RR", "CBI-RWS-OPC-SBM-FSR"]
)
def test_config_name_round_trip(name):
    assert EvoConfig(name).name == name


def test_every_preset_and_baseline_name_round_trips_with_its_views():
    for name in (*GRID_PRESET_162, *GRID_PRESET_135, *BASELINES.values()):
        config = EvoConfig(name)
        assert config.name == name
        initiator, selector, crosser, mutator, recombiner = name.split("-")
        uc_rate = None
        if crosser not in ("OPC", "TPC"):
            crosser, uc_rate = "UC", {f"UC{d}": d / 10 for d in range(1, 10)}[crosser]
        assert (config.initiator, config.selector, config.crosser) == (initiator, selector, crosser)
        assert (config.mutator, config.recombiner, config.uc_rate) == (mutator, recombiner, uc_rate)
        assert replace(config, seed=7).crosser == crosser


@pytest.mark.parametrize(
    "name, message",
    [
        ("CBI-RWS-UC0-SBM-FSR", "unknown operator token 'UC0' in 'CBI-RWS-UC0-SBM-FSR'"),
        ("CBI-RWS-UC10-SBM-FSR", "unknown operator token 'UC10' in 'CBI-RWS-UC10-SBM-FSR'"),
        ("CBI-RWS-UC-SBM-FSR", "unknown operator token 'UC' in 'CBI-RWS-UC-SBM-FSR'"),
        ("CBI-RWS-OPC-SBM", "expected five dash-separated tokens, got 'CBI-RWS-OPC-SBM'"),
        ("CBI-XXX-OPC-SBM-FSR", "unknown operator token 'XXX' in 'CBI-XXX-OPC-SBM-FSR'"),
    ],
)
def test_a_bad_config_name_raises_its_message(name, message):
    with pytest.raises(ConfigNameError) as info:
        EvoConfig(name)
    assert str(info.value) == message


def test_operator_kinds_are_views_of_the_name_not_fields():
    # a rate the name cannot state cannot be built
    with pytest.raises(TypeError):
        EvoConfig(crosser="UC", uc_rate=0.35)
    assert [f.name for f in fields(EvoConfig)] == [
        "name", "population_size", "offspring_per_cycle", "mutation_rates", "cycles", "seed",
    ]
    with pytest.raises(AttributeError):
        EvoConfig().crosser = "TPC"


def test_config_validation():
    with pytest.raises(ValueError):
        EvoConfig("CBI-RWS-OPC-SBM-FSR", population_size=10, offspring_per_cycle=20)
    with pytest.raises(ValueError):
        MutationRates(insert=1.5)


def test_zero_cycles_skip_the_offspring_checks():
    # a zero-cycle run breeds nothing, so a single-candidate population is fine
    config = EvoConfig(population_size=1, cycles=0)
    assert config.offspring_per_cycle == 100
    with pytest.raises(ValueError):
        EvoConfig(population_size=0, cycles=0)
    for population_size, offspring in ((1, 100), (10, 20), (10, 1), (10, 3)):
        with pytest.raises(ValueError):
            EvoConfig(population_size=population_size, offspring_per_cycle=offspring, cycles=1)
    with pytest.raises(ValueError):
        EvoConfig(cycles=-1)


# ---------------------------------------------------------------------------
# initialize


def test_initialize_cbi_draws_from_log():
    train, model, scorer = training_setup()
    rng = np.random.default_rng(0)
    population = initialize("CBI", 20, train, scorer, rng)
    assert len(population) == 20
    sources = [tuple(tr.activity_ids.tolist()) for tr in train]
    for row in population.ids.tolist():
        assert tuple(row) in sources
    # each distinct row is scored once, and its copies take its scores
    fresh = ViabilityScorer(train[0], HalfPredictor(), model)
    assert np.array_equal(population.scores, fresh.score_batch(*population.frame))


def test_initialize_sbi_has_positive_feasibility():
    train, model, scorer = training_setup()
    rng = np.random.default_rng(1)
    population = initialize("SBI", 30, train, scorer, rng)
    assert (population.scores[:, FEASIBILITY] > 0.0).all()
    for genome in genomes_of(*population.frame):
        check_encoded_invariants(genome)


def test_initialize_ri_respects_invariants():
    train, model, scorer = training_setup()
    rng = np.random.default_rng(2)
    population = initialize("RI", 30, train, scorer, rng)
    for genome in genomes_of(*population.frame):
        check_encoded_invariants(genome)
        assert 1 <= genome.valid_len <= 6


def test_initialize_deterministic():
    train, model, scorer = training_setup()
    first = initialize("SBI", 10, train, scorer, np.random.default_rng(7))
    second = initialize("SBI", 10, train, scorer, np.random.default_rng(7))
    assert same_rows(first, second)


def test_initialize_rejects_zero():
    train, model, scorer = training_setup()
    with pytest.raises(ValueError):
        initialize("CBI", 0, train, scorer, np.random.default_rng(0))


# ---------------------------------------------------------------------------
# select


def test_select_single_individual_population():
    population = population_of(2.0)
    assert select("RWS", population.scores, 4, np.random.default_rng(0)).tolist() == [0, 0, 0, 0]


def test_rws_frequencies_proportional_to_fitness():
    population = population_of(3.0, 1.0)
    rng = np.random.default_rng(5)
    rows = select("RWS", population.scores, 10_000, rng)
    share = np.mean(rows == 0)
    assert abs(share - 0.75) < 0.02


def test_rws_draws_equal_generator_choice():
    # RWS runs Generator.choice(n, size=k, p=p)'s arithmetic on the floored
    # fitness: the same indices, and the same doubles taken from the generator
    rng = np.random.default_rng(37)
    for _ in range(3000):
        n, k = int(rng.integers(1, 40)), 2 * int(rng.integers(1, 30))
        scores = np.zeros((n, 5))
        scores[:, TOTAL] = rng.standard_normal(n) * 10.0 ** int(rng.integers(-7, 3))
        scores[rng.random(n) < 0.2, TOTAL] = FITNESS_FLOOR
        seed = int(rng.integers(0, 2**32))
        ours, theirs = np.random.default_rng(seed), np.random.default_rng(seed)
        fitness = np.maximum(scores[:, TOTAL], FITNESS_FLOOR)
        want = theirs.choice(n, size=k, p=fitness / fitness.sum())
        assert select("RWS", scores, k, ours).tolist() == want.tolist()
        assert ours.bit_generator.state == theirs.bit_generator.state


def test_tournament_three_to_one_odds():
    population = population_of(3.0, 1.0)
    rows = select("TS", population.scores, 10_000, np.random.default_rng(6))
    # half the contests draw both individuals, and the stronger (row 0) wins
    # those at 3:1; the other half draw one individual twice: 1/4 + 1/2 * 3/4
    share = np.mean(rows == 0)
    assert abs(share - 0.625) < 0.02


def test_es_takes_the_top_and_is_deterministic():
    population = population_of(1.0, 3.0, 2.0, 3.0)
    rows = select("ES", population.scores, 2, np.random.default_rng(0))
    # the two totals of 3.0 win; insertion order breaks the tie
    assert rows.tolist() == [1, 3]
    assert select("ES", population.scores, 2, np.random.default_rng(99)).tolist() == [1, 3]


def test_es_overdraw_is_selection_error():
    population = population_of(1.0)
    with pytest.raises(SelectionError):
        select("ES", population.scores, 2, np.random.default_rng(0))


# ---------------------------------------------------------------------------
# crossover


def test_uc_full_mask_copies_parent_a():
    a = t([1, 2, 3], [0.1, 0.2, 0.3])
    b = t([3, 2], [0.9, 0.8])
    # every double is below 1.0, so child 1 takes every cell of parent a
    child_1, child_2 = cross_genomes("UC", a, b, np.random.default_rng(0), uc_rate=1.0)
    assert encoded_equal(child_1, a)
    assert encoded_equal(child_2, b)


def test_opc_cut_two_mixes_tails():
    # parents shaped after the inheritance diagram: <a,b,a> and <a,b,a,c>
    a = t([1, 2, 1], [0.60, 0.25, 0.70])
    b = t([1, 2, 1, 3], [0.60, 0.75, 0.64, 0.57])
    # the first seed whose OPC draw over the 6-cell frame cuts at 2
    seed = next(s for s in range(100) if np.random.default_rng(s).integers(1, 6) == 2)
    child_1, child_2 = cross_genomes("OPC", a, b, np.random.default_rng(seed))
    assert child_1.activity_ids[: child_1.valid_len].tolist() == [1, 2, 1, 3]
    assert child_1.features[: child_1.valid_len, 0].tolist() == [0.60, 0.25, 0.64, 0.57]
    assert child_2.activity_ids[: child_2.valid_len].tolist() == [1, 2, 1]
    assert child_2.features[: child_2.valid_len, 0].tolist() == [0.60, 0.75, 0.70]


def test_identical_parents_give_identical_children():
    a = t([1, 2, 3], [0.1, 0.2, 0.3])
    rng = np.random.default_rng(3)
    for kind, rate in (("UC", 0.5), ("OPC", None), ("TPC", None)):
        child_1, child_2 = cross_genomes(kind, a, a, rng, uc_rate=rate)
        assert encoded_equal(child_1, a)
        assert encoded_equal(child_2, a)


def test_crossover_children_are_pad_normalized():
    rng = np.random.default_rng(8)
    a = t([1, 2, 3, 1], [0.1, 0.2, 0.3, 0.4])
    b = t([2], [0.9])
    for kind, rate in (("UC", 0.4), ("OPC", None), ("TPC", None)):
        for _ in range(100):
            for child in cross_genomes(kind, a, b, rng, uc_rate=rate):
                check_encoded_invariants(child)


def test_crossover_of_full_frames_keeps_every_event():
    # no PAD in either parent, and the smallest id away from position 0
    a = t([3, 1, 2, 3, 2, 1], [0.1, 0.2, 0.3, 0.4, 0.5, 0.6])
    b = t([2, 3, 1, 1, 3, 2], [0.9, 0.8, 0.7, 0.6, 0.5, 0.4])
    rng = np.random.default_rng(4)
    for kind, rate in (("UC", 0.5), ("OPC", None), ("TPC", None)):
        for child in cross_genomes(kind, a, b, rng, uc_rate=rate):
            assert child.valid_len == 6
            check_encoded_invariants(child)


# ---------------------------------------------------------------------------
# mutate


def test_mutate_zero_rates_is_identity():
    train, model, _ = training_setup()
    genome = train[3]
    rates = MutationRates(0.0, 0.0, 0.0)
    mutated = mutate_genome("SBM", genome, rates, model, np.random.default_rng(0))
    assert encoded_equal(mutated, genome)


def test_mutate_delete_rate_one_keeps_last_survivor():
    train, model, _ = training_setup()
    genome = t([1, 2, 3, 1, 2], [0.1, 0.2, 0.3, 0.4, 0.5])
    rates = MutationRates(0.0, 1.0, 0.0)
    mutated = mutate_genome("SBM", genome, rates, model, np.random.default_rng(0))
    assert mutated.valid_len == 1
    assert mutated.activity_ids[0] == 2  # the final event survives


def test_mutate_insert_rate_one_fills_frame():
    train, model, _ = training_setup()
    genome = t([1], [0.5])
    rates = MutationRates(1.0, 0.0, 0.0)
    mutated = mutate_genome("SBM", genome, rates, model, np.random.default_rng(0))
    assert mutated.valid_len == genome.max_len
    check_encoded_invariants(mutated)


def test_mutate_expected_change_count():
    train, model, _ = training_setup()
    genome = make_encoded(
        [1 + (i % 3) for i in range(20)], [[0.5]] * 20, max_len=20
    )
    model20 = fit(log_of([genome]), identity_encoder(max_len=20), 1e-6, 5)
    rng = np.random.default_rng(9)
    rates = MutationRates(insert=0.0, delete=0.0, change=0.01)
    changed_positions = 0
    n = 10_000
    for _ in range(n):
        mutated = mutate_genome("SBM", genome, rates, model20, rng)
        diff = (mutated.activity_ids != genome.activity_ids) | np.any(
            np.abs(mutated.features - genome.features) > 0, axis=1
        )
        changed_positions += int(diff.sum())
    assert abs(changed_positions / n - 0.2) < 0.02


def test_mutate_rm_draws_clipped_normal_features():
    train, model, _ = training_setup()
    genome = t([1, 2, 3], [0.1, 0.2, 0.3])
    rng = np.random.default_rng(10)
    mutated = mutate_genome("RM", genome, MutationRates(0.5, 0.0, 0.5), model, rng)
    check_encoded_invariants(mutated)


# ---------------------------------------------------------------------------
# recombine


def test_fsr_sorts_and_truncates():
    population = population_of(3.0, 1.0, 2.0)
    survivors = recombined("FSR", population, population_of(2.5), 3)
    assert survivors.scores[:, TOTAL].tolist() == [3.0, 2.5, 2.0]


def test_bbr_admits_only_above_average_mutants():
    mutants = population_of(1.0, 2.0, 3.0)  # mean 2.0
    survivors = recombined("BBR", population_of(0.5), mutants, 10)
    assert survivors.scores[:, TOTAL].tolist() == [0.5, 3.0]


def test_bbr_drops_worst_when_over_capacity():
    mutants = population_of(0.5, 4.0)  # mean 2.25, only 4.0 joins
    survivors = recombined("BBR", population_of(1.0, 2.0, 3.0), mutants, 3)
    assert sorted(survivors.scores[:, TOTAL].tolist()) == [2.0, 3.0, 4.0]


def test_rr_orders_lexicographically_by_components():
    better = one_event_population([0.25], [[0.1, 0.9, 0.5, 0.2, 1.7]])
    worse = one_event_population([0.75], [[0.9, 0.8, 0.5, 0.2, 2.4]])
    survivors = recombined("RR", worse, better, 2)
    # equal feasibility and delta; sparsity 0.9 beats 0.8 despite lower total
    assert same_rows(survivors.take(slice(1)), better)


# ---------------------------------------------------------------------------
# evolve


def small_config(name="CBI-RWS-OPC-SBM-FSR", **kwargs):
    defaults = dict(population_size=20, offspring_per_cycle=6, cycles=5, seed=3)
    defaults.update(kwargs)
    return EvoConfig(name, **defaults)


def test_evolve_zero_cycles_returns_scored_initial_population():
    train, _, scorer = training_setup()
    config = small_config(cycles=0)

    result = evolve(scorer, config, train)
    assert result.stats == ()
    assert len(result.population) == config.population_size


def test_evolve_runs_with_constant_stub_predictor():
    train, _, scorer = training_setup()

    config = small_config(cycles=3)
    result = evolve(scorer, config, train)
    assert len(result.stats) == 3
    assert len(result.population) == config.population_size


def test_evolve_fsr_best_total_never_decreases():
    train, _, scorer = training_setup()

    config = small_config(cycles=20, seed=11)
    result = evolve(scorer, config, train)
    best = [s.best_total for s in result.stats]
    assert all(later >= earlier for earlier, later in zip(best, best[1:]))


def test_evolve_deterministic_under_seed():
    train, _, scorer = training_setup()

    config = small_config(cycles=4, seed=13)
    first = evolve(scorer, config, train)
    # the second run's scorer already holds the first's draw
    second = evolve(scorer, config, train)
    assert first.stats == second.stats
    assert same_rows(first.population, second.population)


def test_evolve_population_sorted_and_scores_fresh():
    train, model, scorer = training_setup()

    config = small_config(cycles=5, seed=17)
    result = evolve(scorer, config, train)
    totals = result.population.scores[:, TOTAL].tolist()
    assert totals == sorted(totals, reverse=True)
    fresh = ViabilityScorer(train[0], HalfPredictor(), model)
    for genome, score in scored(result.population)[:5]:
        assert fresh.score(genome) == score


def test_operator_outputs_preserve_genome_invariants():
    train, model, scorer = training_setup()
    rng = np.random.default_rng(23)
    population = initialize("CBI", 10, train, scorer, rng)
    genomes = genomes_of(*population.frame)
    rates = MutationRates(0.2, 0.2, 0.2)
    for _ in range(300):
        kind = ("UC", "OPC", "TPC")[int(rng.integers(0, 3))]
        i, j = rng.integers(0, len(genomes), size=2)
        children = cross_genomes(kind, genomes[i], genomes[j], rng, uc_rate=0.5)
        for child in children:
            check_encoded_invariants(child)
            mutated = mutate_genome(
                ("RM", "SBM")[int(rng.integers(0, 2))], child, rates, model, rng
            )
            check_encoded_invariants(mutated)
            genomes.append(mutated)
        genomes = genomes[-30:]


# ---------------------------------------------------------------------------
# fast paths against the per-individual reference implementations


MUTATION_RATES = [MutationRates(r, r, r) for r in (0.0, 0.01, 0.05, 0.5, 1.0)] + [
    MutationRates(0.05, 0.0, 0.0),
    MutationRates(0.0, 0.05, 0.0),
    MutationRates(0.0, 0.0, 0.05),
]


@pytest.mark.parametrize("kind", ["RM", "SBM"])
@pytest.mark.parametrize("rates", MUTATION_RATES)
def test_mutate_equals_per_position_reference(kind, rates, synth_setup):
    _, small_model, _ = training_setup()
    for model in (small_model, synth_setup["feas_model"]):
        encoder = model.encoder
        source = np.random.default_rng(41)
        ours, reference = np.random.default_rng(42), np.random.default_rng(42)
        # every valid_len, the full frame (no free slot) included, in blocks
        # of one genome and of every genome at once
        genomes = []
        for valid_len in range(1, encoder.max_len + 1):
            for _ in range(4):
                acts = source.integers(1, encoder.vocab_size + 1, size=valid_len).tolist()
                rows = sample_attribute_rows(model, acts, source)
                genomes.append(make_encoded(acts, rows, encoder.max_len, outcome=1, case_id="x"))
        for block in [[genome] for genome in genomes[::5]] + [genomes]:
            frame = log_of(block).frame
            mutate(kind, *frame, rates, model, ours)
            want = reference_mutate(kind, block, rates, model, reference)
            assert equal_genomes(genomes_of(*frame), want)
            assert frame[0].dtype == want[0].activity_ids.dtype
            assert ours.bit_generator.state == reference.bit_generator.state


def test_initial_genomes_equal_per_event_reference(synth_setup):
    model = synth_setup["feas_model"]
    encoder = model.encoder
    ours, reference = np.random.default_rng(5), np.random.default_rng(5)
    for n in (1, 2, 7, 1, 60):
        frame = _random_genomes(ours, n, encoder)
        want = reference_random_genomes(
            reference, n, encoder.vocab_size, encoder.max_len, encoder.feature_dim
        )
        assert equal_genomes(genomes_of(*frame), want)
        assert frame[0].dtype == frame[2].dtype == np.int64
        assert ours.bit_generator.state == reference.bit_generator.state
        frame = sample_traces(model, encoder.max_len, n, ours)
        assert equal_genomes(genomes_of(*frame), sampled_genomes(reference, model, n))
        assert ours.bit_generator.state == reference.bit_generator.state


@pytest.mark.parametrize("max_len", [1, 2, None])
def test_sbi_genomes_equal_the_per_genome_oracle(max_len, synth_setup):
    # max_len 1 and 2 make most chains stop at max_len without drawing END;
    # None keeps the model's frame
    _, small_model, _ = training_setup()
    n = 261
    for model in (small_model, synth_setup["feas_model"]):
        if max_len is not None:
            model = replace(model, encoder=replace(model.encoder, max_len=max_len))
        ours, reference = np.random.default_rng(8), np.random.default_rng(8)
        frame = sample_traces(model, model.encoder.max_len, n, ours)
        want = sampled_genomes(reference, model, n)
        assert len(frame[2]) == n
        for genome, expected in zip(genomes_of(*frame), want):
            assert encoded_equal(genome, expected)
            assert genome.activity_ids.dtype == expected.activity_ids.dtype
        assert ours.bit_generator.state == reference.bit_generator.state
        if max_len is not None:
            assert frame[2].max() == max_len


def test_initialize_sbi_equals_the_per_genome_oracle(synth_setup):
    model = synth_setup["feas_model"]
    factual = synth_setup["test"][0]
    scorer = ViabilityScorer(factual, synth_setup["predictor"], model)
    ours, reference = np.random.default_rng(9), np.random.default_rng(9)
    population = initialize("SBI", 129, synth_setup["train"], scorer, ours)
    assert equal_genomes(genomes_of(*population.frame), sampled_genomes(reference, model, 129))
    assert ours.bit_generator.state == reference.bit_generator.state


# ties, signed zeros, and totals at and below the fitness floor
SCORE_VALUES = (0.0, -0.0, 0.5, 1.0, 2.0, -0.3, FITNESS_FLOOR, 1e-7, 0.1 + 0.2)


def tied_population(rng, n, first_value):
    """n distinct one-event genomes, the features from first_value / 32 on, with tied scores."""
    rows = [[SCORE_VALUES[k] for k in rng.integers(0, len(SCORE_VALUES), 5)] for _ in range(n)]
    return one_event_population((first_value + np.arange(n)) / 32, rows)


def score_bytes(scores):
    return np.array([astuple(score) for score in scores], dtype=float).reshape(-1, 5).tobytes()


def equal_genomes(got, want):
    return len(got) == len(want) and all(encoded_equal(a, b) for a, b in zip(got, want))


def test_array_select_recombine_and_stats_equal_attribute_reference():
    rng = np.random.default_rng(31)
    for _ in range(300):
        # the genomes of both populations are distinct, so equal rows are the same genome
        population = tied_population(rng, int(rng.integers(1, 12)), 0)
        mutants = tied_population(rng, int(rng.integers(0, 7)), 16)
        size = 2 * int(rng.integers(1, len(population) // 2 + 2))
        seed = int(rng.integers(0, 2**32))
        for kind in ("RWS", "TS", "ES"):
            if kind == "ES" and size > len(population):
                continue
            ours, reference = np.random.default_rng(seed), np.random.default_rng(seed)
            got = select(kind, population.scores, size, ours)
            want = reference_select(kind, scored(population), size, reference)
            assert equal_genomes(genomes_of(*population.take(got).frame), sum(want, ()))
            assert ours.bit_generator.state == reference.bit_generator.state
        max_size = int(rng.integers(1, len(population) + len(mutants) + 2))
        for kind in ("FSR", "BBR", "RR"):
            survivors = recombined(kind, population, mutants, max_size)
            want = reference_recombine(kind, scored(population), scored(mutants), max_size)
            assert equal_genomes(genomes_of(*survivors.frame), [genome for genome, _ in want])
            # each row travels with its genome, signed zeros included
            assert survivors.scores.tobytes() == score_bytes(score for _, score in want)
            assert repr(_cycle_stats(1, survivors.scores)) == repr(reference_cycle_stats(1, want))


def test_bbr_round_that_admits_nothing_keeps_the_population():
    population = population_of(0.5, -0.0, 0.0)
    survivors = recombined("BBR", population, population_of(1.0, 1.0, 1.0), 10)
    assert same_rows(survivors, population)
    nobody = population_of()
    assert same_rows(recombined("BBR", population, nobody, 2), population.take(slice(2)))


def random_scored_population(rng, n, first_value):
    """n distinct one-event genomes, as tied_population, with random score rows."""
    return one_event_population((first_value + np.arange(n)) / 32, rng.random((n, 5)))


@pytest.mark.parametrize("kind", ["FSR", "BBR", "RR"])
@pytest.mark.parametrize("draw", [tied_population, random_scored_population])
@pytest.mark.parametrize("size, offspring", [(10, 4), (7, 2), (6, 6), (2, 2)])
def test_recombine_in_place_equals_the_gathering_reference_over_many_cycles(
    kind, draw, size, offspring
):
    rng = np.random.default_rng(size * 100 + offspring)
    population = draw(rng, size, 0)
    frame = tuple(column.copy() for column in population.frame)
    index, scores = np.arange(size), population.scores
    want = scored(population)
    for cycle in range(1, 41):
        mutants = draw(rng, offspring, cycle * offspring + size)
        before = tuple(column.copy() for column in frame)
        index, scores = recombine(kind, frame, index, scores, mutants, size)
        want = reference_recombine(kind, want, scored(mutants), size)
        # the frame gathered through the index is the reference's, row for row
        assert equal_genomes(genomes_of(*(column[index] for column in frame)), [g for g, _ in want])
        assert scores.tobytes() == score_bytes(score for _, score in want)
        assert repr(_cycle_stats(cycle, scores)) == repr(reference_cycle_stats(cycle, want))
        # the frame stays in place, and only the admitted mutants' rows change
        assert sorted(index.tolist()) == list(range(size))
        changed = (before[0] != frame[0]).any(axis=1) | (before[1] != frame[1]).any(axis=(1, 2))
        assert changed.sum() <= offspring


@pytest.mark.parametrize("n", [1, 2, 5, 6, 99, 100])
def test_cycle_stats_equal_the_list_reference_on_odd_and_even_sizes(n):
    rng = np.random.default_rng(n)
    for _ in range(20):
        for population in (tied_population(rng, n, 0), random_scored_population(rng, n, 0)):
            got = _cycle_stats(3, population.scores)
            assert repr(got) == repr(reference_cycle_stats(3, scored(population)))


# every initiator, selector, crosser, mutator and recombiner at least once
ORACLE_CONFIGS = [
    "RI-RWS-OPC-RM-FSR",
    "SBI-TS-TPC-SBM-BBR",
    "CBI-ES-UC3-SBM-RR",
    "CBI-TS-UC7-RM-BBR",
    "SBI-RWS-OPC-RM-RR",
    "RI-ES-TPC-SBM-FSR",
    # CBI repeats log traces, so FSR sorts tied totals
    "CBI-RWS-TPC-RM-FSR",
]


def assert_engines_equal(factual, config, predictor, model, log, monkeypatch):
    """evolve and reference_evolve give the same rows, scores, statistics and generator state."""
    generators = []

    def initialize_seen(kind, n, log, scorer, rng):
        generators.append(rng)
        return initialize(kind, n, log, scorer, rng)

    # evolve looks initialize up at call time, so its generator can be read
    monkeypatch.setattr(evolution, "initialize", initialize_seen)
    result = evolve(ViabilityScorer(factual, predictor, model), config, log)
    pairs, stats, reference = reference_evolve(factual, config, predictor, model, log)
    genomes = [genome for genome, _ in pairs]
    ids, features, lengths = log_of(genomes).frame
    assert result.population.ids.tobytes() == ids.tobytes()
    assert result.population.features.tobytes() == features.tobytes()
    assert result.population.lengths.tolist() == lengths.tolist()
    assert result.population.scores.tobytes() == score_bytes(score for _, score in pairs)
    assert repr(result.stats) == repr(stats)
    assert generators.pop().bit_generator.state == reference.bit_generator.state


@pytest.mark.parametrize("name", ORACLE_CONFIGS)
@pytest.mark.parametrize("cycles, offspring", [(0, 8), (6, 8), (6, 2)])
def test_frame_engine_equals_the_object_engine(name, cycles, offspring, synth_setup, monkeypatch):
    for seed, factual in zip((5, 2**33 + 1), synth_setup["test"]):
        config = EvoConfig(
            name,
            population_size=24,
            offspring_per_cycle=offspring,
            mutation_rates=MutationRates(0.08, 0.08, 0.08),
            cycles=cycles,
            seed=seed,
        )
        assert_engines_equal(
            factual, config, synth_setup["predictor"], synth_setup["feas_model"],
            synth_setup["train"], monkeypatch,
        )


@pytest.mark.parametrize(
    "slot, token",
    [(slot, token) for slot, tokens in enumerate(OPERATOR_TOKENS) for token in tokens],
)
def test_every_operator_token_runs_as_the_object_engine(slot, token, synth_setup, monkeypatch):
    # the operators trust the config's tokens: each one, put in its slot of
    # the default name, drives its operator through a short run
    tokens = EvoConfig().name.split("-")
    tokens[slot] = token
    config = EvoConfig(
        "-".join(tokens),
        population_size=12,
        offspring_per_cycle=4,
        mutation_rates=MutationRates(0.2, 0.2, 0.2),
        cycles=2,
        seed=slot,
    )
    assert_engines_equal(
        synth_setup["test"][0], config, synth_setup["predictor"], synth_setup["feas_model"],
        synth_setup["train"], monkeypatch,
    )


class MeanPredictor:
    def predict_proba_batch(self, ids, features, lengths):
        return [0.1 + 0.8 * float(f[:n].mean()) for f, n in zip(features, lengths.tolist())]


@pytest.mark.parametrize("name", ORACLE_CONFIGS)
@pytest.mark.parametrize("max_len", [1, 2])
def test_frame_engine_equals_the_object_engine_on_short_frames(name, max_len, monkeypatch):
    # max_len 1 crosses nothing; at max_len 2 OPC's cut integers(1, 2) draws
    # nothing and TPC cannot pick two cut points: evolve refuses the config,
    # and the object engine's draw of a second cut raises
    rng = np.random.default_rng(max_len)
    log = log_of([
        make_encoded(rng.integers(1, 4, size=n).tolist(), rng.random((n, 1)), max_len)
        for n in rng.integers(1, max_len + 1, size=12).tolist()
    ])
    model = fit(log, identity_encoder(max_len=max_len), 1e-6, 5)
    config = EvoConfig(
        name,
        population_size=12,
        offspring_per_cycle=4,
        mutation_rates=MutationRates(0.2, 0.2, 0.2),
        cycles=5,
        seed=7,
    )
    if config.crosser == "TPC" and max_len == 2:
        with pytest.raises(ConfigurationError):
            evolve(ViabilityScorer(log[0], MeanPredictor(), model), config, log)
        with pytest.raises(ValueError):
            reference_evolve(log[0], config, MeanPredictor(), model, log)
        return
    assert_engines_equal(log[0], config, MeanPredictor(), model, log, monkeypatch)


def test_tpc_on_a_frame_of_two_is_refused_before_any_draw():
    log = log_of([make_encoded([1, 2], [[0.2], [0.7]], 2)])
    model = fit(log, identity_encoder(max_len=2), 1e-6, 5)
    predictor = MeanPredictor()
    asked = []
    predictor.predict_proba_batch = lambda *frame: asked.append(frame) or [0.5] * len(frame[2])
    config = EvoConfig(
        "RI-RWS-TPC-SBM-FSR", population_size=4, offspring_per_cycle=2, cycles=1, seed=3
    )
    with pytest.raises(ConfigurationError, match="RI-RWS-TPC-SBM-FSR: .* frame of 2 events"):
        evolve(ViabilityScorer(log[0], predictor, model), config, log)
    assert asked == []
    # without cycles nothing is crossed, so the same frame runs
    evolve(ViabilityScorer(log[0], predictor, model), replace(config, cycles=0), log)
    assert len(asked) == 1


@pytest.mark.parametrize("pass_", ["delete", "insert", "change"])
@pytest.mark.parametrize("tie_at", ["smallest", "middle"])
def test_a_double_equal_to_a_mutation_rate_is_not_a_hit(pass_, tie_at):
    # a genome of n events in a frame of 6 draws three blocks of 6 doubles;
    # when nothing is hit its delete, insert and change passes read doubles
    # 0..n-1, 6..11-n and 12..11+n
    _, model, _ = training_setup()
    genome = t([1, 2, 3], [0.1, 0.5, 0.9])
    n, max_len = genome.valid_len, genome.max_len
    u = np.random.default_rng(61).random(3 * max_len).tolist()
    doubles = {
        "delete": u[:n],
        "insert": u[max_len : 2 * max_len - n],
        "change": u[2 * max_len : 2 * max_len + n],
    }[pass_]
    # the smallest double of the pass, so nothing is hit; or its middle one, so a draw below it is
    tie = sorted(doubles)[0 if tie_at == "smallest" else len(doubles) // 2]
    rates = replace(MutationRates(0.0, 0.0, 0.0), **{pass_: tie})
    ours, reference = np.random.default_rng(61), np.random.default_rng(61)
    got = mutate_genome("SBM", genome, rates, model, ours)
    (want,) = reference_mutate("SBM", [genome], rates, model, reference)
    assert encoded_equal(got, want)
    assert ours.bit_generator.state == reference.bit_generator.state
    hits = sum(x < tie for x in doubles)
    assert hits == (0 if tie_at == "smallest" else len(doubles) // 2)
    if tie_at == "smallest":
        assert encoded_equal(got, genome)
    elif pass_ == "delete":
        assert got.valid_len == n - hits
    elif pass_ == "insert":
        assert got.valid_len == n + hits


def test_a_double_equal_to_the_uc_rate_takes_the_other_parent():
    a = t([3, 1, 2, 3, 2, 1], [0.1, 0.2, 0.3, 0.4, 0.5, 0.6])
    b = t([2, 3, 1, 1, 3, 2], [0.9, 0.8, 0.7, 0.6, 0.5, 0.4])
    # a one-pair block draws one row of max_len doubles
    u = np.random.default_rng(62).random((1, a.max_len))[0].tolist()
    for tie in u:
        got = cross_genomes("UC", a, b, np.random.default_rng(62), uc_rate=tie)
        want = reference_crossover("UC", [(a, b)], np.random.default_rng(62), uc_rate=tie)
        assert all(encoded_equal(x, y) for x, y in zip(got, want))
        position = u.index(tie)
        assert got[0].activity_ids[position] == b.activity_ids[position]


# ---------------------------------------------------------------------------
# the distributions of the breeding draws, at a fixed seed: each bound is 4
# standard deviations of a binomial count, or of a chi-square statistic


def within_four_sigma(count, trials, p, mean=None):
    """count lies within 4 binomial standard deviations of its mean (trials * p by default)."""
    mean = trials * p if mean is None else mean
    return abs(count - mean) <= 4 * np.sqrt(trials * p * (1 - p))


def uniform_fit(counts):
    """The chi-square statistic of counts against a uniform lies within 4 sd of its df."""
    counts = np.asarray(counts, dtype=float)
    expected = counts.sum() / len(counts)
    df = len(counts) - 1
    return ((counts - expected) ** 2 / expected).sum() <= df + 4 * np.sqrt(2 * df)


def test_crossover_draws_follow_their_distributions():
    # full-frame parents: every cell of a holds activity 1, every cell of b activity 2,
    # so a child of a takes b's cells exactly where it does not keep its own
    pairs, max_len = 3000, 8
    rng = np.random.default_rng(2023)

    def crossed(kind, uc_rate=None):
        ids = np.tile([[1], [2]], (pairs, max_len))
        lengths = np.full(2 * pairs, max_len)
        crossover(kind, ids, np.zeros((2 * pairs, max_len, 1)), lengths, rng, uc_rate)
        assert lengths.tolist() == [max_len] * (2 * pairs)
        assert (ids[0::2] + ids[1::2] == 3).all()
        return ids[0::2] == 2

    taken = crossed("UC", 0.3)
    assert within_four_sigma((~taken).sum(), taken.size, 0.3)
    # OPC keeps the cells before a cut in 1..max_len-1
    taken = crossed("OPC")
    cuts = (~taken).sum(axis=1)
    assert (taken == (np.arange(max_len) >= cuts[:, np.newaxis])).all()
    assert uniform_fit(np.bincount(cuts, minlength=max_len)[1:])
    # TPC takes the cells lo..hi-1 for a pair of distinct cuts 1 <= lo < hi <= max_len-1
    taken = crossed("TPC")
    lo, hi = taken.argmax(axis=1), max_len - taken[:, ::-1].argmax(axis=1)
    assert (taken.sum(axis=1) == hi - lo).all()
    assert ((1 <= lo) & (lo < hi) & (hi <= max_len - 1)).all()
    assert uniform_fit(
        [np.sum((lo == a) & (hi == b)) for a in range(1, max_len) for b in range(a + 1, max_len)]
    )


def test_mutation_draws_follow_their_distributions():
    # genomes of 3 events in a frame of 6, each event marked by its feature;
    # RM's clipped normal rows never repeat a mark, so a new event shows
    _, model, _ = training_setup()
    children, n, max_len, p = 20_000, 3, 6, 0.2
    marks = np.array([0.11, 0.22, 0.33])
    rng = np.random.default_rng(2024)

    def mutated(rates):
        ids = np.zeros((children, max_len), dtype=np.int64)
        ids[:, :n] = [1, 2, 3]
        features = np.zeros((children, max_len, 1))
        features[:, :n, 0] = marks
        lengths = np.full(children, n)
        mutate("RM", ids, features, lengths, rates, model, rng)
        return features[:, :, 0], lengths

    # deletes: n trials a child; one that deletes all 3 keeps its last event
    _, lengths = mutated(MutationRates(0.0, p, 0.0))
    assert within_four_sigma(
        (n - lengths).sum(), n * children, p, mean=children * (n * p - p**n)
    )
    # inserts: one trial per free slot, each hit at a uniform position among n + 1
    features, lengths = mutated(MutationRates(p, 0.0, 0.0))
    assert within_four_sigma((lengths - n).sum(), (max_len - n) * children, p)
    single = features[lengths == n + 1, : n + 1]
    positions = (~np.isin(single, marks)).argmax(axis=1)
    assert (np.isin(single, marks).sum(axis=1) == n).all()
    assert uniform_fit(np.bincount(positions, minlength=n + 1))
    # changes: n trials a child, each a fresh event in place
    features, lengths = mutated(MutationRates(0.0, 0.0, p))
    assert (lengths == n).all()
    assert within_four_sigma((features[:, :n] != marks).sum(), n * children, p)


def test_random_genome_draws_follow_their_distributions():
    # RI: uniform lengths on 1..L, uniform activities on 1..V, and each
    # feature a standard normal clipped to [0, 1]: 0 with probability 1/2,
    # 1 with probability P(Z > 1)
    n, max_len, vocab = 20_000, 6, 4
    encoder = identity_encoder(vocab=("a", "b", "c", "d"), max_len=max_len, n_numeric=2)
    ids, features, lengths = _random_genomes(np.random.default_rng(2026), n, encoder)
    events = np.arange(max_len) < lengths[:, np.newaxis]
    assert (ids[~events] == 0).all() and (features[~events] == 0.0).all()
    assert uniform_fit(np.bincount(lengths, minlength=max_len + 1)[1:])
    assert ids[events].min() >= 1
    assert uniform_fit(np.bincount(ids[events], minlength=vocab + 1)[1:])
    values = features[events].ravel()
    assert within_four_sigma((values == 0.0).sum(), values.size, 0.5)
    assert within_four_sigma((values == 1.0).sum(), values.size, 0.15865525393145707)
