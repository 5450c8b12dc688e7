import statistics
from dataclasses import astuple, replace

import numpy as np
import pytest

from conftest import (
    check_encoded_invariants,
    encoded_equal,
    identity_encoder,
    make_encoded,
    sample_attribute_rows,
    sampled_genome,
    scored,
)
from evocf.errors import ConfigNameError, SelectionError
from evocf import markov as markov_mod
from evocf.event_log import EncodedTrace
from evocf.evolution import (
    FEASIBILITY,
    FITNESS_FLOOR,
    TOTAL,
    CycleStats,
    EvoConfig,
    MutationRates,
    Population,
    _cycle_stats,
    _random_genome,
    _sampled_genomes,
    crossover,
    evolve,
    initialize,
    mutate,
    parse_config_name,
    recombine,
    select,
)
from evocf.markov import _TRACE_CHUNK, fit
from evocf.viability import ViabilityScorer


def t(acts, values, max_len=6):
    return make_encoded(acts, [[v] for v in values], max_len)


def population_of(*totals):
    """One-event genomes scored by total alone; ranking-by-total tests read no component."""
    scores = np.zeros((len(totals), 5))
    scores[:, TOTAL] = totals
    return Population(tuple(t([1], [0.5]) for _ in totals), scores)


class HalfPredictor:
    def predict_proba_batch(self, traces):
        return [0.5] * len(traces)


def training_setup():
    train = [
        t([1, 2], [0.1, 0.6]),
        t([1, 3], [0.2, 0.7]),
        t([2, 3], [0.4, 0.9]),
        t([1, 2, 3], [0.1, 0.5, 0.9]),
    ]
    encoder = identity_encoder(max_len=6)
    model = fit(train, encoder, 1e-6, 5)

    scorer = ViabilityScorer(train[0], HalfPredictor(), model)
    return train, model, scorer


# ---------------------------------------------------------------------------
# config names


def test_parse_config_name_basic():
    config = parse_config_name("CBI-RWS-OPC-SBM-FSR")
    assert (config.initiator, config.selector, config.crosser) == ("CBI", "RWS", "OPC")
    assert (config.mutator, config.recombiner) == ("SBM", "FSR")
    assert config.name == "CBI-RWS-OPC-SBM-FSR"


def test_parse_config_name_uniform_rate():
    config = parse_config_name("CBI-RWS-UC3-RM-RR")
    assert config.crosser == "UC"
    assert config.uc_rate == pytest.approx(0.3)
    assert config.name == "CBI-RWS-UC3-RM-RR"


def test_parse_config_name_unknown_token():
    with pytest.raises(ConfigNameError, match="XXX"):
        parse_config_name("CBI-XXX-OPC-SBM-FSR")
    with pytest.raises(ConfigNameError):
        parse_config_name("CBI-RWS-OPC-SBM")


@pytest.mark.parametrize(
    "name", ["RI-TS-TPC-RM-BBR", "SBI-ES-UC7-SBM-RR", "CBI-RWS-OPC-SBM-FSR"]
)
def test_config_name_round_trip(name):
    assert parse_config_name(name).name == name


def test_config_validation():
    with pytest.raises(ValueError):
        parse_config_name("CBI-RWS-OPC-SBM-FSR", population_size=10, offspring_per_cycle=20)
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
    population = initialize("CBI", 20, train, model, scorer, rng)
    assert len(population) == 20
    sources = [tuple(tr.activity_ids.tolist()) for tr in train]
    for genome in population.genomes:
        assert tuple(genome.activity_ids.tolist()) in sources


def test_initialize_sbi_has_positive_feasibility():
    train, model, scorer = training_setup()
    rng = np.random.default_rng(1)
    population = initialize("SBI", 30, train, model, scorer, rng)
    assert (population.scores[:, FEASIBILITY] > 0.0).all()
    for genome in population.genomes:
        check_encoded_invariants(genome)


def test_initialize_ri_respects_invariants():
    train, model, scorer = training_setup()
    rng = np.random.default_rng(2)
    population = initialize("RI", 30, train, model, scorer, rng)
    for genome in population.genomes:
        check_encoded_invariants(genome)
        assert 1 <= genome.valid_len <= 6


def test_initialize_deterministic():
    train, model, scorer = training_setup()
    first = initialize("SBI", 10, train, model, scorer, np.random.default_rng(7))
    second = initialize("SBI", 10, train, model, scorer, np.random.default_rng(7))
    for a, b in zip(first.genomes, second.genomes):
        assert encoded_equal(a, b)
    assert first.scores.tobytes() == second.scores.tobytes()


def test_initialize_rejects_zero():
    train, model, scorer = training_setup()
    with pytest.raises(ValueError):
        initialize("CBI", 0, train, model, scorer, np.random.default_rng(0))


# ---------------------------------------------------------------------------
# select


def test_select_single_individual_population():
    population = population_of(2.0)
    pairs = select("RWS", population, 4, np.random.default_rng(0))
    assert len(pairs) == 2
    for a, b in pairs:
        assert a is population.genomes[0]
        assert b is population.genomes[0]


def test_rws_frequencies_proportional_to_fitness():
    population = population_of(3.0, 1.0)
    rng = np.random.default_rng(5)
    pairs = select("RWS", population, 10_000, rng)
    flat = [p for pair in pairs for p in pair]
    share = sum(1 for p in flat if p is population.genomes[0]) / len(flat)
    assert abs(share - 0.75) < 0.02


def test_tournament_three_to_one_odds():
    population = population_of(3.0, 1.0)
    strong = population.genomes[0]
    pairs = select("TS", population, 10_000, np.random.default_rng(6))
    flat = [p for pair in pairs for p in pair]
    # half the contests draw both individuals, and the stronger wins those
    # at 3:1; the other half draw one individual twice: 1/4 + 1/2 * 3/4
    share = sum(1 for p in flat if p is strong) / len(flat)
    assert abs(share - 0.625) < 0.02


def test_es_takes_the_top_and_is_deterministic():
    population = population_of(1.0, 3.0, 2.0, 3.0)
    pairs = select("ES", population, 2, np.random.default_rng(0))
    first, second = pairs[0]
    # the two totals of 3.0 win; insertion order breaks the tie
    assert first is population.genomes[1]
    assert second is population.genomes[3]
    (again,) = select("ES", population, 2, np.random.default_rng(99))
    assert same_objects(again, pairs[0])


def test_es_overdraw_is_selection_error():
    population = population_of(1.0)
    with pytest.raises(SelectionError):
        select("ES", population, 2, np.random.default_rng(0))


# ---------------------------------------------------------------------------
# crossover


class StubRng:
    """Minimal stand-in feeding predetermined draws to one operator call."""

    def __init__(self, integers_value=None, choice_value=None, random_row=None):
        self.integers_value = integers_value
        self.choice_value = choice_value
        self.random_row = random_row

    def integers(self, low, high=None, size=None):
        return self.integers_value

    def choice(self, values, size=None, replace=True, p=None):
        return np.asarray(self.choice_value)

    def random(self, size=None):
        return np.asarray(self.random_row)


def test_uc_full_mask_copies_parent_a():
    a = t([1, 2, 3], [0.1, 0.2, 0.3])
    b = t([3, 2], [0.9, 0.8])
    child_1, child_2 = crossover("UC", a, b, StubRng(random_row=[0.0] * 6), uc_rate=1.0)
    assert encoded_equal(child_1, a)
    assert encoded_equal(child_2, b)


def test_opc_cut_two_mixes_tails():
    # parents shaped after the inheritance diagram: <a,b,a> and <a,b,a,c>
    a = t([1, 2, 1], [0.60, 0.25, 0.70])
    b = t([1, 2, 1, 3], [0.60, 0.75, 0.64, 0.57])
    child_1, child_2 = crossover("OPC", a, b, StubRng(integers_value=2))
    assert child_1.activity_ids[: child_1.valid_len].tolist() == [1, 2, 1, 3]
    assert child_1.features[: child_1.valid_len, 0].tolist() == [0.60, 0.25, 0.64, 0.57]
    assert child_2.activity_ids[: child_2.valid_len].tolist() == [1, 2, 1]
    assert child_2.features[: child_2.valid_len, 0].tolist() == [0.60, 0.75, 0.70]


def test_identical_parents_give_identical_children():
    a = t([1, 2, 3], [0.1, 0.2, 0.3])
    rng = np.random.default_rng(3)
    for kind, rate in (("UC", 0.5), ("OPC", None), ("TPC", None)):
        child_1, child_2 = crossover(kind, a, a, rng, uc_rate=rate)
        assert encoded_equal(child_1, a)
        assert encoded_equal(child_2, a)


def test_crossover_children_are_pad_normalized():
    rng = np.random.default_rng(8)
    a = t([1, 2, 3, 1], [0.1, 0.2, 0.3, 0.4])
    b = t([2], [0.9])
    for kind, rate in (("UC", 0.4), ("OPC", None), ("TPC", None)):
        for _ in range(100):
            for child in crossover(kind, a, b, rng, uc_rate=rate):
                check_encoded_invariants(child)


def test_crossover_of_full_frames_keeps_every_event():
    # no PAD in either parent, and the smallest id away from position 0
    a = t([3, 1, 2, 3, 2, 1], [0.1, 0.2, 0.3, 0.4, 0.5, 0.6])
    b = t([2, 3, 1, 1, 3, 2], [0.9, 0.8, 0.7, 0.6, 0.5, 0.4])
    rng = np.random.default_rng(4)
    for kind, rate in (("UC", 0.5), ("OPC", None), ("TPC", None)):
        for child in crossover(kind, a, b, rng, uc_rate=rate):
            assert child.valid_len == 6
            check_encoded_invariants(child)


# ---------------------------------------------------------------------------
# mutate


def test_mutate_zero_rates_is_identity():
    train, model, _ = training_setup()
    genome = train[3]
    mutated = mutate("SBM", genome, MutationRates(0.0, 0.0, 0.0), model, np.random.default_rng(0))
    assert encoded_equal(mutated, genome)


def test_mutate_delete_rate_one_keeps_last_survivor():
    train, model, _ = training_setup()
    genome = t([1, 2, 3, 1, 2], [0.1, 0.2, 0.3, 0.4, 0.5])
    mutated = mutate("SBM", genome, MutationRates(0.0, 1.0, 0.0), model, np.random.default_rng(0))
    assert mutated.valid_len == 1
    assert mutated.activity_ids[0] == 2  # the final event survives


def test_mutate_insert_rate_one_fills_frame():
    train, model, _ = training_setup()
    genome = t([1], [0.5])
    mutated = mutate("SBM", genome, MutationRates(1.0, 0.0, 0.0), model, np.random.default_rng(0))
    assert mutated.valid_len == genome.max_len
    check_encoded_invariants(mutated)


def test_mutate_expected_change_count():
    train, model, _ = training_setup()
    genome = make_encoded(
        [1 + (i % 3) for i in range(20)], [[0.5]] * 20, max_len=20
    )
    model20 = fit([genome], identity_encoder(max_len=20), 1e-6, 5)
    rng = np.random.default_rng(9)
    rates = MutationRates(insert=0.0, delete=0.0, change=0.01)
    changed_positions = 0
    n = 10_000
    for _ in range(n):
        mutated = mutate("SBM", genome, rates, model20, rng)
        diff = (mutated.activity_ids != genome.activity_ids) | np.any(
            np.abs(mutated.features - genome.features) > 0, axis=1
        )
        changed_positions += int(diff.sum())
    assert abs(changed_positions / n - 0.2) < 0.02


def test_mutate_rm_draws_clipped_normal_features():
    train, model, _ = training_setup()
    genome = t([1, 2, 3], [0.1, 0.2, 0.3])
    rng = np.random.default_rng(10)
    mutated = mutate("RM", genome, MutationRates(0.5, 0.0, 0.5), model, rng)
    check_encoded_invariants(mutated)


# ---------------------------------------------------------------------------
# recombine


def test_fsr_sorts_and_truncates():
    population = population_of(3.0, 1.0, 2.0)
    survivors = recombine("FSR", population, population_of(2.5), 3)
    assert survivors.scores[:, TOTAL].tolist() == [3.0, 2.5, 2.0]


def test_bbr_admits_only_above_average_mutants():
    mutants = population_of(1.0, 2.0, 3.0)  # mean 2.0
    survivors = recombine("BBR", population_of(0.5), mutants, 10)
    assert survivors.scores[:, TOTAL].tolist() == [0.5, 3.0]


def test_bbr_drops_worst_when_over_capacity():
    mutants = population_of(0.5, 4.0)  # mean 2.25, only 4.0 joins
    survivors = recombine("BBR", population_of(1.0, 2.0, 3.0), mutants, 3)
    assert sorted(survivors.scores[:, TOTAL].tolist()) == [2.0, 3.0, 4.0]


def test_rr_orders_lexicographically_by_components():
    better = Population((t([1], [0.5]),), np.array([[0.1, 0.9, 0.5, 0.2, 1.7]]))
    worse = Population((t([1], [0.5]),), np.array([[0.9, 0.8, 0.5, 0.2, 2.4]]))
    survivors = recombine("RR", worse, better, 2)
    # equal feasibility and delta; sparsity 0.9 beats 0.8 despite lower total
    assert survivors.genomes[0] is better.genomes[0]


# ---------------------------------------------------------------------------
# evolve


def small_config(name="CBI-RWS-OPC-SBM-FSR", **kwargs):
    defaults = dict(population_size=20, offspring_per_cycle=6, cycles=5, seed=3)
    defaults.update(kwargs)
    return parse_config_name(name, **defaults)


def test_evolve_zero_cycles_returns_scored_initial_population():
    train, model, scorer = training_setup()
    config = small_config(cycles=0)

    result = evolve(train[0], config, HalfPredictor(), model, train)
    assert result.stats == ()
    assert len(result.population) == config.population_size


def test_evolve_runs_with_constant_stub_predictor():
    train, model, _ = training_setup()

    config = small_config(cycles=3)
    result = evolve(train[0], config, HalfPredictor(), model, train)
    assert len(result.stats) == 3
    assert len(result.population) == config.population_size


def test_evolve_fsr_best_total_never_decreases():
    train, model, _ = training_setup()

    config = small_config(cycles=20, seed=11)
    result = evolve(train[0], config, HalfPredictor(), model, train)
    best = [s.best_total for s in result.stats]
    assert all(later >= earlier for earlier, later in zip(best, best[1:]))


def test_evolve_deterministic_under_seed():
    train, model, _ = training_setup()

    config = small_config(cycles=4, seed=13)
    first = evolve(train[0], config, HalfPredictor(), model, train)
    second = evolve(train[0], config, HalfPredictor(), model, train)
    assert first.stats == second.stats
    for a, b in zip(first.population.genomes, second.population.genomes):
        assert encoded_equal(a, b)
    assert first.population.scores.tobytes() == second.population.scores.tobytes()


def test_evolve_population_sorted_and_scores_fresh():
    train, model, scorer = training_setup()

    config = small_config(cycles=5, seed=17)
    result = evolve(train[0], config, HalfPredictor(), model, train)
    totals = result.population.scores[:, TOTAL].tolist()
    assert totals == sorted(totals, reverse=True)
    fresh = ViabilityScorer(train[0], HalfPredictor(), model)
    for genome, score in scored(result.population)[:5]:
        assert fresh.score(genome) == score


def test_operator_outputs_preserve_genome_invariants():
    train, model, scorer = training_setup()
    rng = np.random.default_rng(23)
    population = initialize("CBI", 10, train, model, scorer, rng)
    genomes = list(population.genomes)
    rates = MutationRates(0.2, 0.2, 0.2)
    for _ in range(300):
        kind = ("UC", "OPC", "TPC")[int(rng.integers(0, 3))]
        i, j = rng.integers(0, len(genomes), size=2)
        children = crossover(kind, genomes[i], genomes[j], rng, uc_rate=0.5)
        for child in children:
            check_encoded_invariants(child)
            mutated = mutate(
                ("RM", "SBM")[int(rng.integers(0, 2))], child, rates, model, rng
            )
            check_encoded_invariants(mutated)
            genomes.append(mutated)
        genomes = genomes[-30:]


# ---------------------------------------------------------------------------
# fast paths against the per-individual reference implementations


def reference_genome(ids, rows, max_len, feature_dim):
    """_build_genome writing one feature row at a time."""
    activity_ids = np.zeros(max_len, dtype=np.int64)
    features = np.zeros((max_len, feature_dim))
    activity_ids[: len(ids)] = ids
    for t, row in enumerate(rows):
        features[t] = row
    return EncodedTrace(activity_ids, features, len(ids), 0, "cf")


def reference_mutate(kind, genome, rates, feas_model, rng):
    """mutate as a per-position loop that draws one double at a time."""
    vocab_size = feas_model.encoder.vocab_size
    max_len = genome.max_len
    feature_dim = genome.features.shape[1]

    def draw_row(activity_id):
        if kind == "RM":
            return np.clip(rng.standard_normal(feature_dim), 0.0, 1.0)
        return markov_mod.sample_attributes(feas_model, activity_id, rng)

    ids = genome.activity_ids[: genome.valid_len].tolist()
    rows = [genome.features[t] for t in range(genome.valid_len)]
    remove = rng.random(len(ids)) < rates.delete
    if remove.all():
        remove[-1] = False
    ids = [a for a, r in zip(ids, remove) if not r]
    rows = [row for row, r in zip(rows, remove) if not r]
    for _ in range(max_len - len(ids)):
        if rng.random() < rates.insert:
            position = int(rng.integers(0, len(ids) + 1))
            activity = int(rng.integers(1, vocab_size + 1))
            ids.insert(position, activity)
            rows.insert(position, draw_row(activity))
    flip = rng.random(len(ids)) < rates.change
    for t in np.flatnonzero(flip):
        activity = int(rng.integers(1, vocab_size + 1))
        ids[t] = activity
        rows[t] = draw_row(activity)
    return reference_genome(ids, rows, max_len, feature_dim)


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
        # every valid_len, the full frame (no free slot) included
        for valid_len in range(1, encoder.max_len + 1):
            for _ in range(4):
                acts = source.integers(1, encoder.vocab_size + 1, size=valid_len).tolist()
                rows = sample_attribute_rows(model, acts, source)
                genome = make_encoded(acts, rows, encoder.max_len, outcome=1, case_id="x")
                got = mutate(kind, genome, rates, model, ours)
                want = reference_mutate(kind, genome, rates, model, reference)
                assert encoded_equal(got, want)
                assert got.activity_ids.dtype == want.activity_ids.dtype
                assert (got.outcome, got.case_id) == (want.outcome, want.case_id)
                assert ours.bit_generator.state == reference.bit_generator.state


def test_initial_genomes_equal_per_event_reference(synth_setup):
    model = synth_setup["feas_model"]
    encoder = model.encoder
    ours, reference = np.random.default_rng(5), np.random.default_rng(5)
    for _ in range(100):
        got = _random_genome(ours, encoder.vocab_size, encoder.max_len, encoder.feature_dim)
        length = int(reference.integers(1, encoder.max_len + 1))
        ids = reference.integers(1, encoder.vocab_size + 1, size=length).tolist()
        rows = [
            np.clip(reference.standard_normal(encoder.feature_dim), 0.0, 1.0) for _ in ids
        ]
        assert encoded_equal(got, reference_genome(ids, rows, encoder.max_len, encoder.feature_dim))
        (got,) = _sampled_genomes(ours, model, 1)
        ids = markov_mod.sample_sequence(model, encoder.max_len, reference)
        rows = [markov_mod.sample_attributes(model, a, reference) for a in ids]
        assert encoded_equal(got, reference_genome(ids, rows, encoder.max_len, encoder.feature_dim))
        assert ours.bit_generator.state == reference.bit_generator.state


@pytest.mark.parametrize("max_len", [1, 2, None])
def test_sbi_genomes_equal_the_per_genome_oracle(max_len, synth_setup):
    # max_len 1 and 2 make most chains stop at max_len without an END draw;
    # None keeps the model's frame; n is not a multiple of the chunk
    _, small_model, _ = training_setup()
    n = 2 * _TRACE_CHUNK + 5
    for model in (small_model, synth_setup["feas_model"]):
        if max_len is not None:
            model = replace(model, encoder=replace(model.encoder, max_len=max_len))
        ours, reference = np.random.default_rng(8), np.random.default_rng(8)
        got = _sampled_genomes(ours, model, n)
        want = [sampled_genome(reference, model) for _ in range(n)]
        assert len(got) == n
        for genome, expected in zip(got, want):
            assert encoded_equal(genome, expected)
            assert genome.activity_ids.dtype == expected.activity_ids.dtype
        assert ours.bit_generator.state == reference.bit_generator.state
        if max_len is not None:
            assert max(genome.valid_len for genome in got) == max_len


def test_initialize_sbi_equals_the_per_genome_oracle(synth_setup):
    model = synth_setup["feas_model"]
    factual = synth_setup["test"][0]
    scorer = ViabilityScorer(factual, synth_setup["predictor"], model)
    ours, reference = np.random.default_rng(9), np.random.default_rng(9)
    population = initialize("SBI", _TRACE_CHUNK + 1, synth_setup["train"], model, scorer, ours)
    for genome in population.genomes:
        assert encoded_equal(genome, sampled_genome(reference, model))
    assert ours.bit_generator.state == reference.bit_generator.state


def reference_select(kind, population, sample_size, rng):
    """select reading a ViabilityScore object per genome."""
    individuals = scored(population)
    if kind == "RWS":
        fitness = np.array([max(score.total, FITNESS_FLOOR) for _, score in individuals])
        chosen = rng.choice(len(individuals), size=sample_size, p=fitness / fitness.sum())
        parents = [individuals[i] for i in chosen]
    elif kind == "TS":
        parents = []
        for _ in range(sample_size):
            i, j = rng.integers(0, len(individuals), size=2)
            first, second = individuals[i], individuals[j]
            f_first = max(first[1].total, FITNESS_FLOOR)
            f_second = max(second[1].total, FITNESS_FLOOR)
            parents.append(first if rng.random() < f_first / (f_first + f_second) else second)
    else:
        order = sorted(range(len(individuals)), key=lambda i: -individuals[i][1].total)
        parents = [individuals[i] for i in order[:sample_size]]
    genomes = [genome for genome, _ in parents]
    return list(zip(genomes[0::2], genomes[1::2]))


def reference_recombine(kind, population, mutants, max_size):
    """recombine sorting (genome, ViabilityScore) pairs by score attributes."""
    kept, offered = scored(population), scored(mutants)
    if kind == "FSR":
        survivors = sorted(kept + offered, key=lambda pair: -pair[1].total)[:max_size]
    elif kind == "BBR":
        admitted = []
        if offered:
            mean_total = statistics.fmean(score.total for _, score in offered)
            admitted = [pair for pair in offered if pair[1].total > mean_total]
        survivors = kept + admitted
        if len(survivors) > max_size:
            survivors = sorted(survivors, key=lambda pair: -pair[1].total)[:max_size]
    else:
        survivors = sorted(
            kept + offered,
            key=lambda pair: (
                -pair[1].feasibility,
                -pair[1].delta,
                -pair[1].sparsity,
                -pair[1].similarity,
            ),
        )[:max_size]
    return survivors


def reference_cycle_stats(cycle, population):
    scores = [score for _, score in scored(population)]
    totals = [s.total for s in scores]
    return CycleStats(
        cycle=cycle,
        best_total=max(totals),
        mean_total=statistics.fmean(totals),
        median_total=statistics.median(totals),
        mean_similarity=statistics.fmean(s.similarity for s in scores),
        mean_sparsity=statistics.fmean(s.sparsity for s in scores),
        mean_feasibility=statistics.fmean(s.feasibility for s in scores),
        mean_delta=statistics.fmean(s.delta for s in scores),
    )


# ties, signed zeros, and totals at and below the fitness floor
SCORE_VALUES = (0.0, -0.0, 0.5, 1.0, 2.0, -0.3, FITNESS_FLOOR, 1e-7, 0.1 + 0.2)


def tied_population(rng, n):
    genomes = tuple(t([1 + i % 3], [0.5]) for i in range(n))
    rows = [[SCORE_VALUES[k] for k in rng.integers(0, len(SCORE_VALUES), 5)] for _ in range(n)]
    return Population(genomes, np.array(rows, dtype=float).reshape(-1, 5))


def same_objects(got, want):
    return len(got) == len(want) and all(a is b for a, b in zip(got, want))


def score_bytes(scores):
    return np.array([astuple(score) for score in scores], dtype=float).reshape(-1, 5).tobytes()


def test_array_select_recombine_and_stats_equal_attribute_reference():
    rng = np.random.default_rng(31)
    for _ in range(300):
        population = tied_population(rng, int(rng.integers(1, 12)))
        mutants = tied_population(rng, int(rng.integers(0, 7)))
        size = 2 * int(rng.integers(1, len(population) // 2 + 2))
        seed = int(rng.integers(0, 2**32))
        for kind in ("RWS", "TS", "ES"):
            if kind == "ES" and size > len(population):
                continue
            ours, reference = np.random.default_rng(seed), np.random.default_rng(seed)
            got = select(kind, population, size, ours)
            want = reference_select(kind, population, size, reference)
            assert same_objects(sum(got, ()), sum(want, ()))
            assert ours.bit_generator.state == reference.bit_generator.state
        max_size = int(rng.integers(1, len(population) + len(mutants) + 2))
        for kind in ("FSR", "BBR", "RR"):
            survivors = recombine(kind, population, mutants, max_size)
            want = reference_recombine(kind, population, mutants, max_size)
            assert same_objects(survivors.genomes, [genome for genome, _ in want])
            # each row travels with its genome, signed zeros included
            assert survivors.scores.tobytes() == score_bytes(score for _, score in want)
            assert repr(_cycle_stats(1, survivors)) == repr(reference_cycle_stats(1, survivors))


def test_bbr_round_that_admits_nothing_keeps_the_population():
    population = population_of(0.5, -0.0, 0.0)
    survivors = recombine("BBR", population, population_of(1.0, 1.0, 1.0), 10)
    assert same_objects(survivors.genomes, population.genomes)
    assert survivors.scores.tobytes() == population.scores.tobytes()
    nobody = Population((), np.empty((0, 5)))
    assert same_objects(recombine("BBR", population, nobody, 2).genomes, population.genomes[:2])
