import numpy as np
import pytest

from conftest import identity_encoder, make_encoded
from evocf.errors import ConfigNameError, SelectionError
from evocf.event_log import check_encoded_invariants
from evocf.evolution import (
    EvoConfig,
    Individual,
    MutationRates,
    Population,
    crossover,
    evolve,
    initialize,
    mutate,
    parse_config_name,
    recombine,
    select,
    tournament_winner,
)
from evocf.markov import fit
from evocf.viability import ViabilityScore, ViabilityScorer


def t(acts, values, max_len=6):
    return make_encoded(acts, [[v] for v in values], max_len)


def score_with_total(total):
    # component values are irrelevant for ranking-by-total tests
    return ViabilityScore(0.0, 0.0, 0.0, 0.0, total)


def individual(total, genome=None):
    return Individual(genome if genome is not None else t([1], [0.5]), score_with_total(total))


def training_setup():
    train = [
        t([1, 2], [0.1, 0.6]),
        t([1, 3], [0.2, 0.7]),
        t([2, 3], [0.4, 0.9]),
        t([1, 2, 3], [0.1, 0.5, 0.9]),
    ]
    encoder = identity_encoder(max_len=6)
    model = fit(train, encoder, 1e-6, 5)

    class HalfPredictor:
        def predict_proba(self, trace):
            return 0.5

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
    for ind in population.individuals:
        assert tuple(ind.genome.activity_ids.tolist()) in sources


def test_initialize_sbi_has_positive_feasibility():
    train, model, scorer = training_setup()
    rng = np.random.default_rng(1)
    population = initialize("SBI", 30, train, model, scorer, rng)
    for ind in population.individuals:
        assert ind.score.feasibility > 0.0
        check_encoded_invariants(ind.genome)


def test_initialize_ri_respects_invariants():
    train, model, scorer = training_setup()
    rng = np.random.default_rng(2)
    population = initialize("RI", 30, train, model, scorer, rng)
    for ind in population.individuals:
        check_encoded_invariants(ind.genome)
        assert 1 <= ind.genome.valid_len <= 6


def test_initialize_deterministic():
    train, model, scorer = training_setup()
    first = initialize("SBI", 10, train, model, scorer, np.random.default_rng(7))
    second = initialize("SBI", 10, train, model, scorer, np.random.default_rng(7))
    for a, b in zip(first.individuals, second.individuals):
        assert a.genome.equals(b.genome)
        assert a.score == b.score


def test_initialize_rejects_zero():
    train, model, scorer = training_setup()
    with pytest.raises(ValueError):
        initialize("CBI", 0, train, model, scorer, np.random.default_rng(0))


# ---------------------------------------------------------------------------
# select


def test_select_single_individual_population():
    population = Population((individual(2.0),), 0)
    pairs = select("RWS", population, 4, np.random.default_rng(0))
    assert len(pairs) == 2
    for a, b in pairs:
        assert a is population.individuals[0]
        assert b is population.individuals[0]


def test_rws_frequencies_proportional_to_fitness():
    population = Population((individual(3.0), individual(1.0)), 0)
    rng = np.random.default_rng(5)
    pairs = select("RWS", population, 10_000, rng)
    flat = [p for pair in pairs for p in pair]
    share = sum(1 for p in flat if p is population.individuals[0]) / len(flat)
    assert abs(share - 0.75) < 0.02


def test_tournament_three_to_one_odds():
    strong, weak = individual(3.0), individual(1.0)
    rng = np.random.default_rng(6)
    wins = sum(1 for _ in range(10_000) if tournament_winner(strong, weak, rng) is strong)
    assert abs(wins / 10_000 - 0.75) < 0.02


def test_es_takes_the_top_and_is_deterministic():
    population = Population(
        (individual(1.0), individual(3.0), individual(2.0), individual(3.0)), 0
    )
    pairs = select("ES", population, 2, np.random.default_rng(0))
    first, second = pairs[0]
    # the two totals of 3.0 win; insertion order breaks the tie
    assert first is population.individuals[1]
    assert second is population.individuals[3]
    pairs_again = select("ES", population, 2, np.random.default_rng(99))
    assert pairs == pairs_again


def test_es_overdraw_is_selection_error():
    population = Population((individual(1.0),), 0)
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
    assert child_1.equals(a)
    assert child_2.equals(b)


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
        assert child_1.equals(a)
        assert child_2.equals(a)


def test_crossover_children_are_pad_normalized():
    rng = np.random.default_rng(8)
    a = t([1, 2, 3, 1], [0.1, 0.2, 0.3, 0.4])
    b = t([2], [0.9])
    for kind, rate in (("UC", 0.4), ("OPC", None), ("TPC", None)):
        for _ in range(100):
            for child in crossover(kind, a, b, rng, uc_rate=rate):
                check_encoded_invariants(child)


# ---------------------------------------------------------------------------
# mutate


def test_mutate_zero_rates_is_identity():
    train, model, _ = training_setup()
    genome = train[3]
    mutated = mutate("SBM", genome, MutationRates(0.0, 0.0, 0.0), model, np.random.default_rng(0))
    assert mutated.equals(genome)


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
    population = Population((individual(3.0), individual(1.0), individual(2.0)), 0)
    survivors = recombine("FSR", population, [individual(2.5)], 3)
    assert [ind.score.total for ind in survivors.individuals] == [3.0, 2.5, 2.0]
    assert survivors.generation == 1


def test_bbr_admits_only_above_average_mutants():
    population = Population((individual(0.5),), 0)
    mutants = [individual(1.0), individual(2.0), individual(3.0)]  # mean 2.0
    survivors = recombine("BBR", population, mutants, 10)
    totals = [ind.score.total for ind in survivors.individuals]
    assert totals == [0.5, 3.0]


def test_bbr_drops_worst_when_over_capacity():
    population = Population(tuple(individual(v) for v in (1.0, 2.0, 3.0)), 0)
    mutants = [individual(0.5), individual(4.0)]  # mean 2.25, only 4.0 joins
    survivors = recombine("BBR", population, mutants, 3)
    assert sorted(ind.score.total for ind in survivors.individuals) == [2.0, 3.0, 4.0]


def test_rr_orders_lexicographically_by_components():
    better = Individual(t([1], [0.5]), ViabilityScore(0.1, 0.9, 0.5, 0.2, 1.7))
    worse = Individual(t([1], [0.5]), ViabilityScore(0.9, 0.8, 0.5, 0.2, 2.4))
    population = Population((worse,), 0)
    survivors = recombine("RR", population, [better], 2)
    # equal feasibility and delta; sparsity 0.9 beats 0.8 despite lower total
    assert survivors.individuals[0] is better


# ---------------------------------------------------------------------------
# evolve


def small_config(name="CBI-RWS-OPC-SBM-FSR", **kwargs):
    defaults = dict(population_size=20, offspring_per_cycle=6, cycles=5, seed=3)
    defaults.update(kwargs)
    return parse_config_name(name, **defaults)


def test_evolve_zero_cycles_returns_scored_initial_population():
    train, model, scorer = training_setup()
    config = small_config(cycles=0)

    class HalfPredictor:
        def predict_proba(self, trace):
            return 0.5

    result = evolve(train[0], config, HalfPredictor(), model, train)
    assert result.stats == ()
    assert result.cycles_run == 0
    assert len(result.population) == config.population_size


def test_evolve_runs_with_constant_stub_predictor():
    train, model, _ = training_setup()

    class HalfPredictor:
        def predict_proba(self, trace):
            return 0.5

    config = small_config(cycles=3)
    result = evolve(train[0], config, HalfPredictor(), model, train)
    assert len(result.stats) == 3
    assert len(result.population) == config.population_size


def test_evolve_fsr_best_total_never_decreases():
    train, model, _ = training_setup()

    class HalfPredictor:
        def predict_proba(self, trace):
            return 0.5

    config = small_config(cycles=20, seed=11)
    result = evolve(train[0], config, HalfPredictor(), model, train)
    best = [s.best_total for s in result.stats]
    assert all(later >= earlier for earlier, later in zip(best, best[1:]))


def test_evolve_deterministic_under_seed():
    train, model, _ = training_setup()

    class HalfPredictor:
        def predict_proba(self, trace):
            return 0.5

    config = small_config(cycles=4, seed=13)
    first = evolve(train[0], config, HalfPredictor(), model, train)
    second = evolve(train[0], config, HalfPredictor(), model, train)
    assert first.stats == second.stats
    for a, b in zip(first.population.individuals, second.population.individuals):
        assert a.genome.equals(b.genome)
        assert a.score == b.score


def test_evolve_population_sorted_and_scores_fresh():
    train, model, scorer = training_setup()

    class HalfPredictor:
        def predict_proba(self, trace):
            return 0.5

    config = small_config(cycles=5, seed=17)
    result = evolve(train[0], config, HalfPredictor(), model, train)
    totals = [ind.score.total for ind in result.population.individuals]
    assert totals == sorted(totals, reverse=True)
    fresh = ViabilityScorer(train[0], HalfPredictor(), model)
    for ind in result.population.individuals[:5]:
        assert fresh.score(ind.genome) == ind.score


def test_operator_outputs_preserve_genome_invariants():
    train, model, scorer = training_setup()
    rng = np.random.default_rng(23)
    population = initialize("CBI", 10, train, model, scorer, rng)
    genomes = [ind.genome for ind in population.individuals]
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
