import bisect
import math
import os
import statistics

import numpy as np
import pytest
from hypothesis import settings

from evocf import markov as markov_mod
from evocf import predictor as predictor_mod
from evocf.errors import ConfigurationError, DataError
from evocf.event_log import (
    CODE_TOLERANCE,
    PAD_ID,
    EncodedLog,
    EncodedTrace,
    EncoderSpec,
    Event,
    NumericCodec,
    Trace,
    _draw,
    encode_log,
    fit_encoder,
    preprocess,
    split_train_test,
    synthesize_log,
)
from evocf.evolution import FITNESS_FLOOR, CycleStats, crossover, mutate
from evocf.viability import (
    _BACKTRACE_TOLERANCE,
    FEATURE_DIFF_TOLERANCE,
    EditAlignment,
    EditOp,
    ViabilityScore,
    ViabilityScorer,
)

# CI selects this profile (HYPOTHESIS_PROFILE=ci) so property tests draw the
# same examples on every run and a slow runner cannot fail one on time
settings.register_profile("ci", derandomize=True, deadline=None)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))


def make_encoded(activities, feature_rows, max_len, outcome=0, case_id="t"):
    """Build an EncodedTrace from per-event activity ids and feature rows."""
    n = len(activities)
    feature_rows = np.asarray(feature_rows, dtype=float)
    if feature_rows.ndim == 1:
        feature_rows = feature_rows.reshape(n, -1)
    d = feature_rows.shape[1] if n else 0
    ids = np.zeros(max_len, dtype=np.int64)
    feats = np.zeros((max_len, d), dtype=float)
    ids[:n] = activities
    feats[:n] = feature_rows
    return EncodedTrace(ids, feats, n, outcome, case_id)


def log_of(traces) -> EncodedLog:
    """The EncodedLog of a non-empty list of EncodedTraces sharing (L, D), row i trace i.

    The object-based oracles hold traces as lists; this turns one into the
    batch the engine takes, and its .frame into the frame a kernel takes.
    """
    return EncodedLog(
        np.array([t.activity_ids for t in traces]),
        np.array([t.features for t in traces]),
        np.array([t.valid_len for t in traces], dtype=np.int64),
        np.array([t.outcome for t in traces], dtype=np.int64),
        np.array([t.case_id for t in traces], dtype=str),
    )


def encoded_equal(a, b) -> bool:
    """The two genomes have the same length, activity ids and feature rows."""
    return (
        a.valid_len == b.valid_len
        and np.array_equal(a.activity_ids, b.activity_ids)
        and np.array_equal(a.features, b.features)
    )


def check_encoded_invariants(enc) -> None:
    """Raise DataError unless padding discipline and feature range hold."""
    if not 1 <= enc.valid_len <= enc.max_len:
        raise DataError("valid_len out of range")
    if np.any(enc.activity_ids[: enc.valid_len] == PAD_ID):
        raise DataError("PAD id inside the valid prefix")
    if np.any(enc.activity_ids[enc.valid_len :] != PAD_ID):
        raise DataError("non-PAD id in the padding region")
    if np.any(enc.features[enc.valid_len :] != 0.0):
        raise DataError("nonzero feature row in the padding region")
    if np.any(enc.features < 0.0) or np.any(enc.features > 1.0):
        raise DataError("feature value outside [0, 1]")


# ---------------------------------------------------------------------------
# scalar reference of the attribute encoding, written out value by value
# from its rules without calling a codec: the == oracle of the batch paths


def reference_width(codec) -> int:
    """1 for a numeric attribute; for C categories, the bits that spell 0..C."""
    if isinstance(codec, NumericCodec):
        return 1
    return max(1, math.ceil(math.log2(len(codec.categories) + 1)))


def reference_code(codec, value) -> list[float]:
    """The code of one value: min-max scaled and clipped, or the bits of category index + 1."""
    if isinstance(codec, NumericCodec):
        span = codec.observed_max - codec.observed_min
        scaled = 0.0 if span <= 0.0 else (float(value) - codec.observed_min) / span
        return [min(max(scaled, 0.0), 1.0)]
    code = codec.categories.index(value) + 1  # ValueError for an unknown value
    width = reference_width(codec)
    return [float((code >> (width - 1 - b)) & 1) for b in range(width)]


def reference_value(codec, code):
    """The value of one code; None where a categorical code spells no category."""
    if isinstance(codec, NumericCodec):
        return codec.observed_min + float(code[0]) * (codec.observed_max - codec.observed_min)
    number = 0
    for entry in map(float, code):
        if not math.isfinite(entry):
            return None
        bit = round(entry)
        if bit not in (0, 1) or abs(entry - bit) > CODE_TOLERANCE:
            return None
        number = 2 * number + bit
    return codec.categories[number - 1] if 1 <= number <= len(codec.categories) else None


def reference_encode(trace, spec) -> tuple[np.ndarray, np.ndarray]:
    """The (max_len,) activity ids and (max_len, D) feature rows of trace, event by event."""
    ids = np.zeros(spec.max_len, dtype=np.int64)
    features = np.zeros((spec.max_len, sum(map(reference_width, spec.codecs))))
    for t, event in enumerate(trace.events):
        ids[t] = spec.activity_to_id[event.activity]
        row = []
        for codec in spec.codecs:
            if codec.name in event.attributes:
                row += reference_code(codec, event.attributes[codec.name])
            else:
                row += [0.0] * reference_width(codec)
        features[t] = row
    return ids, features


def reference_decode(enc, spec) -> Trace:
    """The trace enc encodes: padding dropped, a code that spells no category omitted."""
    id_to_activity = {i: a for a, i in spec.activity_to_id.items()}
    events = []
    for t in range(enc.valid_len):
        attributes = {}
        offset = 0
        for codec in spec.codecs:
            width = reference_width(codec)
            value = reference_value(codec, enc.features[t, offset : offset + width])
            if value is not None:
                attributes[codec.name] = value
            offset += width
        events.append(Event(id_to_activity[int(enc.activity_ids[t])], attributes))
    return Trace(enc.case_id, tuple(events), enc.outcome)


def reference_sample_attributes(model, activity_id, rng):
    """One event's feature row (D,), each attribute drawn with its own generator calls.

    A numeric attribute draws its bin, then a uniform position inside it; a
    categorical attribute draws its category and writes that category's code.
    """
    row = np.zeros(model.encoder.feature_dim)
    for (_, cols), (cdfs, codes) in zip(model.encoder.slices(), model._attribute_cdfs):
        idx = _draw(cdfs[activity_id], rng)
        if codes is None:
            row[cols] = (idx + rng.random()) / model.n_bins
        else:
            row[cols] = codes[idx]
    return row


def sample_attribute_rows(model, activity_ids, rng):
    """reference_sample_attributes for each activity in turn, as rows of an (n, D) array.

    Every event takes the same doubles in the same order, so one
    rng.random((n, k)) holds the draws of the n calls row by row: the rows
    and the generator state come out the same.
    """
    acts = np.asarray(activity_ids, dtype=np.int64)
    return markov_mod.sample_attributes(model, acts, rng.random((len(acts), model._draws_per_event)))


def sampled_genomes(rng, feas_model, n):
    """n SBI genomes as sample_traces draws them, read one genome at a time with lists.

    Genome g's chain walks row g of one random((n, max_len)) block with
    bisect_right on the CDFs as lists: the first double picks the first
    activity, each next one the successor, until END or the frame's end.
    Then each event in turn, genome by genome, draws its attributes with
    reference_sample_attributes, which reads the doubles of the engine's
    random((E, k)) block in the same order.
    """
    encoder = feas_model.encoder
    initial_cdf, transition_cdf = feas_model._sequence_cdfs
    initial, transition = initial_cdf.tolist(), transition_cdf.tolist()
    chains = []
    for u in rng.random((n, encoder.max_len)).tolist():
        chain = [bisect.bisect_right(initial, u[0])]
        for x in u[1:]:
            successor = bisect.bisect_right(transition[chain[-1]], x)
            if successor == markov_mod.END_ID:
                break
            chain.append(successor)
        chains.append(chain)
    return [
        reference_genome(
            chain,
            [reference_sample_attributes(feas_model, a, rng) for a in chain],
            encoder.max_len,
            encoder.feature_dim,
        )
        for chain in chains
    ]


def genomes_of(ids, features, lengths):
    """Each row of a frame as an EncodedTrace, for the object-based oracles."""
    return [
        EncodedTrace(row_ids, row_features, n, 0, "cf")
        for row_ids, row_features, n in zip(ids, features, lengths.tolist())
    ]


def scored(population):
    """(genome, ViabilityScore) pairs of a population, in row order."""
    scores = (ViabilityScore(*row) for row in population.scores.tolist())
    return list(zip(genomes_of(*population.frame), scores))


def cross_genomes(kind, parent_a, parent_b, rng, uc_rate=None):
    """crossover on a one-pair block; the children as EncodedTraces."""
    frame = log_of([parent_a, parent_b]).frame
    crossover(kind, *frame, rng, uc_rate)
    return tuple(genomes_of(*frame))


def mutate_genome(kind, genome, rates, feas_model, rng):
    """mutate on a one-child block of the genome's row; the mutant."""
    frame = log_of([genome]).frame
    mutate(kind, *frame, rates, feas_model, rng)
    return genomes_of(*frame)[0]


def reference_pick_factuals(
    test: list[EncodedTrace], n: int, rng: np.random.Generator
) -> list[EncodedTrace]:
    """pick_factuals over a list of EncodedTrace objects: the == oracle of its row-index pick.

    Sample factuals from the test split, alternating outcome classes.
    """
    if n > len(test):
        raise ConfigurationError(
            f"n_factuals is {n} but the test split holds only {len(test)} encodable traces"
        )
    by_class = {0: [t for t in test if t.outcome == 0], 1: [t for t in test if t.outcome == 1]}
    for traces in by_class.values():
        if traces:
            order = rng.permutation(len(traces))
            traces[:] = [traces[i] for i in order]
    picked: list[EncodedTrace] = []
    turn = 1
    while len(picked) < n and (by_class[0] or by_class[1]):
        if by_class[turn]:
            picked.append(by_class[turn].pop())
        turn = 1 - turn
    return picked


# ---------------------------------------------------------------------------
# the engine as it was before the population became a frame: genomes are
# EncodedTrace objects and a population is a list of (genome, ViabilityScore)
# pairs. It is the == oracle of evolution's frame engine, draw for draw.


def reference_genome(ids, rows, max_len, feature_dim):
    """The genome of the events ids and rows, writing one feature row at a time."""
    activity_ids = np.zeros(max_len, dtype=np.int64)
    features = np.zeros((max_len, feature_dim))
    activity_ids[: len(ids)] = ids
    for t, row in enumerate(rows):
        features[t] = row
    return EncodedTrace(activity_ids, features, len(ids), 0, "cf")


def reference_random_genomes(rng, n, vocab_size, max_len, feature_dim):
    """n RI genomes from the blocks _random_genomes draws, read one genome at a time.

    The lengths and the activities of every cell are one block each; the
    clipped normal rows of every cell, padding included, are one
    standard_normal call per cell, which reads the generator as the
    engine's single block draw does. A genome keeps its first length cells.
    """
    lengths = rng.integers(1, max_len + 1, size=n).tolist()
    acts = rng.integers(1, vocab_size + 1, size=(n, max_len)).tolist()
    genomes = []
    for length, row in zip(lengths, acts):
        rows = [np.clip(rng.standard_normal(feature_dim), 0.0, 1.0) for _ in row]
        genomes.append(reference_genome(row[:length], rows[:length], max_len, feature_dim))
    return genomes


def reference_scored(scorer, genomes):
    """The (genome, ViabilityScore) pairs of one scoring batch."""
    rows = scorer.score_batch(*log_of(genomes).frame).tolist()
    return [(genome, ViabilityScore(*row)) for genome, row in zip(genomes, rows)]


def reference_initialize(kind, n, log, feas_model, scorer, rng):
    """initialize building one genome object at a time from the same draws."""
    encoder = feas_model.encoder
    if kind == "RI":
        genomes = reference_random_genomes(
            rng, n, encoder.vocab_size, encoder.max_len, encoder.feature_dim
        )
    elif kind == "SBI":
        genomes = sampled_genomes(rng, feas_model, n)
    else:
        genomes = [log[i] for i in rng.integers(0, len(log), size=n)]
    return reference_scored(scorer, genomes)


def reference_select(kind, population, sample_size, rng):
    """select reading a ViabilityScore object per genome; returns pairs of genomes."""
    if kind == "RWS":
        fitness = np.array([max(score.total, FITNESS_FLOOR) for _, score in population])
        chosen = rng.choice(len(population), size=sample_size, p=fitness / fitness.sum())
        parents = [population[i] for i in chosen]
    elif kind == "TS":
        parents = []
        firsts, seconds = rng.integers(0, len(population), size=(2, sample_size)).tolist()
        for i, j, u in zip(firsts, seconds, rng.random(sample_size).tolist()):
            first, second = population[i], population[j]
            f_first = max(first[1].total, FITNESS_FLOOR)
            f_second = max(second[1].total, FITNESS_FLOOR)
            parents.append(first if u < f_first / (f_first + f_second) else second)
    else:
        order = sorted(range(len(population)), key=lambda i: -population[i][1].total)
        parents = [population[i] for i in order[:sample_size]]
    genomes = [genome for genome, _ in parents]
    return list(zip(genomes[0::2], genomes[1::2]))


def reference_crossover(kind, pairs, rng, uc_rate=None):
    """crossover over (genome, genome) pairs: the block's draws, then each child event by event.

    A child takes its own parent's event where it keeps the cell and its
    partner's elsewhere, and ends at the first cell its source has no event in.
    """
    max_len = pairs[0][0].max_len
    if max_len < 2:
        return [genome for pair in pairs for genome in pair]
    if kind == "UC":
        keeps = (rng.random((len(pairs), max_len)) < uc_rate).tolist()
    else:
        firsts = rng.integers(1, max_len, size=len(pairs)).tolist()
        cuts = [(first, max_len) for first in firsts]
        if kind == "TPC":
            # the second cut skips the first, so the two are distinct
            seconds = rng.integers(1, max_len - 1, size=len(pairs)).tolist()
            cuts = [sorted((a, b + 1 if b >= a else b)) for a, b in zip(firsts, seconds)]
        keeps = [[t < lo or t >= hi for t in range(max_len)] for lo, hi in cuts]

    def child(own, other, keep):
        ids, rows = [], []
        for t, kept in enumerate(keep):
            source = own if kept else other
            if t >= source.valid_len:
                break
            ids.append(int(source.activity_ids[t]))
            rows.append(source.features[t])
        return reference_genome(ids, rows, max_len, own.features.shape[1])

    children = []
    for (a, b), keep in zip(pairs, keeps):
        children += [child(a, b, keep), child(b, a, keep)]
    return children


def reference_mutate(kind, genomes, rates, feas_model, rng):
    """mutate over a list of genome objects: the block's draws, applied genome by genome to lists.

    Each genome's events are (activity, feature row) pairs. New events take
    their activities and rows in order, the inserts of every genome first,
    then the changes; an RM row is one standard_normal call per event and an
    SBM row one reference_sample_attributes call, which read the generator
    as the engine's single block draw does.
    """
    max_len = genomes[0].max_len
    feature_dim = genomes[0].features.shape[1]
    delete_u = rng.random((len(genomes), max_len)).tolist()
    insert_u = rng.random((len(genomes), max_len)).tolist()
    mutants = []
    for genome, u in zip(genomes, delete_u):
        events = [(int(genome.activity_ids[t]), genome.features[t]) for t in range(genome.valid_len)]
        mutants.append([event for event, x in zip(events, u) if x >= rates.delete] or events[-1:])
    hits = [
        sum(x < rates.insert for x in u[: max_len - len(events)])
        for events, u in zip(mutants, insert_u)
    ]
    highs = [len(events) + k + 1 for events, n in zip(mutants, hits) for k in range(n)]
    positions = iter(rng.integers(0, np.array(highs, dtype=np.int64)).tolist())
    change_u = rng.random((len(genomes), max_len)).tolist()
    flips = [
        [x < rates.change for x in u[: len(events) + n]]
        for events, n, u in zip(mutants, hits, change_u)
    ]
    acts = rng.integers(1, feas_model.encoder.vocab_size + 1, size=sum(hits) + sum(map(sum, flips)))
    if kind == "RM":
        rows = [np.clip(rng.standard_normal(feature_dim), 0.0, 1.0) for _ in acts]
    else:
        rows = [reference_sample_attributes(feas_model, a, rng) for a in acts.tolist()]
    new_events = iter(zip(acts.tolist(), rows))
    for events, n in zip(mutants, hits):
        for _ in range(n):
            events.insert(next(positions), next(new_events))
    for events, flip in zip(mutants, flips):
        for t in range(len(events)):
            if flip[t]:
                events[t] = next(new_events)
    return [
        reference_genome([a for a, _ in events], [row for _, row in events], max_len, feature_dim)
        for events in mutants
    ]


def reference_recombine(kind, population, mutants, max_size):
    """recombine sorting (genome, ViabilityScore) pairs by score attributes."""
    if kind == "FSR":
        survivors = sorted(population + mutants, key=lambda pair: -pair[1].total)[:max_size]
    elif kind == "BBR":
        admitted = []
        if mutants:
            mean_total = statistics.fmean(score.total for _, score in mutants)
            admitted = [pair for pair in mutants if pair[1].total > mean_total]
        survivors = population + admitted
        if len(survivors) > max_size:
            survivors = sorted(survivors, key=lambda pair: -pair[1].total)[:max_size]
    else:
        survivors = sorted(
            population + mutants,
            key=lambda pair: (
                -pair[1].feasibility,
                -pair[1].delta,
                -pair[1].sparsity,
                -pair[1].similarity,
            ),
        )[:max_size]
    return survivors


def reference_cycle_stats(cycle, population):
    scores = [score for _, score in population]
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


def reference_evolve(factual, config, predictor, feas_model, log):
    """evolve over genome objects.

    Returns the final (genome, ViabilityScore) pairs best first, the cycle
    statistics and the generator.
    """
    rng = np.random.default_rng(config.seed)
    scorer = ViabilityScorer(factual, predictor, feas_model)
    population = reference_initialize(
        config.initiator, config.population_size, log, feas_model, scorer, rng
    )
    stats = []
    for cycle in range(1, config.cycles + 1):
        pairs = reference_select(config.selector, population, config.offspring_per_cycle, rng)
        children = reference_crossover(config.crosser, pairs, rng, config.uc_rate)
        offspring = reference_mutate(
            config.mutator, children, config.mutation_rates, feas_model, rng
        )
        mutants = reference_scored(scorer, offspring)
        population = reference_recombine(
            config.recombiner, population, mutants, config.population_size
        )
        stats.append(reference_cycle_stats(cycle, population))
    best_first = sorted(population, key=lambda pair: -pair[1].total)
    return best_first, tuple(stats), rng


# ---------------------------------------------------------------------------
# scalar reference of the edit-distance DP, one cell at a time: the == oracle
# of viability's anti-diagonal sweep (edit_distances) and of its backtrace
# (ssdld)


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


def _cost_matrices(a: EncodedTrace, b: EncodedTrace, cost_kind, slices=None):
    if cost_kind == "euclidean":
        return _euclidean_costs(a, b)
    if cost_kind == "count":
        if slices is None:
            # without an encoder every feature column is its own attribute
            slices = [(None, slice(c, c + 1)) for c in range(a.features.shape[1])]
        return _count_costs(a, b, slices)
    raise ValueError(f"unknown cost kind {cost_kind!r}")


def _dp_table(a: EncodedTrace, b: EncodedTrace, cost_kind, slices=None):
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


def reference_ssdld_distance(
    a: EncodedTrace, b: EncodedTrace, cost_kind, slices=None
) -> float:
    """Distance only; skips the alignment backtrace."""
    d, *_ = _dp_table(a, b, cost_kind, slices)
    return d[a.valid_len][b.valid_len]


def reference_ssdld(
    a: EncodedTrace, b: EncodedTrace, cost_kind, slices=None
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


def identity_encoder(vocab=("a", "b", "c"), max_len=8, n_numeric=1):
    """Encoder whose numeric attributes already live on [0, 1]."""
    codecs = tuple(NumericCodec(f"x{i}", 0.0, 1.0) for i in range(n_numeric))
    return EncoderSpec({name: i + 1 for i, name in enumerate(vocab)}, codecs, max_len)


@pytest.fixture(scope="session")
def synth_setup():
    """Synthetic planted-rule log with fitted encoder, predictor, and model."""
    log = preprocess(synthesize_log(200, 5, seed=0), 25)
    train_log, test_log = split_train_test(log, 0.2, seed=0)
    encoder = fit_encoder(train_log)
    train = encode_log(train_log, encoder)
    test = encode_log(test_log, encoder)
    predictor = predictor_mod.train(train, epochs=500, seed=0, encoder=encoder)
    feas_model = markov_mod.fit(train, encoder)
    return {
        "log": log,
        "encoder": encoder,
        "train": train,
        "test": test,
        "predictor": predictor,
        "feas_model": feas_model,
    }
