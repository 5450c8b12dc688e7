import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from evocf.errors import (
    DataError,
    EmptyLogError,
    SchemaError,
    SplitError,
    VocabularyError,
)
from evocf.event_log import (
    AttributeSchema,
    CategoricalCodec,
    Event,
    EventLog,
    PlantedRule,
    Trace,
    check_encoded_invariants,
    decode,
    encode,
    fit_encoder,
    load_csv,
    load_schema_config,
    preprocess,
    split_train_test,
    synthesize_log,
    write_csv,
)

SCHEMAS = (
    AttributeSchema("amount", "numeric"),
    AttributeSchema("resource", "categorical"),
)


def write_log_csv(tmp_path, rows, header="case_id,activity,timestamp,outcome,amount,resource"):
    path = tmp_path / "log.csv"
    path.write_text("\n".join([header, *rows]) + "\n")
    return path


def test_load_csv_single_case(tmp_path):
    path = write_log_csv(
        tmp_path,
        [
            "c1,a,0,1,10.0,x",
            "c1,b,1,1,11.0,y",
            "c1,c,2,1,12.0,x",
        ],
    )
    log = load_csv(path, SCHEMAS)
    assert len(log) == 1
    assert log.traces[0].activities == ("a", "b", "c")
    assert log.traces[0].outcome == 1
    assert log.activity_vocabulary == ("a", "b", "c")


def test_load_csv_interleaved_cases_ordered_by_timestamp(tmp_path):
    path = write_log_csv(
        tmp_path,
        [
            "c1,a,5,0,1.0,x",
            "c2,a,1,1,1.0,x",
            "c1,b,2,0,1.0,x",
            "c2,b,4,1,1.0,x",
        ],
    )
    log = load_csv(path, SCHEMAS)
    by_case = {t.case_id: t for t in log.traces}
    assert by_case["c1"].activities == ("b", "a")  # timestamps 2 then 5
    assert by_case["c2"].activities == ("a", "b")


def test_load_csv_inconsistent_outcome_is_data_error(tmp_path):
    path = write_log_csv(tmp_path, ["c1,a,0,0,1.0,x", "c1,b,1,1,1.0,x"])
    with pytest.raises(DataError):
        load_csv(path, SCHEMAS)


def test_load_csv_missing_column_is_schema_error(tmp_path):
    path = write_log_csv(
        tmp_path, ["c1,a,0,1.0,x"], header="case_id,activity,timestamp,amount,resource"
    )
    with pytest.raises(SchemaError):
        load_csv(path, SCHEMAS)


def test_load_csv_bad_numeric_names_row(tmp_path):
    path = write_log_csv(tmp_path, ["c1,a,0,1,oops,x"])
    with pytest.raises(DataError, match="row 2"):
        load_csv(path, SCHEMAS)


def test_write_csv_round_trips(tmp_path):
    log = synthesize_log(20, 3, seed=5)
    path = tmp_path / "out.csv"
    write_csv(log, path)
    schemas = tuple(AttributeSchema(s.name, s.kind) for s in log.schemas)
    loaded = load_csv(path, schemas)
    assert len(loaded) == len(log)
    for original, reloaded in zip(log.traces, loaded.traces):
        assert original.activities == reloaded.activities
        assert original.outcome == reloaded.outcome
        for e_orig, e_new in zip(original.events, reloaded.events):
            assert abs(e_orig.attributes["amount"] - e_new.attributes["amount"]) < 1e-12
            assert e_orig.attributes["resource"] == e_new.attributes["resource"]


def test_load_schema_config(tmp_path):
    path = tmp_path / "schema.json"
    path.write_text('{"attributes": [{"name": "amount", "kind": "numeric"}]}')
    schemas = load_schema_config(path)
    assert schemas[0].name == "amount"
    assert schemas[0].kind == "numeric"


@pytest.mark.parametrize(
    "text, message",
    [
        (None, "cannot read schema config"),
        ("{not json", "not valid JSON"),
        ('[{"name": "amount", "kind": "numeric"}]', "missing 'attributes'"),
        ('{"attributes": [{"name": "amount"}]}', "needs a 'name' and a 'kind'"),
    ],
)
def test_load_schema_config_rejects_bad_files(tmp_path, text, message):
    path = tmp_path / "schema.json"
    if text is not None:
        path.write_text(text)
    with pytest.raises(SchemaError, match=message) as info:
        load_schema_config(path)
    assert str(path) in str(info.value)


def test_load_csv_missing_file_is_a_data_error(tmp_path):
    path = tmp_path / "missing.csv"
    with pytest.raises(DataError, match="cannot read event log") as info:
        load_csv(path, ())
    assert str(path) in str(info.value)


# ---------------------------------------------------------------------------
# preprocess / split


def _log_with_lengths(lengths):
    traces = []
    for i, length in enumerate(lengths):
        events = tuple(Event("a", {}) for _ in range(length))
        traces.append(Trace(f"c{i}", events, outcome=i % 2))
    return EventLog(tuple(traces), (), ("a",))


def test_preprocess_filters_long_traces():
    log = _log_with_lengths([3, 25, 26])
    kept = preprocess(log, 25)
    assert sorted(len(t) for t in kept.traces) == [3, 25]
    assert len(log.traces) == 3  # input untouched


def test_preprocess_noop_when_all_short():
    log = _log_with_lengths([2, 3])
    assert preprocess(log, 25).traces == log.traces


def test_preprocess_empty_result_is_error():
    with pytest.raises(EmptyLogError):
        preprocess(_log_with_lengths([30, 31]), 25)


def test_split_sizes_and_partition():
    log = _log_with_lengths([2] * 10)
    train, test = split_train_test(log, 0.2, seed=7)
    assert (len(train), len(test)) == (8, 2)
    all_ids = {t.case_id for t in log.traces}
    assert {t.case_id for t in train.traces} | {t.case_id for t in test.traces} == all_ids
    assert {t.case_id for t in train.traces} & {t.case_id for t in test.traces} == set()


def test_split_deterministic():
    log = _log_with_lengths([2] * 10)
    first = split_train_test(log, 0.3, seed=11)
    second = split_train_test(log, 0.3, seed=11)
    assert [t.case_id for t in first[0].traces] == [t.case_id for t in second[0].traces]
    assert [t.case_id for t in first[1].traces] == [t.case_id for t in second[1].traces]


def test_split_single_trace_is_error():
    with pytest.raises(SplitError):
        split_train_test(_log_with_lengths([2]), 0.5, seed=0)


# ---------------------------------------------------------------------------
# encoder


def _toy_log():
    events_1 = (
        Event("A", {"amount": 10.0, "resource": "x"}),
        Event("B", {"amount": 20.0, "resource": "y"}),
        Event("A", {"amount": 30.0, "resource": "z"}),
    )
    events_2 = (Event("B", {"amount": 25.0, "resource": "x"}),)
    schemas = (
        AttributeSchema("amount", "numeric"),
        AttributeSchema("resource", "categorical", categories=("x", "y", "z")),
    )
    return EventLog(
        (Trace("c1", events_1, 1), Trace("c2", events_2, 0)),
        schemas,
        ("A", "B"),
    )


def test_fit_encoder_assigns_ids_and_ranges():
    spec = fit_encoder(_toy_log())
    assert spec.activity_to_id == {"A": 1, "B": 2}
    numeric = spec.codecs[0]
    assert (numeric.observed_min, numeric.observed_max) == (10.0, 30.0)
    assert numeric.encode(10.0)[0] == 0.0
    assert numeric.encode(30.0)[0] == 1.0
    assert numeric.encode(20.0)[0] == 0.5
    assert numeric.encode(99.0)[0] == 1.0  # clipped


def test_categorical_binary_width_and_codes():
    codec = CategoricalCodec("r", ("x", "y", "z"))
    assert codec.width == 2  # ceil(log2(4))
    assert codec.encode("x").tolist() == [0.0, 1.0]
    assert codec.encode("y").tolist() == [1.0, 0.0]
    assert codec.encode("z").tolist() == [1.0, 1.0]
    assert codec.decode(np.array([0.0, 0.0])) is None  # absent
    for value in ("x", "y", "z"):
        assert codec.decode(codec.encode(value)) == value


def test_encode_pads_and_round_trips():
    log = _toy_log()
    spec = fit_encoder(log)
    assert spec.max_len == 3
    enc = encode(log.traces[1], spec)  # single event trace
    assert enc.activity_ids.tolist() == [2, 0, 0]
    assert enc.valid_len == 1
    assert np.all(enc.features[1:] == 0.0)
    check_encoded_invariants(enc)

    for trace in log.traces:
        enc = encode(trace, spec)
        back = decode(enc, spec)
        assert back.activities == trace.activities
        for e_orig, e_new in zip(trace.events, back.events):
            assert e_orig.attributes["resource"] == e_new.attributes["resource"]
            assert abs(e_orig.attributes["amount"] - e_new.attributes["amount"]) < 1e-9


def test_encode_unknown_activity_is_vocabulary_error():
    log = _toy_log()
    spec = fit_encoder(log)
    stranger = Trace("c9", (Event("Z", {"amount": 15.0, "resource": "x"}),), 0)
    with pytest.raises(VocabularyError):
        encode(stranger, spec)


@settings(max_examples=50, deadline=None)
@given(
    lengths=st.lists(st.integers(min_value=1, max_value=3), min_size=1, max_size=3),
    data=st.data(),
)
def test_round_trip_property(lengths, data):
    spec = fit_encoder(_toy_log())
    amounts = st.floats(min_value=10.0, max_value=30.0, allow_nan=False)
    resources = st.sampled_from(["x", "y", "z"])
    activities = st.sampled_from(["A", "B"])
    for case_index, length in enumerate(lengths):
        events = tuple(
            Event(
                data.draw(activities),
                {"amount": data.draw(amounts), "resource": data.draw(resources)},
            )
            for _ in range(length)
        )
        trace = Trace(f"c{case_index}", events, 0)
        enc = encode(trace, spec)
        check_encoded_invariants(enc)
        assert np.all(enc.features >= 0.0) and np.all(enc.features <= 1.0)
        back = decode(enc, spec)
        assert back.activities == trace.activities
        for e_orig, e_new in zip(trace.events, back.events):
            assert e_orig.attributes["resource"] == e_new.attributes["resource"]
            assert abs(e_orig.attributes["amount"] - e_new.attributes["amount"]) <= 1e-9


# ---------------------------------------------------------------------------
# synthesis


def test_synthesize_deterministic():
    first = synthesize_log(50, 4, seed=3)
    second = synthesize_log(50, 4, seed=3)
    for a, b in zip(first.traces, second.traces):
        assert a.case_id == b.case_id
        assert a.activities == b.activities
        assert a.outcome == b.outcome
        for e_a, e_b in zip(a.events, b.events):
            assert e_a.attributes == e_b.attributes


def test_synthesize_rule_defines_outcome():
    log = synthesize_log(50, 4, seed=1)
    critical = log.activity_vocabulary[-1]
    for trace in log.traces:
        assert trace.outcome == (1 if critical in trace.activities else 0)


def test_synthesize_custom_rule():
    log = synthesize_log(30, 5, rule=PlantedRule("B"), seed=2)
    for trace in log.traces:
        assert trace.outcome == (1 if "B" in trace.activities else 0)


def test_synthesize_both_classes_present():
    log = synthesize_log(200, 5, seed=0)
    counts = {0: 0, 1: 0}
    for trace in log.traces:
        counts[trace.outcome] += 1
    assert counts[0] >= 10
    assert counts[1] >= 10


def test_synthesize_rejects_tiny_requests():
    with pytest.raises(ValueError):
        synthesize_log(5, 5, seed=0)
    with pytest.raises(ValueError):
        synthesize_log(50, 2, seed=0)


def test_event_log_rejects_undeclared_or_mistyped_attributes():
    schemas = (AttributeSchema("amount", "numeric"),)
    with pytest.raises(DataError, match="not declared"):
        EventLog(
            (Trace("c1", (Event("a", {"stranger": 1.0}),), 0),), schemas, ("a",)
        )
    with pytest.raises(DataError, match="must be numeric"):
        EventLog(
            (Trace("c1", (Event("a", {"amount": "oops"}),), 0),), schemas, ("a",)
        )
