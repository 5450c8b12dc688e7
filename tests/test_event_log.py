import csv
import importlib.util
import re
from dataclasses import replace
from datetime import datetime
from pathlib import Path
from unittest import mock

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
    EncoderSpec,
    Event,
    EventLog,
    NumericCodec,
    PlantedRule,
    Trace,
    _activity_names,
    check_encoded_invariants,
    decode,
    encode,
    encode_log,
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


HEADER = "case_id,activity,timestamp,outcome,amount,resource"


def write_log_csv(tmp_path, rows, header=HEADER):
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
        ('{"attributes": 5}', "'attributes' must be a list"),
        ('{"attributes": [{"name": ["x"], "kind": "numeric"}]}', "both strings"),
        (
            '{"attributes": [{"name": "amount", "kind": "numeric"}, '
            '{"name": "amount", "kind": "categorical"}]}',
            "attribute 'amount' is declared twice",
        ),
        ('{"attributes": [{"name": "amount", "kind": "date"}]}', "unknown attribute kind 'date'"),
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


# ---------------------------------------------------------------------------
# fast set-up paths against their references: load_csv against the DictReader
# loader it replaced, encode_log against encode, synthesize_log against
# Generator.choice draws, and log subsets against checked construction


def _dictreader_load_csv(path, schemas):
    """The row-dict loader load_csv replaced, kept as its reference."""
    with open(path, newline="", encoding="utf-8-sig") as handle:
        reader = csv.DictReader(handle)
        has_timestamp = "timestamp" in reader.fieldnames
        rows_by_case, outcomes, vocabulary = {}, {}, []
        categories = {s.name: [] for s in schemas if s.kind == "categorical"}
        for row in reader:
            case_id = row["case_id"]
            outcomes.setdefault(case_id, int(row["outcome"].strip()))
            if row["activity"] not in vocabulary:
                vocabulary.append(row["activity"])
            attributes = {}
            for schema in schemas:
                raw = row[schema.name]
                if schema.kind == "numeric":
                    attributes[schema.name] = float(raw)
                else:
                    attributes[schema.name] = raw
                    if raw not in categories[schema.name]:
                        categories[schema.name].append(raw)
            timestamp = None
            if has_timestamp and row["timestamp"].strip():
                text = row["timestamp"].strip()
                try:
                    timestamp = int(text)
                except ValueError:
                    timestamp = datetime.fromisoformat(text)
            rows_by_case.setdefault(case_id, []).append(
                (timestamp, Event(row["activity"], attributes, timestamp))
            )
    fitted = tuple(
        replace(s, categories=tuple(categories[s.name])) if s.kind == "categorical" else s
        for s in schemas
    )
    traces = []
    for case_id, entries in rows_by_case.items():
        if all(ts is not None for ts, _ in entries):
            entries = sorted(entries, key=lambda pair: pair[0])
        traces.append(Trace(case_id, tuple(e for _, e in entries), outcomes[case_id]))
    return EventLog(tuple(traces), fitted, tuple(vocabulary))


def _log_items(log):
    # == on the log ignores the order of each event's attribute dict; this does not
    events = [
        [(t.case_id, t.outcome, e.activity, [*e.attributes.items()], e.timestamp) for e in t.events]
        for t in log.traces
    ]
    return events, log.schemas, log.activity_vocabulary


def _assert_loads_like_reference(path, schemas):
    loaded = load_csv(path, schemas)
    reference = _dictreader_load_csv(path, schemas)
    assert loaded == reference
    assert _log_items(loaded) == _log_items(reference)
    # load_csv builds its log unchecked; the checked constructor accepts it
    assert EventLog(loaded.traces, loaded.schemas, loaded.activity_vocabulary) == loaded


def _workloads_module():
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_load_csv_equals_dictreader_loader_on_the_long_log(tmp_path):
    log_path, schema_path = tmp_path / "long.csv", tmp_path / "schema.json"
    _workloads_module().write_long_log(log_path, schema_path, 11)
    _assert_loads_like_reference(log_path, load_schema_config(schema_path))


def test_load_csv_equals_dictreader_loader_on_written_logs(tmp_path):
    for n_cases, n_activities, seed in ((20, 3, 5), (120, 6, 2)):
        log = synthesize_log(n_cases, n_activities, seed=seed)
        write_csv(log, tmp_path / "log.csv")
        _assert_loads_like_reference(tmp_path / "log.csv", SCHEMAS)


def test_load_csv_equals_dictreader_loader_on_edge_layouts(tmp_path):
    rows = [
        "c1,a,5,0,1.0,x",
        "c2,b,2024-01-02T10:00:00,1,2,y",
        "",
        "c1,b,2,0,3.5,z,extra,cells",
        "c2,a,2024-01-01T09:00:00,1,-4e3,x",
        "c3,c,,1,0.25,",
        "c3,a,1,1,7,x",
        "",
    ]
    _assert_loads_like_reference(write_log_csv(tmp_path, rows), SCHEMAS)
    # no timestamp column: file order, columns in another order
    rows = ["x,c1,a,0,1.5,q", "y,c2,b,1,2.5,q", "z,c1,c,0,3.5,q", "x,c1,a,0,4.5,q"]
    header = "resource,case_id,activity,outcome,amount,note"
    _assert_loads_like_reference(write_log_csv(tmp_path, rows, header), SCHEMAS)
    # a repeated name that load_csv does not read still loads
    header = "resource,case_id,activity,outcome,amount,note,note"
    with_notes = [f"{row},n" for row in rows]
    _assert_loads_like_reference(write_log_csv(tmp_path, with_notes, header), SCHEMAS)
    # a repeated name that load_csv reads is an error; the row-dict loader
    # silently read the last cell of that name
    header = "resource,case_id,activity,outcome,amount,resource"
    with pytest.raises(SchemaError, match="the header repeats column 'resource'"):
        load_csv(write_log_csv(tmp_path, rows, header), SCHEMAS)


@pytest.mark.parametrize("column", ["case_id", "outcome", "timestamp", "amount"])
def test_load_csv_repeated_read_column_is_a_schema_error(tmp_path, column):
    path = write_log_csv(tmp_path, ["c1,a,0,1,1.0,x,y"], header=f"{HEADER},{column}")
    with pytest.raises(SchemaError, match=f"the header repeats column '{column}'") as info:
        load_csv(path, SCHEMAS)
    assert str(path) in str(info.value)


@pytest.mark.parametrize(
    "rows, message",
    [
        (["c1,a,0,maybe,1.0,x"], "row 2: outcome must be 0 or 1, got 'maybe'"),
        (["c1,a,0,1,oops,x"], "row 2: numeric cell 'oops' in column 'amount'"),
        (["c1,a,noon,1,1.0,x"], "row 2: unparseable timestamp 'noon'"),
        (["c1,a,0,0,1.0,x", "c1,b,1,1,1.0,x"], "row 3: case 'c1' has inconsistent outcomes"),
        (["c1,a,0,1,inf,x"], "row 2: numeric cell 'inf' .* is not a finite number"),
        (["c1,a,0,1,1.0,x", "c1,b,1,1,nan,y"], "row 3: numeric cell 'nan' .* not a finite"),
    ],
)
def test_load_csv_row_errors_name_the_file(tmp_path, rows, message):
    path = write_log_csv(tmp_path, rows)
    with pytest.raises(DataError, match=message) as info:
        load_csv(path, SCHEMAS)
    assert str(info.value).startswith(f"{path}: row ")


def test_load_csv_short_row_is_one_data_error(tmp_path):
    path = write_log_csv(tmp_path, ["c1,a,0,1,1.0,x", "c1,B,1"])
    with pytest.raises(DataError, match="row 3 has 3 cells but the header has 6") as info:
        load_csv(path, SCHEMAS)
    assert str(path) in str(info.value)


def test_load_csv_short_row_without_a_used_cell_still_loads(tmp_path):
    # the unused trailing column may be missing, as with the row-dict loader
    path = write_log_csv(
        tmp_path, ["c1,a,0,1,1.0,x,n1", "c1,b,1,1,2.0,y"], header=f"{HEADER},note"
    )
    _assert_loads_like_reference(path, SCHEMAS)


def test_load_csv_non_utf8_byte_is_one_data_error(tmp_path):
    path = tmp_path / "log.csv"
    path.write_bytes(f"{HEADER}\nc1,a,0,1,1.0,x\nc1,b,1,1,2.0,\xff\n".encode("latin-1"))
    with pytest.raises(DataError, match="line 3: byte 0xff is not UTF-8 text") as info:
        load_csv(path, SCHEMAS)
    assert str(path) in str(info.value)


def test_load_csv_mixed_timestamp_kinds_is_one_data_error(tmp_path):
    path = write_log_csv(tmp_path, ["c1,a,0,1,1.0,x", "c1,b,2024-01-01T00:00:00,1,2.0,y"])
    with pytest.raises(DataError, match="case 'c1' mixes timestamps") as info:
        load_csv(path, SCHEMAS)
    assert str(path) in str(info.value)


def test_load_csv_accepts_a_byte_order_mark(tmp_path):
    rows = ["c1,a,0,1,1.0,x", "c1,b,1,1,2.0,y"]
    plain = load_csv(write_log_csv(tmp_path, rows), SCHEMAS)
    path = tmp_path / "bom.csv"
    path.write_text("﻿" + "\n".join([HEADER, *rows]) + "\n", encoding="utf-8")
    assert load_csv(path, SCHEMAS) == plain


@st.composite
def encoding_cases(draw):
    """A checked log and an encoder; when `faulty`, traces may break encode's rules."""
    faulty = draw(st.booleans())
    max_len = draw(st.integers(1, 5))
    low = draw(st.floats(-50.0, 50.0))
    span = draw(st.sampled_from([0.0, 1.0, 37.5, 100.0]))
    spec = EncoderSpec(
        {"A": 1, "B": 2},
        (
            NumericCodec("amount", low, low + span),
            NumericCodec("flat", 3.0, 3.0),
            CategoricalCodec("resource", ("x", "y", "z")),
            CategoricalCodec("one", ("u",)),
        ),
        max_len,
    )
    numbers = st.one_of(
        st.floats(-200.0, 200.0), st.integers(-200, 200), st.integers(-(2**60), 2**60),
        st.sampled_from([-0.0, low, low + span]),
    )
    values = {
        "amount": numbers,
        "flat": numbers,
        "resource": st.sampled_from(("x", "y", "z", "w") if faulty else ("x", "y", "z")),
        "one": st.just("u"),
    }
    activities = st.sampled_from(("A", "B", "C") if faulty else ("A", "B"))
    traces = []
    for case in range(draw(st.integers(1, 6))):
        events = []
        for _ in range(draw(st.integers(1, max_len + 1 if faulty else max_len))):
            present = draw(st.lists(st.sampled_from(list(values)), unique=True))
            events.append(Event(draw(activities), {k: draw(values[k]) for k in present}))
        traces.append(Trace(f"c{case}", tuple(events), draw(st.integers(0, 1))))
    schemas = (
        AttributeSchema("amount", "numeric"),
        AttributeSchema("flat", "numeric"),
        AttributeSchema("resource", "categorical"),
        AttributeSchema("one", "categorical"),
    )
    return EventLog(tuple(traces), schemas, ("A", "B", "C")), spec


def _assert_same_encoding(got, expected):
    assert len(got) == len(expected)
    for g, e in zip(got, expected):
        for a, b in ((g.activity_ids, e.activity_ids), (g.features, e.features)):
            assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes())
        assert (g.valid_len, g.outcome, g.case_id) == (e.valid_len, e.outcome, e.case_id)


@settings(max_examples=300, deadline=None)
@given(case=encoding_cases())
def test_encode_log_equals_encode(case):
    log, spec = case
    try:
        expected = [encode(t, spec) for t in log.traces]
    except VocabularyError as exc:
        with pytest.raises(VocabularyError) as info:
            encode_log(log, spec)
        assert str(info.value) == str(exc)
        return
    # a log encode accepts never reaches encode: the columns alone give the result
    with mock.patch("evocf.event_log.encode", side_effect=AssertionError("scalar path")):
        got = encode_log(log, spec)
    _assert_same_encoding(got, expected)


def test_encode_log_errors_are_encodes():
    spec = EncoderSpec({"A": 1}, (CategoricalCodec("resource", ("x",)),), 2)
    schemas = (AttributeSchema("resource", "categorical"),)
    cases = [
        ((Event("A"), Event("A"), Event("A")), "longer (3) than encoder max_len 2"),
        ((Event("A"), Event("B")), "unknown activity 'B'"),
        ((Event("A", {"resource": "w"}),), "value 'w' not a known category"),
    ]
    for events, message in cases:
        traces = (Trace("ok", (Event("A"),), 0), Trace("bad", events, 1))
        log = EventLog(traces, schemas, ("A", "B"))
        with pytest.raises(VocabularyError, match=re.escape(message)):
            encode_log(log, spec)
    assert encode_log(EventLog((), schemas, ("A",)), spec) == []


def test_encode_log_equals_encode_on_the_long_log(tmp_path):
    log_path, schema_path = tmp_path / "long.csv", tmp_path / "schema.json"
    _workloads_module().write_long_log(log_path, schema_path, 12)
    log = load_csv(log_path, load_schema_config(schema_path))
    train, test = split_train_test(log, 0.2, seed=12)
    spec = fit_encoder(train)
    encodable = tuple(t for t in test.traces if len(t) <= spec.max_len)
    for part in (train.traces, encodable):
        sub = EventLog(part, log.schemas, log.activity_vocabulary)
        _assert_same_encoding(encode_log(sub, spec), [encode(t, spec) for t in part])


def _choice_synthesize_log(n_cases, n_activities, rule=None, seed=0):
    """synthesize_log as it drew before: Generator.choice and np.clip per event."""
    names = _activity_names(n_activities)
    rule = rule or PlantedRule(names[-1])
    rng = np.random.default_rng(seed)
    initial = rng.dirichlet(np.ones(n_activities))
    row_end = rng.uniform(0.08, 0.18, size=n_activities)
    row_next = rng.dirichlet(np.ones(n_activities), size=n_activities)
    amount_mean = rng.uniform(10.0, 90.0, size=n_activities)
    resources = ("r0", "r1", "r2")
    resource_probs = rng.dirichlet(np.ones(len(resources)), size=n_activities)

    def sample_trace(case_id):
        activities = [int(rng.choice(n_activities, p=initial))]
        while len(activities) < 20:
            if rng.random() < row_end[activities[-1]]:
                break
            activities.append(int(rng.choice(n_activities, p=row_next[activities[-1]])))
        events = []
        for step, act in enumerate(activities):
            amount = float(np.clip(rng.normal(amount_mean[act], 8.0), 0.0, 100.0))
            resource = resources[int(rng.choice(len(resources), p=resource_probs[act]))]
            events.append(Event(names[act], {"amount": amount, "resource": resource}, step))
        return Trace(case_id, tuple(events), 1 if rule.holds(names[a] for a in activities) else 0)

    for attempt in range(10):
        traces = tuple(sample_trace(f"case_{attempt}_{i:04d}") for i in range(n_cases))
        if {t.outcome for t in traces} == {0, 1}:
            break
    schemas = (
        AttributeSchema("amount", "numeric"),
        AttributeSchema("resource", "categorical", categories=resources),
    )
    return EventLog(traces, schemas, tuple(names))


@pytest.mark.parametrize(
    "n_cases, n_activities, seed, rule",
    [(10, 3, 0, None), (50, 4, 3, None), (200, 5, 0, None), (120, 7, 9, None), (60, 5, 2, "B")],
)
def test_synthesize_log_equals_choice_draws(tmp_path, n_cases, n_activities, seed, rule):
    rule = PlantedRule(rule) if rule else None
    write_csv(synthesize_log(n_cases, n_activities, rule=rule, seed=seed), tmp_path / "new.csv")
    reference = _choice_synthesize_log(n_cases, n_activities, rule=rule, seed=seed)
    write_csv(reference, tmp_path / "old.csv")
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()


def test_log_subsets_equal_checked_construction(tmp_path):
    log_path, schema_path = tmp_path / "long.csv", tmp_path / "schema.json"
    _workloads_module().write_long_log(log_path, schema_path, 13)
    log = load_csv(log_path, load_schema_config(schema_path))
    for sub in (preprocess(log, 20), preprocess(log, 30), *split_train_test(log, 0.3, seed=4)):
        assert EventLog(sub.traces, sub.schemas, sub.activity_vocabulary) == sub
        assert (sub.schemas, sub.activity_vocabulary) == (log.schemas, log.activity_vocabulary)
