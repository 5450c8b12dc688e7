"""Property tests of the command line's input boundary.

`evocf generate` runs in process on a small valid log, its schema and a
small run, with one of three kinds of damage: byte edits of the log CSV,
damaged schema JSON, or random `--overrides` objects. `evocf synthesize-log`
runs on bounded sizes and seeds and a `--critical` name that may be junk, and
`evocf render` on a byte-edited counterfactual log. Whatever the input, the
command must end with exit code 0, or with exit code 2 and exactly one
`evocf: error:` line; any other exception fails the test.
"""

import contextlib
import dataclasses
import functools
import io
import json
import math
import tempfile
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from evocf.cli import main
from evocf.event_log import synthesize_log, write_csv
from evocf.harness import ExperimentSpec

SCHEMA = {
    "attributes": [
        {"name": "amount", "kind": "numeric"},
        {"name": "resource", "kind": "categorical"},
    ]
}
# every run stays small: a few genomes, one cycle, a short predictor fit
SMALL_RUN = {"population_size": 4, "offspring_per_cycle": 2, "predictor_epochs": 10}


@functools.cache
def valid_log() -> bytes:
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "log.csv"
        write_csv(synthesize_log(12, 3, seed=0), path)
        return path.read_bytes()


def run_main(argv: list[str]) -> tuple[int, str]:
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, err.getvalue()


def run_generate(log: bytes, schema: str, overrides: dict) -> tuple[int, str]:
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        (tmp / "log.csv").write_bytes(log)
        (tmp / "schema.json").write_text(schema)
        return run_main(
            [
                "generate", "--log", str(tmp / "log.csv"), "--schema", str(tmp / "schema.json"),
                "--out", str(tmp / "out"), "--cycles", "1", "--n", "2",
                "--overrides", json.dumps(overrides),
            ]
        )


def assert_exit_0_or_one_error_line(code: int, err: str) -> None:
    if code == 0:
        assert err == ""
    else:
        assert code == 2
        assert err.count("\n") == 1 and err.startswith("evocf: error: "), err


# ---------------------------------------------------------------------------
# damage to each input

# cells that reach the parsers' edge cases, and bytes that break the layout
CELLS = [
    b"", b"nan", b"inf", b"-1e999", b"x", b"0", b"1", b"2", b"-1", b"1.5", b"2024-01-01T00:00:00",
    b"2024-01-01T00:00:00+00:00", b"case_id", b"activity", b"outcome", b"timestamp", b"amount",
]
BYTES = [b",", b"\n", b"\r", b'"', b"\x00", b"\xff", b"\xef\xbb\xbf", b" "]


@st.composite
def damaged_logs(draw) -> bytes:
    """The valid log with some of its cells replaced and some bytes spliced in."""
    rows = [line.split(b",") for line in valid_log().split(b"\n")]
    for _ in range(draw(st.integers(0, 3))):
        row = draw(st.integers(0, len(rows) - 1))
        column = draw(st.integers(0, len(rows[row]) - 1))
        rows[row][column] = draw(st.sampled_from(CELLS))
    data = bytearray(b"\n".join(b",".join(row) for row in rows))
    for _ in range(draw(st.integers(0, 2))):
        at = draw(st.integers(0, len(data)))
        patch = draw(st.sampled_from(BYTES) | st.binary(max_size=3))
        data[at : at + draw(st.integers(0, 12))] = patch
    return bytes(data)


NAMES = ["amount", "resource", "activity", "case_id", "outcome", "timestamp", "missing", ""]
KINDS = ["numeric", "categorical", "date"]
json_values = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(-3, 3)
    | st.floats(allow_nan=False, allow_infinity=False)
    | st.sampled_from(NAMES + KINDS),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.sampled_from(["attributes", "name", "kind", "x"]), inner, max_size=3),
    max_leaves=6,
)
attribute = st.fixed_dictionaries(
    {"name": st.sampled_from(NAMES) | json_values, "kind": st.sampled_from(KINDS) | json_values}
)


@st.composite
def damaged_schemas(draw) -> str:
    """Schema JSON with damaged text, odd attribute entries or any shape at all."""
    text = json.dumps(SCHEMA)
    shape = draw(st.sampled_from(["text", "attributes", "anything"]))
    if shape == "text":
        at = draw(st.integers(0, len(text)))
        return text[:at] + draw(st.text(max_size=3)) + text[at + draw(st.integers(0, 8)) :]
    if shape == "attributes":
        entries = st.lists(attribute | json_values, max_size=3) | json_values
        return json.dumps({"attributes": draw(entries)})
    return json.dumps(draw(json_values))


FIELDS = [field.name for field in dataclasses.fields(ExperimentSpec)]
# json.dumps writes these as NaN, Infinity and -Infinity, which json.loads reads back
specials = st.sampled_from([math.nan, math.inf, -math.inf])
CONFIG_NAMES = ["CBI-RWS-OPC-SBM-FSR", "RI-TS-UC3-RM-BBR", "SBI-ES-TPC-SBM-RR", "X-Y", ""]
# values in range and out of it, bounded so that every accepted run stays small
OVERRIDE_VALUES = {
    "config_names": st.lists(st.sampled_from(CONFIG_NAMES), max_size=3),
    "log_path": st.sampled_from([None, "", "missing.csv"]),
    "schema_path": st.sampled_from([None, "", "missing.json"]),
    "synthetic": st.none()
    | st.fixed_dictionaries(
        {}, optional={"n_cases": st.integers(-1, 30), "n_activities": st.integers(-1, 6)}
    ),
    "n_factuals": st.integers(-1, 4),
    "counterfactuals_per_factual": st.integers(-1, 6),
    "cycles": st.integers(-1, 3),
    "seed": st.integers(-1, 2**64),
    "output_dir": st.none(),
    "test_fraction": st.floats(-0.5, 1.5) | specials,
    "max_trace_len": st.integers(-1, 30),
    "population_size": st.integers(-1, 8),
    "offspring_per_cycle": st.integers(-1, 8),
    "mutation_rate": st.floats(-0.5, 1.5) | specials,
    "smoothing_epsilon": st.floats(-1.0, 1e300) | specials,
    "n_bins": st.integers(-1, 12),
    "predictor_epochs": st.integers(-1, 20),
}
assert sorted(OVERRIDE_VALUES) == sorted(FIELDS)


@st.composite
def random_overrides(draw) -> dict:
    overrides = dict(SMALL_RUN)
    for key in draw(st.lists(st.sampled_from([*FIELDS, "unknown_key"]), max_size=4)):
        # json_values gives a value of the wrong type now and then
        overrides[key] = draw(OVERRIDE_VALUES.get(key, json_values) | json_values)
    return overrides


inputs = st.one_of(
    st.tuples(damaged_logs(), st.just(json.dumps(SCHEMA)), st.just(SMALL_RUN)),
    st.tuples(st.builds(valid_log), damaged_schemas(), st.just(SMALL_RUN)),
    st.tuples(st.builds(valid_log), st.just(json.dumps(SCHEMA)), random_overrides()),
)


def test_valid_inputs_run():
    assert run_generate(valid_log(), json.dumps(SCHEMA), SMALL_RUN) == (0, "")


@settings(max_examples=300, deadline=None)
@given(inputs)
def test_damaged_input_ends_in_exit_0_or_one_error_line(case):
    assert_exit_0_or_one_error_line(*run_generate(*case))


# activity names of the synthetic log (A, B, ...) and names it never holds;
# the `--option=value` form lets a value start with a dash
CRITICAL = st.sampled_from(["A", "B", "C", "E", "H"]) | st.sampled_from(
    ["", "ZZ", "a", " A", "A,B", "-A", "case_id", "\u00e9"]
) | st.text(max_size=3)


@settings(max_examples=100, deadline=None)
@given(
    cases=st.integers(-1, 40),
    activities=st.integers(-1, 8),
    seed=st.integers(-2, 2**32),
    critical=st.none() | CRITICAL,
)
def test_synthesize_log_ends_in_exit_0_or_one_error_line(cases, activities, seed, critical):
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "out"
        argv = [
            "synthesize-log", f"--cases={cases}", f"--activities={activities}",
            f"--seed={seed}", "--out", str(out),
        ]
        if critical is not None:
            argv.append(f"--critical={critical}")
        code, err = run_main(argv)
        assert_exit_0_or_one_error_line(code, err)
        # a rejected input leaves no --out directory behind
        assert out.exists() == (code == 0)


@st.composite
def recategorized_logs(draw) -> bytes:
    """The valid log with some `resource` cells replaced: categories it does not hold."""
    rows = [line.split(b",") for line in valid_log().splitlines()]
    column = rows[0].index(b"resource")
    for _ in range(draw(st.integers(1, 4))):
        draw(st.sampled_from(rows[1:]))[column] = draw(st.sampled_from(CELLS))
    return b"\n".join(b",".join(row) for row in rows)


@settings(max_examples=150, deadline=None)
@given(
    damaged_logs().map(lambda log: (log, False)) | recategorized_logs().map(lambda log: (log, True)),
    st.sampled_from(["case_0_0000", "case_0_0003", "missing"]),
)
def test_render_damaged_counterfactual_log_ends_in_exit_0_or_one_error_line(case, case_id):
    cf_log, recategorized = case
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        (tmp / "log.csv").write_bytes(valid_log())
        (tmp / "cf.csv").write_bytes(cf_log)
        (tmp / "schema.json").write_text(json.dumps(SCHEMA))
        code, err = run_main(
            [
                "render", "--log", str(tmp / "log.csv"), "--schema", str(tmp / "schema.json"),
                "--counterfactual-log", str(tmp / "cf.csv"), "--factual", "case_0_0001",
                "--counterfactual", case_id,
            ]
        )
    assert_exit_0_or_one_error_line(code, err)
    if recategorized and case_id != "missing":
        # any text is a category, so a counterfactual of known cases renders
        assert code == 0, err


# an evolutionary generator returns its population, so it cannot give more
# counterfactuals than population_size; a baseline draws as many as asked
@settings(max_examples=30, deadline=None)
@given(
    population=st.integers(2, 8),
    n=st.integers(1, 10),
    config=st.sampled_from(["CBI-RWS-OPC-SBM-FSR", "RI-TS-UC3-RM-BBR", "CBGW"]),
)
def test_generate_writes_every_counterfactual_asked_for_or_refuses(population, n, config):
    overrides = dict(SMALL_RUN, population_size=population)
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        (tmp / "log.csv").write_bytes(valid_log())
        (tmp / "schema.json").write_text(json.dumps(SCHEMA))
        code, err = run_main(
            [
                "generate", "--log", str(tmp / "log.csv"), "--schema", str(tmp / "schema.json"),
                "--out", str(tmp / "out"), "--cycles", "1", "--n", str(n), "--config", config,
                "--overrides", json.dumps(overrides),
            ]
        )
        assert_exit_0_or_one_error_line(code, err)
        if config != "CBGW" and population < n:
            assert code == 2 and "counterfactuals asked for" in err
            assert not (tmp / "out").exists()
        else:
            assert code == 0
            rows = (tmp / "out" / "counterfactuals.csv").read_text().splitlines()
            assert len(rows) == 1 + n
