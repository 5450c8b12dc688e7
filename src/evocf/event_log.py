"""Event-log data model: loading, filtering, splitting, encoding, and synthesis.

Every other module consumes the types defined here. Traces are ordered
sequences of events; each event carries an activity label plus a mixed bag of
numeric and categorical attributes. The encoder turns a trace into a
fixed-width numeric genome: label-encoded activity ids (0 reserved for
padding) and a feature matrix with min-max scaled numerics and minimal-width
binary codes for categoricals (the all-zeros code is reserved for "absent",
which is what padding rows contain).

All types are treated as immutable after construction; the operations are
pure functions.
"""

from __future__ import annotations

import codecs
import csv
import functools
import io
import itertools
import json
import math
from dataclasses import dataclass, field, fields, replace
from datetime import datetime
from pathlib import Path
from typing import Iterable, Iterator, Sequence

import numpy as np

from .errors import (
    DataError,
    EmptyLogError,
    SchemaError,
    SplitError,
    SynthesisError,
    VocabularyError,
)

PAD_ID = 0

NUMERIC = "numeric"
CATEGORICAL = "categorical"

_REQUIRED_COLUMNS = ("case_id", "activity", "outcome")

# how far a categorical code entry may lie from 0 or 1 and still read as a bit
CODE_TOLERANCE = 1e-9
# longest trace synthesize_log samples before the hidden chain must end it
SYNTHETIC_MAX_TRACE_LEN = 20


@dataclass(frozen=True)
class AttributeSchema:
    """Declaration of one event attribute: its name, kind, and value domain."""

    name: str
    kind: str
    categories: tuple[str, ...] = ()

    def __post_init__(self):
        if self.kind not in (NUMERIC, CATEGORICAL):
            raise SchemaError(f"unknown attribute kind {self.kind!r} for {self.name!r}")
        if self.kind == CATEGORICAL:
            if len(set(self.categories)) != len(self.categories):
                raise SchemaError(f"duplicate categories for attribute {self.name!r}")


@dataclass(frozen=True)
class Event:
    activity: str
    attributes: dict[str, object] = field(default_factory=dict)
    timestamp: object | None = None


@dataclass(frozen=True)
class Trace:
    case_id: str
    events: tuple[Event, ...]
    outcome: int

    def __post_init__(self):
        if len(self.events) < 1:
            raise DataError(f"trace {self.case_id!r} has no events")
        if self.outcome not in (0, 1):
            raise DataError(f"trace {self.case_id!r} has non-binary outcome {self.outcome!r}")

    def __len__(self) -> int:
        return len(self.events)

    @property
    def activities(self) -> tuple[str, ...]:
        return tuple(e.activity for e in self.events)


@dataclass(frozen=True)
class EventLog:
    traces: tuple[Trace, ...]
    schemas: tuple[AttributeSchema, ...]
    activity_vocabulary: tuple[str, ...]

    def __post_init__(self):
        case_ids = [t.case_id for t in self.traces]
        if len(set(case_ids)) != len(case_ids):
            raise DataError("duplicate case_ids in log")
        vocab = set(self.activity_vocabulary)
        kinds = {s.name: s.kind for s in self.schemas}
        for trace in self.traces:
            for event in trace.events:
                if event.activity not in vocab:
                    raise DataError(
                        f"activity {event.activity!r} in case {trace.case_id!r} "
                        "missing from vocabulary"
                    )
                for name, value in event.attributes.items():
                    kind = kinds.get(name)
                    if kind is None:
                        raise DataError(
                            f"attribute {name!r} in case {trace.case_id!r} not declared"
                        )
                    if kind == NUMERIC and not isinstance(value, (int, float)):
                        raise DataError(f"attribute {name!r} must be numeric, got {value!r}")
                    if kind == CATEGORICAL and not isinstance(value, str):
                        raise DataError(f"attribute {name!r} must be categorical, got {value!r}")

    def __len__(self) -> int:
        return len(self.traces)

    @classmethod
    def _trusted(
        cls,
        traces: tuple[Trace, ...],
        schemas: tuple[AttributeSchema, ...],
        vocabulary: tuple[str, ...],
    ) -> "EventLog":
        """A log built without __post_init__'s checks, for values that pass them by construction."""
        log = object.__new__(cls)
        object.__setattr__(log, "traces", traces)
        object.__setattr__(log, "schemas", schemas)
        object.__setattr__(log, "activity_vocabulary", vocabulary)
        return log

    def _subset(self, traces: tuple[Trace, ...]) -> "EventLog":
        # every trace was checked with these schemas and vocabulary
        return EventLog._trusted(traces, self.schemas, self.activity_vocabulary)


@dataclass(frozen=True)
class NumericCodec:
    """Min-max scaler for one numeric attribute, fitted on training data."""

    name: str
    observed_min: float
    observed_max: float

    width = 1

    def encode(self, values: Sequence[float]) -> np.ndarray:
        """(E, 1) codes: each value min-max scaled and clipped to [0, 1]; 0.0 for an empty range."""
        codes = np.zeros((len(values), 1))
        span = self.observed_max - self.observed_min
        if not span <= 0.0:
            scaled = (np.array(list(map(float, values))) - self.observed_min) / span
            codes[:, 0] = np.clip(scaled, 0.0, 1.0)
        return codes

    def decode(self, codes: np.ndarray) -> list[float]:
        """The value of each row of codes (E, 1), mapped back onto the fitted range."""
        span = self.observed_max - self.observed_min
        return (self.observed_min + codes[:, 0] * span).tolist()

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "kind": NUMERIC,
            "observed_min": self.observed_min,
            "observed_max": self.observed_max,
        }


@dataclass(frozen=True)
class CategoricalCodec:
    """Minimal-width binary code for one categorical attribute.

    Category i maps to the bit pattern of i + 1, most significant bit first;
    the all-zeros pattern means "absent" and never collides with a real
    category.
    """

    name: str
    categories: tuple[str, ...]

    @functools.cached_property
    def width(self) -> int:
        # the all-zeros code is reserved for "absent", so C + 1 codes are needed
        return max(1, math.ceil(math.log2(len(self.categories) + 1)))

    def encode(self, values: Sequence[str]) -> np.ndarray:
        """(E, width) codes, one row per value; VocabularyError names the first unknown value."""
        try:
            return self._codes[[self._code_of[value] for value in values]]
        except (KeyError, TypeError):
            unknown = next(value for value in values if value not in self.categories)
            raise VocabularyError(
                f"value {unknown!r} not a known category of attribute {self.name!r}"
            ) from None

    def decode(self, codes: np.ndarray) -> list[str | None]:
        """The category of each row of codes (E, width); None for absent or invalid codes."""
        names = (*self.categories, None)  # index -1 reads None
        return [names[i] for i in self.decode_indices(codes).tolist()]

    def decode_indices(self, codes: np.ndarray) -> np.ndarray:
        """Category index per row of codes (N, width); -1 for absent/invalid.

        A row is a category code when every entry lies within CODE_TOLERANCE
        of a bit (0 or 1) and the bits spell a value in 1..len(categories).
        """
        bits = np.rint(codes)
        exact = (np.abs(codes - bits) <= CODE_TOLERANCE) & ((bits == 0.0) | (bits == 1.0))
        values = bits @ self._bit_weights
        valid = exact.all(axis=1) & (values >= 1.0) & (values <= len(self.categories))
        return np.where(valid, values - 1.0, -1.0).astype(np.int64)

    def to_dict(self) -> dict:
        return {"name": self.name, "kind": CATEGORICAL, "categories": self.categories}

    @functools.cached_property
    def _bit_weights(self) -> np.ndarray:
        return 2.0 ** np.arange(self.width - 1, -1, -1)

    @functools.cached_property
    def _code_of(self) -> dict[str, int]:
        # the first index of a category, should one repeat
        return {c: i + 1 for i, c in reversed(list(enumerate(self.categories)))}

    @functools.cached_property
    def _codes(self) -> np.ndarray:
        """Row c is the code of c: the absent all-zeros row, then each category's bits."""
        values = np.arange(len(self.categories) + 1)[:, np.newaxis]
        return ((values >> np.arange(self.width - 1, -1, -1)) & 1).astype(float)


@dataclass(frozen=True)
class EncoderSpec:
    """Fitted mapping between symbolic traces and fixed-width numeric genomes."""

    activity_to_id: dict[str, int]
    codecs: tuple[NumericCodec | CategoricalCodec, ...]
    max_len: int

    @property
    def vocab_size(self) -> int:
        return len(self.activity_to_id)

    # derived values are cached on the instance: they are read on every
    # emission, DP and decode, and the fields never change after construction

    @functools.cached_property
    def id_to_activity(self) -> dict[int, str]:
        return {i: a for a, i in self.activity_to_id.items()}

    @functools.cached_property
    def feature_dim(self) -> int:
        return sum(c.width for c in self.codecs)

    def slices(self) -> tuple[tuple[NumericCodec | CategoricalCodec, slice], ...]:
        """Per-attribute (codec, column slice) pairs into the feature matrix."""
        return self._slices

    @functools.cached_property
    def _slices(self) -> tuple[tuple[NumericCodec | CategoricalCodec, slice], ...]:
        out = []
        offset = 0
        for codec in self.codecs:
            out.append((codec, slice(offset, offset + codec.width)))
            offset += codec.width
        return tuple(out)

    def fingerprint(self) -> tuple:
        """Hashable identity used to detect mismatched components."""
        codecs = (tuple(codec.to_dict().values()) for codec in self.codecs)
        return (tuple(sorted(self.activity_to_id.items())), self.max_len, *codecs)

    def to_json(self) -> str:
        return json.dumps(
            {
                "activity_to_id": self.activity_to_id,
                "codecs": [codec.to_dict() for codec in self.codecs],
                "max_len": self.max_len,
            },
            indent=2,
        )


@dataclass(frozen=True)
class EncodedTrace:
    """Fixed-width numeric trace: the genome the evolutionary operators act on.

    Rows at positions >= valid_len are padding: activity id 0 and an all-zero
    feature row. The arrays are never mutated after construction.
    """

    activity_ids: np.ndarray
    features: np.ndarray
    valid_len: int
    outcome: int
    case_id: str

    def __post_init__(self):
        if not (1 <= self.valid_len <= len(self.activity_ids)):
            raise DataError(
                f"valid_len {self.valid_len} outside [1, {len(self.activity_ids)}]"
            )

    @property
    def max_len(self) -> int:
        return len(self.activity_ids)

    @property
    def frame(self) -> Frame:
        """This trace as a one-row frame of views."""
        length = np.array([self.valid_len], dtype=np.int64)
        return self.activity_ids[None], self.features[None], length


Frame = tuple[np.ndarray, np.ndarray, np.ndarray]


@dataclass(frozen=True, eq=False)
class Rows:
    """A batch of encoded traces as one frame: ids (N, L), features (N, L, D), lengths (N,).

    Row i is trace i with its padding: cell t of the row is an event iff
    t < lengths[i]. A subclass adds columns of its own, row i of each
    belonging to trace i.
    """

    ids: np.ndarray = field(repr=False)
    features: np.ndarray = field(repr=False)
    lengths: np.ndarray

    def __len__(self) -> int:
        return len(self.lengths)

    @property
    def frame(self) -> Frame:
        return self.ids, self.features, self.lengths

    def take(self, rows) -> "Rows":
        """The rows a slice or an index array selects, in that order, every column gathered."""
        return type(self)(*(getattr(self, f.name)[rows] for f in fields(self)))


@dataclass(frozen=True, eq=False)
class EncodedLog(Rows):
    """The encoded traces of a log as one frame, with each row's outcome and case id."""

    outcomes: np.ndarray = field(repr=False)
    case_ids: np.ndarray = field(repr=False)

    def __getitem__(self, i: int) -> EncodedTrace:
        """Row i as an EncodedTrace of views; iterating the log reads rows until IndexError."""
        outcome, case_id = int(self.outcomes[i]), str(self.case_ids[i])
        return EncodedTrace(self.ids[i], self.features[i], int(self.lengths[i]), outcome, case_id)


# ---------------------------------------------------------------------------
# loading


def _parse_timestamp(raw: str, path: Path, row_number: int):
    text = raw.strip()
    if text == "":
        return None
    try:
        return int(text)
    except ValueError:
        pass
    try:
        return datetime.fromisoformat(text)
    except ValueError:
        raise DataError(f"{path}: row {row_number}: unparseable timestamp {raw!r}") from None


def _parse_outcome(raw: str, path: Path, row_number: int) -> int:
    text = raw.strip()
    if text not in ("0", "1"):
        raise DataError(f"{path}: row {row_number}: outcome must be 0 or 1, got {raw!r}")
    return int(text)


def load_schema_config(path: str | Path) -> tuple[AttributeSchema, ...]:
    """Read the JSON attribute declaration: {"attributes": [{"name", "kind"}]}."""
    try:
        raw = json.loads(Path(path).read_text())
    except OSError as exc:
        raise SchemaError(f"{path}: cannot read schema config: {exc.strerror}") from None
    except json.JSONDecodeError as exc:
        raise SchemaError(f"{path}: schema config is not valid JSON: {exc}") from None
    if not isinstance(raw, dict) or "attributes" not in raw:
        raise SchemaError(f"{path}: schema config missing 'attributes' key")
    if not isinstance(raw["attributes"], list):
        raise SchemaError(f"{path}: schema config 'attributes' must be a list")
    schemas = []
    for item in raw["attributes"]:
        if not isinstance(item, dict) or not all(
            isinstance(item.get(key), str) for key in ("name", "kind")
        ):
            raise SchemaError(f"{path}: every attribute needs a 'name' and a 'kind', both strings")
        if item["name"] in (*_REQUIRED_COLUMNS, "timestamp"):
            raise SchemaError(
                f"{path}: attribute {item['name']!r} takes the name of a role column "
                "(case_id, activity, outcome or timestamp)"
            )
        if any(item["name"] == schema.name for schema in schemas):
            raise SchemaError(f"{path}: attribute {item['name']!r} is declared twice")
        try:
            schemas.append(AttributeSchema(name=item["name"], kind=item["kind"]))
        except SchemaError as exc:
            raise SchemaError(f"{path}: {exc}") from None
    return tuple(schemas)


def write_schema_config(schemas: Sequence[AttributeSchema], path: str | Path) -> None:
    """Write the JSON attribute declaration load_schema_config reads."""
    attributes = [{"name": s.name, "kind": s.kind} for s in schemas]
    Path(path).write_text(json.dumps({"attributes": attributes}, indent=2))


def load_csv(path: str | Path, schemas: Sequence[AttributeSchema]) -> EventLog:
    """Load an event log from CSV.

    Required columns: case_id, activity, outcome. Optional: timestamp
    (ISO-8601 or integer ordinal). Every declared attribute must have a
    column. Events are grouped by case and ordered by timestamp (file order
    breaks ties or stands in when timestamps are absent).
    """
    path = Path(path)
    try:
        data = path.read_bytes()
    except OSError as exc:
        raise DataError(f"{path}: cannot read event log: {exc.strerror}") from None
    data = data.removeprefix(codecs.BOM_UTF8)
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = data.count(b"\n", 0, exc.start) + 1
        raise DataError(
            f"{path}: line {line}: byte 0x{data[exc.start]:02x} is not UTF-8 text"
        ) from None
    reader = csv.reader(io.StringIO(text, newline=""))
    header = next(reader, None)
    if header is None:
        raise SchemaError(f"{path}: empty file")
    index = {name: i for i, name in enumerate(header)}
    for required in _REQUIRED_COLUMNS:
        if required not in index:
            raise SchemaError(f"{path}: missing required column {required!r}")
    for schema in schemas:
        if schema.name not in index:
            raise SchemaError(f"{path}: missing attribute column {schema.name!r}")
    case_col, activity_col, outcome_col = (index[c] for c in _REQUIRED_COLUMNS)
    timestamp_col = index.get("timestamp")
    used = [*_REQUIRED_COLUMNS, *(s.name for s in schemas), "timestamp"]
    for name in used:
        if header.count(name) > 1:
            raise SchemaError(f"{path}: the header repeats column {name!r}")
    needed = 1 + max(index[c] for c in used if c in index)

    rows_by_case: dict[str, list] = {}
    outcomes: dict[str, int] = {}
    # dicts as insertion-ordered sets: the first occurrence fixes the order
    vocabulary: dict[str, None] = {}
    categories: dict[str, dict[str, None]] = {s.name: {} for s in schemas if s.kind == CATEGORICAL}
    # (name, cell index, seen categories or None for a numeric attribute)
    columns = [(s.name, index[s.name], categories.get(s.name)) for s in schemas]

    row_number = 1  # blank lines are skipped and not counted
    for row in reader:
        if not row:
            continue
        row_number += 1
        if len(row) < needed:
            raise DataError(
                f"{path}: row {row_number} has {len(row)} cells but the header has {len(header)}"
            )
        case_id = row[case_col]
        activity = row[activity_col]
        outcome = _parse_outcome(row[outcome_col], path, row_number)
        previous = outcomes.setdefault(case_id, outcome)
        if previous != outcome:
            raise DataError(f"{path}: row {row_number}: case {case_id!r} has inconsistent outcomes")
        vocabulary.setdefault(activity)

        attributes: dict[str, object] = {}
        for name, col, seen in columns:
            raw = row[col]
            if seen is None:
                try:
                    value = float(raw)
                except ValueError:
                    value = math.nan
                if not math.isfinite(value):
                    raise DataError(
                        f"{path}: row {row_number}: numeric cell {raw!r} in column {name!r} "
                        "is not a finite number"
                    )
                attributes[name] = value
            else:
                attributes[name] = raw
                seen.setdefault(raw)

        timestamp = (
            _parse_timestamp(row[timestamp_col], path, row_number)
            if timestamp_col is not None
            else None
        )
        rows_by_case.setdefault(case_id, []).append((timestamp, Event(activity, attributes, timestamp)))

    if not rows_by_case:
        raise EmptyLogError(f"{path}: no data rows")

    fitted_schemas = tuple(
        replace(s, categories=tuple(categories[s.name])) if s.kind == CATEGORICAL else s
        for s in schemas
    )
    traces = []
    for case_id, entries in rows_by_case.items():
        if all(ts is not None for ts, _ in entries):
            try:
                entries = sorted(entries, key=lambda pair: pair[0])
            except TypeError:
                raise DataError(
                    f"{path}: case {case_id!r} mixes timestamps that cannot be ordered "
                    "(integer and ISO-8601, or ISO-8601 with and without a UTC offset)"
                ) from None
        traces.append(
            Trace(case_id=case_id, events=tuple(e for _, e in entries), outcome=outcomes[case_id])
        )
    # the checks hold by construction: numerics are floats, categoricals are
    # strs, every activity is in the vocabulary built from the same rows, and
    # case ids are unique because events were grouped by them
    return EventLog._trusted(tuple(traces), fitted_schemas, tuple(vocabulary))


def write_csv(log: EventLog, path: str | Path) -> None:
    """Write a log in the same CSV format load_csv reads."""
    attr_names = [s.name for s in log.schemas]
    with Path(path).open("w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["case_id", "activity", "timestamp", "outcome", *attr_names])
        for trace in log.traces:
            for step, event in enumerate(trace.events):
                timestamp = event.timestamp if event.timestamp is not None else step
                writer.writerow(
                    [
                        trace.case_id,
                        event.activity,
                        timestamp,
                        trace.outcome,
                        *[event.attributes.get(name, "") for name in attr_names],
                    ]
                )


# ---------------------------------------------------------------------------
# preprocessing


def preprocess(log: EventLog, max_len: int = 25) -> EventLog:
    """Drop every trace longer than max_len; errors if nothing survives."""
    if max_len < 1:
        raise ValueError("max_len must be >= 1")
    kept = tuple(t for t in log.traces if len(t) <= max_len)
    if not kept:
        raise EmptyLogError(f"no trace has length <= {max_len}")
    return log._subset(kept)


def split_train_test(
    log: EventLog, test_fraction: float, seed: int
) -> tuple[EventLog, EventLog]:
    """Deterministic disjoint partition of the traces by case."""
    if not 0.0 < test_fraction < 1.0:
        raise ValueError("test_fraction must be in (0, 1)")
    n = len(log.traces)
    n_test = max(1, round(n * test_fraction))
    if n - n_test < 1:
        raise SplitError(f"cannot split {n} traces into non-empty train and test")
    order = np.random.default_rng(seed).permutation(n)
    test_idx = set(order[:n_test].tolist())
    train = tuple(t for i, t in enumerate(log.traces) if i not in test_idx)
    test = tuple(t for i, t in enumerate(log.traces) if i in test_idx)
    return log._subset(train), log._subset(test)


# ---------------------------------------------------------------------------
# encoding


def fit_encoder(train_log: EventLog) -> EncoderSpec:
    """Fit the trace encoder on a training log.

    Activity ids are assigned 1..K in vocabulary order (0 stays PAD), numeric
    ranges come from the training data only, and max_len is the longest
    training trace.
    """
    if not train_log.traces:
        raise EmptyLogError("cannot fit an encoder on an empty log")
    activity_to_id = {a: i + 1 for i, a in enumerate(train_log.activity_vocabulary)}
    codecs: list[NumericCodec | CategoricalCodec] = []
    for schema in train_log.schemas:
        if schema.kind == NUMERIC:
            values = [
                float(e.attributes[schema.name])
                for t in train_log.traces
                for e in t.events
                if schema.name in e.attributes
            ]
            if not values:
                raise DataError(f"no training values for numeric attribute {schema.name!r}")
            codecs.append(NumericCodec(schema.name, min(values), max(values)))
        else:
            if not schema.categories:
                raise SchemaError(f"categorical attribute {schema.name!r} has no categories")
            codecs.append(CategoricalCodec(schema.name, schema.categories))
    max_len = max(len(t) for t in train_log.traces)
    return EncoderSpec(activity_to_id, tuple(codecs), max_len)


def encode(trace: Trace, spec: EncoderSpec) -> EncodedTrace:
    """Encode a trace into the padded fixed-width representation: encode_log of it alone."""
    # encode_log reads only a log's traces
    return encode_log(EventLog._trusted((trace,), (), ()), spec)[0]


def decode(enc: EncodedTrace, spec: EncoderSpec) -> Trace:
    """Invert encode; padding rows are dropped, absent categoricals omitted."""
    names = [codec.name for codec in spec.codecs]
    events = tuple(
        Event(activity, {name: v for name, v in zip(names, values) if v is not None})
        for _, _, activity, *values in decode_rows(*enc.frame, [enc.case_id], spec)
    )
    return Trace(enc.case_id, events, enc.outcome)


def decode_rows(
    ids: np.ndarray, features: np.ndarray, lengths: np.ndarray, case_ids: Sequence[str],
    spec: EncoderSpec,
) -> Iterator[tuple]:
    """The events of the rows of a frame as (case_id, step, activity, *values) rows.

    Padding cells are dropped. Each attribute is decoded once for the whole
    batch by its codec; an absent or invalid category reads None, which a
    csv writer writes as "".
    """
    if (lengths > spec.max_len).any():
        raise VocabularyError("encoded trace longer than encoder max_len")
    rows, steps = np.nonzero(np.arange(ids.shape[1]) < lengths[:, None])
    try:
        activities = list(map(spec.id_to_activity.__getitem__, ids[rows, steps].tolist()))
    except KeyError as exc:
        raise VocabularyError(f"unknown activity id {exc.args[0]}") from None
    events = features[rows, steps]
    columns = [codec.decode(events[:, cols]) for codec, cols in spec.slices()]
    cases = itertools.chain.from_iterable(map(itertools.repeat, case_ids, lengths.tolist()))
    return zip(cases, steps.tolist(), activities, *columns)


def encode_log(log: EventLog, spec: EncoderSpec) -> EncodedLog:
    """Encode every trace, column by column for the whole log.

    Activity ids fill one (T, max_len) block and attribute codes one
    (T, max_len, D) block, each codec encoding its whole column. A fault
    raises VocabularyError (or the error of a numeric value float() refuses).
    A log of several traces is then encoded trace by trace, so the error is
    the first faulty trace's. Within one trace, faults are reported in column
    order: its length, then its first unknown activity in event order, then
    each attribute in codec order, naming the codec's first unknown value.
    """
    traces = log.traces
    lengths = np.array([len(t) for t in traces], dtype=np.int64)
    events = [e for t in traces for e in t.events]
    valid = np.arange(spec.max_len) < lengths[:, None]  # row-major: trace, then step
    ids = np.zeros((len(traces), spec.max_len), dtype=np.int64)
    codes = np.zeros((len(events), spec.feature_dim))
    attributes = [e.attributes for e in events]
    try:
        if (lengths > spec.max_len).any():
            trace = traces[np.argmax(lengths > spec.max_len)]
            raise VocabularyError(
                f"trace {trace.case_id!r} longer ({len(trace)}) than encoder max_len {spec.max_len}"
            )
        activities = map(spec.activity_to_id.__getitem__, (e.activity for e in events))
        try:
            ids[valid] = np.fromiter(activities, np.int64, len(events))
        except KeyError as exc:
            raise VocabularyError(f"unknown activity {exc.args[0]!r}") from None
        for codec, cols in spec.slices():
            try:
                rows, values = slice(None), [a[codec.name] for a in attributes]
            except KeyError:  # absent values keep the all-zeros code
                rows = [i for i, a in enumerate(attributes) if codec.name in a]
                values = [attributes[i][codec.name] for i in rows]
            codes[rows, cols] = codec.encode(values)
    except (ValueError, TypeError, OverflowError, VocabularyError):
        if len(traces) > 1:
            for trace in traces:
                encode(trace, spec)
        raise
    features = np.zeros((len(traces), spec.max_len, spec.feature_dim))
    features[valid] = codes
    outcomes = np.array([t.outcome for t in traces], dtype=np.int64)
    case_ids = np.array([t.case_id for t in traces], dtype=str)
    return EncodedLog(ids, features, lengths, outcomes, case_ids)


# ---------------------------------------------------------------------------
# synthesis


@dataclass(frozen=True)
class PlantedRule:
    """Ground-truth outcome rule: outcome 1 iff the activity occurs at least once."""

    critical_activity: str

    def holds(self, activities: Iterable[str]) -> bool:
        return self.critical_activity in activities


def _cdf(probs: np.ndarray) -> np.ndarray:
    # the same arithmetic as Generator.choice(k, p=probs), so a draw through
    # searchsorted picks the same index and consumes the same single double
    cdf = probs.cumsum()
    cdf /= cdf[-1]
    return cdf


def _draw(cdf: np.ndarray, rng: np.random.Generator) -> int:
    """Generator.choice(len(cdf), p=probs) for the cdf of probs: same index, same draw."""
    return int(cdf.searchsorted(rng.random(), side="right"))


def _activity_names(n: int) -> list[str]:
    names = []
    for i in range(n):
        name = ""
        k = i
        while True:
            name = chr(ord("A") + k % 26) + name
            k = k // 26 - 1
            if k < 0:
                break
        names.append(name)
    return names


def synthesize_log(
    n_cases: int,
    n_activities: int,
    rule: PlantedRule | None = None,
    seed: int = 0,
) -> EventLog:
    """Sample a log from a hidden first-order Markov chain with a planted rule.

    Each activity emits one Gaussian numeric attribute ("amount", clipped to
    [0, 100]) and one categorical attribute ("resource"). The outcome of a
    trace is 1 iff the planted rule holds; by default the rule is "the last
    activity of the vocabulary occurs at least once". Resamples up to 10
    times if a draw produces a single-class log.
    """
    if n_activities < 3:
        raise ValueError("n_activities must be >= 3")
    if n_cases < 10:
        raise ValueError("n_cases must be >= 10")

    names = _activity_names(n_activities)
    if rule is None:
        rule = PlantedRule(names[-1])
    if rule.critical_activity not in names:
        raise SynthesisError(
            f"critical activity {rule.critical_activity!r} is not one of the log's "
            f"activities: {', '.join(names)}"
        )

    rng = np.random.default_rng(seed)

    # hidden chain: per-row activity distribution plus an end probability
    initial = _cdf(rng.dirichlet(np.ones(n_activities)))
    row_end = rng.uniform(0.08, 0.18, size=n_activities).tolist()
    row_next = [_cdf(row) for row in rng.dirichlet(np.ones(n_activities), size=n_activities)]

    # per-activity emission parameters
    amount_mean = rng.uniform(10.0, 90.0, size=n_activities).tolist()
    amount_sd = 8.0
    resources = ("r0", "r1", "r2")
    resource_cdfs = [
        _cdf(row) for row in rng.dirichlet(np.ones(len(resources)), size=n_activities)
    ]

    def sample_trace(case_id: str) -> Trace:
        activities = [_draw(initial, rng)]
        while len(activities) < SYNTHETIC_MAX_TRACE_LEN:
            current = activities[-1]
            if rng.random() < row_end[current]:
                break
            activities.append(_draw(row_next[current], rng))
        events = []
        for step, act in enumerate(activities):
            amount = min(max(rng.normal(amount_mean[act], amount_sd), 0.0), 100.0)
            resource = resources[_draw(resource_cdfs[act], rng)]
            events.append(
                Event(names[act], {"amount": amount, "resource": resource}, timestamp=step)
            )
        outcome = 1 if rule.holds(names[a] for a in activities) else 0
        return Trace(case_id, tuple(events), outcome)

    for attempt in range(10):
        traces = tuple(
            sample_trace(f"case_{attempt}_{i:04d}") for i in range(n_cases)
        )
        outcomes = {t.outcome for t in traces}
        if outcomes == {0, 1}:
            break
    else:
        raise SynthesisError("planted rule produced a single-class log after 10 attempts")

    schemas = (
        AttributeSchema("amount", NUMERIC),
        AttributeSchema("resource", CATEGORICAL, categories=resources),
    )
    # the checks hold by construction: amounts are floats, resources strs,
    # activities come from names, and case ids are numbered
    return EventLog._trusted(traces, schemas, tuple(names))
