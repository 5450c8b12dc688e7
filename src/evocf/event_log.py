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
import json
import math
from dataclasses import dataclass, field, replace
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


def _binary_width(n_categories: int) -> int:
    # all-zeros code is reserved for "absent", so n_categories + 1 codes are needed
    return max(1, math.ceil(math.log2(n_categories + 1)))


@dataclass(frozen=True)
class NumericCodec:
    """Min-max scaler for one numeric attribute, fitted on training data."""

    name: str
    observed_min: float
    observed_max: float

    width = 1

    def encode(self, value: float) -> np.ndarray:
        span = self.observed_max - self.observed_min
        if span <= 0.0:
            scaled = 0.0
        else:
            scaled = (float(value) - self.observed_min) / span
        return np.array([min(max(scaled, 0.0), 1.0)])

    def decode(self, code: np.ndarray) -> float:
        span = self.observed_max - self.observed_min
        return self.observed_min + float(code[0]) * span


@dataclass(frozen=True)
class CategoricalCodec:
    """Minimal-width binary code for one categorical attribute.

    Category i maps to the bit pattern of i + 1; the all-zeros pattern means
    "absent" and never collides with a real category.
    """

    name: str
    categories: tuple[str, ...]

    @functools.cached_property
    def width(self) -> int:
        return _binary_width(len(self.categories))

    def encode(self, value: str) -> np.ndarray:
        try:
            code = self.categories.index(value) + 1
        except ValueError:
            raise VocabularyError(
                f"value {value!r} not a known category of attribute {self.name!r}"
            ) from None
        bits = [(code >> (self.width - 1 - b)) & 1 for b in range(self.width)]
        return np.array(bits, dtype=float)

    def decode(self, code: np.ndarray) -> str | None:
        """Return the category, or None for absent (all-zeros) or invalid codes."""
        index = int(self.decode_indices(code[np.newaxis, :])[0])
        return None if index < 0 else self.categories[index]

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

    @functools.cached_property
    def _bit_weights(self) -> np.ndarray:
        return 2.0 ** np.arange(self.width - 1, -1, -1)


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
        parts = [tuple(sorted(self.activity_to_id.items())), self.max_len]
        for codec in self.codecs:
            if isinstance(codec, NumericCodec):
                parts.append((codec.name, NUMERIC, codec.observed_min, codec.observed_max))
            else:
                parts.append((codec.name, CATEGORICAL, codec.categories))
        return tuple(parts)

    def to_json(self) -> str:
        codecs = []
        for codec in self.codecs:
            if isinstance(codec, NumericCodec):
                codecs.append(
                    {
                        "name": codec.name,
                        "kind": NUMERIC,
                        "observed_min": codec.observed_min,
                        "observed_max": codec.observed_max,
                    }
                )
            else:
                codecs.append(
                    {"name": codec.name, "kind": CATEGORICAL, "categories": list(codec.categories)}
                )
        return json.dumps(
            {
                "activity_to_id": self.activity_to_id,
                "codecs": codecs,
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

    def equals(self, other: "EncodedTrace") -> bool:
        return (
            self.valid_len == other.valid_len
            and np.array_equal(self.activity_ids, other.activity_ids)
            and np.array_equal(self.features, other.features)
        )


def check_encoded_invariants(enc: EncodedTrace) -> None:
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
    """Encode a trace into the padded fixed-width representation."""
    if len(trace) > spec.max_len:
        raise VocabularyError(
            f"trace {trace.case_id!r} longer ({len(trace)}) than encoder max_len {spec.max_len}"
        )
    ids = np.zeros(spec.max_len, dtype=np.int64)
    features = np.zeros((spec.max_len, spec.feature_dim), dtype=float)
    for t, event in enumerate(trace.events):
        if event.activity not in spec.activity_to_id:
            raise VocabularyError(f"unknown activity {event.activity!r}")
        ids[t] = spec.activity_to_id[event.activity]
        for codec, cols in spec.slices():
            if codec.name in event.attributes:
                features[t, cols] = codec.encode(event.attributes[codec.name])
    return EncodedTrace(ids, features, len(trace), trace.outcome, trace.case_id)


def decode(enc: EncodedTrace, spec: EncoderSpec) -> Trace:
    """Invert encode; padding rows are dropped, absent categoricals omitted."""
    if enc.valid_len > spec.max_len:
        raise VocabularyError("encoded trace longer than encoder max_len")
    id_to_activity = spec.id_to_activity
    events = []
    for t in range(enc.valid_len):
        activity_id = int(enc.activity_ids[t])
        if activity_id not in id_to_activity:
            raise VocabularyError(f"unknown activity id {activity_id}")
        attributes: dict[str, object] = {}
        for codec, cols in spec.slices():
            code = enc.features[t, cols]
            if isinstance(codec, NumericCodec):
                attributes[codec.name] = codec.decode(code)
            else:
                value = codec.decode(code)
                if value is not None:
                    attributes[codec.name] = value
        events.append(Event(id_to_activity[activity_id], attributes))
    return Trace(enc.case_id, tuple(events), enc.outcome)


def decode_rows(
    traces: Sequence[EncodedTrace], case_ids: Sequence[str], spec: EncoderSpec
) -> Iterator[tuple]:
    """decode of each trace as (case_id, step, activity, *values) CSV rows.

    Each attribute is decoded once for the whole batch with the arithmetic of
    its codec's decode, so the values are decode's; "" marks an absent value.
    """
    if any(enc.valid_len > spec.max_len for enc in traces):
        raise VocabularyError("encoded trace longer than encoder max_len")
    if not traces:
        return iter(())
    ids = np.concatenate([enc.activity_ids[: enc.valid_len] for enc in traces])
    try:
        activities = list(map(spec.id_to_activity.__getitem__, ids.tolist()))
    except KeyError as exc:
        raise VocabularyError(f"unknown activity id {exc.args[0]}") from None
    features = np.concatenate([enc.features[: enc.valid_len] for enc in traces])
    columns = []
    for codec, cols in spec.slices():
        codes = features[:, cols]
        if isinstance(codec, NumericCodec):
            span = codec.observed_max - codec.observed_min
            columns.append((codec.observed_min + codes[:, 0] * span).tolist())
        else:
            names = (*codec.categories, "")  # index -1, absent, reads ""
            columns.append([names[i] for i in codec.decode_indices(codes).tolist()])
    steps = [step for enc in traces for step in range(enc.valid_len)]
    cases = [case_id for case_id, enc in zip(case_ids, traces) for _ in range(enc.valid_len)]
    return zip(cases, steps, activities, *columns)


def encode_log(log: EventLog, spec: EncoderSpec) -> list[EncodedTrace]:
    """encode of every trace, computed column by column for the whole log.

    Activity ids fill one (T, max_len) block and attribute codes one
    (T, max_len, D) block with the arithmetic of each codec's encode, so the
    arrays equal encode's; each trace holds its rows of the two blocks. If
    encode would reject a trace, the log goes through encode trace by trace,
    so the error raised is encode's.
    """
    traces = log.traces
    if not traces:
        return []
    try:
        ids, features = _encode_columns(traces, spec)
    except (KeyError, ValueError, TypeError, OverflowError):
        return [encode(t, spec) for t in traces]
    return [
        EncodedTrace(ids[i], features[i], len(t), t.outcome, t.case_id)
        for i, t in enumerate(traces)
    ]


def _encode_columns(traces: Sequence[Trace], spec: EncoderSpec) -> tuple[np.ndarray, np.ndarray]:
    """The (T, max_len) id and (T, max_len, D) feature blocks of encode_log.

    Raises KeyError, ValueError, TypeError or OverflowError where a trace is
    one encode would reject (or might: encode_log then asks encode).
    """
    lengths = np.array([len(t) for t in traces])
    if lengths.max() > spec.max_len:
        raise ValueError("trace longer than max_len")
    events = [e for t in traces for e in t.events]
    valid = np.arange(spec.max_len) < lengths[:, None]  # row-major: trace, then step
    ids = np.zeros((len(traces), spec.max_len), dtype=np.int64)
    ids[valid] = np.fromiter(
        map(spec.activity_to_id.__getitem__, (e.activity for e in events)), np.int64, len(events)
    )
    codes = np.zeros((len(events), spec.feature_dim))
    attributes = [e.attributes for e in events]
    for codec, cols in spec.slices():
        try:
            rows, values = slice(None), [a[codec.name] for a in attributes]
        except KeyError:  # absent values keep the all-zeros code
            rows = [i for i, a in enumerate(attributes) if codec.name in a]
            values = [attributes[i][codec.name] for i in rows]
        if isinstance(codec, NumericCodec):
            span = codec.observed_max - codec.observed_min
            if not span <= 0.0:  # else every code is 0.0, as encode gives
                scaled = (np.array(list(map(float, values))) - codec.observed_min) / span
                codes[rows, cols.start] = np.clip(scaled, 0.0, 1.0)
        else:
            # the first index of a category, as tuple.index in encode gives
            code_of = {c: i + 1 for i, c in reversed(list(enumerate(codec.categories)))}
            table = np.array([np.zeros(codec.width), *map(codec.encode, codec.categories)])
            codes[rows, cols] = table[list(map(code_of.__getitem__, values))]
    features = np.zeros((len(traces), spec.max_len, spec.feature_dim))
    features[valid] = codes
    return ids, features


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
        raise ValueError(f"rule activity {rule.critical_activity!r} not in vocabulary")

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
