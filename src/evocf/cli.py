"""Command line entry point.

Subcommands cover the whole workflow: synthesize a desk-scale log, train the
reference predictor, fit the feasibility model, generate counterfactuals for
one factual, run the operator grid search or the baseline benchmark, and
render a factual/counterfactual pair side by side.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import sys
import types
import typing
from pathlib import Path

from . import predictor as predictor_mod
from .errors import ConfigurationError, EvocfError
from .event_log import (
    CATEGORICAL,
    NUMERIC,
    AttributeSchema,
    CategoricalCodec,
    EventLog,
    PlantedRule,
    decode,
    encode,
    fit_encoder,
    load_csv,
    load_schema_config,
    synthesize_log,
    write_csv,
)
from .harness import (
    CANDIDATE_COLUMNS,
    ExperimentSpec,
    GRID_PRESET_135,
    GRID_PRESET_162,
    SyntheticSpec,
    _candidate_values,
    candidate_rows,
    prepare_experiment,
    render_counterfactual,
    run_benchmark,
    run_grid,
    run_job,
)
from .viability import ssdld


def _add_data_arguments(parser, require_out=False):
    parser.add_argument("--log", help="event log CSV")
    parser.add_argument("--schema", help="attribute schema JSON")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--out", help="output directory", required=require_out)
    parser.add_argument(
        "--overrides", help="JSON object overriding experiment parameters", default=None
    )
    parser.add_argument(
        "--external-predictor",
        help="command scoring candidate CSVs (file protocol), replaces the trained model",
    )


_JSON_KINDS = {int: "an integer", float: "a number", str: "a string"}


def _parse_fields(given: dict, cls, what: str) -> dict:
    """Keyword arguments for dataclass cls, each value checked against its field."""
    unknown = sorted(set(given) - {f.name for f in dataclasses.fields(cls)})
    if unknown:
        raise ConfigurationError(f"unknown {what} key(s): {', '.join(unknown)}")
    hints = typing.get_type_hints(cls)
    return {key: _parse_value(value, hints[key], f"{what} {key}") for key, value in given.items()}


def _parse_value(value, hint, what: str):
    """A JSON value as the field type hint holds it; ConfigurationError if it does not fit."""
    if isinstance(hint, types.UnionType):  # every union here is X | None
        if value is None:
            return None
        (hint,) = [arm for arm in typing.get_args(hint) if arm is not type(None)]
    if dataclasses.is_dataclass(hint):
        if isinstance(value, dict):
            return hint(**_parse_fields(value, hint, what))
        expected = "an object"
    elif typing.get_origin(hint) is tuple:
        if isinstance(value, list):
            return tuple(_parse_value(item, typing.get_args(hint)[0], what) for item in value)
        expected = "a list"
    else:
        accepted = (int, float) if hint is float else hint
        if isinstance(value, accepted) and not isinstance(value, bool):
            return value
        expected = _JSON_KINDS[hint]
    raise ConfigurationError(f"{what} must be {expected}, got {json.dumps(value)}")


def _parse_overrides(text: str | None) -> dict:
    if not text:
        return {}
    try:
        overrides = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigurationError(f"--overrides is not valid JSON: {exc}") from None
    if not isinstance(overrides, dict):
        raise ConfigurationError("--overrides must be a JSON object")
    return _parse_fields(overrides, ExperimentSpec, "--overrides")


def _spec_from_args(args, **defaults) -> ExperimentSpec:
    kwargs = dict(defaults)
    if args.log:
        kwargs["log_path"] = args.log
        kwargs["schema_path"] = args.schema
        kwargs["synthetic"] = None
    else:
        kwargs.setdefault("synthetic", SyntheticSpec())
    kwargs["seed"] = args.seed
    kwargs["output_dir"] = args.out
    kwargs.update(_parse_overrides(args.overrides))
    try:
        return ExperimentSpec(**kwargs)
    except ValueError as exc:
        raise ConfigurationError(str(exc)) from None


def _out_dir(path: str) -> Path:
    """The --out directory, created before any set-up so an unusable path fails first."""
    out = Path(path)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigurationError(f"--out {path}: cannot create directory: {exc.strerror}") from None
    return out


def _predictor_factory(args):
    if getattr(args, "external_predictor", None):
        return lambda encoder: predictor_mod.ExternalProcessPredictor(
            args.external_predictor, encoder
        )
    return None


def cmd_synthesize_log(args) -> int:
    if args.seed < 0:
        raise ConfigurationError("seed must be >= 0")
    rule = PlantedRule(args.critical) if args.critical else None
    size = SyntheticSpec(args.cases, args.activities)
    log = synthesize_log(size.n_cases, size.n_activities, rule=rule, seed=args.seed)
    # only once the input is accepted, so a rejected one leaves no directory
    out = _out_dir(args.out)
    write_csv(log, out / "log.csv")
    schema = {"attributes": [{"name": s.name, "kind": s.kind} for s in log.schemas]}
    (out / "schema.json").write_text(json.dumps(schema, indent=2))
    positives = sum(t.outcome for t in log.traces)
    print(f"wrote {len(log)} cases ({positives} positive) to {out / 'log.csv'}")
    return 0


def cmd_train_predictor(args) -> int:
    # the fitting commands use no factual, so one is all they ask the test split for
    spec = _spec_from_args(args, n_factuals=1)
    out = _out_dir(args.out)
    prepared = prepare_experiment(spec)
    (out / "encoder.json").write_text(prepared.encoder.to_json())
    (out / "predictor.json").write_text(prepared.predictor.to_json())

    # the model is fitted on every training trace, so only test is held out
    metrics = {}
    for split_name, split in (("train", prepared.train), ("test", prepared.test)):
        m = predictor_mod.evaluate(prepared.predictor, split)
        metrics[split_name] = {
            "precision": m.precision,
            "recall": m.recall,
            "f1": m.f1,
            "support_positive": m.support_positive,
            "support_negative": m.support_negative,
        }
    (out / "metrics.json").write_text(json.dumps(metrics, indent=2))
    print(json.dumps(metrics["test"]))
    return 0


def cmd_fit_markov(args) -> int:
    spec = _spec_from_args(args, n_factuals=1)
    out = _out_dir(args.out)
    prepared = prepare_experiment(spec)
    (out / "markov.json").write_text(prepared.feas_model.to_json())
    print(f"wrote {out / 'markov.json'}")
    return 0


def cmd_generate(args) -> int:
    spec = _spec_from_args(
        args, cycles=args.cycles, n_factuals=1, counterfactuals_per_factual=args.n
    )
    out = _out_dir(args.out)
    prepared = prepare_experiment(spec, predictor_factory=_predictor_factory(args))
    if args.factual:
        pool = {t.case_id: t for t in prepared.test + prepared.train}
        if args.factual not in pool:
            raise ConfigurationError(f"case {args.factual!r} not found")
        factual = pool[args.factual]
    else:
        factual = prepared.factuals[0]

    result = run_job(spec, prepared, args.config, 0, factual)
    top = result.population.head(args.n)
    rows = candidate_rows(args.config, factual.case_id, top, prepared.encoder)

    with (out / "counterfactuals.csv").open("w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(CANDIDATE_COLUMNS)
        writer.writerows(map(_candidate_values, rows))

    # decoded events of the generated candidates, same layout as an event log
    decoded = tuple(
        decode(_with_case_id(genome, f"cf_{rank:03d}"), prepared.encoder)
        for rank, genome in enumerate(top.genomes, start=1)
    )
    cf_log = EventLog(
        decoded,
        tuple(_schema_from_codec(codec) for codec in prepared.encoder.codecs),
        tuple(prepared.encoder.activity_to_id),
    )
    write_csv(cf_log, out / "counterfactual_events.csv")

    best, score = top.genomes[0], rows[0].score
    _, alignment = ssdld(factual, best, "euclidean", prepared.encoder.slices())
    p_factual, p_best = prepared.predictor.predict_proba_batch([factual, best])
    rendered = render_counterfactual(
        decode(factual, prepared.encoder),
        decode(_with_case_id(best, "counterfactual"), prepared.encoder),
        alignment,
        p_factual=p_factual,
        p_counterfactual=p_best,
    )
    (out / "best_render.md").write_text(rendered)
    print(
        f"best candidate: total={score.total:.4f} "
        f"(sim={score.similarity:.3f} spar={score.sparsity:.3f} "
        f"feas={score.feasibility:.3g} delta={score.delta:+.3f})"
    )
    return 0


def _with_case_id(genome, case_id: str):
    return dataclasses.replace(genome, case_id=case_id)


def _schema_from_codec(codec):
    if isinstance(codec, CategoricalCodec):
        return AttributeSchema(codec.name, CATEGORICAL, categories=codec.categories)
    return AttributeSchema(codec.name, NUMERIC)


def _split_configs(text: str) -> tuple[str, ...]:
    return tuple(name.strip() for name in text.split(",") if name.strip())


def _parse_configs(args) -> tuple[str, ...]:
    if args.preset and args.configs is not None:
        raise ConfigurationError("grid takes --configs or --preset, not both")
    if args.preset == "135":
        return GRID_PRESET_135
    if args.preset == "162":
        return GRID_PRESET_162
    if not args.configs:
        raise ConfigurationError("grid needs --configs or --preset")
    return _split_configs(args.configs)


def cmd_grid(args) -> int:
    spec = _spec_from_args(
        args,
        config_names=_parse_configs(args),
        cycles=args.cycles,
        n_factuals=args.n_factuals,
    )
    if len(spec.config_names) < 2:
        raise ConfigurationError("grid search needs at least two configs")
    if args.out:
        _out_dir(args.out)
    prepared = prepare_experiment(spec, predictor_factory=_predictor_factory(args))
    report = run_grid(spec, prepared)
    for name, value in report.ranking:
        print(f"{value:8.4f}  {name}")
    return 0


def cmd_benchmark(args) -> int:
    configs = {} if args.configs is None else {"config_names": _split_configs(args.configs)}
    spec = _spec_from_args(
        args,
        **configs,
        cycles=args.cycles,
        n_factuals=args.n_factuals,
        counterfactuals_per_factual=args.cfs,
    )
    if not spec.config_names:
        raise ConfigurationError("benchmark needs at least one evolutionary config")
    if args.out:
        _out_dir(args.out)
    prepared = prepare_experiment(spec, predictor_factory=_predictor_factory(args))
    report = run_benchmark(spec, prepared)
    for name, median in report.medians.items():
        print(f"{name}: median total viability {median:.4f}")
    return 0


def cmd_render(args) -> int:
    if args.out and not Path(args.out).parent.is_dir():
        raise ConfigurationError(f"--out {args.out}: its directory does not exist")
    schemas = load_schema_config(args.schema)
    log = load_csv(args.log, schemas)
    cf_log = load_csv(args.counterfactual_log or args.log, schemas)
    by_case = {t.case_id: t for t in log.traces}
    cf_by_case = {t.case_id: t for t in cf_log.traces}
    if args.factual not in by_case or args.counterfactual not in cf_by_case:
        raise ConfigurationError(
            f"factual {args.factual!r} or counterfactual {args.counterfactual!r} not found"
        )
    # a category only the counterfactual log holds (such as the empty cell
    # generate writes for an RM code that decodes to no category) follows the
    # log's own, so the encoder knows it and the log's codes stay as they are
    joined = tuple(
        dataclasses.replace(s, categories=tuple(dict.fromkeys(s.categories + cf.categories)))
        for s, cf in zip(log.schemas, cf_log.schemas, strict=True)
    )
    encoder = fit_encoder(dataclasses.replace(log, schemas=joined))
    factual = by_case[args.factual]
    counterfactual = cf_by_case[args.counterfactual]
    enc_f = encode(factual, encoder)
    enc_c = encode(counterfactual, encoder)
    _, alignment = ssdld(enc_f, enc_c, "euclidean", encoder.slices())
    rendered = render_counterfactual(factual, counterfactual, alignment)
    if args.out:
        Path(args.out).write_text(rendered)
    else:
        print(rendered, end="")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="evocf",
        description="Evolutionary counterfactual sequence generation for event logs",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synthesize-log", help="write a synthetic planted-rule log")
    p.add_argument("--cases", type=int, default=200)
    p.add_argument("--activities", type=int, default=5)
    p.add_argument("--critical", help="critical activity name for the planted rule")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_synthesize_log)

    p = sub.add_parser("train-predictor", help="train and persist the reference predictor")
    _add_data_arguments(p, require_out=True)
    p.set_defaults(func=cmd_train_predictor)
    p = sub.add_parser("fit-markov", help="fit and persist the feasibility model")
    _add_data_arguments(p, require_out=True)
    p.set_defaults(func=cmd_fit_markov)

    p = sub.add_parser("generate", help="generate counterfactuals for one factual")
    _add_data_arguments(p, require_out=True)
    p.add_argument(
        "--config", default="CBI-RWS-OPC-SBM-FSR", help="operator config or RGW / SBGW / CBGW"
    )
    p.add_argument("--factual", help="case id of the factual (default: first sampled)")
    p.add_argument("--cycles", type=int, default=100)
    p.add_argument("--n", type=int, default=10, help="counterfactuals to emit")
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("grid", help="operator grid search")
    _add_data_arguments(p)
    p.add_argument("--configs", help="comma-separated operator names")
    p.add_argument("--preset", choices=["135", "162"])
    p.add_argument("--cycles", type=int, default=10)
    p.add_argument("--n-factuals", type=int, default=2)
    p.set_defaults(func=cmd_grid)

    p = sub.add_parser("benchmark", help="evolutionary generators vs baselines")
    _add_data_arguments(p)
    p.add_argument("--configs", help="comma-separated operator names")
    p.add_argument("--cycles", type=int, default=200)
    p.add_argument("--n-factuals", type=int, default=10)
    p.add_argument("--cfs", type=int, default=50, help="counterfactuals per factual")
    p.set_defaults(func=cmd_benchmark)

    p = sub.add_parser("render", help="render a factual/counterfactual pair")
    p.add_argument("--log", required=True)
    p.add_argument("--schema", required=True)
    p.add_argument("--factual", required=True)
    p.add_argument("--counterfactual", required=True)
    p.add_argument("--counterfactual-log", help="CSV holding the counterfactual (default --log)")
    p.add_argument("--out")
    p.set_defaults(func=cmd_render)

    return parser


def main(argv=None) -> int:
    """Run one subcommand; a package error or a failed write ends it with one line and code 2."""
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except EvocfError as exc:
        message = " ".join(str(exc).splitlines())
    except OSError as exc:
        message = f"{exc.filename}: {exc.strerror}" if exc.filename else str(exc)
    print(f"evocf: error: {message}", file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main())
