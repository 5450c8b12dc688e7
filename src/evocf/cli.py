"""Command line entry point.

Subcommands cover the whole workflow: synthesize a desk-scale log, train the
reference predictor, fit the feasibility model, generate counterfactuals for
one factual, run the operator grid search or the baseline benchmark, and
render a factual/counterfactual pair side by side; the runs themselves live in harness.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import shlex
import sys
import types
import typing
from pathlib import Path

from . import predictor as predictor_mod
from .errors import ConfigurationError, EvocfError
from .event_log import (
    PlantedRule,
    load_csv,
    load_schema_config,
    synthesize_log,
    write_csv,
    write_schema_config,
)
from .harness import (
    BASELINES,
    DEFAULT_BENCHMARK_CONFIGS,
    ExperimentSpec,
    GRID_PRESET_135,
    GRID_PRESET_162,
    SyntheticSpec,
    check_benchmark,
    check_candidate_count,
    check_grid,
    load_log,
    prepare_from_log,
    render_pair,
    run_benchmark,
    run_generate,
    run_grid,
)


def _add_data_arguments(parser, require_out=False):
    # a flag's dest is the ExperimentSpec field it sets
    parser.add_argument("--log", dest="log_path", help="event log CSV")
    parser.add_argument("--schema", dest="schema_path", help="attribute schema JSON")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--out", dest="output_dir", help="output directory", required=require_out)
    parser.add_argument(
        "--overrides", help="JSON object overriding experiment parameters", default=None
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
    else:
        accepted = (int, float) if hint is float else hint
        if isinstance(value, accepted) and not isinstance(value, bool):
            return value
        expected = _JSON_KINDS[hint]
    raise ConfigurationError(f"{what} must be {expected}, got {json.dumps(value)}")


_SPEC_FIELDS = frozenset(f.name for f in dataclasses.fields(ExperimentSpec))


def _parse_overrides(args, taken) -> dict:
    """--overrides as spec fields; a field in taken (a flag or the command sets it) is refused."""
    if not args.overrides:
        return {}
    try:
        overrides = json.loads(args.overrides)
    except json.JSONDecodeError as exc:
        raise ConfigurationError(f"--overrides is not valid JSON: {exc}") from None
    if not isinstance(overrides, dict):
        raise ConfigurationError("--overrides must be a JSON object")
    refused = sorted(taken & overrides.keys())
    if refused:
        raise ConfigurationError(
            f"--overrides cannot set {refused[0]}; a flag or the {args.command} command sets it"
        )
    return _parse_fields(overrides, ExperimentSpec, "--overrides")


def _spec_from_args(args, **fields) -> ExperimentSpec:
    """The spec of the command's fields, its flags whose dest is a spec field, and --overrides.

    The synthetic log is the default only when neither --log nor --schema is given.
    """
    fields.update((key, value) for key, value in vars(args).items() if key in _SPEC_FIELDS)
    overrides = _parse_overrides(args, fields.keys())
    if fields["log_path"] is None and fields["schema_path"] is None:
        fields["synthetic"] = SyntheticSpec()
    return ExperimentSpec(**(fields | overrides))


def _out_dir(path: str) -> Path:
    """The --out directory, created before any set-up so an unusable path fails first."""
    if not path:
        raise ConfigurationError("--out is empty")
    out = Path(path)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigurationError(f"--out {path}: cannot create directory: {exc.strerror}") from None
    return out


def _predictor_factory(args):
    """The --external-predictor factory, or None for the trained model; checked before set-up."""
    command = getattr(args, "external_predictor", None)  # the fitting commands have none
    if command is None:
        return None
    try:
        argv = shlex.split(command)
    except ValueError as exc:
        raise ConfigurationError(f"--external-predictor {command!r}: {exc}") from None
    if not argv or not argv[0]:
        raise ConfigurationError("--external-predictor is empty")
    return lambda encoder: predictor_mod.ExternalProcessPredictor(command, encoder)


def cmd_synthesize_log(args) -> int:
    if args.seed < 0:
        raise ConfigurationError("seed must be >= 0")
    rule = None if args.critical is None else PlantedRule(args.critical)
    size = SyntheticSpec(args.cases, args.activities)
    log = synthesize_log(size.n_cases, size.n_activities, rule=rule, seed=args.seed)
    # only once the input is accepted, so a rejected one leaves no directory
    out = _out_dir(args.out)
    write_csv(log, out / "log.csv")
    write_schema_config(log.schemas, out / "schema.json")
    positives = sum(t.outcome for t in log.traces)
    print(f"wrote {len(log)} cases ({positives} positive) to {out / 'log.csv'}")
    return 0


def _set_up_and_run(args, spec: ExperimentSpec, check, run):
    """run(spec, prepared, log) once the run's rule, the predictor flag and --out pass."""
    check(spec)
    predictor_factory = _predictor_factory(args)
    if spec.output_dir is not None:
        _out_dir(spec.output_dir)
    log = load_log(spec)
    return run(spec, prepare_from_log(spec, log, predictor_factory), log)


def _fit(args):
    """The --out directory and set-up of a fitting command."""
    # it runs no config and uses no factual, so one is all it asks the test split for
    spec = _spec_from_args(args, config_names=(), n_factuals=1)
    prepared = _set_up_and_run(args, spec, lambda spec: None, lambda spec, prepared, log: prepared)
    return Path(spec.output_dir), prepared


def cmd_train_predictor(args) -> int:
    out, prepared = _fit(args)
    (out / "encoder.json").write_text(prepared.encoder.to_json())
    (out / "predictor.json").write_text(prepared.predictor.to_json())

    # the model is fitted on every training trace, so only test is held out
    metrics = {
        split_name: dataclasses.asdict(predictor_mod.evaluate(prepared.predictor, split))
        for split_name, split in (("train", prepared.train), ("test", prepared.test))
    }
    (out / "metrics.json").write_text(json.dumps(metrics, indent=2))
    print(json.dumps(metrics["test"]))
    return 0


def cmd_fit_markov(args) -> int:
    out, prepared = _fit(args)
    (out / "markov.json").write_text(prepared.feas_model.to_json())
    print(f"wrote {out / 'markov.json'}")
    return 0


def cmd_generate(args) -> int:
    configs = () if args.config in BASELINES else (args.config,)
    spec = _spec_from_args(args, config_names=configs, n_factuals=1)
    score = _set_up_and_run(
        args, spec, check_candidate_count,
        lambda spec, prepared, log: run_generate(spec, prepared, log, args.config, args.factual),
    ).score
    print(
        f"best candidate: total={score.total:.4f} "
        f"(sim={score.similarity:.3f} spar={score.sparsity:.3f} "
        f"feas={score.feasibility:.3g} delta={score.delta:+.3f})"
    )
    return 0


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
    spec = _spec_from_args(args, config_names=_parse_configs(args))
    report = _set_up_and_run(
        args, spec, check_grid, lambda spec, prepared, log: run_grid(spec, prepared)
    )
    for name, value in report.ranking:
        print(f"{value:8.4f}  {name}")
    return 0


def cmd_benchmark(args) -> int:
    configs = DEFAULT_BENCHMARK_CONFIGS if args.configs is None else _split_configs(args.configs)
    spec = _spec_from_args(args, config_names=configs)
    report = _set_up_and_run(
        args, spec, check_benchmark, lambda spec, prepared, log: run_benchmark(spec, prepared)
    )
    for name, median in report.medians.items():
        print(f"{name}: median total viability {median:.4f}")
    return 0


def cmd_render(args) -> int:
    # Path("") is the working directory, so an empty path is refused by name
    for flag in ("log", "schema", "counterfactual_log", "out"):
        if getattr(args, flag) == "":
            raise ConfigurationError(f"--{flag.replace('_', '-')} is empty")
    if args.out is not None and not Path(args.out).parent.is_dir():
        raise ConfigurationError(f"--out {args.out}: its directory does not exist")
    schemas = load_schema_config(args.schema)
    log = load_csv(args.log, schemas)
    cf_path = args.log if args.counterfactual_log is None else args.counterfactual_log
    cf_log = load_csv(cf_path, schemas)
    rendered = render_pair(log, cf_log, args.factual, args.counterfactual)
    if args.out is None:
        print(rendered, end="")
    else:
        Path(args.out).write_text(rendered)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="evocf",
        description="Evolutionary counterfactual sequence generation for event logs",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    scoring = argparse.ArgumentParser(add_help=False)
    scoring.add_argument("--external-predictor", help="candidate CSV scorer to use, not the model")

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

    p = sub.add_parser(
        "generate", help="generate counterfactuals for one factual", parents=[scoring]
    )
    _add_data_arguments(p, require_out=True)
    p.add_argument(
        "--config", default="CBI-RWS-OPC-SBM-FSR", help="operator config or RGW / SBGW / CBGW"
    )
    p.add_argument("--factual", help="case id of the factual (default: first sampled)")
    p.add_argument("--cycles", type=int, default=100)
    p.add_argument("--n", dest="counterfactuals_per_factual", type=int, default=10,
                   help="counterfactuals to emit")
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("grid", help="operator grid search", parents=[scoring])
    _add_data_arguments(p)
    p.add_argument("--configs", help="comma-separated operator names")
    p.add_argument("--preset", choices=["135", "162"])
    p.add_argument("--cycles", type=int, default=10)
    p.add_argument("--n-factuals", type=int, default=2)
    p.set_defaults(func=cmd_grid)

    p = sub.add_parser("benchmark", help="evolutionary generators vs baselines", parents=[scoring])
    _add_data_arguments(p)
    p.add_argument("--configs", help="comma-separated operator names")
    p.add_argument("--cycles", type=int, default=200)
    p.add_argument("--n-factuals", type=int, default=10)
    p.add_argument("--cfs", dest="counterfactuals_per_factual", type=int, default=50,
                   help="counterfactuals per factual")
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
