"""Command-line front end.

Subcommands::

    availkit eval   MODEL   evaluate and print the availability report
    availkit check  MODEL   parse and validate, every diagnostic at its line
    availkit oracle MODEL   cross-check evaluation against a brute-force
                            oracle (exhaustive enumeration or Monte Carlo)
    availkit whatif MODEL --set id.field=value [...]
                            compare the model before and after overrides

Exit codes: 0 success, 1 validation or evaluation failure (or Monte
Carlo without the ``[mc]`` extra), 2 I/O failure, 3 oracle disagreement,
4 enumeration cap exceeded. Reports go to stdout; diagnostics go to
stderr.
"""

from __future__ import annotations

import argparse
import sys
from typing import Sequence

from .components import FIELD_NAMES, FORM_OF, FORMS, Component, derive_environment
from .evaluate import EvaluationError, eval_block
from .model import Model
from .modelfile import ParseDiagnostic, parse_model
from .network import DEFAULT_MAX_STATES, Network, eval_network
from .oracle import (
    DEFAULT_ENUMERATION_CAP,
    EnumerationCapError,
    enumerate_availability,
    monte_carlo_availability,
)
from .report import (MINUTES_PER_YEAR, build_report, headline, render_json, render_text, to_json,
                     to_text)

__all__ = ["main"]

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_IO = 2
EXIT_MISMATCH = 3
EXIT_CAP = 4

ENUMERATION_TOLERANCE = 1e-9
MC_HALF_WIDTHS = 4.0


class _ArgumentParser(argparse.ArgumentParser):
    """argparse exits 2 on usage problems; here 2 means an I/O failure,
    so bad invocations are reported as validation failures instead."""

    def error(self, message: str) -> None:  # type: ignore[override]
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_VALIDATION)


def _int_at_least(low: int, convert=int):
    """argparse type for an integer >= ``low``, handed on as ``convert(value)``;
    a smaller value, or one that ``convert`` overflows on, is a usage error."""

    def parse(text: str):
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be >= {low}, got {value}")
        try:
            return convert(value)
        except OverflowError:
            raise argparse.ArgumentTypeError(f"too large for a {convert.__name__}") from None

    parse.__name__ = "int"  # argparse names the type in "invalid int value"
    return parse


# The numeric options, each registered only on the subcommands that read it.
_OPTIONS = {
    "--minutes-per-year": dict(
        type=_int_at_least(1, float),
        default=MINUTES_PER_YEAR,
        help="calendar used for downtime minutes (default 525600)",
    ),
    "--enum-cap": dict(
        type=_int_at_least(0),
        default=DEFAULT_ENUMERATION_CAP,
        help="largest instance count the enumeration oracle will accept",
    ),
    "--max-states": dict(
        type=_int_at_least(1),
        default=DEFAULT_MAX_STATES,
        help="live-state budget of the network sweep",
    ),
}


def _add_common(parser: argparse.ArgumentParser, *options: str) -> None:
    parser.add_argument("model", help="path to a model file")
    parser.add_argument(
        "--format", choices=("text", "json"), default="text", help="report format"
    )
    for option in options:
        parser.add_argument(option, **_OPTIONS[option])


def _build_parser() -> argparse.ArgumentParser:
    parser = _ArgumentParser(prog="availkit", description="steady-state availability models")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_ArgumentParser)

    evaluate = sub.add_parser("eval", help="evaluate a model")
    _add_common(evaluate, "--minutes-per-year", "--max-states")
    _add_common(sub.add_parser("check", help="parse and validate a model"))

    oracle = sub.add_parser("oracle", help="cross-check the evaluation")
    _add_common(oracle, "--enum-cap", "--max-states")
    oracle.add_argument("--mode", choices=("enumerate", "mc"), default="enumerate")
    oracle.add_argument("--samples", type=_int_at_least(1), default=1_000_000)
    oracle.add_argument("--seed", type=int, default=1)

    whatif = sub.add_parser("whatif", help="compare against overridden parameters")
    _add_common(whatif, "--minutes-per-year", "--max-states")
    whatif.add_argument(
        "--set",
        dest="overrides",
        action="append",
        required=True,
        metavar="ID.FIELD=VALUE",
        help="override a component field before derivation (repeatable)",
    )
    return parser


def _evaluate(model: Model, env, max_states: int) -> float:
    if isinstance(model.system, Network):
        return eval_network(model.system, env, max_states=max_states)
    return eval_block(model.system, env)


def _cmd_check(args, diags: Sequence[ParseDiagnostic]) -> int:
    rows = [(d.severity, f"line {d.span.line}, col {d.span.column}", d.message) for d in diags]
    errors = sum(1 for severity, _, _ in rows if severity == "error")
    warnings = len(rows) - errors
    if args.format == "json":
        diagnostics = [dict(zip(("severity", "where", "message"), row)) for row in rows]
        fields = {"valid": errors == 0, "errors": errors, "warnings": warnings}
        sys.stdout.write(to_json({**fields, "diagnostics": diagnostics}))
    else:
        verdict = "valid" if errors == 0 else "invalid"
        sys.stdout.write(f"{verdict}: {errors} error(s), {warnings} warning(s)\n")
        for severity, where, message in rows:
            sys.stdout.write(f"  {severity}: {message} ({where})\n")
    return EXIT_OK if errors == 0 else EXIT_VALIDATION


def _cmd_eval(args, model: Model, env) -> int:
    availability = _evaluate(model, env, args.max_states)
    report = build_report(model, env, availability, args.minutes_per_year)
    text = render_json(report) if args.format == "json" else render_text(report)
    sys.stdout.write(text)
    return EXIT_OK


def _cmd_oracle(args, model: Model, env) -> int:
    exact = _evaluate(model, env, args.max_states)
    if args.mode == "enumerate":
        estimate = enumerate_availability(model.system, env, cap=args.enum_cap)
        tolerance = ENUMERATION_TOLERANCE
        extra: dict[str, int | float] = {}
    else:
        estimate, half_width = monte_carlo_availability(
            model.system, env, args.samples, args.seed
        )
        # At an estimate of exactly 0 or 1 the normal half-width is 0, so
        # use the rule of three's 3/samples in its place.
        certain = estimate in (0.0, 1.0)
        tolerance = MC_HALF_WIDTHS * (3 / args.samples if certain else half_width)
        extra = {"samples": args.samples, "seed": args.seed, "half_width_95": half_width}
    difference = abs(exact - estimate)
    within = difference <= tolerance
    if args.format == "json":
        fields = {"mode": args.mode, "exact": exact, "oracle": estimate}
        fields.update(abs_difference=difference, **extra)
        fields.update(tolerance=tolerance, within_tolerance=within)
        sys.stdout.write(to_json(fields))
    else:
        shown = {"mode": args.mode, "exact": exact, "oracle": estimate, "difference": difference}
        shown.update(extra)
        sys.stdout.write(to_text(shown) + f"within tolerance: {'yes' if within else 'no'}\n")
    return EXIT_OK if within else EXIT_MISMATCH


def _parse_override(text: str) -> tuple[str, str, float]:
    lhs, eq, value_text = text.partition("=")
    cid, dot, field = lhs.partition(".")
    if not eq or not dot or not cid or not field:
        raise ValueError(f"override {text!r} must look like id.field=value")
    if field not in FIELD_NAMES:
        raise ValueError(f"unknown field {field!r} in override {text!r}")
    try:
        value = float(value_text)
    except ValueError:
        raise ValueError(f"override value {value_text!r} is not a number") from None
    return cid, field, value


def _apply_override(component: Component, field: str, value: float) -> Component:
    """The component with one field changed within its form; a field that
    makes a form on its own (availability) switches the component to it."""
    fields = component.fields
    fields = {**fields, field: value} if field in fields else {field: value}
    if frozenset(fields) not in FORM_OF:
        form = FORMS[tuple(component.fields)]
        raise ValueError(
            f"field {field!r} does not apply to component {component.id!r} ({form} form)"
        )
    return Component(component.id, fields)


def _cmd_whatif(args, model: Model, env) -> int:
    # a bad override is a ValueError, which main reports as an error line
    parsed = [_parse_override(text) for text in args.overrides]
    components = dict(model.components)
    for cid, field, value in parsed:
        if cid not in components:
            raise ValueError(f"unknown component {cid!r} in override")
        components[cid] = _apply_override(components[cid], field, value)
    modified = Model(components=components, system=model.system)
    modified_env = derive_environment(components)
    minutes = args.minutes_per_year
    base = build_report(model, env, _evaluate(model, env, args.max_states), minutes)
    after = build_report(
        modified, modified_env, _evaluate(modified, modified_env, args.max_states), minutes
    )
    delta = after.downtime_minutes_per_year - base.downtime_minutes_per_year
    if args.format == "json":
        fields = {
            "overrides": args.overrides,
            "baseline": headline(base),
            "modified": headline(after),
            "downtime_delta_minutes_per_year": delta,
        }
        sys.stdout.write(to_json(fields))
    else:
        rows = {
            "overrides": "; ".join(args.overrides),
            "baseline availability": base.availability,
            "modified availability": after.availability,
            "downtime delta (min/yr)": delta,
        }
        sys.stdout.write(to_text(rows))
    return EXIT_OK


def main(argv: Sequence[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        with open(args.model, encoding="utf-8-sig") as f:  # a byte-order mark is not text
            text = f.read()
    except OSError as exc:
        print(f"error: cannot read {args.model!r}: {exc}", file=sys.stderr)
        return EXIT_IO
    except UnicodeDecodeError as exc:
        print(f"error: {args.model!r} is not UTF-8: {exc}", file=sys.stderr)
        return EXIT_IO

    model, diags = parse_model(text)
    for d in diags:
        sys.stderr.write(f"{args.model}:{d.span.line}:{d.span.column}: {d.severity}: {d.message}\n")

    if args.command == "check":
        return _cmd_check(args, diags)
    if model is None:
        return EXIT_VALIDATION

    try:
        env = derive_environment(model.components)
        if args.command == "eval":
            return _cmd_eval(args, model, env)
        if args.command == "oracle":
            return _cmd_oracle(args, model, env)
        return _cmd_whatif(args, model, env)
    except EnumerationCapError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CAP
    except (EvaluationError, ImportError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
