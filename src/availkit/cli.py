"""Command-line front end; ``availkit -h`` prints the usage, ``_USAGE``.

Arguments are read as argparse reads them (``--flag value``, ``--flag=value``,
a unique prefix of a flag, ``--``, a negative number as a value), and each
usage error exits 1 with argparse's ``error:`` line in argparse's order. But
argparse is not imported: it and the gettext and locale that it loads took
half of what a command adds to a bare interpreter's start-up.

``run`` is the process entry, of ``python -m availkit`` and of the
``availkit`` script: it calls ``main`` and freezes the heap last, so the
interpreter's collections at exit skip what the command built. ``main``
leaves the collector as it was.

Exit codes: 0 success, 1 a usage, validation or evaluation failure (or
Monte Carlo without the ``[mc]`` extra), 2 I/O failure (the model file, or,
through ``run``, a stdout closed before the report is written), 3 oracle
disagreement, 4 enumeration cap exceeded. Reports go to stdout;
diagnostics go to stderr.
"""

from __future__ import annotations

import gc
import os
import re
import sys
from types import SimpleNamespace
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

__all__ = ["main", "run"]

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_IO = 2
EXIT_MISMATCH = 3
EXIT_CAP = 4

ENUMERATION_TOLERANCE = 1e-9
MC_HALF_WIDTHS = 4.0

_USAGE = """\
availkit eval   MODEL [--format text|json] [--minutes-per-year N] [--max-states N]
availkit check  MODEL [--format text|json]
availkit oracle MODEL [--format text|json] [--mode enumerate|mc] [--samples N] [--seed N]
                      [--enum-cap N] [--max-states N]
availkit whatif MODEL --set id.field=value [--set ...] [--format text|json]
                      [--minutes-per-year N] [--max-states N]
"""


def _integer(low: int | None = None, convert=int):
    """The reader of an integer >= ``low``, handed on as ``convert(value)``;
    a smaller value, or one that ``convert`` overflows on, is refused."""

    def read(text: str):
        try:
            value = int(text)
        except ValueError:
            raise ValueError(f"invalid int value: {text!r}") from None
        if low is not None and value < low:
            raise ValueError(f"must be >= {low}, got {value}")
        try:
            return convert(value)
        except OverflowError:
            raise ValueError(f"too large for a {convert.__name__}") from None

    return read


def _choice(*choices: str):
    def read(text: str) -> str:
        if text not in choices:
            listed = ", ".join(map(repr, choices))
            raise ValueError(f"invalid choice: {text!r} (choose from {listed})")
        return text

    return read


# Each flag's attribute, reader and default. A list default collects the
# flag's values in order; any other flag given twice keeps its last value.
_FLAGS = {
    "--format": ("format", _choice("text", "json"), "text"),
    "--minutes-per-year": ("minutes_per_year", _integer(1, float), MINUTES_PER_YEAR),
    "--enum-cap": ("enum_cap", _integer(0), DEFAULT_ENUMERATION_CAP),
    "--max-states": ("max_states", _integer(1), DEFAULT_MAX_STATES),
    "--mode": ("mode", _choice("enumerate", "mc"), "enumerate"),
    "--samples": ("samples", _integer(1), 1_000_000),
    "--seed": ("seed", _integer(), 1),
    "--set": ("overrides", str, []),  # required: whatif has nothing to compare without it
}
_HELP = ("-h", "--help")
# Each command's flags, in the order that an ambiguous prefix lists them.
_COMMANDS = {
    "eval": (*_HELP, "--format", "--minutes-per-year", "--max-states"),
    "check": (*_HELP, "--format"),
    "oracle": (*_HELP, "--format", "--enum-cap", "--max-states", "--mode", "--samples", "--seed"),
    "whatif": (*_HELP, "--format", "--minutes-per-year", "--max-states", "--set"),
}
_NEGATIVE_NUMBER = re.compile(r"-\d+$|-\d*\.\d+$")
_MODEL = re.compile("-?A-?")  # MODEL's value, and a "--" before or after it


def _value(name: str, read, text: str):
    try:
        return read(text)
    except ValueError as exc:
        raise ValueError(f"argument {name}: {exc}") from None


def _option(arg: str, flags: tuple[str, ...]) -> tuple[str | None, str | None] | None:
    """None when ``arg`` is a value, else the flag it names (None for one
    not in ``flags``) and its own value, the text after "=" or after -h."""
    if not arg.startswith("-") or arg == "-":
        return None
    name, eq, value = arg.partition("=")
    value = value if eq else None
    if name in flags:
        return name, value
    if arg[1] == "-":
        matches = [flag for flag in flags if flag.startswith(name)]
    else:
        matches, value = (["-h"] if arg[:2] == "-h" else []), arg[2:]
    if len(matches) > 1:
        raise ValueError(f"ambiguous option: {arg} could match {', '.join(matches)}")
    if matches:
        return matches[0], value
    return None if _NEGATIVE_NUMBER.match(arg) or " " in arg else (None, None)


def _help(flag: str, value: str | None) -> None:
    while value is not None:  # "-hh" is -h twice; any other value is refused
        if flag == "--help" or value[:1] != "h":
            raise ValueError(f"argument -h/--help: ignored explicit argument {value!r}")
        value = value[1:] or None
    sys.stdout.write(_USAGE)
    raise SystemExit(EXIT_OK)


def _read_args(argv: list[str]) -> SimpleNamespace:
    """The command, MODEL and flags of ``argv``; a usage error is a ValueError."""
    extras: list[str] = []
    i = 0  # before the command, only -h/--help are known
    while i < len(argv) and argv[i] != "--" and (option := _option(argv[i], _HELP)):
        if option[0]:
            _help(*option)
        extras.append(argv[i])
        i += 1
    if argv[i:] in ([], ["--"]):
        raise ValueError("the following arguments are required: command")
    command = _value("command", _choice(*_COMMANDS), argv[i])
    args, flags = argv[i + 1:], _COMMANDS[command]

    # "A" for a value, "O" for an option and "-" for the "--" that ends them
    kinds, options = "", {}
    for j, arg in enumerate(args):
        if arg == "--":
            kinds += "-" + "A" * (len(args) - j - 1)
            break
        option = options[j] = _option(arg, flags)
        kinds += "A" if option is None else "O"

    values = {_FLAGS[flag][0]: _FLAGS[flag][2] for flag in flags[2:]}
    model, j = None, 0
    while j < len(args):
        if model is None and (match := _MODEL.match(kinds, j)):
            model, j = args[j + (kinds[j] == "-")], match.end()
            continue
        flag, value = options.get(j) or (None, None)
        if flag is None:
            extras.append(args[j])
        elif flag in _HELP:
            _help(flag, value)
        else:
            if value is None:
                if kinds[j + 1:j + 2] != "A":
                    raise ValueError(f"argument {flag}: expected one argument")
                j += 1
                value = args[j]
            name, read, default = _FLAGS[flag]
            value = _value(flag, read, value)
            values[name] = [*values[name], value] if isinstance(default, list) else value
        j += 1

    missing = ["model"] if model is None else []
    if values.get("overrides") == []:
        missing.append("--set")
    if missing:
        raise ValueError(f"the following arguments are required: {', '.join(missing)}")
    if extras:
        raise ValueError(f"unrecognized arguments: {' '.join(extras)}")
    return SimpleNamespace(command=command, model=model, **values)


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
    try:
        args = _read_args(sys.argv[1:] if argv is None else list(argv))
    except ValueError as exc:
        sys.stderr.write(f"{_USAGE}error: {exc}\n")
        raise SystemExit(EXIT_VALIDATION) from None
    try:
        # the file's own offsets in a decode error: utf-8-sig counts from past the mark
        with open(args.model, encoding="utf-8") as f:
            text = f.read().removeprefix("\ufeff")  # a byte-order mark is not text
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


def run() -> int | str | None:
    """``main()``'s exit code, with stdout flushed; ``gc.freeze()`` is the
    last act however ``main`` ends. Unlike ``os._exit``, this keeps atexit
    handlers and the flush of stdio at exit."""
    try:
        try:
            code = main()
        except SystemExit as exc:  # -h, or a usage error
            code = exc.code
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader is gone: stdout goes to devnull, so the flush at exit is silent
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = EXIT_IO
    finally:
        gc.freeze()
    return code


if __name__ == "__main__":
    sys.exit(run())
