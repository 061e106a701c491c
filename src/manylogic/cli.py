"""Command-line access to tables, model evaluation, consequence checks,
frame/axiom checks, and the acceptance suite.

Exit codes: 0 success, 1 an INVALID verdict or counterexample, 2 bad
input (flags, files, formulas).
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from . import bivaluations, frames, models, syntax, verify
from .logics import CONNECTIVES, LOGIC_IDS, LOGICS, matrix_consequence, truth_table
from .models import DIAMOND_VARIANTS
from .syntax import ParseError, to_text
from .values import ManylogicError


class InputError(ManylogicError):
    pass


def _parse_formula(text: str):
    try:
        return syntax.parse(text)
    except ParseError as exc:
        raise InputError(f"bad formula {text!r}: {exc}") from None


def _parse_premises(text: str | None):
    if not text or not text.strip():
        return []
    return [_parse_formula(part) for part in text.split(",")]


def _load(path: str, kind: type, validate, diamond: str | None):
    """The valid model or frame (`kind`) in a file, under `diamond` when
    one is given, its warnings printed (a frame has none); a file that
    does not load or validate is bad input.  The override reaches the
    loader once the file's own diamond is checked, so the world axis is
    laid out once."""
    noun = kind.__name__.lower()
    try:
        loaded = models._from_dict(models._read_json(path), kind, diamond)
    except (OSError, models.ModelFormatError) as exc:
        raise InputError(f"cannot load {noun} {path}: {exc}") from None
    report = validate(loaded)
    for warning in report.warnings:
        print(f"warning: {warning}", file=sys.stderr)
    if not report.ok:
        raise InputError(report.refusal(noun))
    return loaded


def _cmd_tables(args) -> int:
    logic = LOGICS[args.logic]
    conns = [args.conn] if args.conn else list(CONNECTIVES)
    blocks = [truth_table(logic, c).render() for c in conns]
    print("\n\n".join(blocks))
    return 0


def _cmd_eval(args) -> int:
    model = _load(args.model, models.Model, models.validate, args.diamond)
    if args.world not in model.worlds:
        raise InputError(f"unknown world {args.world!r}")
    f = _parse_formula(args.formula)
    value = models.eval_formula(model, args.world, f)
    mark = "DESIGNATED" if model.logic(args.world).is_designated(value) else "NOT DESIGNATED"
    print(f"{value} {mark}")
    return 0


def _cmd_consequence(args) -> int:
    logic = LOGICS[args.logic]
    premises = _parse_premises(args.premises)
    conclusion = _parse_formula(args.conclusion)
    verdict = matrix_consequence(logic, premises, conclusion)
    if verdict.valid:
        print("VALID")
        return 0
    witness = " ".join(f"{k}={v}" for k, v in sorted(verdict.witness.items()))
    print(f"INVALID {witness}")
    return 1


def _cmd_biv_consequence(args) -> int:
    logic = LOGICS[args.logic]
    premises = _parse_premises(args.premises)
    conclusion = _parse_formula(args.conclusion)
    verdict = bivaluations.biv_consequence(
        logic, premises, conclusion, v14_reading=args.v14
    )
    if verdict.valid:
        print("VALID")
        return 0
    print("INVALID")
    for f, v in verdict.witness.items():
        print(f"  rho({to_text(f)}) = {v}")
    return 1


def _cmd_check_frame(args) -> int:
    if args.exhaustive and (args.samples, args.seed) != (None, None):
        raise InputError("--samples and --seed apply only without --exhaustive")
    samples = None if args.exhaustive else 10000 if args.samples is None else args.samples
    seed = frames.DEFAULT_SEED if args.seed is None else args.seed
    frame = _load(args.model, models.Frame, models.validate_frame, args.diamond)
    result = frames.axiom_valid_on_frame(frame, frames.SCHEMAS[args.axiom], samples, seed)
    if result.valid:
        mode = "exhaustive" if args.exhaustive else "sampled"
        print(f"VALID ({result.models_checked} valuations, mode={mode}, seed={seed})")
        return 0
    ce = result.counterexample
    print(f"COUNTEREXAMPLE world={ce.world} value={ce.value}")
    print(json.dumps(models.model_to_dict(ce.model), indent=2))
    return 1


def _cmd_verify(args) -> int:
    # the pinned checklist fixes its own sample counts and seed
    sampling = {k: v for k, v in (("samples", args.samples), ("seed", args.seed)) if v is not None}
    for flag, given, noun in (("--logics", args.logics, "logic"), ("--only", args.only, "criterion")):
        if given is not None and not given.strip():  # not the whole checklist
            raise InputError(f"{flag} names no {noun}")
    if args.logics is not None:
        tokens = tuple(t.strip() for t in args.logics.split(","))
        report = frames.theorem_suite(logic_ids=tokens, five_c_logic_ids=tokens, **sampling)
        for item in report.items:
            status = "PASS" if item.passed else "FAIL"
            print(f"{item.name:<14} {item.description:<55} {status}")
            if item.note:
                print(f"      - {item.note}")
            for ce in item.counterexamples[:3]:
                text = (
                    frames.describe_counterexample(ce)
                    if isinstance(ce, frames.Counterexample)
                    else str(ce)
                )
                print(f"      ! {text}")
        print(f"seed={report.seed}")
        return 0 if report.all_pass else 1
    if sampling:
        raise InputError("--samples and --seed apply only with --logics")
    only = set(x.strip().upper() for x in args.only.split(",")) if args.only is not None else None
    outcomes = verify.run_all(only)
    print(verify.render(outcomes))
    return 0 if all(o.passed for o in outcomes) else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="manylogic",
        description="many-valued modal models over a shared six-value lattice",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("tables", help="print connective truth tables")
    p.add_argument("logic", choices=LOGIC_IDS)
    p.add_argument("--conn", choices=tuple(CONNECTIVES), help="one connective (default: all)")
    p.set_defaults(fn=_cmd_tables)

    p = sub.add_parser("eval", help="evaluate a formula at a world of a model")
    p.add_argument("model", help="model JSON file")
    p.add_argument("--world", required=True)
    p.add_argument("--formula", required=True)
    p.add_argument("--diamond", choices=DIAMOND_VARIANTS, help="override the model's variant")
    p.set_defaults(fn=_cmd_eval)

    p = sub.add_parser("consequence", help="matrix consequence by valuation enumeration")
    p.add_argument("logic", choices=LOGIC_IDS)
    p.add_argument("--premises", default="", help="comma-separated formulas")
    p.add_argument("--conclusion", required=True)
    p.set_defaults(fn=_cmd_consequence)

    p = sub.add_parser("biv-consequence", help="two-valued (clause) consequence")
    p.add_argument("logic", choices=LOGIC_IDS)
    p.add_argument("--premises", default="")
    p.add_argument("--conclusion", required=True)
    p.add_argument("--v14", choices=bivaluations.V14_READINGS, default="printed")
    p.set_defaults(fn=_cmd_biv_consequence)

    p = sub.add_parser("check-frame", help="check an axiom schema on a frame")
    p.add_argument("model", help="frame JSON file")
    p.add_argument("--axiom", required=True, choices=tuple(frames.SCHEMAS))
    p.add_argument("--diamond", choices=DIAMOND_VARIANTS, help="override the frame's variant")
    p.add_argument("--exhaustive", action="store_true")
    p.add_argument("--samples", type=int, help="without --exhaustive only (default 10000)")
    p.add_argument("--seed", type=int, help=f"without --exhaustive only (default {frames.DEFAULT_SEED})")
    p.set_defaults(fn=_cmd_check_frame)

    p = sub.add_parser("verify", help="run the acceptance checklist")
    which = p.add_mutually_exclusive_group()
    which.add_argument("--only", help="comma-separated criterion ids, e.g. AC1,AC7")
    which.add_argument(
        "--logics",
        help="comma list of logic tokens: run the frame-theorem suite over "
        "this subset instead of the pinned checklist",
    )
    p.add_argument("--samples", type=int, help="with --logics only")
    p.add_argument("--seed", type=int, help="with --logics only")
    p.set_defaults(fn=_cmd_verify)

    parser.commands = sub.choices  # name -> subcommand parser, for main
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser every call of main reuses: building one costs more than
    most requests.  Parsing leaves it unchanged."""
    return build_parser()


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = _parser()
    command = parser.commands.get(argv[0]) if argv else None
    if command is None:  # no subcommand first: the top-level parser explains
        args = parser.parse_args(argv)
    else:
        # The subcommand's parser alone classifies its arguments, as the
        # top-level parser would hand them over; what it leaves is the
        # top-level parser's error, as before.
        args, extras = command.parse_known_args(argv[1:])
        if extras:
            parser.error(f"unrecognized arguments: {' '.join(extras)}")
    # The package's own refusals (a budget, an unknown logic, an atom or
    # closure cap, a modal formula where consequence takes none) are bad
    # input as well.
    try:
        return args.fn(args)
    except ManylogicError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
