"""Command-line front end.

Every subcommand prints a tdlab-report/1 JSON document (verify prints a
human summary unless --json is given) and exits 0 when all checks pass,
1 on any failed check, 2 on malformed input, 3 when the only non-pass
statuses are skip/inconclusive, and 4 on an internal error, which prints
one line on stderr and no traceback.
"""

from __future__ import annotations

import argparse
import sys as _sys
from functools import partial

from . import appshell as app
from .scalars import FieldError, PrimeField, RationalField
from .tdcore import PASS, SystemContext, ValidateOptions


def parse_field_spec(text: str):
    if text == "rational":
        return RationalField()
    if text.startswith("p="):
        try:
            return PrimeField(int(text[2:]))
        except (ValueError, FieldError) as err:
            raise app.InputError(f"bad field spec {text!r}: {err}") from err
    raise app.InputError(f"bad field spec {text!r} (expected rational or p=<prime>)")


def _report_doc(field, checks, extra: dict | None = None) -> dict:
    doc = {"format": app.FORMAT_REPORT, "checks": app.checks_to_json(field, checks)}
    if extra:
        for k, v in extra.items():
            doc[k] = app.to_jsonable(field, v)
    return doc


def _emit(doc: dict) -> int:
    _sys.stdout.write(app.dumps_document(doc))
    return app.exit_code_from_checks(doc["checks"])


def _validated(path: str, irreducibility: str | None = None) -> SystemContext:
    sys, assume_note = app.load_system(path)
    typed = irreducibility or ("assume" if assume_note else "auto")
    strategy = "exhaustive_gfp" if typed == "exhaustive" else typed
    ctx = SystemContext(sys, ValidateOptions(irreducibility=strategy, assume_note=assume_note))
    try:
        ctx.report
    except ValueError as err:
        # an infeasible strategy is an input error, named as it was typed
        raise app.InputError(str(err).replace(strategy, typed)) from err
    return ctx


def cmd_verify(args) -> int:
    ctx = _validated(args.file, args.irreducibility)
    report = ctx.report
    doc = _report_doc(ctx.sys.field, report.checks)
    if args.json:
        return _emit(doc)
    for c in report.checks:
        line = f"{c.id}: {c.status}"
        if c.status != PASS and c.witness is not None:
            line += f"  {app.to_jsonable(ctx.sys.field, c.witness)}"
        print(line)
    print(f"overall: {report.overall}")
    if report.shape:
        print(f"shape: {list(report.shape)}  sharp: {report.sharp}")
    return app.exit_code_from_checks(doc["checks"])


def _run_stage(stage, sharp_only: bool, args) -> int:
    """Validate, then run one report stage when validation allows it."""
    ctx = _validated(args.file)
    report = ctx.report
    checks, extra = list(report.checks), {}
    if report.passed() and (report.sharp or not sharp_only):
        stage_checks, extra = stage(ctx)
        checks.extend(stage_checks)
    return _emit(_report_doc(ctx.sys.field, checks, extra))


def _parse_scalar_list(field, text: str):
    items = [t.strip() for t in text.split(",") if t.strip()]
    if not items:
        raise app.InputError("empty scalar list")
    try:
        return tuple(field.parse(t) for t in items)
    except FieldError as err:
        raise app.InputError(str(err)) from err


def cmd_gen(args) -> int:
    field = parse_field_spec(args.field)
    thetas = _parse_scalar_list(field, args.theta)
    thetas_star = _parse_scalar_list(field, args.theta_star)
    phis = _parse_scalar_list(field, args.phi)
    ctx = app.gen_leonard_split(field, thetas, thetas_star, phis)
    doc = app.document_from_system(ctx.sys)
    if args.output:
        try:
            with open(args.output, "w", encoding="utf-8") as fh:
                fh.write(app.dumps_document(doc))
        except OSError as err:
            raise app.InputError(f"cannot write {args.output}: {err.strerror or err}") from err
    extra = {"system": doc} if not args.output else {}
    return _emit(_report_doc(field, ctx.report.checks, extra))


def cmd_fuzz(args) -> int:
    field = parse_field_spec(args.field)
    config = app.RunConfig(seed=args.seed, trials=args.trials, d_max=args.d_max, field=field, jobs=args.jobs)
    return _emit(app.fuzz_run(config, out_dir=args.output))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tdlab",
        description="Exact verification of tridiagonal pairs and systems over Q and GF(p).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify", help="validate a system document")
    p.add_argument("file")
    p.add_argument(
        "--irreducibility",
        choices=["auto", "exhaustive", "assume"],
        default=None,
    )
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_verify)

    for name, stage, sharp_only, text in (
        ("params", app.params_stage, True, "parameter array of a sharp system"),
        ("orbit", app.relations_stage, True, "the suite's relations stage: q-brackets and the eight relatives"),
        ("form", app.form_stage, True, "invariant bilinear form and anti-automorphism"),
        ("conjectures", app.conjectures_stage, False, "subalgebra and corner-algebra checks"),
    ):
        p = sub.add_parser(name, help=text)
        p.add_argument("file")
        p.set_defaults(func=partial(_run_stage, stage, sharp_only))

    p = sub.add_parser("gen", help="construct an instance from split data")
    p.add_argument("kind", choices=["leonard"])
    p.add_argument("--theta", required=True)
    p.add_argument("--theta-star", dest="theta_star", required=True)
    p.add_argument("--phi", required=True)
    p.add_argument("--field", default="rational")
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("fuzz", help="seeded random instance stream with the full identity suite")
    p.add_argument("--trials", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--d-max", dest="d_max", type=int, default=5)
    p.add_argument("--field", default="rational")
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(func=cmd_fuzz)
    return parser


def run(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except app.InputError as err:
        print(f"error: {err}", file=_sys.stderr)
        return 2
    except Exception as err:  # exit code 1 is reserved for a failed check
        print(f"internal error: {type(err).__name__}: {err}", file=_sys.stderr)
        return 4


def main() -> None:
    raise SystemExit(run())


if __name__ == "__main__":
    main()
