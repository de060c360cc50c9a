"""Command-line front end: synth, decompose, run, verify, report.

Exit codes: 0 ok, 1 verification check failed, 2 input error, 3 numeric abort.
"""

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from . import dataset as ds_mod
from . import verify as verify_mod
from .dataset import SYNTH_KINDS, load_csv, normalize, save_csv, synth, to_margin_matrix
from .errors import (
    ConvergenceError,
    DegenerateDataError,
    LPError,
    NumericalError,
    OptrayError,
    ParseError,
    ValidationError,
)
from .gd import DEFAULT_PER_DECADE, LOSS_CODES, SCHED_CODES, GDTrace, checkpoint_times, risk, run
from .jsonio import write_json
from .pipeline import analyze

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_INPUT = 2
EXIT_NUMERIC = 3


def _fmt(x: float) -> str:
    return f"{x:.17g}"


def _add_input_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--input", help="CSV dataset (header f1,...,fd,label)")
    p.add_argument("--synth-kind", choices=SYNTH_KINDS, help="generate a synthetic dataset")
    p.add_argument("--n-per-class", type=int, default=20)
    p.add_argument("--seed", type=int, default=0)


def _load_dataset(args) -> ds_mod.Dataset:
    if args.input:
        return normalize(load_csv(args.input))
    if args.synth_kind:
        return synth(args.synth_kind, args.n_per_class, args.seed)
    raise ValidationError("provide --input or --synth-kind")


def _outdir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _analyze(args, make_out: bool = False):
    """Load the dataset and analyze it; returns (dataset, structure).  make_out
    makes the output directory after loading, so an input error makes none
    and a numeric abort in the analysis leaves it."""
    ds = _load_dataset(args)
    matrix = to_margin_matrix(ds)
    if make_out:
        _outdir(args)
    return ds, analyze(matrix, args.loss)


def cmd_synth(args) -> int:
    ds = synth(args.kind, args.n_per_class, args.seed)
    save_csv(ds, args.out)
    print(f"wrote {args.out}: n={ds.n} d={ds.d} kind={args.kind} seed={args.seed}")
    return EXIT_OK


def _self_check_failed(structure) -> bool:
    if structure.validation.ok:
        return False
    failed = (
        f"{name} slack {_fmt(slack)}"
        for name, (ok, slack) in structure.validation.checks.items()
        if not ok
    )
    print("decomposition self-check FAILED: " + ", ".join(failed), file=sys.stderr)
    return True


def cmd_decompose(args) -> int:
    _, structure = _analyze(args, make_out=True)
    out = Path(args.out)
    write_json(out / "decomposition.json", structure.dec)
    if structure.margin_sol is not None:
        write_json(out / "margin.json", structure.margin_sol)
    if structure.dec.rank_s > 0:
        write_json(out / "scvx.json", structure.sc_opt)
    vnorm = float(np.linalg.norm(structure.offset))
    print(f"sep={structure.n_sep} sc={structure.dec.sc_rows.size} rank_s={structure.dec.rank_s}")
    print(f"margin={_fmt(structure.gamma) if structure.margin_sol else 'n/a'}")
    print(f"offset_norm={_fmt(vnorm)} inf_risk={_fmt(structure.inf_risk)}")
    if _self_check_failed(structure):
        return EXIT_NUMERIC
    return EXIT_OK


def _run_trace(args, structure) -> GDTrace:
    if args.steps is None:
        raise ValidationError("provide --steps or --trace-dir")
    return run(
        structure.matrix,
        args.loss,
        args.schedule,
        args.steps,
        checkpoints_per_decade=args.checkpoints_per_decade,
        sep_rows=structure.dec.sep_rows,
        basis_s=structure.dec.basis_s,
    )


def cmd_run(args) -> int:
    ds, structure = _analyze(args)
    if _self_check_failed(structure):
        return EXIT_NUMERIC
    trace = _run_trace(args, structure)
    trace.digest = ds.digest()
    out = _outdir(args)
    trace.to_csv(out / "trace.csv")
    trace.to_json(out / "trace.json")
    trace.save_steps(out / "steps.npz")
    print(f"wrote {out}/trace.csv ({trace.k} checkpoints, status={trace.status})")
    if trace.status != "ok":
        print(f"aborted at step {trace.ts[-1]}: risk left the float64 range", file=sys.stderr)
        return EXIT_NUMERIC
    return EXIT_OK


def _check_trace_inputs(trace: GDTrace, digest: str, args, structure) -> None:
    """Reject a saved trace that was recorded on other data, with another
    loss, schedule or checkpoints per decade (each flag's default included)
    or, when --steps is given, another step count, or whose risk at w_0 = 0
    or at a checkpoint iterate differs from this data's by more than n eps R:
    the descent loop adds the same n positive loss terms as gd.risk in
    another order, which moves the sum by less."""
    found = {
        "dataset digest": (trace.digest, digest),
        "loss": (trace.loss, args.loss),
        "schedule": (trace.schedule, args.schedule),
        "n": (trace.n, structure.n),
        "sep_rows": (trace.sep_rows.tolist(), structure.dec.sep_rows.tolist()),
    }
    if args.steps is not None:
        found["steps"] = (trace.T, args.steps)
    for name, (recorded, expected) in found.items():
        if recorded != expected:
            raise ValidationError(
                f"trace was recorded with {name} {recorded!r}, this run has {expected!r}"
            )
    # the checkpoints of T steps, up to the last step the trace holds
    want = checkpoint_times(trace.T, args.checkpoints_per_decade)
    want = want[want < trace.risk_steps.size]
    if not np.array_equal(trace.ts, want):
        raise ValidationError(
            f"trace was recorded with {trace.k} checkpoints, this run's "
            f"--checkpoints-per-decade {args.checkpoints_per_decade} gives {want.size}"
        )
    ts = [0, *trace.ts.tolist()]
    for t, w, recorded in zip(ts, [np.zeros(trace.d), *trace.w], trace.risk_steps[ts]):
        actual = risk(structure.matrix, args.loss, w)
        if not abs(recorded - actual) <= structure.n * np.finfo(float).eps * actual:
            raise ValidationError(
                f"trace risk {recorded:.17g} at step {t} differs from this data's {actual:.17g}"
            )


def cmd_verify(args) -> int:
    ds, structure = _analyze(args)
    if _self_check_failed(structure):
        return EXIT_NUMERIC
    if args.trace_dir:
        tdir = Path(args.trace_dir)
        trace = GDTrace.from_files(tdir / "trace.json", tdir / "steps.npz")
        _check_trace_inputs(trace, ds.digest(), args, structure)
    else:
        trace = _run_trace(args, structure)
    meta = verify_mod.report_meta(trace, structure, ds.digest())
    report = verify_mod.VerificationReport(meta, *verify_mod.run_checks(trace, structure))
    out = _outdir(args)
    report.to_json(out / "report.json")
    for c in report.checks:
        status = "PASS" if c.holds else "FAIL"
        if not c.applicable:
            status = "N/A "
        print(f"{status} {c.name:<20} worst_slack={_fmt(c.worst_slack)} at={c.location}")
    if not report.ok:
        print("failed checks: " + ", ".join(report.failed_names()), file=sys.stderr)
        return EXIT_CHECK_FAILED
    return EXIT_OK


def _report_lines(data: dict) -> list:
    meta = data["meta"]
    lines = [
        f"dataset={meta['digest']} loss={meta['loss']} schedule={meta['schedule']} "
        f"T={meta['T']} n={meta['n']}"
    ]
    for c in data["checks"]:
        status = "PASS" if c["holds"] else "FAIL"
        if not c.get("applicable", True):
            status = "N/A "
        note = f"  ({c['note']})" if c.get("note") else ""
        lines.append(f"{status} {c['name']:<20} worst_slack={_fmt(c['worst_slack'])}{note}")
    for t in data.get("trends", []):
        lines.append(
            f"TREND {t['name']:<18} coeff={_fmt(t['coefficient'])} "
            f"exponent={_fmt(t['exponent'])} residual={_fmt(t['residual'])}"
        )
    return lines


def cmd_report(args) -> int:
    # every line is formatted before the first is printed, so a malformed
    # report prints nothing on stdout
    try:
        with open(args.report) as fh:
            lines = _report_lines(json.load(fh))
    except (ValueError, KeyError, TypeError) as exc:
        raise ParseError(f"{args.report}: not a report.json ({type(exc).__name__}: {exc})") from None
    print("\n".join(lines))
    return EXIT_OK


COMMANDS = ("synth", "decompose", "run", "verify", "report")


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The argument parser.  When command names one of COMMANDS it gets only
    that command's subparser, since a run parses one command and building
    the other four costs more than the parse; otherwise (no arguments, -h,
    a mistyped command) it gets all five.  Either way every usage, help and
    error text is the same."""
    wanted = (command,) if command in COMMANDS else COMMANDS
    p = argparse.ArgumentParser(prog="optray")
    # with one subparser the usage line of an error still lists all five;
    # the full tree keeps argparse's own name for the argument, "command"
    metavar = "{" + ",".join(COMMANDS) + "}" if len(wanted) == 1 else None
    sub = p.add_subparsers(dest="command", required=True, metavar=metavar)

    if "synth" in wanted:
        ps = sub.add_parser("synth", help="write a synthetic dataset as CSV")
        ps.add_argument("--kind", choices=SYNTH_KINDS, required=True)
        ps.add_argument("--n-per-class", type=int, default=20)
        ps.add_argument("--seed", type=int, default=0)
        ps.add_argument("--out", required=True)
        ps.set_defaults(fn=cmd_synth)

    for name, fn, needs_sched in (
        ("decompose", cmd_decompose, False),
        ("run", cmd_run, True),
        ("verify", cmd_verify, True),
    ):
        if name not in wanted:
            continue
        pp = sub.add_parser(name)
        _add_input_flags(pp)
        pp.add_argument("--loss", choices=tuple(LOSS_CODES), default="logistic")
        pp.add_argument("--out", required=True)
        if needs_sched:
            pp.add_argument("--schedule", choices=tuple(SCHED_CODES), default="inv_sqrt")
            # verify reads the step count from --trace-dir when given
            pp.add_argument("--steps", type=int, required=name == "run")
            pp.add_argument("--checkpoints-per-decade", type=int, default=DEFAULT_PER_DECADE)
        if name == "verify":
            pp.add_argument("--trace-dir", help="reuse a saved trace instead of re-running")
        pp.set_defaults(fn=fn)

    if "report" in wanted:
        pr = sub.add_parser("report", help="pretty-print a report.json")
        pr.add_argument("--report", required=True)
        pr.set_defaults(fn=cmd_report)
    return p


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    args = build_parser(argv[0] if argv else None).parse_args(argv)
    try:
        return args.fn(args)
    except (ParseError, ValidationError, DegenerateDataError, OSError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except (NumericalError, ConvergenceError, LPError) as exc:
        print(f"numeric abort: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except OptrayError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
