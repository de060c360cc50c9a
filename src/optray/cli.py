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
from .gd import BALL_TOL, LOSS_CODES, SCHED_CODES, GDTrace, run
from .margin import DEFAULT_GAP_TOL
from .pipeline import analyze
from .strongconvex import GRAD_TOL

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
    return ds, analyze(matrix, args.loss, margin_tol=args.tol_margin, scvx_tol=args.tol_scvx)


def cmd_synth(args) -> int:
    ds = synth(args.kind, args.n_per_class, args.seed)
    save_csv(ds, args.out)
    print(f"wrote {args.out}: n={ds.n} d={ds.d} kind={args.kind} seed={args.seed}")
    return EXIT_OK


def _self_check_failed(structure) -> bool:
    if structure.validation.ok:
        return False
    print("decomposition self-check FAILED", file=sys.stderr)
    return True


def cmd_decompose(args) -> int:
    _, structure = _analyze(args, make_out=True)
    out = Path(args.out)
    with open(out / "decomposition.json", "w") as fh:
        json.dump(structure.dec.to_dict(), fh, indent=1)
    if structure.margin_sol is not None:
        with open(out / "margin.json", "w") as fh:
            json.dump(structure.margin_sol.to_dict(), fh, indent=1)
    if structure.dec.rank_s > 0:
        with open(out / "scvx.json", "w") as fh:
            json.dump(structure.sc_opt.to_dict(), fh, indent=1)
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


def _check_trace_inputs(trace: GDTrace, digest: str, loss: str, structure) -> None:
    """Reject a saved trace that was recorded on other data or another loss."""
    found = {
        "dataset digest": (trace.digest, digest),
        "loss": (trace.loss, loss),
        "n": (trace.n, structure.n),
        "sep_rows": (trace.sep_rows.tolist(), structure.dec.sep_rows.tolist()),
    }
    for name, (recorded, expected) in found.items():
        if recorded != expected:
            raise ValidationError(
                f"trace was recorded with {name} {recorded!r}, this run has {expected!r}"
            )


def cmd_verify(args) -> int:
    ds, structure = _analyze(args)
    if _self_check_failed(structure):
        return EXIT_NUMERIC
    if args.trace_dir:
        tdir = Path(args.trace_dir)
        trace = GDTrace.from_files(tdir / "trace.json", tdir / "steps.npz")
        _check_trace_inputs(trace, ds.digest(), args.loss, structure)
    else:
        trace = _run_trace(args, structure)
    results, trends = verify_mod.run_checks(trace, structure, ball_tol=args.tol_ball)
    tolerances = {
        "margin": args.tol_margin,
        "scvx": args.tol_scvx,
        "ball": args.tol_ball,
        "numeric_atol": verify_mod.NUMERIC_ATOL,
        "numeric_rtol": verify_mod.NUMERIC_RTOL,
    }
    meta = verify_mod.report_meta(trace, structure, ds.digest(), tolerances)
    report = verify_mod.build_report(results, trends, meta)
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


def cmd_report(args) -> int:
    with open(args.report) as fh:
        data = json.load(fh)
    meta = data["meta"]
    print(
        f"dataset={meta['digest']} loss={meta['loss']} schedule={meta['schedule']} "
        f"T={meta['T']} n={meta['n']}"
    )
    for c in data["checks"]:
        status = "PASS" if c["holds"] else "FAIL"
        if not c.get("applicable", True):
            status = "N/A "
        note = f"  ({c['note']})" if c.get("note") else ""
        print(f"{status} {c['name']:<20} worst_slack={_fmt(c['worst_slack'])}{note}")
    for t in data.get("trends", []):
        print(
            f"TREND {t['name']:<18} coeff={_fmt(t['coefficient'])} "
            f"exponent={_fmt(t['exponent'])} residual={_fmt(t['residual'])}"
        )
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="optray")
    sub = p.add_subparsers(dest="command", required=True)

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
        pp = sub.add_parser(name)
        _add_input_flags(pp)
        pp.add_argument("--loss", choices=tuple(LOSS_CODES), default="logistic")
        pp.add_argument("--tol-margin", type=float, default=DEFAULT_GAP_TOL)
        pp.add_argument("--tol-scvx", type=float, default=GRAD_TOL)
        pp.add_argument("--out", required=True)
        if needs_sched:
            pp.add_argument("--schedule", choices=tuple(SCHED_CODES), default="inv_sqrt")
            # verify reads the step count from --trace-dir when given
            pp.add_argument("--steps", type=int, required=name == "run")
            pp.add_argument("--checkpoints-per-decade", type=int, default=20)
        if name == "verify":
            pp.add_argument("--trace-dir", help="reuse a saved trace instead of re-running")
            pp.add_argument("--tol-ball", type=float, default=BALL_TOL)
        pp.set_defaults(fn=fn)

    pr = sub.add_parser("report", help="pretty-print a report.json")
    pr.add_argument("--report", required=True)
    pr.set_defaults(fn=cmd_report)
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (ParseError, ValidationError, DegenerateDataError, FileNotFoundError) as exc:
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
