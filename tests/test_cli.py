import argparse
import contextlib
import dataclasses
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hull_oracle import block_rows, margin_direction

import optray
import optray.pipeline
from optray.cli import COMMANDS, build_parser, main
from optray.dataset import Dataset, load_csv, save_csv, to_margin_matrix
from optray.decompose import ValidationReport, partition, validate
from optray.errors import LPError
from optray.gd import GDTrace


@pytest.fixture
def mixed_csv(tmp_path):
    path = tmp_path / "mixed.csv"
    assert main(["synth", "--kind", "mixed", "--n-per-class", "6", "--seed", "3", "--out", str(path)]) == 0
    return path


@pytest.fixture
def canonical_csv(tmp_path):
    path = tmp_path / "canonical.csv"
    path.write_text("f1,f2,label\n1,0,1\n0,1,1\n0,1,-1\n")
    return path


def test_synth_deterministic(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    main(["synth", "--kind", "separable", "--n-per-class", "5", "--seed", "1", "--out", str(a)])
    main(["synth", "--kind", "separable", "--n-per-class", "5", "--seed", "1", "--out", str(b)])
    assert a.read_bytes() == b.read_bytes()


def test_decompose_canonical(canonical_csv, tmp_path, capsys):
    out = tmp_path / "dec"
    code = main(["decompose", "--input", str(canonical_csv), "--out", str(out)])
    assert code == 0
    printed = capsys.readouterr().out
    assert "sep=1 sc=2" in printed
    assert "margin=1" in printed
    dec = json.loads((out / "decomposition.json").read_text())
    assert dec["sep_rows"] == [0] and dec["sc_rows"] == [1, 2]
    margin = json.loads((out / "margin.json").read_text())
    assert margin["margin"] == pytest.approx(1.0, abs=1e-9)
    scvx = json.loads((out / "scvx.json").read_text())
    assert scvx["risk_inf"] == pytest.approx(2 * np.log(2) / 3, abs=1e-10)


def test_decompose_separable_has_no_scvx_file(tmp_path):
    out = tmp_path / "dec"
    code = main(
        ["decompose", "--synth-kind", "separable", "--n-per-class", "8", "--seed", "2", "--out", str(out)]
    )
    assert code == 0
    assert (out / "decomposition.json").exists()
    assert (out / "margin.json").exists()
    assert not (out / "scvx.json").exists()


def test_run_deterministic(mixed_csv, tmp_path):
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    argv = ["run", "--input", str(mixed_csv), "--loss", "logistic", "--schedule", "inv_sqrt", "--steps", "500"]
    assert main(argv + ["--out", str(out1)]) == 0
    assert main(argv + ["--out", str(out2)]) == 0
    assert (out1 / "trace.csv").read_bytes() == (out2 / "trace.csv").read_bytes()


def test_run_single_step(canonical_csv, tmp_path):
    out = tmp_path / "r"
    assert main(["run", "--input", str(canonical_csv), "--steps", "1", "--out", str(out)]) == 0
    lines = (out / "trace.csv").read_text().strip().splitlines()
    assert len(lines) == 2  # header + the t=1 checkpoint


def test_verify_canonical_passes(canonical_csv, tmp_path, capsys):
    out = tmp_path / "v"
    code = main(
        ["verify", "--input", str(canonical_csv), "--schedule", "inv_sqrt", "--steps", "2000", "--out", str(out)]
    )
    assert code == 0
    report = json.loads((out / "report.json").read_text())
    assert all(c["holds"] for c in report["checks"] if c["applicable"])
    assert "PASS risk_bound" in capsys.readouterr().out


def test_verify_exit_matches_report_and(canonical_csv, tmp_path):
    out = tmp_path / "v"
    code = main(
        ["verify", "--input", str(canonical_csv), "--schedule", "inv_sqrt", "--steps", "200", "--out", str(out)]
    )
    report = json.loads((out / "report.json").read_text())
    expected = 0 if all(c["holds"] for c in report["checks"] if c["applicable"]) else 1
    assert code == expected


def test_verify_detects_corrupted_trace(canonical_csv, tmp_path, capsys):
    run_out = tmp_path / "r"
    assert main(["run", "--input", str(canonical_csv), "--schedule", "inv_sqrt", "--steps", "500", "--out", str(run_out)]) == 0
    # inject a risk increase into the stored per-step series, at a step that
    # no checkpoint records (step 50 is one, and trace.json's copy of its risk
    # would then disagree: test_verify_rejects_trace_copies_that_disagree)
    steps = np.load(run_out / "steps.npz")
    risk = steps["risk_steps"].copy()
    risk[51] *= 1.05
    np.savez_compressed(run_out / "steps.npz", risk_steps=risk, rel_steps=steps["rel_steps"], eff_steps=steps["eff_steps"])
    out = tmp_path / "v"
    code = main(
        [
            "verify", "--input", str(canonical_csv), "--schedule", "inv_sqrt", "--steps", "500",
            "--trace-dir", str(run_out), "--out", str(out),
        ]
    )
    assert code == 1
    err = capsys.readouterr().err
    assert "smoothness" in err


DERIVED = (
    "risk",
    "grad_norm",
    "rel_grad",
    "eff_step",
    "norm_w",
    "proj_perp_norm",
    "dir",
    "sum_eta",
    "sum_eff_grad",
    "sum_tele",
)


def test_derived_columns_are_the_trace_fields_not_passed_in():
    assert tuple(f.name for f in dataclasses.fields(GDTrace) if not f.init) == DERIVED


def _move_derived(name):
    # the column at the last checkpoint of trace.json, dir in its first
    # coordinate
    def edit(run_out):
        path = run_out / "trace.json"
        data = json.loads(path.read_text())
        rec = data["checkpoints"][-1]
        if name == "dir":
            rec[name][0] += 1.0
        else:
            rec[name] += 1.0
        path.write_text(json.dumps(data))

    return edit


def _edit_steps(run_out, edit):
    steps = dict(np.load(run_out / "steps.npz"))
    edit(steps)
    np.savez(run_out / "steps.npz", **steps)


def _scale_step_50(steps):
    steps["risk_steps"][50] *= 1.05


def _truncate(steps):
    for name in steps:
        steps[name] = steps[name][:100]


def _cut_rel_steps(steps):
    steps["rel_steps"] = steps["rel_steps"][:500]


def _edit_meta(run_out, **values):
    path = run_out / "trace.json"
    data = json.loads(path.read_text())
    data["meta"].update(values)
    path.write_text(json.dumps(data))


def _halve_risk(run_out):
    # halve the risk and the effective step in steps.npz; the trace derives
    # every column that from_files compares again, so the two files agree,
    # but not with the data (the risk at step 0 reads ln 2 / 2)
    trace = GDTrace.from_files(run_out / "trace.json", run_out / "steps.npz")
    halved = dataclasses.replace(trace, risk_steps=trace.risk_steps / 2, eff_steps=trace.eff_steps / 2)
    halved.to_json(run_out / "trace.json")
    halved.save_steps(run_out / "steps.npz")


@pytest.mark.parametrize(
    "edit, message",
    [
        *((_move_derived(name), f"trace.json: {name} does not match") for name in DERIVED),
        (lambda out: _edit_steps(out, _scale_step_50), "does not match"),
        (lambda out: _edit_steps(out, _truncate), "outside the steps"),
        (_halve_risk, "differs from this data's"),
        (lambda out: _edit_steps(out, _cut_rel_steps), "not 1-D arrays of one length"),
        (lambda out: _edit_meta(out, T=400), "status 'ok' and T 400 contradict 3001 steps"),
        (lambda out: _edit_meta(out, status="overflow"), "status 'overflow' and T 3000 contradict"),
        (lambda out: _edit_meta(out, status="done"), "status 'done' is neither"),
    ],
    ids=[
        *(f"trace_json_{name}" for name in DERIVED),
        "steps_at_a_checkpoint", "steps_truncated", "risk_halved_in_both",
        "rel_steps_cut", "T_below_last_checkpoint", "overflow_at_T", "unknown_status",
    ],
)
def test_verify_rejects_trace_copies_that_disagree(edit, message, tmp_path, capsys):
    # the derived columns follow from the iterates and steps.npz; a
    # trace.json that disagrees with them is an input error, whichever file
    # was edited, and so are files that contradict each other and a risk
    # that disagrees with the data
    flags = ["--synth-kind", "mixed", "--seed", "1", "--loss", "logistic", "--schedule", "inv_sqrt"]
    run_out = tmp_path / "r"
    assert main(["run", *flags, "--steps", "3000", "--out", str(run_out)]) == 0
    assert main(["verify", *flags, "--steps", "3000", "--out", str(tmp_path / "direct")]) == 0
    replay = ["verify", *flags, "--trace-dir", str(run_out)]
    assert main([*replay, "--out", str(tmp_path / "replay")]) == 0
    report = (tmp_path / "replay" / "report.json").read_bytes()
    assert report == (tmp_path / "direct" / "report.json").read_bytes()
    edit(run_out)
    capsys.readouterr()
    assert main([*replay, "--out", str(tmp_path / "edited")]) == 2
    assert message in capsys.readouterr().err


@pytest.fixture
def exponential_trace(tmp_path):
    """Trace recorded with the exponential loss on synthetic mixed data, seed 0."""
    out = tmp_path / "r"
    argv = ["run", "--synth-kind", "mixed", "--seed", "0", "--loss", "exponential",
            "--schedule", "inv_sqrt", "--steps", "300", "--out", str(out)]
    assert main(argv) == 0
    return out


def test_verify_trace_needs_no_steps(exponential_trace, tmp_path):
    base = ["verify", "--synth-kind", "mixed", "--seed", "0", "--loss", "exponential",
            "--schedule", "inv_sqrt", "--out", str(tmp_path / "v")]
    assert main(base + ["--trace-dir", str(exponential_trace)]) == 0
    assert main(base) == 2


@pytest.mark.parametrize(
    "flags, named",
    [
        (["--synth-kind", "mixed", "--seed", "0", "--loss", "logistic"], None),
        (["--synth-kind", "separable", "--seed", "3", "--loss", "exponential"], None),
        (["--synth-kind", "mixed", "--seed", "0", "--loss", "exponential",
          "--schedule", "constant_one"], "schedule 'inv_sqrt', this run has 'constant_one'"),
        (["--synth-kind", "mixed", "--seed", "0", "--loss", "exponential",
          "--steps", "50"], "steps 300, this run has 50"),
        (["--synth-kind", "mixed", "--seed", "0", "--loss", "exponential",
          "--checkpoints-per-decade", "2"],
         "with 40 checkpoints, this run's --checkpoints-per-decade 2 gives 6"),
    ],
    ids=["wrong_loss", "wrong_data", "wrong_schedule", "wrong_steps", "wrong_checkpoints_per_decade"],
)
def test_verify_rejects_trace_of_other_inputs(flags, named, exponential_trace, tmp_path, capsys):
    # flags come last, so that theirs override the trace's schedule and steps
    argv = ["verify", "--schedule", "inv_sqrt", "--steps", "300", *flags,
            "--trace-dir", str(exponential_trace), "--out", str(tmp_path / "v")]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert "trace was recorded with" in err
    assert named is None or named in err
    assert not (tmp_path / "v").exists()


def test_verify_separable_unit_steps(tmp_path):
    out = tmp_path / "v"
    code = main(
        [
            "verify", "--synth-kind", "separable", "--n-per-class", "10", "--seed", "1",
            "--loss", "exponential", "--schedule", "constant_one", "--steps", "100000",
            "--out", str(out),
        ]
    )
    assert code == 0


@pytest.fixture
def failing_self_check(monkeypatch):
    monkeypatch.setattr(
        optray.pipeline,
        "validate",
        lambda dec, A, direction: ValidationReport({"certificate": (False, 1.0)}),
    )


@pytest.mark.parametrize("command", ["run", "verify"])
def test_failed_self_check_aborts(command, failing_self_check, canonical_csv, tmp_path, capsys):
    out = tmp_path / "o"
    code = main([command, "--input", str(canonical_csv), "--steps", "200", "--out", str(out)])
    assert code == 3
    assert "decomposition self-check FAILED: certificate slack 1\n" in capsys.readouterr().err
    assert not out.exists()


def test_decompose_exits(failing_self_check, canonical_csv, tmp_path, capsys):
    # decompose writes its files before the self-check, so a failed check
    # still leaves them; an input error comes before the output directory
    out = tmp_path / "o"
    assert main(["decompose", "--input", str(canonical_csv), "--out", str(out)]) == 3
    assert "decomposition self-check FAILED: certificate slack 1\n" in capsys.readouterr().err
    assert (out / "decomposition.json").is_file()
    missing = tmp_path / "missing"
    assert main(["decompose", "--out", str(missing)]) == 2
    assert not missing.exists()


def test_decompose_subnormal_row(tmp_path, capsys):
    # rows 2 and 3 are opposite, so no row is separable; a cone test that
    # stops on the subnormal row calls row 2 separable, and the margin solve
    # then finds no margin (exit 3)
    path, out = tmp_path / "sub.csv", tmp_path / "o"
    path.write_text("f1,label\n1e-313,1\n-1.0,1\n0.1,1\n")
    assert main(["decompose", "--input", str(path), "--out", str(out)]) == 0
    assert capsys.readouterr().out.startswith("sep=0 sc=3 rank_s=1\n")


def test_decompose_passes_self_check_on_former_lp_fault_instance(tmp_path):
    # d = 6, 50 separable rows and a remainder of rank 3: the simplex behind the
    # former certificate check returned an infeasible point here, and decompose
    # exited 3
    rows = block_rows(6, 3, 50, 30, 8)
    path, out = tmp_path / "block6.csv", tmp_path / "o"
    save_csv(Dataset(-rows, np.ones(rows.shape[0], dtype=np.int64)), path)
    assert main(["decompose", "--input", str(path), "--out", str(out)]) == 0
    A = to_margin_matrix(load_csv(path))
    split = partition(A)
    assert validate(split, A, margin_direction(split)).ok
    dec = json.loads((out / "decomposition.json").read_text())
    assert dec["sep_rows"] == list(range(50))
    assert np.array(dec["basis_s"]).shape == (6, 3)


def test_numeric_abort_in_decompose_leaves_output_dir(canonical_csv, tmp_path, monkeypatch):
    def fail(A):
        raise LPError("simplex returned an infeasible point")

    monkeypatch.setattr(optray.pipeline, "partition", fail)
    out = tmp_path / "o"
    assert main(["decompose", "--input", str(canonical_csv), "--out", str(out)]) == 3
    assert out.is_dir()


def test_empty_input_is_input_error(tmp_path, capsys):
    empty = tmp_path / "empty.csv"
    empty.write_text("")
    code = main(["decompose", "--input", str(empty), "--out", str(tmp_path / "o")])
    assert code == 2


def test_missing_input_flag_is_input_error(tmp_path):
    assert main(["decompose", "--out", str(tmp_path / "o")]) == 2


@pytest.mark.parametrize(
    "command",
    [
        ["synth", "--kind", "mixed"],
        ["decompose", "--synth-kind", "mixed"],
        ["run", "--synth-kind", "mixed", "--steps", "10"],
        ["verify", "--synth-kind", "mixed", "--steps", "10"],
    ],
    ids=["synth", "decompose", "run", "verify"],
)
def test_negative_seed_is_input_error(command, tmp_path, capsys):
    assert main([*command, "--seed", "-1", "--out", str(tmp_path / "o")]) == 2
    assert "input error: seed must be >= 0" in capsys.readouterr().err


@pytest.mark.parametrize(
    "command", [["decompose"], ["verify", "--steps", "100"]], ids=["decompose", "verify"]
)
def test_non_finite_input_is_input_error(command, tmp_path, capsys):
    path = tmp_path / "nan.csv"
    path.write_text("f1,f2,label\n1,0,1\nnan,1,1\n0,1,-1\n")
    code = main([*command, "--input", str(path), "--out", str(tmp_path / "o")])
    assert code == 2
    assert "finite" in capsys.readouterr().err


@pytest.mark.parametrize(
    "command", [["verify", "--steps", "300"], ["decompose"]], ids=["verify", "decompose"]
)
def test_runs_without_scipy(command, tmp_path):
    # the package declares numpy as its only runtime dependency
    script = (
        "import sys; sys.modules['scipy'] = None; from optray.cli import main; "
        "sys.exit(main(sys.argv[1:]))"
    )
    argv = [*command, "--synth-kind", "mixed", "--out", str(tmp_path / "o")]
    env = dict(os.environ, PYTHONPATH=str(Path(optray.__file__).resolve().parents[1]))
    proc = subprocess.run([sys.executable, "-c", script, *argv], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


def test_report_pretty_print(canonical_csv, tmp_path, capsys):
    out = tmp_path / "v"
    main(["verify", "--input", str(canonical_csv), "--schedule", "inv_sqrt", "--steps", "200", "--out", str(out)])
    capsys.readouterr()
    assert main(["report", "--report", str(out / "report.json")]) == 0
    printed = capsys.readouterr().out
    assert "risk_bound" in printed and "loss=logistic" in printed


def _cut(path, size):
    path.write_bytes(path.read_bytes()[:size])


def _drop_key(path, *keys):
    data = json.loads(path.read_text())
    inner = data
    for key in keys[:-1]:
        inner = inner[key]
    del inner[keys[-1]]
    path.write_text(json.dumps(data))


def _bad_report(edit):
    def prepare(tmp_path):
        out = tmp_path / "v"
        argv = ["verify", "--synth-kind", "mixed", "--steps", "200", "--out", str(out)]
        assert main(argv) == 0
        edit(out / "report.json")
        return ["report", "--report", str(out / "report.json")]

    return prepare


def _bad_trace(edit):
    def prepare(tmp_path):
        flags = ["--synth-kind", "mixed", "--seed", "0"]
        run_out = tmp_path / "r"
        assert main(["run", *flags, "--steps", "300", "--out", str(run_out)]) == 0
        edit(run_out)
        return ["verify", *flags, "--trace-dir", str(run_out), "--out", str(tmp_path / "v")]

    return prepare


def _bad_csv(content):
    def prepare(tmp_path):
        path = tmp_path / "bad.csv"
        path.write_bytes(content)
        return ["decompose", "--input", str(path), "--out", str(tmp_path / "o")]

    return prepare


def _npy_steps(out):
    np.save(out / "steps.npy", np.zeros(3))
    (out / "steps.npy").replace(out / "steps.npz")


def _out_is_file(tmp_path):
    (tmp_path / "file").touch()
    return ["decompose", "--synth-kind", "mixed", "--out", str(tmp_path / "file")]


def _out_under_file(tmp_path):
    (tmp_path / "file").touch()
    return ["run", "--synth-kind", "mixed", "--steps", "10", "--out", str(tmp_path / "file" / "x")]


@pytest.mark.parametrize(
    "prepare",
    [
        _bad_report(lambda path: _cut(path, 300)),
        _bad_report(lambda path: _drop_key(path, "meta")),
        _bad_report(lambda path: path.write_text("[1]")),
        _bad_trace(lambda out: _cut(out / "trace.json", 300)),
        _bad_trace(lambda out: _drop_key(out / "trace.json", "meta", "schedule")),
        _bad_trace(lambda out: _edit_meta(out, T="300")),
        _bad_trace(lambda out: (out / "steps.npz").write_text("not an archive\n")),
        _bad_trace(lambda out: _cut(out / "steps.npz", 0)),
        _bad_trace(lambda out: _cut(out / "steps.npz", 200)),
        _bad_trace(_npy_steps),
        _bad_csv(b"f1,label\n\xff,1\n"),
        _bad_csv(b"f1,label\n" + b"1" * 200_000 + b",1\n"),
        lambda tmp_path: ["decompose", "--input", str(tmp_path), "--out", str(tmp_path / "o")],
        _out_is_file,
        _out_under_file,
    ],
    ids=[
        "report_truncated", "report_without_meta", "report_not_an_object",
        "trace_json_truncated", "trace_without_schedule", "trace_T_not_an_integer",
        "steps_not_npz", "steps_empty",
        "steps_truncated", "steps_npy", "csv_not_utf8", "csv_field_too_long",
        "input_is_directory", "out_is_a_file", "out_under_a_file",
    ],
)
def test_malformed_input_or_path_is_input_error(prepare, tmp_path):
    # a file that cannot be read as what it names, or an output path that
    # cannot be a directory, exits 2 with a message and no traceback
    argv = prepare(tmp_path)
    env = dict(os.environ, PYTHONPATH=str(Path(optray.__file__).resolve().parents[1]))
    proc = subprocess.run(
        [sys.executable, "-m", "optray.cli", *argv], env=env, capture_output=True, text=True
    )
    assert proc.returncode == 2, proc.stderr
    assert "input error" in proc.stderr
    assert "Traceback" not in proc.stderr
    assert proc.stdout == ""


def _parse(parser, argv):
    """(Namespace or None, stdout, stderr, exit code) of parser.parse_args(argv)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            args, code = parser.parse_args(argv), None
        except SystemExit as exc:
            args, code = None, exc.code
    return args, out.getvalue(), err.getvalue(), code


@pytest.mark.parametrize(
    "argv",
    [
        [],
        ["-h"],
        ["bogus"],
        ["report"],
        ["run", "--input", "x"],
        ["decompose", "-h"],
        ["verify", "-h"],
        ["decompose", "--out", "o", "--bogus"],
        ["synth", "--kind", "mixed", "--n-per-class", "3", "--seed", "4", "--out", "x.csv"],
        ["decompose", "--input", "x.csv", "--loss", "exponential", "--out", "o"],
        ["run", "--synth-kind", "overlap", "--schedule", "constant_one", "--steps", "9", "--out", "o"],
        ["verify", "--input", "x.csv", "--steps", "5", "--checkpoints-per-decade", "3",
         "--trace-dir", "r", "--out", "o"],
        ["report", "--report", "r.json"],
    ],
    ids=[
        "no_arguments", "help", "bogus", "report_without_flags", "run_without_flags",
        "decompose_help", "verify_help", "unrecognized_flag",
        "synth", "decompose", "run", "verify", "report",
    ],
)
def test_parser_of_one_command_parses_as_the_full_tree(argv, monkeypatch):
    # main builds only the invoked command's subparser; every Namespace,
    # help, usage and error text matches the parser that holds all five
    monkeypatch.setenv("COLUMNS", "80")
    full = _parse(build_parser(), argv)
    assert _parse(build_parser(argv[0] if argv else None), argv) == full


def test_parser_of_one_command_holds_one_subparser():
    (sub,) = (a for a in build_parser("decompose")._actions if isinstance(a, argparse._SubParsersAction))
    assert list(sub.choices) == ["decompose"]
    (full,) = (a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    assert list(full.choices) == list(COMMANDS)
