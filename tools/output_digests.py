"""Print what the benchmark's jobs write, so two checkouts compare with one diff.

Builds the jobs of CHECKOUT/perfbench/inputs.py (``inputs.build``, its CSV
inputs written under SCRATCH), runs each once through ``optray.cli.main``
from CHECKOUT/src, and prints per job its exit code, its standard output and
error with SCRATCH stripped, and its output files: each .json file line by
line, each line prefixed with the file's name, so that a diff names the
values that moved, and a sha256 of every other file (.npz files by the bytes
of their arrays, since the archive stores write times).  Comparing a parent
with a change:

    python3 tools/output_digests.py PARENT SCRATCH/a > a.txt
    python3 tools/output_digests.py .      SCRATCH/b > b.txt
    diff a.txt b.txt

The listing's first line names the BLAS that numpy links and the CPU core
whose kernels it chose at run time ("unknown" where the library does not
say): a product may round differently on another core, so the same bytes
are expected only of two listings whose first lines match.

By default all three workloads run at seeds 1 and 2: 60 jobs.  After each
``run`` job (long_run), ``verify --trace-dir`` replays the trace it saved
and its report is printed: 4 jobs, which read the benchmark's own traces
back through ``GDTrace.from_files``.  Two more
``verify`` jobs always run, on CSVs the script writes under SCRATCH, since
no benchmark job reaches the direction check's warm start (it reads N/A
there): two unit rows labelled +1 at 1e5 steps, where the check applies and
compares checkpoints, and one row at 5 steps, where only the last checkpoint
qualifies.  Last come the help and usage texts: exit code, standard
output and error of ``optray -h``, of ``optray COMMAND -h`` for each of the
five commands, of ``optray`` with no arguments, of ``optray bogus`` and of an
unrecognized flag, formatted for 80 columns.
"""

import os

# one BLAS/OpenMP thread, fixed before numpy loads, as perfbench/run.py does
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
# argparse wraps help and usage to the terminal's width
os.environ["COLUMNS"] = "80"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

WORKLOADS = ("verify_grid", "long_run", "structure")
# written out, not read from optray.cli, so that older checkouts run too
COMMANDS = ("synth", "decompose", "run", "verify", "report")
# argument lists whose help, usage or error text is printed
CLI_TEXTS = (
    ["-h"],
    *([command, "-h"] for command in COMMANDS),
    [],
    ["bogus"],
    ["decompose", "--out", "o", "--bogus"],
)
# (name, CSV text, loss, schedule, steps) of the jobs past the warm start
DIRECTION_JOBS = (
    ("two-axis", "f1,f2,label\n1,0,1\n0,1,1\n", "exponential", "constant_one", 100_000),
    ("one-row", "f1,label\n1,1\n", "logistic", "constant_one", 5),
)


def blas_line() -> str:
    """The BLAS build numpy links and its run-time core: the bundled
    OpenBLAS names the core through scipy_openblas_get_corename64_."""
    import ctypes

    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"].get("blas", {})
    core = "unknown"
    try:
        corename = ctypes.CDLL(np._core._multiarray_umath.__file__).scipy_openblas_get_corename64_
    except (OSError, AttributeError):
        pass
    else:
        corename.argtypes = []
        corename.restype = ctypes.c_char_p
        core = corename().decode()
    return f"blas {blas.get('name', 'unknown')} {blas.get('version', '')} core {core}"


def file_digest(path: Path) -> str:
    import numpy as np

    h = hashlib.sha256()
    if path.suffix == ".npz":
        with np.load(path) as data:
            for key in sorted(data.files):
                arr = data[key]
                h.update(f"{key} {arr.dtype} {arr.shape}".encode())
                h.update(arr.tobytes())
    else:
        h.update(path.read_bytes())
    return h.hexdigest()


def run_cli(cli, argv: list, outdir: Path, scratch: Path) -> list:
    """The exit code, standard output and error of the command line argv."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse printed help or rejected the arguments
            code = exc.code
    lines = [f"exit {code}"]
    for name, text in (("stdout", out), ("stderr", err)):
        text = text.getvalue().replace(str(outdir), "<out>").replace(str(scratch), "<scratch>")
        lines += [f"{name}| {line}" for line in text.splitlines()]
    return lines


def run_job(cli, argv: list, outdir: Path, scratch: Path) -> list:
    """The lines that describe one run of the command line argv, which
    writes to outdir."""
    shutil.rmtree(outdir, ignore_errors=True)
    lines = run_cli(cli, argv, outdir, scratch)
    if outdir.is_dir():
        for path in sorted(outdir.iterdir()):
            if path.suffix == ".json":
                lines.append(f"file {path.name}")
                lines += [f"{path.name}| {line}" for line in path.read_text().splitlines()]
            else:
                lines.append(f"file {path.name} {file_digest(path)}")
    else:
        lines.append("no output directory")
    return lines


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("checkout", help="root of the optray checkout to run")
    p.add_argument("scratch", help="directory for the inputs and outputs (made if missing)")
    p.add_argument("--workloads", nargs="+", choices=WORKLOADS, default=list(WORKLOADS))
    p.add_argument("--seeds", nargs="+", type=int, default=[1, 2])
    args = p.parse_args(argv)
    checkout = Path(args.checkout).resolve()
    scratch = Path(args.scratch).resolve()

    sys.path[:0] = [str(checkout / "src"), str(checkout / "perfbench")]
    import optray.cli as cli

    import inputs

    for mod in (cli, inputs):
        if not Path(mod.__file__).resolve().is_relative_to(checkout):
            raise SystemExit(f"{mod.__name__} was imported from {mod.__file__}, not {checkout}")

    print(blas_line())
    for workload in args.workloads:
        for seed in args.seeds:
            base = scratch / f"{workload}-s{seed}"
            (base / "inputs").mkdir(parents=True, exist_ok=True)
            for job in inputs.build(workload, seed, base / "inputs", write_files=True):
                print(f"== {workload} seed {seed} {job.name}")
                outdir = base / "out" / job.name
                for line in run_job(cli, job.argv(outdir), outdir, scratch):
                    print(line)
                if job.command == "run":
                    # replay the saved trace: GDTrace.from_files on its files
                    print(f"== {workload} seed {seed} {job.name} replay")
                    replay = base / "out" / f"{job.name}-replay"
                    argv = ["verify", *job.argv(replay)[1:], "--trace-dir", str(outdir)]
                    for line in run_job(cli, argv, replay, scratch):
                        print(line)
    base = scratch / "direction"
    (base / "inputs").mkdir(parents=True, exist_ok=True)
    for name, text, loss, schedule, steps in DIRECTION_JOBS:
        csv = base / "inputs" / f"{name}.csv"
        csv.write_text(text)
        outdir = base / "out" / name
        argv = ["verify", "--input", str(csv), "--loss", loss, "--schedule", schedule]
        argv += ["--steps", str(steps), "--out", str(outdir)]
        print(f"== direction {name}")
        for line in run_job(cli, argv, outdir, scratch):
            print(line)
    for argv in CLI_TEXTS:
        print(f"== cli optray {' '.join(argv)}".rstrip())
        for line in run_cli(cli, argv, scratch / "cli", scratch):
            print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
