"""optray benchmark: one workload, timed end to end or traced per layer.

Run from the root of a checkout:

    python3 perfbench/run.py --workload verify_grid --seed 1 --seconds 30 --trace 0

Set-up imports optray and writes the workload's CSV inputs in a fresh
interpreter, SETUP_REPEATS times; ``setup_s`` is the median.  The jobs then
run in this process, each through ``optray.cli.main`` with the arguments a
user would type, after one short untimed warm-up job, in whole rounds whose
number follows from ``--seconds`` alone, so every run does the same work.
Each job keeps the median of its passes, in reference seconds (see
SpeedProbe).  With ``--trace 1`` every
round runs each job once plain and once with the layer functions wrapped
(perfbench/tracing.py), and the per-layer metrics come from each job's median
traced pass.  The last line of standard output is the JSON result.  See
perfbench/README.md.
"""

import os

# one BLAS/OpenMP thread, fixed before numpy loads, so CPU time is work done
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import dataclasses  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"

WORKLOADS = ("verify_grid", "long_run", "structure")
# reference seconds one pass of each workload takes; the round count is
# round(--seconds / this), but at least MIN_ROUNDS so that a job's median is
# not the mean of two passes; it depends on nothing measured
PASS_SECONDS = {"verify_grid": 9.9, "long_run": 12.2, "structure": 8.6}
MIN_ROUNDS = 3
SETUP_REPEATS = 15
WARMUP_STEPS = 500  # descent steps of the untimed warm-up job
CAL_ITERS = 250
CAL_REF_S = 0.003  # the calibration loop's time that defines one reference second
MARK_LOOPS = 8  # calibration loops between two timed operations
TICK_S = 0.2  # interval of the calibration loops run inside a job
ADJACENT_S = 0.1  # reach of the loops just before and after an operation


def calibrate() -> float:
    """Seconds of a fixed loop shaped like optray's inner loops: small
    matrix-vector products and elementwise exp, driven from Python."""
    import numpy as np

    a = np.linspace(-1.0, 1.0, 80).reshape(40, 2)
    w = np.zeros(2)
    t0 = time.perf_counter()
    for _ in range(CAL_ITERS):
        w -= 0.01 * (a.T @ (1.0 / (1.0 + np.exp(-(a @ w))))) / 40.0
    return time.perf_counter() - t0


class SpeedProbe:
    """The machine's speed during each timed operation.

    This machine runs the same code up to twice as fast in some seconds or
    minutes as in others.  The calibration loop runs MARK_LOOPS times
    between timed operations and, from a SIGALRM handler, every TICK_S
    inside a job; the job's own time excludes those loops.  An operation's
    reference-speed factor is the mean of CAL_REF_S / loop time over the
    loops run inside it, or, when it was too short to hold one, over the
    loops run just before and after it: the machine's mean speed during the
    operation, since the loops inside sample it evenly in time.  (Loop times
    are often bimodal within one job, near 1.5 ms and near 2.5-3 ms, and a
    median would jump between the two.)  Measured seconds times the factor
    are reference seconds: time at one fixed machine speed."""

    def __init__(self):
        calibrate()  # warm up
        self.marks = []  # (perf_counter at loop start, loop seconds)
        self.paused = self.paused_cpu = 0.0
        self._on_pause = None
        self.mark()

    def mark(self) -> None:
        for _ in range(MARK_LOOPS):
            self.marks.append((time.perf_counter(), calibrate()))

    def _tick(self, signum, frame) -> None:
        t0, c0 = time.perf_counter(), time.process_time()
        self.marks.append((t0, calibrate()))
        spent = time.perf_counter() - t0
        self.paused += spent
        self.paused_cpu += time.process_time() - c0
        if self._on_pause:
            self._on_pause(spent)

    @contextlib.contextmanager
    def sampling(self, on_pause=None):
        """Run the calibration loop every TICK_S while the body runs; the
        seconds it took are in ``paused`` and ``paused_cpu`` afterwards and
        are reported to ``on_pause`` as they happen."""
        self.paused = self.paused_cpu = 0.0
        self._on_pause = on_pause
        previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, previous)
            self._on_pause = None

    def factor(self, t0: float, t1: float) -> float:
        near = [c for t, c in self.marks if t0 <= t <= t1] or [
            c for t, c in self.marks if t0 - ADJACENT_S <= t <= t1 + ADJACENT_S
        ]
        return statistics.fmean(CAL_REF_S / c for c in near)


def setup(workload: str, seed: int, inputs_dir: Path, probe: SpeedProbe) -> list:
    """(start, end) of each fresh interpreter importing optray and writing
    the inputs."""
    spans = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, str(HERE / "make_inputs.py"), "--workload", workload,
             "--seed", str(seed), "--dir", str(inputs_dir)],
            capture_output=True, text=True, timeout=120,
        )
        spans.append((t0, time.perf_counter()))
        probe.mark()
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            raise SystemExit(f"set-up failed with exit code {proc.returncode}")
    return spans


def output_digest(outdir: Path) -> str:
    """Content hash of a job's output files; npz members by array bytes,
    since the archive stores write times."""
    import numpy as np

    h = hashlib.sha256()
    for path in sorted(outdir.iterdir()):
        h.update(path.name.encode())
        if path.suffix == ".npz":
            with np.load(path) as data:
                for key in sorted(data.files):
                    h.update(data[key].tobytes())
        else:
            h.update(path.read_bytes())
    return h.hexdigest()


class Sample:
    """One pass of one job: when it ran, measured seconds, exit code, and for
    traced passes the layer self times and counts.  ``factor`` is set once
    the calibration marks after it exist."""

    def __init__(self, t0, t1, wall, cpu, code, layers=None, counts=None):
        self.t0, self.t1, self.wall, self.cpu, self.code = t0, t1, wall, cpu, code
        self.layers, self.counts = layers, counts
        self.factor = 1.0

    @property
    def ref_wall(self) -> float:
        return self.wall * self.factor

    @property
    def ref_cpu(self) -> float:
        return self.cpu * self.factor


def median_sample(samples: list) -> Sample:
    return sorted(samples, key=lambda s: s.ref_wall)[(len(samples) - 1) // 2]


def run_job(cli, job, outdir: Path, probe: SpeedProbe, tracer=None) -> Sample:
    argv = job.argv(outdir)
    sink = io.StringIO()
    first = tracer.begin(job.name) if tracer else 0
    ch0 = resource.getrusage(resource.RUSAGE_CHILDREN)
    with probe.sampling(tracer.pause if tracer else None):
        c0 = time.process_time()
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            code = cli.main(argv)
        t1 = time.perf_counter()
        cpu = time.process_time() - c0
    ch1 = resource.getrusage(resource.RUSAGE_CHILDREN)
    cpu += (ch1.ru_utime - ch0.ru_utime) + (ch1.ru_stime - ch0.ru_stime) - probe.paused_cpu
    wall = t1 - t0 - probe.paused
    probe.mark()
    if tracer:
        return Sample(t0, t1, wall, cpu, code, tracer.self_times(first, len(tracer.spans)),
                      dict(tracer.counts))
    return Sample(t0, t1, wall, cpu, code)


PER_LAYER = (
    ("dataset.load_s", "s"), ("decompose.partition_s", "s"), ("decompose.validate_s", "s"),
    ("lp.solve_s", "s"), ("lp.solves", "count"), ("lp.pivots", "count"),
    ("margin.solve_dual_s", "s"), ("margin.dual_iters", "count"),
    ("strongconvex.solve_vbar_s", "s"), ("strongconvex.estimate_lambda_s", "s"),
    ("gd.run_s", "s"), ("gd.steps", "count"), ("gd.us_per_step", "us"),
    ("gd.ball_series_s", "s"), ("gd.ball_solves", "count"),
    ("verify.run_checks_self_s", "s"), ("io.trace_write_s", "s"), ("io.trace_bytes", "bytes"),
    ("io.report_write_s", "s"), ("cli.self_s", "s"), ("trace.overhead_s", "s"),
)
SPAN_METRIC = {"verify.run_checks": "verify.run_checks_self_s", "cli": "cli.self_s"}


def layer_metrics(traced: list, plain_wall: float) -> dict:
    """Per-layer metrics over one pass made of each job's median traced
    sample, in reference seconds."""
    values = {name: 0.0 if unit in ("s", "us") else 0 for name, unit in PER_LAYER}
    for s in traced:
        for span, secs in s.layers.items():
            values[SPAN_METRIC.get(span, span + "_s")] += secs * s.factor
        for counter, n in s.counts.items():
            values[counter] += n
    steps = values["gd.steps"]
    values["gd.us_per_step"] = values["gd.run_s"] / steps * 1e6 if steps else 0.0
    values["trace.overhead_s"] = sum(s.ref_wall for s in traced) - plain_wall
    return {name: {"value": values[name], "unit": unit} for name, unit in PER_LAYER}


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=WORKLOADS, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()

    if not (ROOT / "src" / "optray" / "__init__.py").is_file():
        print(f"no optray sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    tag = f"{args.workload}-s{args.seed}-t{args.trace}"
    work = OUT / f"work-{tag}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    inputs_dir = work / "inputs"
    try:
        probe = SpeedProbe()
        setup_spans = setup(args.workload, args.seed, inputs_dir, probe)

        sys.path.insert(0, str(ROOT / "src"))
        import optray.cli as cli

        import inputs

        jobs = inputs.build(args.workload, args.seed, inputs_dir, write_files=False)
        tracer = None
        if args.trace:
            import tracing

            tracer = tracing.Tracer()
        rounds = max(MIN_ROUNDS, round(args.seconds / PASS_SECONDS[args.workload]))
        if args.trace:
            # a traced round runs every job twice; stay within --seconds
            rounds = max(1, rounds // 2)

        # one untimed short run of the first job, so that no timed pass pays
        # for first calls (lazy imports, numba compiling or loading its cache)
        warm = dataclasses.replace(jobs[0], steps=min(jobs[0].steps, WARMUP_STEPS))
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            cli.main(warm.argv(work / "warmup"))
        probe.mark()

        samples = {job.name: [] for job in jobs}
        traced = {job.name: [] for job in jobs}
        digests = {}
        problems = []
        t_start = time.perf_counter()
        for r in range(rounds):
            # rotate the job order so no job always runs first
            shift = r * max(1, len(jobs) // rounds)
            for k, job in enumerate(jobs[shift:] + jobs[:shift]):
                outdir = work / "out" / job.name
                plan = [False, True] if (r + k) % 2 == 0 else [True, False]
                for with_trace in plan if args.trace else [False]:
                    if with_trace:
                        tracer.install()
                        try:
                            s = run_job(cli, job, outdir, probe, tracer)
                        finally:
                            tracer.uninstall()
                        traced[job.name].append(s)
                    else:
                        s = run_job(cli, job, outdir, probe)
                        samples[job.name].append(s)
                    # the LP-fault job exits with EXIT_NUMERIC today and with 0
                    # once the LP is mended; both are accepted
                    if s.code != 0 and not (job.expect_failure and s.code == cli.EXIT_NUMERIC):
                        problems.append(f"{job.name}: exit code {s.code}")
                    digest = output_digest(outdir)
                    if digests.setdefault(job.name, digest) != digest:
                        problems.append(f"{job.name}: output differs between passes")
        measured_s = time.perf_counter() - t_start
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

        import checks

        for job in jobs:
            if samples[job.name][-1].code == 0:
                problems += [f"{job.name}: {p}" for p in
                             checks.CHECKS[job.command](job, work / "out" / job.name)]

        all_samples = [s for v in list(samples.values()) + list(traced.values()) for s in v]
        for s in all_samples:
            s.factor = probe.factor(s.t0, s.t1)
        setup_s = statistics.median((t1 - t0) * probe.factor(t0, t1) for t0, t1 in setup_spans)
        attempted = len(all_samples)
        failed = sum(1 for s in all_samples if s.code != 0)
        wall = [statistics.median(s.ref_wall for s in samples[job.name]) for job in jobs]
        cpu = [statistics.median(s.ref_cpu for s in samples[job.name]) for job in jobs]
        if args.trace:
            mid_traced = [median_sample(traced[job.name]) for job in jobs]
            metrics = layer_metrics(mid_traced, sum(wall))
        else:
            metrics = {
                "setup_s": {"value": setup_s, "unit": "s"},
                "wall_s": {"value": sum(wall), "unit": "s"},
                "cpu_s": {"value": sum(cpu), "unit": "s"},
                "job_p50_s": {"value": statistics.median(wall), "unit": "s"},
                "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
            }

        print(f"# {args.workload} seed={args.seed} rounds={rounds} jobs={len(jobs)} "
              f"measured {measured_s:.1f} s; calibration loop median "
              f"{statistics.median(c for _, c in probe.marks):.5f} s (reference {CAL_REF_S} s)")
        for job in jobs:
            walls = " ".join(f"{s.wall:.3f}x{s.factor:.2f}" for s in samples[job.name])
            print(f"#   {job.name:<36} exit={samples[job.name][0].code} "
                  f"measured s x factor: {walls}")
        if args.trace:
            layer_sum = sum(v["value"] for k, v in metrics.items()
                            if v["unit"] == "s" and k != "trace.overhead_s")
            print(f"# traced pass {sum(s.ref_wall for s in mid_traced):.4f} = layer self times "
                  f"{layer_sum:.4f}; untraced pass {sum(wall):.4f} (reference s)")
        for name, m in metrics.items():
            print(f"{name:<32} {m['value']:.6g} {m['unit']}")
        for problem in problems:
            print(f"INCORRECT {problem}")

        result = {"correct": not problems, "attempted": attempted, "failed": failed, "metrics": metrics}
        OUT.mkdir(exist_ok=True)
        record = dict(result, samples={j: [[s.t0, s.t1, s.wall, s.cpu, s.code] for s in v]
                                       for j, v in samples.items()}, marks=probe.marks,
                      setup=setup_spans)
        (OUT / f"result-{tag}.json").write_text(json.dumps(record, indent=1))
        if tracer:
            (OUT / f"spans-{tag}.json").write_text(json.dumps(tracer.spans))
        print(json.dumps(result))
        return 0 if not problems else 1
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
