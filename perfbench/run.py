"""qimgload benchmark: named CLI workloads, end-to-end metrics, per-layer trace.

    python3 perfbench/run.py --workload grow_small --seed 0 --seconds 30 --trace 0

Run from the repository root.  Each workload is a fixed list of
`qimgload compile` / `qimgload simulate` jobs issued through
`qimgload.cli.main` in this process, one after another (a closed loop
with one client).  One warm-up iteration runs first; its artifacts are
checked against the independent oracle in `oracle.py`, and every later
iteration must reproduce them byte for byte.

Every timing is in reference seconds.  A fixed calibration mix of numpy
work, none of it from `qimgload`, is timed just before and just after each
CLI call and each set-up import, and the call's wall time is scaled by
how much faster or slower than its reference time the mix ran.  This
takes out the drift of a shared host's speed, which moves both alike.

--trace 0 prints the end-to-end metrics of untraced iterations.
--trace 1 runs untraced and then traced iterations for half of --seconds
each and prints the per-layer metrics.  The last line of standard output
is one JSON object: {"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import os

# fixed before numpy loads its BLAS; 1 <= nproc on any machine
THREADS = "1"
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = THREADS

import argparse
import contextlib
import io
import json
import math
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

import oracle
import tracing
from workloads import SHOTS, WORKLOADS, jobs_for, render_inputs

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

SETUP_REPEATS = 9  # fresh-process imports per run; setup_s is their median
MIN_ITERATIONS = 2  # timed iterations per phase, even past --seconds
USEFUL_SWEEP_GAIN = 1e-12
CALIBRATION_PASSES = 6
# timings are in reference seconds: wall seconds scaled to a machine on
# which `Calibration.seconds()` takes this long
CALIBRATION_REFERENCE_S = 0.05
CHECKED_ARTIFACTS = {
    "compile": ("circuit.json", "trace.csv"),
    "simulate": ("histogram.csv", "reconstructed.pgm"),
}
END_TO_END_UNITS = {
    "wall_s": "s", "compile_s": "s", "simulate_s": "s", "infidelity_mean": "ratio",
    "setup_s": "s", "peak_rss_mb": "MB",
}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=0, help="input-noise and shot seed")
    p.add_argument("--seconds", type=float, default=30.0, help="measured time per run")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def measure_setup(calibration) -> list:
    """Reference seconds to import qimgload.cli in fresh interpreters (first one discarded)."""
    code = ("import time; t = time.perf_counter(); import qimgload.cli; "
            "print(time.perf_counter() - t)")
    env = dict(os.environ, PYTHONPATH=str(SRC))
    times = []
    for _ in range(SETUP_REPEATS + 1):
        done, scale = calibration.around(lambda: subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True,
            timeout=120))
        times.append(float(done.stdout) * scale)
    return times[1:]


class Calibration:
    """A fixed mix of the program's kinds of work, on inputs of its own.

    Gate einsums on a 2^14-amplitude vector, 4x4 SVDs and QR factorizations,
    none of them from `qimgload`, so that no change to the program changes
    this work.  The speed of the shared host drifts by tens of percent over
    seconds; timing this mix next to each CLI call measures that drift.
    """

    QUBITS = 14

    def __init__(self):
        self.last = None  # seconds of the latest calibration
        rng = np.random.default_rng(20231009)
        n = self.QUBITS
        self.state = rng.standard_normal(2**n) + 1j * rng.standard_normal(2**n)
        self.gates = [np.linalg.qr(rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)))[0]
                      for _ in range(n - 1)]
        self.small = [rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
                      for _ in range(64)]
        self.tall = rng.standard_normal((96, 48))

    def _pass(self):
        n, vec = self.QUBITS, self.state
        for site, gate in enumerate(self.gates):
            block = vec.reshape(2**site, 4, 2 ** (n - site - 2))
            vec = np.einsum("rc,pcq->prq", gate, block).reshape(-1)
        for m in self.small:
            np.linalg.svd(m)
        for _ in range(8):
            np.linalg.qr(self.tall)

    def seconds(self) -> float:
        """Wall seconds of CALIBRATION_PASSES passes of the mix."""
        start = time.perf_counter()
        for _ in range(CALIBRATION_PASSES):
            self._pass()
        return time.perf_counter() - start

    def around(self, fn):
        """fn() and the factor that turns wall seconds during it into reference seconds.

        The factor comes from the mean of the calibrations just before and
        just after fn; the one after is reused as the next call's one before.
        """
        before = self.last if self.last is not None else self.seconds()
        result = fn()
        self.last = self.seconds()
        return result, 2 * CALIBRATION_REFERENCE_S / (before + self.last)


class Runner:
    """Runs a workload's jobs, timing each call and collecting its artifacts."""

    def __init__(self, cli, jobs, calibration):
        self.cli = cli
        self.jobs = jobs
        self.calibration = calibration
        self.iterations = 0
        self.failed_jobs = set()  # (iteration, job index)
        self.failures = {}  # (check, what) -> [first message, occurrences]
        self.reference = None  # warm-up iteration: per job (stdout, {artifact: bytes})

    @property
    def attempted(self) -> int:
        return self.iterations * len(self.jobs)

    @property
    def failed(self) -> int:
        return len(self.failed_jobs)

    def fail(self, check: str, message: str, job: int | None = None, iterations=None):
        """Record a failed check; with `job`, that job failed in `iterations` (default: the last)."""
        what = "run"
        if job is not None:
            what = f"{self.jobs[job].target.key} {self.jobs[job].kind}"
            for i in iterations if iterations is not None else [self.iterations - 1]:
                self.failed_jobs.add((i, job))
        self.failures.setdefault((check, what), [message, 0])[1] += 1

    def _call(self, job):
        out, err = io.StringIO(), io.StringIO()
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = self.cli.main(list(job.argv))
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception as exc:  # a traceback is a failed job, not a crashed benchmark
            code, err = -1, io.StringIO(f"{type(exc).__name__}: {exc}")
        return time.perf_counter() - start, code, out.getvalue(), err.getvalue()

    def iteration(self):
        """One pass over the job list; returns (wall, compile seconds, simulate seconds, raw wall).

        The first three are in reference seconds (see `Calibration`): each
        call's time is scaled by the machine speed measured around it.  The
        last is the plain sum of the calls' wall times.
        """
        for job in self.jobs:
            shutil.rmtree(job.out_dir, ignore_errors=True)
        calls, scales = [], []
        for job in self.jobs:
            call, scale = self.calibration.around(lambda: self._call(job))
            calls.append(call)
            scales.append(scale)
        self.iterations += 1
        spent = {"compile": 0.0, "simulate": 0.0}
        raw_wall = 0.0
        outputs = []
        for j, (job, (seconds, code, stdout, stderr)) in enumerate(zip(self.jobs, calls)):
            spent[job.kind] += seconds * scales[j]
            raw_wall += seconds
            artifacts = {name: _read(job.out_dir / name) for name in CHECKED_ARTIFACTS[job.kind]}
            outputs.append((stdout, artifacts))
            if code != 0:
                self.fail("exit_code", f"exited {code}: {stderr.strip()}", j)
            elif self.reference is not None and self.reference[j] != outputs[j]:
                self.fail("deterministic", "output differs from the first iteration", j)
        if self.reference is None:
            self.reference = outputs
        return spent["compile"] + spent["simulate"], spent["compile"], spent["simulate"], raw_wall

    def timed(self, seconds: float, on_iteration=None) -> list:
        samples = []
        deadline = time.perf_counter() + seconds
        while len(samples) < MIN_ITERATIONS or time.perf_counter() < deadline:
            samples.append(self.iteration())
            if on_iteration is not None:
                on_iteration()
        return samples

    def artifact_bytes(self) -> int:
        return sum(f.stat().st_size for job in self.jobs if job.out_dir.is_dir()
                   for f in job.out_dir.iterdir())


def _read(path: Path):
    try:
        return path.read_bytes()
    except OSError:
        return None


def oracle_checks(runner, inputs, seed, shots) -> list:
    """Check the warm-up artifacts; returns the oracle infidelity of each compile job.

    A compile job whose circuit cannot be simulated counts as infidelity 1.
    """
    infidelities = []
    probs = {}
    for j, (job, (stdout, art)) in enumerate(zip(runner.jobs, runner.reference)):
        t = job.target
        try:
            if job.kind == "compile":
                infidelities.append(1.0)
                failures, infidelity, probs[t.key] = oracle.check_compile(
                    t, inputs[t.key][1], art["circuit.json"].decode(), stdout)
                if math.isfinite(infidelity):
                    infidelities[-1] = infidelity
            else:
                failures = oracle.check_simulate(
                    t, probs.get(t.key), shots, seed, art["histogram.csv"].decode(),
                    art["reconstructed.pgm"], stdout)
        except (AttributeError, KeyError, TypeError, ValueError) as exc:  # missing or corrupt
            check = "circuit" if job.kind == "compile" else "histogram"
            failures = [(check, f"artifact does not parse: {type(exc).__name__}: {exc}")]
        for check, message in failures:
            # every iteration reproduced these bytes, so each one failed
            runner.fail(check, message, j, range(runner.iterations))
    return infidelities


def sweep_counts(runner) -> tuple:
    """(sweeps run, sweeps that raised the overlap) read from the trace.csv files.

    A sweep is useful when its overlap exceeds the previous row's: the
    previous sweep, or for a stage's first sweep the end of the stage before.
    """
    run = useful = 0
    for job, (_, art) in zip(runner.jobs, runner.reference):
        if job.kind != "compile" or art["trace.csv"] is None:
            continue
        previous = 0.0
        for line in art["trace.csv"].decode().splitlines():
            if not line or line.startswith("#") or line.startswith("stage"):
                continue
            _, sweep, overlap = line.split(",")[:3]
            if int(sweep) >= 1:
                run += 1
                useful += float(overlap) - previous > USEFUL_SWEEP_GAIN
            previous = float(overlap)
    return run, useful


def percentile_note(samples) -> str:
    """Median, the highest percentile with >= 10 samples beyond it, and the count."""
    n = len(samples)
    note = f"median {statistics.median(samples):.6g}"
    p = math.floor(100 * (n - 10) / n)
    if p >= 1:
        rank = max(1, math.ceil(p * n / 100))
        note += f", p{p} {sorted(samples)[rank - 1]:.6g}"
    return note + f", n={n}"


def per_layer(iterations, runner, artifact_bytes, overhead) -> dict:
    """Per-layer metrics: counts from the first traced iteration, times as medians."""
    first = iterations[0]

    def calls(span):
        return first["spans"][span][0]

    def inclusive(span):
        return statistics.median(it["spans"][span][1] for it in iterations)

    def own(span):
        return statistics.median(it["spans"][span][2] for it in iterations)

    counters = first["counters"]
    updates = counters["gate_updates"]
    run, useful = sweep_counts(runner)
    return {
        "simulator.apply_gate_dense.calls": (calls("simulator.apply_gate_dense"), "count"),
        "simulator.apply_gate_dense.self_s": (own("simulator.apply_gate_dense"), "s"),
        "simulator.apply_gate_dense.bytes_computed": (counters["bytes_computed"], "bytes"),
        "simulator.run_s": (inclusive("simulator.run"), "s"),
        "simulator.sample_s": (inclusive("simulator.sample"), "s"),
        "simulator.state_to_csv_s": (inclusive("simulator.state_to_csv"), "s"),
        "simulator.histogram_to_csv_s": (inclusive("simulator.histogram_to_csv"), "s"),
        "compiler.sweep_optimize.self_s": (own("compiler.sweep_optimize"), "s"),
        "compiler.grow_and_optimize.self_s": (own("compiler.grow_and_optimize"), "s"),
        "compiler.iterative_construct.self_s": (own("compiler.iterative_construct"), "s"),
        "compiler.sweeps": (counters["sweeps"], "count"),
        "compiler.gate_updates": (updates, "count"),
        "compiler.gate_update_us": (
            1e6 * inclusive("compiler.sweep_optimize") / updates if updates else 0.0, "us"),
        "compiler.useful_sweep_ratio": (useful / run if run else 0.0, "ratio"),
        "mps.apply_two_qubit_gate.calls": (calls("mps.apply_two_qubit_gate"), "count"),
        "mps.apply_two_qubit_gate.self_s": (own("mps.apply_two_qubit_gate"), "s"),
        "mps.left_canonicalize.calls": (calls("mps.left_canonicalize"), "count"),
        "mps.left_canonicalize_s": (inclusive("mps.left_canonicalize"), "s"),
        "mps.truncate.calls": (calls("mps.truncate"), "count"),
        "mps.truncate.self_s": (own("mps.truncate"), "s"),
        "mps.from_dense_s": (inclusive("mps.from_dense"), "s"),
        "circuit.layer_from_chi2_mps.calls": (calls("circuit.layer_from_chi2_mps"), "count"),
        "circuit.layer_from_chi2_mps_s": (inclusive("circuit.layer_from_chi2_mps"), "s"),
        "circuit.circuit_to_dict_s": (inclusive("circuit.circuit_to_dict"), "s"),
        "image_codec.load_image_s": (inclusive("image_codec.load_image"), "s"),
        "image_codec.encode_amplitudes_s": (inclusive("image_codec.encode_amplitudes"), "s"),
        "image_codec.decode_probabilities_s": (inclusive("image_codec.decode_probabilities"), "s"),
        "image_codec.write_pgm_s": (inclusive("image_codec.write_pgm"), "s"),
        "analysis.infidelity_s": (inclusive("analysis.infidelity"), "s"),
        "cli.compile.self_s": (own("cli.compile"), "s"),
        "cli.simulate.self_s": (own("cli.simulate"), "s"),
        "cli.artifact_bytes": (artifact_bytes, "bytes"),
        "bench.trace_overhead_s": (overhead, "s"),
    }


def check_exact_counts(runner, iterations, artifact_bytes):
    """Call counts, counters and artifact sizes must repeat in every traced iteration."""
    def counts(it):
        return ({name: c for name, (c, _, _) in it["spans"].items()}, it["counters"])

    if any(counts(it) != counts(iterations[0]) for it in iterations[1:]):
        runner.fail("exact_counts", "span call counts or counters differ between iterations")
    if len(set(artifact_bytes)) != 1:
        runner.fail("exact_counts", f"artifact bytes vary: {sorted(artifact_bytes)}")
    traced, _ = sweep_counts(runner)
    if iterations[0]["counters"]["sweeps"] != traced:
        runner.fail("sweep_counts", f"traced {iterations[0]['counters']['sweeps']} sweeps, "
                                    f"trace.csv holds {traced}")


def run_workload(args) -> dict:
    from qimgload import cli

    targets = WORKLOADS[args.workload]
    HERE.joinpath(".work").mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=HERE / ".work"))
    try:
        inputs = render_inputs(targets, args.seed, work)
        calibration = Calibration()
        setup = measure_setup(calibration)
        runner = Runner(cli, jobs_for(targets, inputs, args.seed, work), calibration)
        runner.iteration()  # warm-up and reference artifacts
        metrics, notes = {}, {}
        if args.trace == 0:
            samples = runner.timed(args.seconds)
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            wall, compile_s, simulate_s, raw_wall = (list(s) for s in zip(*samples))
            notes = {"wall_s": wall, "compile_s": compile_s, "simulate_s": simulate_s,
                     "setup_s": setup, "unscaled wall seconds": raw_wall}
            infidelities = oracle_checks(runner, inputs, args.seed, SHOTS)
            values = {
                "wall_s": statistics.median(wall),
                "compile_s": statistics.median(compile_s),
                "simulate_s": statistics.median(simulate_s),
                "infidelity_mean": statistics.fmean(infidelities),
                "setup_s": statistics.median(setup),
                "peak_rss_mb": peak_rss_mb,
            }
            metrics = {k: (v, END_TO_END_UNITS[k]) for k, v in values.items()}
        else:
            untraced = runner.timed(args.seconds / 2)
            tracer = tracing.Tracer()
            iterations, artifact_bytes = [], []
            mark = tracer.mark()

            def collect():
                nonlocal mark
                iterations.append(tracer.totals(mark))
                artifact_bytes.append(runner.artifact_bytes())
                mark = tracer.mark()

            tracer.install()
            try:
                traced = runner.timed(args.seconds / 2, on_iteration=collect)
            finally:
                tracer.uninstall()
            oracle_checks(runner, inputs, args.seed, SHOTS)
            check_exact_counts(runner, iterations, artifact_bytes)
            untraced_wall = [s[0] for s in untraced]
            traced_wall = [s[0] for s in traced]
            notes = {"untraced wall_s": untraced_wall, "traced wall_s": traced_wall}
            overhead = statistics.median(traced_wall) - statistics.median(untraced_wall)
            metrics = per_layer(iterations, runner, artifact_bytes[0], overhead)
        return {"runner": runner, "metrics": metrics, "notes": notes}
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            HERE.joinpath(".work").rmdir()


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "qimgload" / "cli.py").is_file():
        print(f"error: no qimgload sources at {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    result = run_workload(args)
    runner = result["runner"]
    print(f"workload {args.workload}, seed {args.seed}, {THREADS} BLAS thread, "
          f"trace {args.trace}, {runner.attempted} jobs")
    for name, samples in result["notes"].items():
        print(f"  {name}: {percentile_note(samples)}")
    for name, (value, unit) in result["metrics"].items():
        print(f"  {name} = {value:.6g} {unit}")
    print(f"  error_rate = {runner.failed / runner.attempted:.6g} "
          f"({runner.failed} of {runner.attempted} jobs)")
    ran = ["exit_code", "deterministic", "circuit", "unitary", "infidelity", "histogram",
           "reconstructed_pgm"] + (["exact_counts", "sweep_counts"] if args.trace else [])
    failed_checks = {check for check, _ in runner.failures}
    for check in ran:
        print(f"  check {check}: {'FAILED' if check in failed_checks else 'ok'}")
    for (check, what), (message, times) in runner.failures.items():
        print(f"  failure [{check}] {what}: {message}" + (f" (x{times})" if times > 1 else ""))
    print(json.dumps({
        "correct": not runner.failures,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in result["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
