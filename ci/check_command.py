"""Check a qimgload command end to end, each run in a fresh process.

    python ci/check_command.py qimgload
    python ci/check_command.py python -m qimgload.cli

The arguments are the command to check: the installed entry point, or the
module run from a source tree (with ``src`` on ``PYTHONPATH``).  The checks
run two at a time in a new temporary directory, which is removed at the
end.  Each failed check prints one line that names it, and the script then
exits 1.
"""

import json
import subprocess
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

WORKERS = 2  # the checks spend their time in the child processes


class Failed(Exception):
    pass


class Runner:
    """The command to check, run in the directory `work`."""

    def __init__(self, command: list, work: Path):
        self.command, self.work = command, work

    def __call__(self, *args, code=0) -> str:
        """Run the command with `args`, check that it exits with `code` and return its stderr."""
        done = subprocess.run([*self.command, *args], cwd=self.work, capture_output=True,
                              text=True)
        if done.returncode != code:
            last = done.stderr.strip().rpartition("\n")[2]
            raise Failed(f"{' '.join(args)}: exit {done.returncode}, expected {code}: {last!r}")
        return done.stderr

    def same(self, a: str, b: str) -> None:
        if (self.work / a).read_bytes() != (self.work / b).read_bytes():
            raise Failed(f"{a} and {b} differ")

    def absent(self, path: str) -> None:
        if (self.work / path).exists():
            raise Failed(f"{path} was left behind")


def selftest(run):
    run("selftest")


def out_of_range_option(run):
    # an option out of range exits 3 and leaves no --out-dir behind
    run("compile", "--image", "builtin:digit", "--target-l", "4", "--depth", "0",
        "--out-dir", "ci-bad", code=3)
    run.absent("ci-bad")


def round_trip_and_json(run):
    # a compile then simulate round trip; every JSON artifact is byte for
    # byte what json.dumps(..., indent=1) writes
    run("compile", "--image", "builtin:digit", "--target-l", "4", "--depth", "1",
        "--out-dir", "ci-out")
    run("simulate", "--circuit", "ci-out/circuit.json", "--shots", "100", "--out-dir", "ci-out")
    run("encode", "--image", "builtin:scene", "--target-l", "16", "--out-dir", "ci-enc")
    for path in ("ci-out/circuit.json", "ci-enc/mps.json", "ci-enc/amplitude_state.json"):
        text = (run.work / path).read_text()
        if text != json.dumps(json.loads(text), indent=1):
            raise Failed(f"{path} differs from json.dumps(..., indent=1)")


def snake_round_trip(run):
    # snake order through the bit-axis transpose: reconstruct decodes the
    # histogram into the same image that simulate wrote
    run("compile", "--image", "builtin:digit", "--target-l", "8", "--ordering", "snake",
        "--depth", "1", "--out-dir", "ci-snake")
    run("simulate", "--circuit", "ci-snake/circuit.json", "--shots", "1000",
        "--out-dir", "ci-snake")
    run("reconstruct", "--histogram", "ci-snake/histogram.csv", "--ordering", "snake",
        "--out-dir", "ci-rec")
    run.same("ci-snake/reconstructed.pgm", "ci-rec/reconstructed.pgm")


def curve_child_determinism(run):
    # at N = 16 a child interpreter writes the leading rows of curve.csv and
    # simulate the rest: two runs with one seed write the same bytes, and an
    # --exact run with the same options the same curve.csv
    run("compile", "--image", "builtin:scene", "--target-l", "256", "--method", "iterative",
        "--depth", "2", "--out-dir", "ci-n16")
    shots = ("simulate", "--circuit", "ci-n16/circuit.json", "--shots", "1000000", "--seed", "3")
    run(*shots, "--out-dir", "ci-n16/a")
    run(*shots, "--out-dir", "ci-n16/b")
    for name in ("histogram.csv", "curve.csv", "reconstructed.pgm"):
        run.same(f"ci-n16/a/{name}", f"ci-n16/b/{name}")
    run(*shots, "--exact", "--out-dir", "ci-n16/exact")
    run.same("ci-n16/a/curve.csv", "ci-n16/exact/curve.csv")


def one_row_histogram(run):
    # a 1-row histogram has no power-of-two side: exit 3, no --out-dir
    (run.work / "ci-one.csv").write_text("index,bitstring,count,probability\n0,0,1,1.0\n")
    run("reconstruct", "--histogram", "ci-one.csv", "--out-dir", "ci-one", code=3)
    run.absent("ci-one")


def deep_circuit(run):
    # a circuit nested 100 000 arrays deep: exit 2, one stderr line, no --out-dir
    (run.work / "ci-deep.json").write_text("[" * 100000 + "\n")
    err = run("simulate", "--circuit", "ci-deep.json", "--out-dir", "ci-deep", code=2)
    if err.count("\n") != 1 or not err.endswith("\n"):
        raise Failed(f"stderr is not one line: {err!r}")
    run.absent("ci-deep")


# the longest first, so that the two workers finish together
CHECKS = (curve_child_determinism, selftest, out_of_range_option, round_trip_and_json,
          snake_round_trip, one_row_histogram, deep_circuit)


def main(command: list) -> int:
    with tempfile.TemporaryDirectory() as tmp, ThreadPoolExecutor(WORKERS) as pool:
        run = Runner(command, Path(tmp))
        futures = [(check.__name__, pool.submit(check, run)) for check in CHECKS]
        failed = 0
        for name, future in futures:
            try:
                future.result()
            except Failed as exc:
                print(f"{name}: {exc}", file=sys.stderr)
                failed += 1
    return 1 if failed else 0


if __name__ == "__main__":
    if len(sys.argv) < 2:
        sys.exit(__doc__)
    sys.exit(main(sys.argv[1:]))
