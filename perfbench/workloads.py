"""Workload definitions and the seeded PGM inputs they run on.

A workload is a fixed list of targets.  Each target is compiled with
`qimgload compile` and the resulting circuit is then run with
`qimgload simulate`; one iteration of a workload runs every job once,
in order.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

NOISE_LEVELS = 2  # seeded per-pixel noise of +-2 grey levels
SHOTS = 1_000_000  # shots of every simulate job


@dataclass(frozen=True)
class Target:
    image: str  # bundled image name
    side: int  # L; the circuit has N = 2 log2 L qubits
    depth: int
    method: str  # "grow" or "iterative"
    sweeps: int = 0  # sweeps per grown layer ("grow" only)

    @property
    def key(self) -> str:
        return f"{self.image}{self.side}_{self.method}"

    @property
    def n_qubits(self) -> int:
        return 2 * (self.side.bit_length() - 1)


WORKLOADS = {
    # N=8 and N=10: thousands of gate updates on vectors of <= 1024
    # amplitudes, so per-call overhead of the sweep loop dominates
    "grow_small": (
        Target("digit", 16, 3, "grow", 200),
        Target("scene", 32, 4, "grow", 50),
    ),
    # N=16: the same sweep code on 65 536-amplitude vectors (kernel-bound).
    # `scene`, not `sign`: the sign image's infidelity after 5 sweeps
    # halves or doubles with the noise seed, `scene` moves by ~1%
    "grow_large": (Target("scene", 256, 4, "grow", 5),),
    # no sweeps: MPS gate application in compile, one long dense vector
    # and large artifacts in simulate
    "iterative_simulate": (Target("scene", 256, 8, "iterative"),),
}


@dataclass(frozen=True)
class Job:
    kind: str  # "compile" or "simulate"
    target: Target
    argv: tuple
    out_dir: Path


def render_inputs(targets, seed: int, work: Path) -> dict:
    """Write one noisy 8-bit P5 PGM per target; returns {key: (path, samples)}.

    Each bundled image is rendered at the target's L, quantized to 8 bits,
    given seeded noise of +-NOISE_LEVELS and clamped to 1..255.
    """
    from qimgload.sample_images import get_image

    rng = np.random.default_rng(seed)
    inputs = {}
    for t in targets:
        samples = np.rint(get_image(t.image, t.side).pixels * 255).astype(np.int64)
        samples += rng.integers(-NOISE_LEVELS, NOISE_LEVELS + 1, samples.shape)
        samples = np.clip(samples, 1, 255).astype(np.uint8)
        path = work / f"{t.key}.pgm"
        path.write_bytes(b"P5\n%d %d\n255\n" % (t.side, t.side) + samples.tobytes())
        inputs[t.key] = (path, samples)
    return inputs


def jobs_for(targets, inputs: dict, seed: int, work: Path) -> list:
    jobs = []
    for t in targets:
        compile_dir = work / t.key / "compile"
        simulate_dir = work / t.key / "simulate"
        argv = ["compile", "--image", str(inputs[t.key][0]), "--target-l", str(t.side),
                "--method", t.method, "--depth", str(t.depth), "--out-dir", str(compile_dir)]
        if t.method == "grow":
            argv += ["--sweeps", str(t.sweeps)]
        jobs.append(Job("compile", t, tuple(argv), compile_dir))
        argv = ["simulate", "--circuit", str(compile_dir / "circuit.json"), "--shots", str(SHOTS),
                "--seed", str(seed), "--out-dir", str(simulate_dir)]
        jobs.append(Job("simulate", t, tuple(argv), simulate_dir))
    return jobs
