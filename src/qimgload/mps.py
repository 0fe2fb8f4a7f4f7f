"""Matrix product state core: sequential-SVD compression, canonical form,
overlaps, truncation, and adjacent two-qubit gate application.

Conventions: site tensors have shape (left_bond, 2, right_bond) with
boundary bonds of dimension 1; site 0's physical index is the most
significant bit of the dense basis index.  "left" canonical form means
every tensor, reshaped ((left_bond * 2) x right_bond), has orthonormal
columns, which is what the left-to-right SVD sweep produces and what the
staircase circuit conversion consumes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InputFormatError, NumericError, ValidationError
from .image_codec import AmplitudeState

DENSE_SITE_CAP = 20  # 2**20 amplitudes is the desk-scale memory ceiling

CANONICAL_ISOMETRY_TOL = 1e-10


@dataclass(frozen=True)
class TruncationReport:
    """Per-bond discarded weights (sums of squares of dropped singular values)."""

    discarded_weights: tuple

    def __post_init__(self):
        if any(w < 0 for w in self.discarded_weights):
            raise ValidationError("discarded weights must be nonnegative")

    @property
    def total(self) -> float:
        return float(sum(self.discarded_weights))


@dataclass(frozen=True)
class MPS:
    tensors: tuple
    canonical_form: str = "none"

    def __post_init__(self):
        tensors = tuple(np.asarray(t) for t in self.tensors)
        if not tensors:
            raise ValidationError("MPS needs at least one site")
        if tensors[0].shape[0] != 1 or tensors[-1].shape[2] != 1:
            raise ValidationError("boundary bonds must have dimension 1")
        for i, t in enumerate(tensors):
            if t.ndim != 3 or t.shape[1] != 2:
                raise ValidationError(f"site {i} tensor must have shape (bond, 2, bond)")
            if i and t.shape[0] != tensors[i - 1].shape[2]:
                raise ValidationError(f"bond mismatch between sites {i-1} and {i}")
        if self.canonical_form not in ("none", "left", "right"):
            raise ValidationError(f"unknown canonical form {self.canonical_form!r}")
        object.__setattr__(self, "tensors", tensors)

    @property
    def n_sites(self) -> int:
        return len(self.tensors)

    @property
    def bond_dims(self) -> list:
        return [t.shape[0] for t in self.tensors] + [1]

    @property
    def max_bond(self) -> int:
        return max(self.bond_dims)


def _fix_svd_signs(u: np.ndarray, vt: np.ndarray):
    """Flip signs so each left singular vector's largest-magnitude entry is positive.

    Gives a deterministic SVD representative for golden tests; complex
    inputs are rotated so that entry becomes real positive.
    """
    for j in range(u.shape[1]):
        k = int(np.argmax(np.abs(u[:, j])))
        pivot = u[k, j]
        if pivot == 0:
            continue
        phase = pivot / abs(pivot)
        u[:, j] /= phase
        vt[j, :] *= phase
    return u, vt


def isometry_error(mat: np.ndarray) -> float:
    """Largest entry of |V^dagger V - I|: zero when the columns of `mat` are orthonormal."""
    return float(np.max(np.abs(mat.conj().T @ mat - np.eye(mat.shape[1]))))


def _keep_count(s: np.ndarray, chi_max, eps_max: float) -> int:
    k = len(s)
    weights = s**2
    keep_eps = k
    discarded = 0.0
    while keep_eps > 1 and discarded + weights[keep_eps - 1] <= eps_max:
        discarded += weights[keep_eps - 1]
        keep_eps -= 1
    keep = keep_eps
    if chi_max is not None:
        keep = min(keep, chi_max)
    return max(keep, 1)


def from_dense(v, chi_max=None, eps_max: float = 0.0):
    """Compress a unit vector into a left-canonical MPS by successive SVDs.

    Returns (MPS, TruncationReport).  At each bond the smallest singular
    values are dropped down to ``chi_max``, plus any further values whose
    cumulative discarded weight stays within ``eps_max``.
    """
    if isinstance(v, AmplitudeState):
        vec = np.asarray(v.amplitudes, dtype=float)
    else:
        vec = np.asarray(v)
    if vec.ndim != 1 or vec.size < 2 or vec.size & (vec.size - 1):
        raise ValidationError(f"length {vec.size} is not a power of two >= 2")
    n = int(np.log2(vec.size))
    norm = np.linalg.norm(vec)
    if norm == 0:
        raise NumericError("cannot compress the zero vector")
    if abs(norm - 1.0) > 1e-8:
        raise ValidationError(f"input must have unit norm, got {norm}")
    if chi_max is not None and chi_max < 1:
        raise ValidationError("chi_max must be >= 1")

    tensors = []
    eps = []
    work = vec.reshape(1, -1)
    for _ in range(n - 1):
        left = work.shape[0] * 2
        mat = work.reshape(left, -1)
        u, s, vt = np.linalg.svd(mat, full_matrices=False)
        u, vt = _fix_svd_signs(u, vt)
        keep = _keep_count(s, chi_max, eps_max)
        eps.append(float(np.sum(s[keep:] ** 2)))
        tensors.append(u[:, :keep].reshape(-1, 2, keep))
        work = s[:keep, None] * vt[:keep]
    last = work.reshape(-1, 2, 1)
    tensors.append(last / np.linalg.norm(last))
    return MPS(tuple(tensors), canonical_form="left"), TruncationReport(tuple(eps))


def to_dense(m: MPS, site_cap: int = DENSE_SITE_CAP) -> np.ndarray:
    """Contract all bonds into the full 2**N amplitude vector."""
    if m.n_sites > site_cap:
        raise ValidationError(f"{m.n_sites} sites exceeds the dense cap of {site_cap}")
    vec = m.tensors[0].reshape(2, -1)
    for t in m.tensors[1:]:
        vec = np.tensordot(vec, t, axes=(1, 0)).reshape(vec.shape[0] * 2, -1)
    return vec[:, 0]


def left_canonicalize(m: MPS) -> MPS:
    """QR sweep into left-canonical form; state preserved up to renormalization."""
    if m.canonical_form == "left":
        return m
    tensors = []
    carry = None
    for i, t in enumerate(m.tensors):
        if carry is not None:
            t = np.tensordot(carry, t, axes=(1, 0))
        left, _, right = t.shape
        q, r = np.linalg.qr(t.reshape(left * 2, right))
        # fix gauge so diag(R) >= 0, making the sweep deterministic
        d = np.diagonal(r)
        phase = np.where(d == 0, 1.0, d / np.abs(np.where(d == 0, 1.0, d)))
        q = q * phase
        r = np.conj(phase)[:, None] * r
        tensors.append(q.reshape(left, 2, q.shape[1]))
        carry = r
    # carry is now the 1x1 global norm; dropping it renormalizes the state
    scale = carry[0, 0]
    if abs(scale) == 0:
        raise NumericError("zero-norm MPS cannot be canonicalized")
    return MPS(tuple(tensors), canonical_form="left")


def _move_center_left(tensors: list, stop: int, chi=None) -> list:
    """Move the canonical center from the last site onto site ``stop`` by SVDs.

    Rewrites ``tensors`` in place, capping each bond right of ``stop`` at
    ``chi`` (no cap if None).  Returns the discarded weight per bond, 0.0
    for the bonds the sweep does not reach.
    """
    eps = [0.0] * (len(tensors) - 1)
    for i in range(len(tensors) - 1, stop, -1):
        left, _, right = tensors[i].shape
        u, s, vt = np.linalg.svd(tensors[i].reshape(left, 2 * right), full_matrices=False)
        u, vt = _fix_svd_signs(u, vt)
        keep = len(s) if chi is None else min(len(s), chi)
        eps[i - 1] = float(np.sum(s[keep:] ** 2))
        tensors[i] = vt[:keep].reshape(keep, 2, right)
        tensors[i - 1] = np.tensordot(tensors[i - 1], u[:, :keep] * s[:keep], axes=(2, 0))
    return eps


def truncate(m: MPS, chi: int):
    """Cap every bond at ``chi`` via an SVD sweep; returns (MPS, TruncationReport).

    Output is left-canonical and unit-norm; discarded weights are the
    Schmidt weights dropped at each bond.
    """
    if chi < 1:
        raise ValidationError("chi must be >= 1")
    ml = left_canonicalize(m)
    if ml.max_bond <= chi:
        return ml, TruncationReport((0.0,) * (ml.n_sites - 1))
    tensors = list(ml.tensors)
    eps = _move_center_left(tensors, 0, chi)
    out = left_canonicalize(MPS(tuple(tensors), canonical_form="none"))
    return out, TruncationReport(tuple(eps))


def inner(a: MPS, b: MPS):
    """Overlap <a|b> by transfer-matrix contraction, O(N * chi^3)."""
    if a.n_sites != b.n_sites:
        raise ValidationError("site-count mismatch")
    env = np.tensordot(np.conj(a.tensors[0]), b.tensors[0], axes=([0, 1], [0, 1]))
    for ta, tb in zip(a.tensors[1:], b.tensors[1:]):
        tmp = np.tensordot(env, np.conj(ta), axes=(0, 0))
        env = np.tensordot(tmp, tb, axes=([0, 1], [0, 1]))
    val = env[0, 0]
    return float(val.real) if not np.iscomplexobj(env) else complex(val)


def apply_two_qubit_gate(m: MPS, gate: np.ndarray, site: int, chi_max=None):
    """Contract a 4x4 unitary into sites (site, site+1) and re-split by SVD.

    Gate row/column index order is (bit of `site`, bit of `site+1`) with
    the first qubit most significant.  Returns (MPS, TruncationReport)
    with the state renormalized to unit norm.
    """
    gate = np.asarray(gate)
    if gate.shape != (4, 4):
        raise ValidationError("gate must be 4x4")
    if isometry_error(gate) > CANONICAL_ISOMETRY_TOL:
        raise ValidationError(f"gate is not unitary within {CANONICAL_ISOMETRY_TOL}")
    if not (0 <= site < m.n_sites - 1):
        raise ValidationError(f"gate site {site} out of range for {m.n_sites} sites")
    # move the canonical center onto the gate so the local singular values
    # are the true Schmidt coefficients of the bond being re-split
    tensors = list(left_canonicalize(m).tensors)
    weights = _move_center_left(tensors, site + 1)
    theta = np.tensordot(tensors[site], tensors[site + 1], axes=(2, 0))
    theta = np.einsum("stuv,luvr->lstr", gate.reshape(2, 2, 2, 2), theta)
    left, _, _, right = theta.shape
    u, s, vt = np.linalg.svd(theta.reshape(left * 2, 2 * right), full_matrices=False)
    u, vt = _fix_svd_signs(u, vt)
    keep = min(len(s), chi_max) if chi_max is not None else len(s)
    eps = float(np.sum(s[keep:] ** 2))
    s = s[:keep]
    s = s / np.linalg.norm(s)
    tensors[site] = u[:, :keep].reshape(left, 2, keep)
    tensors[site + 1] = (s[:, None] * vt[:keep]).reshape(keep, 2, right)
    weights[site] = eps
    return MPS(tuple(tensors), canonical_form="none"), TruncationReport(tuple(weights))


def isometry_defect(m: MPS) -> float:
    """Largest deviation of any tensor from the left-canonical isometry condition."""
    return max(isometry_error(t.reshape(-1, t.shape[2])) for t in m.tensors)


# ---------------------------------------------------------------------------
# Serialization (self-describing JSON container)

MPS_FORMAT_VERSION = 1


def _tensor_to_json(t: np.ndarray) -> dict:
    entry = {"shape": list(t.shape), "data": np.asarray(np.real(t), dtype=float).ravel().tolist()}
    if np.iscomplexobj(t):
        entry["imag"] = np.imag(t).ravel().tolist()
    return entry


def _tensor_from_json(d: dict) -> np.ndarray:
    t = np.array(d["data"], dtype=float)
    if "imag" in d:
        t = t + 1j * np.array(d["imag"], dtype=float)
    return t.reshape(d["shape"])


def mps_to_dict(m: MPS, metadata: dict | None = None) -> dict:
    """JSON-ready container; complex tensors add an "imag" list beside "data"."""
    return {
        "version": MPS_FORMAT_VERSION,
        "n_sites": m.n_sites,
        "bond_dims": m.bond_dims,
        "canonical_form": m.canonical_form,
        "tensors": [_tensor_to_json(t) for t in m.tensors],
        "metadata": dict(metadata or {}),
    }


def mps_from_dict(d: dict) -> MPS:
    if d.get("version") != MPS_FORMAT_VERSION:
        raise ValidationError(f"unsupported MPS container version {d.get('version')}")
    try:
        tensors = tuple(_tensor_from_json(t) for t in d["tensors"])
    except (KeyError, TypeError, ValueError) as exc:
        raise InputFormatError(f"corrupt MPS payload: {exc}") from None
    return MPS(tensors, canonical_form=d.get("canonical_form", "none"))
