"""Matrix product state core: sequential compression, canonical form,
truncation, and adjacent two-qubit gate application.

Conventions: site tensors have shape (left_bond, 2, right_bond) with
boundary bonds of dimension 1; site 0's physical index is the most
significant bit of the dense basis index.  "left" canonical form means
every tensor, reshaped ((left_bond * 2) x right_bond), has orthonormal
columns, which is what the left-to-right SVD sweep produces and what the
staircase circuit conversion consumes.

`from_dense` is the sequential SVD (TT-SVD) of the amplitudes, but it cuts
every wide bond unfolding A from the eigenpairs of its small Gram matrix
A A^dagger and carries u^dagger A (= s vt) on, falling back to the SVD when
the kept part of that spectrum is not resolved (see `GRAM_RESOLVED_TOL`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
# the gufuncs behind np.linalg.eigh (UPLO="L") and np.linalg.svd(full_matrices=
# False), without their per-call wrappers; tests/test_compiler.py pins them bit
# for bit against those
from numpy.linalg._umath_linalg import eigh_lo, svd_s

from .errors import NumericError, ValidationError

DENSE_SITE_CAP = 20  # 2**20 amplitudes is the desk-scale memory ceiling

CANONICAL_ISOMETRY_TOL = 1e-10

# `from_dense` cuts a wide bond from its Gram matrix only when the smallest
# kept eigenvalue exceeds this fraction of the largest.  The Gram matrix
# squares the condition number, so eigenvalues near 1e-16 of the largest are
# rounding noise where the SVD still finds small nonzero singular values.
# Above 1e-8 the kept spectrum is resolved, and the SVD, which drops only
# exact zeros, keeps the same count.
GRAM_RESOLVED_TOL = 1e-8


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
        if self.canonical_form not in ("none", "left"):
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
    # singular vectors have unit norm, so no pivot is zero
    pivot = u[np.abs(u).argmax(0), np.arange(u.shape[1])]
    # a real pivot's phase is its sign: one call, with the same +-1 as the quotient
    phase = np.copysign(1.0, pivot) if u.dtype.kind != "c" else pivot / np.abs(pivot)
    u /= phase
    vt *= phase[:, None]
    return u, vt


def isometry_error(mat: np.ndarray) -> float:
    """Largest entry of |V^dagger V - I|: zero when the columns of `mat` are orthonormal.

    `mat` is one matrix or a (k, n, m) stack, whose error is the largest of
    its members'.  Non-finite input, or entries so large that the product
    overflows, give inf, so no tolerance check can pass them.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        gram = mat.conj().swapaxes(-1, -2) @ mat
        gram.reshape(*gram.shape[:-2], -1)[..., :: gram.shape[-1] + 1] -= 1  # the diagonals
        err = float(np.abs(gram).max())
    return err if np.isfinite(err) else float("inf")


def _cut(mat: np.ndarray, chi=None):
    """SVD of a bond matrix cut to at most ``chi`` (no cap if None) nonzero singular values.

    At least one value is kept.  Returns (u, s, vt, discarded weight), with
    sign-fixed singular vectors and the kept columns/rows only.  NaN or inf
    singular values (LAPACK gives NaN when it fails) raise NumericError.
    """
    with np.errstate(invalid="ignore"):
        u, s, vt = svd_s(mat, signature="D->DdD" if mat.dtype.kind == "c" else "d->ddd")
    if not np.isfinite(s).all():
        raise NumericError("bond SVD met a non-finite entry or did not converge")
    u, vt = _fix_svd_signs(u, vt)
    keep = max(int(np.count_nonzero(s**2)), 1)
    if chi is not None:
        keep = min(keep, chi)
    return u[:, :keep], s[:keep], vt[:keep], float(np.add.reduce(s[keep:] ** 2))


def _gram_cut(mat: np.ndarray, chi=None):
    """Cut a wide bond matrix (rows <= columns) from the eigenpairs of mat mat^dagger.

    Keeps k = min(chi, rows) directions and returns (u, u^dagger mat,
    discarded weight): u holds the k leading eigenvectors, sign-fixed like
    `_cut`'s left singular vectors, and the weight is the sum of the dropped
    eigenvalues, clipped at 0.  Returns None when the k-th eigenvalue is not
    above ``GRAM_RESOLVED_TOL`` times the largest (NaN, LAPACK's failure,
    included), so the caller cuts by SVD instead.
    """
    signature = "D->dD" if mat.dtype.kind == "c" else "d->dd"
    with np.errstate(invalid="ignore"):
        w, v = eigh_lo(mat @ mat.conj().T, signature=signature)
    w, v = w[::-1], v[:, ::-1]  # descending
    keep = len(w) if chi is None else min(chi, len(w))
    if not w[keep - 1] > GRAM_RESOLVED_TOL * w[0]:
        return None
    u = v[:, :keep]
    u, carry = _fix_svd_signs(u, u.conj().T @ mat)
    return u, carry, max(float(np.add.reduce(w[keep:])), 0.0)


def from_dense(v, chi_max=None):
    """Compress a unit vector into a left-canonical MPS by successive bond cuts.

    Returns (MPS, weights): ``weights`` is a tuple of per-bond discarded
    weights (sums of squares of the dropped singular values).  Each bond
    keeps at most ``chi_max`` singular values and drops those that are
    exactly zero.  A wide unfolding is cut by `_gram_cut` when its kept
    spectrum is resolved, which keeps the count the SVD keeps; the others
    are cut by `_cut`'s SVD.
    """
    vec = np.asarray(v)
    if vec.ndim != 1:
        raise ValidationError(f"amplitudes must be a 1-D array, got shape {vec.shape}")
    if vec.size < 2 or vec.size & (vec.size - 1):
        raise ValidationError(f"length {vec.size} is not a power of two >= 2")
    n = int(np.log2(vec.size))
    norm = np.linalg.norm(vec)
    if norm == 0:
        raise NumericError("cannot compress the zero vector")
    if not abs(norm - 1.0) <= 1e-8:
        raise ValidationError(f"input must have unit norm, got {norm}")
    if chi_max is not None and chi_max < 1:
        raise ValidationError("chi_max must be >= 1")

    tensors = []
    eps = []
    work = vec.reshape(1, -1)
    for _ in range(n - 1):
        mat = work.reshape(work.shape[0] * 2, -1)
        cut = _gram_cut(mat, chi_max) if mat.shape[0] <= mat.shape[1] else None
        if cut is None:
            u, s, vt, discarded = _cut(mat, chi_max)
            work = s[:, None] * vt
        else:
            u, work, discarded = cut
        eps.append(discarded)
        tensors.append(u.reshape(-1, 2, u.shape[1]))
    last = work.reshape(-1, 2, 1)
    tensors.append(last / np.linalg.norm(last))
    return MPS(tuple(tensors), canonical_form="left"), tuple(eps)


def to_dense(m: MPS) -> np.ndarray:
    """Contract all bonds into the full 2**N amplitude vector."""
    if m.n_sites > DENSE_SITE_CAP:
        raise ValidationError(f"{m.n_sites} sites exceeds the dense cap of {DENSE_SITE_CAP}")
    vec = m.tensors[0].reshape(2, -1)
    for t in m.tensors[1:]:
        vec = np.dot(vec, t.reshape(t.shape[0], -1)).reshape(vec.shape[0] * 2, -1)
    return vec[:, 0]


def left_canonicalize(m: MPS) -> MPS:
    """QR sweep into left-canonical form; state preserved up to renormalization."""
    if m.canonical_form == "left":
        return m
    tensors = []
    carry = None
    for t in m.tensors:
        right = t.shape[2]
        if carry is not None:
            t = np.dot(carry, t.reshape(t.shape[0], -1))
        q, r = np.linalg.qr(t.reshape(-1, right))
        # fix gauge so diag(R) >= 0, making the sweep deterministic
        d = np.diagonal(r)
        if r.dtype.kind != "c":  # the phase of a real d is its sign, applied in place
            phase = np.where(d < 0, -1.0, 1.0)
            q *= phase
            r *= phase[:, None]
        else:
            phase = np.where(d == 0, 1.0, d / np.abs(np.where(d == 0, 1.0, d)))
            q = q * phase
            r = np.conj(phase)[:, None] * r
        tensors.append(q.reshape(-1, 2, q.shape[1]))
        carry = r
    # carry is now the 1x1 global norm; dropping it renormalizes the state
    if not 0 < abs(carry[0, 0]) < math.inf:
        raise NumericError("an MPS of zero or non-finite norm cannot be canonicalized")
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
        u, s, vt, eps[i - 1] = _cut(tensors[i].reshape(left, 2 * right), chi)
        tensors[i] = vt.reshape(len(s), 2, right)
        tensors[i - 1] = np.dot(tensors[i - 1].reshape(-1, left), u * s).reshape(-1, 2, len(s))
    return eps


def truncate(m: MPS, chi: int):
    """Cap every bond at ``chi`` via an SVD sweep; returns (MPS, weights).

    Output is left-canonical and unit-norm; discarded weights are the
    Schmidt weights dropped at each bond.
    """
    if chi < 1:
        raise ValidationError("chi must be >= 1")
    ml = left_canonicalize(m)
    if ml.max_bond <= chi:
        return ml, (0.0,) * (ml.n_sites - 1)
    tensors = list(ml.tensors)
    eps = _move_center_left(tensors, 0, chi)
    out = left_canonicalize(MPS(tuple(tensors), canonical_form="none"))
    return out, tuple(eps)


def apply_two_qubit_gate(m: MPS, gate: np.ndarray, site: int, chi_max=None):
    """Contract 4x4 unitaries into adjacent site pairs and re-split each by SVD.

    ``gate`` is one 4x4 unitary for sites (site, site+1), or a (k, 4, 4)
    stack applied left to right on the pairs starting at site, site+1, ...,
    site+k-1 in one sweep.  Gate row/column index order is (bit of the left
    site, bit of the right site) with the left qubit most significant.
    Returns (MPS, per-bond discarded weights) with the state renormalized to
    unit norm; the MPS is left-canonical when the stack ends at the last pair.
    """
    gates = np.asarray(gate)
    if gates.ndim == 2:
        gates = gates[None]
    if gates.ndim != 3 or gates.shape[1:] != (4, 4) or not len(gates):
        raise ValidationError("gate must be 4x4 or a (k, 4, 4) stack")
    if isometry_error(gates) > CANONICAL_ISOMETRY_TOL:
        raise ValidationError(f"gate is not unitary within {CANONICAL_ISOMETRY_TOL}")
    last = site + len(gates)  # rightmost site the stack touches
    if not (0 <= site and last < m.n_sites):
        raise ValidationError(f"gates on sites {site}..{last} out of range for {m.n_sites} sites")
    # the canonical center sits on the pair being split and is carried right
    # with each split, so every bond is cut at its true Schmidt coefficients
    tensors = list(left_canonicalize(m).tensors)
    weights = _move_center_left(tensors, site + 1)
    for i, g in enumerate(gates, start=site):
        (left, _, mid), right = tensors[i].shape, tensors[i + 1].shape[2]
        theta = np.dot(tensors[i].reshape(-1, mid), tensors[i + 1].reshape(mid, -1))
        theta = theta.reshape(left, 2, 2, right)
        theta = np.einsum("stuv,luvr->lstr", g.reshape(2, 2, 2, 2), theta)
        u, s, vt, weights[i] = _cut(theta.reshape(left * 2, 2 * right), chi_max)
        tensors[i] = u.reshape(left, 2, len(s))
        tensors[i + 1] = (s[:, None] / math.sqrt(s.dot(s)) * vt).reshape(len(s), 2, right)
    form = "left" if last == m.n_sites - 1 else "none"
    return MPS(tuple(tensors), canonical_form=form), tuple(weights)


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
