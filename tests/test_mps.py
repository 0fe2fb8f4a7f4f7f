"""MPS compression, canonical form, truncation, and gate application,
checked against dense linear algebra throughout."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import identity_circuit, oracle_apply_gate, random_state, random_unitary4
from qimgload import mps
from qimgload.errors import NumericError, ValidationError
from qimgload.image_codec import encode_amplitudes
from qimgload.mps import (
    CANONICAL_ISOMETRY_TOL,
    MPS,
    _fix_svd_signs,
    apply_two_qubit_gate,
    from_dense,
    isometry_defect,
    isometry_error,
    left_canonicalize,
    mps_to_dict,
    to_dense,
    truncate,
)
from qimgload.sample_images import get_image
from qimgload.simulator import run


class TestFromDense:
    def test_lossless_roundtrip(self, rng):
        vec = random_state(rng, 8)
        m, weights = from_dense(vec)
        assert weights == (0.0,) * 7
        np.testing.assert_allclose(to_dense(m), vec, atol=1e-12)

    def test_output_is_left_canonical(self, rng):
        m, _ = from_dense(random_state(rng, 7))
        assert m.canonical_form == "left"
        assert isometry_defect(m) < 1e-12

    def test_bond_dims_respect_cap(self, rng):
        m, _ = from_dense(random_state(rng, 8), chi_max=3)
        assert m.max_bond <= 3

    def test_exact_bond_profile_without_cap(self, rng):
        # [DERIVED] generic states saturate min(2**k, 2**(n-k)) at bond k
        m, _ = from_dense(random_state(rng, 6))
        assert m.bond_dims == [1, 2, 4, 8, 4, 2, 1]

    def test_truncation_error_bound(self, rng):
        # [DERIVED] ||v - v~||^2 <= 2 * sum of discarded weights for
        # sequential SVD truncation (each bond's error adds at most twice
        # its discarded weight to the squared distance)
        for chi in (1, 2, 4, 8):
            vec = random_state(rng, 8)
            m, weights = from_dense(vec, chi_max=chi)
            err = np.linalg.norm(vec - to_dense(m)) ** 2
            assert err <= 2 * sum(weights) + 1e-12

    def test_deterministic(self, rng):
        vec = random_state(rng, 6)
        a, _ = from_dense(vec, chi_max=4)
        b, _ = from_dense(vec.copy(), chi_max=4)
        for ta, tb in zip(a.tensors, b.tensors):
            np.testing.assert_array_equal(ta, tb)

    def test_rejects_bad_inputs(self, rng):
        with pytest.raises(ValidationError):
            from_dense(np.ones(6) / np.sqrt(6))  # not a power of two
        with pytest.raises(ValidationError):
            from_dense(np.ones(8))  # not normalized
        with pytest.raises(ValidationError):
            from_dense(random_state(rng, 3), chi_max=0)

    def test_rejects_a_nan_entry(self, rng):
        # a NaN norm must fail the unit-norm check, not reach an SVD
        vec = random_state(rng, 4)
        vec[5] = np.nan
        with pytest.raises(ValidationError, match="unit norm, got nan"):
            from_dense(vec)

    @pytest.mark.parametrize("complex_valued", [False, True], ids=["real", "complex"])
    @pytest.mark.parametrize("chi", [1, 2, 4, None])
    def test_gram_cuts_agree_with_svd_cuts(self, rng, monkeypatch, complex_valued, chi):
        states = [random_state(rng, n, complex_valued) for n in range(2, 11)]
        got = [from_dense(vec, chi_max=chi) for vec in states]
        monkeypatch.setattr(mps, "_gram_cut", lambda mat, chi=None: None)
        for vec, (m, weights) in zip(states, got, strict=True):
            want, want_weights = from_dense(vec, chi_max=chi)
            assert m.bond_dims == want.bond_dims
            np.testing.assert_allclose(weights, want_weights, rtol=0, atol=1e-14)
            np.testing.assert_allclose(to_dense(m), to_dense(want), rtol=0, atol=1e-12)

    def test_unresolved_gram_spectrum_falls_back_to_svd(self, monkeypatch):
        # the digit image's unfoldings have exact lower rank, so their
        # trailing Gram eigenvalues are rounding noise: those bonds are cut
        # by SVD, which keeps the same count, and the round trip stays exact
        vec = encode_amplitudes(get_image("digit", 16))
        cut = mps._cut
        wide = []

        def spy(mat, chi=None):
            wide.append(mat.shape[0] <= mat.shape[1])
            return cut(mat, chi)

        monkeypatch.setattr(mps, "_cut", spy)
        m, weights = from_dense(vec)
        assert any(wide)
        assert m.bond_dims == [1, 2, 4, 8, 16, 8, 4, 2, 1]
        assert weights == (0.0,) * 7
        assert np.abs(to_dense(m) - vec).max() <= 1e-13
        # a basis state's singular values past the first are exactly zero and
        # the SVD drops them; kept from the Gram matrix, bonds would read 2-8
        basis = np.zeros(64)
        basis[37] = 1.0
        assert from_dense(basis)[0].bond_dims == [1] * 7

    @given(st.integers(min_value=0, max_value=2**31), st.integers(min_value=2, max_value=7))
    @settings(max_examples=30, deadline=None)
    def test_norm_preserved_under_any_cap(self, seed, n):
        local = np.random.default_rng(seed)
        vec = random_state(local, n)
        chi = int(local.integers(1, 9))
        m, _ = from_dense(vec, chi_max=chi)
        assert abs(np.linalg.norm(to_dense(m)) - 1.0) < 1e-10


def fix_svd_signs_loop(u, vt):
    """Reference: the per-column form of `_fix_svd_signs`."""
    for j in range(u.shape[1]):
        pivot = u[int(np.argmax(np.abs(u[:, j]))), j]
        phase = pivot / abs(pivot)
        u[:, j] /= phase
        vt[j, :] *= phase
    return u, vt


class TestFixSvdSigns:
    @pytest.mark.parametrize("complex_valued", [False, True])
    def test_matches_column_loop(self, rng, complex_valued):
        for shape in [(2, 2), (8, 3), (3, 8), (16, 16)]:
            a = rng.standard_normal(shape)
            if complex_valued:
                a = a + 1j * rng.standard_normal(shape)
            u, _, vt = np.linalg.svd(a, full_matrices=False)
            got = _fix_svd_signs(u.copy(), vt.copy())
            want = fix_svd_signs_loop(u.copy(), vt.copy())
            for g, w in zip(got, want):
                if complex_valued:
                    # numpy's scalar and array complex abs round differently
                    np.testing.assert_allclose(g, w, rtol=0, atol=1e-15)
                else:
                    np.testing.assert_array_equal(g, w)


class TestCanonicalForm:
    def test_left_canonicalize_preserves_state(self, rng):
        tensors = tuple(rng.standard_normal(s) for s in [(1, 2, 3), (3, 2, 3), (3, 2, 1)])
        m = MPS(tensors)
        dense = to_dense(m)
        ml = left_canonicalize(m)
        assert isometry_defect(ml) < 1e-12
        np.testing.assert_allclose(to_dense(ml), dense / np.linalg.norm(dense), atol=1e-12)

    def test_idempotent_on_canonical_input(self, rng):
        m, _ = from_dense(random_state(rng, 5))
        assert left_canonicalize(m) is m

    def test_complex_tensors(self, rng):
        tensors = tuple(
            rng.standard_normal(s) + 1j * rng.standard_normal(s)
            for s in [(1, 2, 2), (2, 2, 2), (2, 2, 1)]
        )
        m = MPS(tensors)
        dense = to_dense(m)
        ml = left_canonicalize(m)
        assert isometry_defect(ml) < 1e-12
        got, want = to_dense(ml), dense / np.linalg.norm(dense)
        assert abs(abs(np.vdot(got, want)) - 1.0) < 1e-12


def mps_with_a_nan(rng, form):
    m, _ = from_dense(random_state(rng, 6), chi_max=4)
    tensors = [t.copy() for t in m.tensors]
    tensors[3][1, 0, 2] = np.nan
    return MPS(tuple(tensors), canonical_form=form)


class TestNonFinite:
    # a bond SVD or QR step on a NaN must raise NumericError (exit code 4), not
    # numpy's LinAlgError or a warning
    @pytest.mark.parametrize("form", ["none", "left"])
    def test_truncate(self, rng, form):
        with pytest.raises(NumericError):
            truncate(mps_with_a_nan(rng, form), 2)

    @pytest.mark.parametrize("form", ["none", "left"])
    def test_apply_two_qubit_gate(self, rng, form):
        with pytest.raises(NumericError):
            apply_two_qubit_gate(mps_with_a_nan(rng, form), random_unitary4(rng), 1)

    def test_qr_step_on_a_nan_tensor(self, rng):
        with pytest.raises(NumericError, match="non-finite norm"):
            left_canonicalize(mps_with_a_nan(rng, "none"))

    def test_a_bond_svd_that_did_not_converge(self, rng, monkeypatch):
        # LAPACK's failure comes back from the gufunc as NaN singular values
        svd_s = mps.svd_s

        def failing(mat, signature):
            u, s, vt = svd_s(mat, signature=signature)
            return u, np.full_like(s, np.nan), vt

        monkeypatch.setattr(mps, "svd_s", failing)
        with pytest.raises(NumericError, match="did not converge"):
            from_dense(random_state(rng, 4))

    def test_a_bond_eigh_that_did_not_converge(self, rng, monkeypatch):
        # NaN eigenvalues fail the resolution test, so every bond is cut by
        # SVD; when that fails too, from_dense raises
        vec = random_state(rng, 6)
        with monkeypatch.context() as svd_only:
            svd_only.setattr(mps, "_gram_cut", lambda mat, chi=None: None)
            want, want_weights = from_dense(vec)
        eigh_lo, svd_s = mps.eigh_lo, mps.svd_s

        def failing_eigh(gram, signature):
            w, v = eigh_lo(gram, signature=signature)
            return np.full_like(w, np.nan), v

        def failing_svd(mat, signature):
            u, s, vt = svd_s(mat, signature=signature)
            return u, np.full_like(s, np.nan), vt

        monkeypatch.setattr(mps, "eigh_lo", failing_eigh)
        got, weights = from_dense(vec)
        assert weights == want_weights
        for g, w in zip(got.tensors, want.tensors, strict=True):
            np.testing.assert_array_equal(g, w)
        monkeypatch.setattr(mps, "svd_s", failing_svd)
        with pytest.raises(NumericError, match="did not converge"):
            from_dense(vec)


class TestTruncate:
    def test_matches_optimal_dense_fidelity_at_central_bond(self, rng):
        # [DERIVED] with chi=4 only the central bond (dim 8) is cut, so its
        # discarded weight is exactly the tail of the dense Schmidt spectrum
        vec = random_state(rng, 6)
        m, _ = from_dense(vec)
        chi = 4
        _, weights = truncate(m, chi)
        s = np.linalg.svd(vec.reshape(8, 8), compute_uv=False)
        assert weights[2] == pytest.approx(np.sum(s[chi:] ** 2), abs=1e-12)

    def test_output_left_canonical_unit_norm(self, rng):
        m, _ = from_dense(random_state(rng, 7))
        out, _ = truncate(m, 2)
        assert out.max_bond <= 2
        assert isometry_defect(out) < 1e-10
        assert abs(np.linalg.norm(to_dense(out)) - 1.0) < 1e-10

    def test_noop_below_cap(self, rng):
        m, _ = from_dense(random_state(rng, 5), chi_max=2)
        out, weights = truncate(m, 4)
        assert sum(weights) == 0.0
        np.testing.assert_allclose(to_dense(out), to_dense(m), atol=1e-12)


class TestApplyTwoQubitGate:
    def test_matches_dense_oracle_every_site(self, rng):
        n = 6
        vec = random_state(rng, n)
        for site in range(n - 1):
            gate = random_unitary4(rng)
            m, _ = from_dense(vec)
            out, weights = apply_two_qubit_gate(m, gate, site)
            assert sum(weights) == 0.0
            np.testing.assert_allclose(
                to_dense(out), oracle_apply_gate(vec, gate, site, n), atol=1e-10
            )

    def test_unitarity_roundtrip(self, rng):
        m, _ = from_dense(random_state(rng, 5))
        gate = random_unitary4(rng, complex_valued=True)
        out, _ = apply_two_qubit_gate(m, gate, 2)
        back, _ = apply_two_qubit_gate(out, gate.conj().T, 2)
        assert abs(abs(np.vdot(to_dense(m), to_dense(back))) - 1.0) < 1e-10

    def test_truncated_application_is_optimal_locally(self, rng):
        # with the canonical center on the gate, the kept weights are the
        # top Schmidt coefficients of the post-gate state at that bond
        n, site, chi = 6, 2, 2
        vec = random_state(rng, n)
        gate = random_unitary4(rng)
        m, _ = from_dense(vec)
        out, _ = apply_two_qubit_gate(m, gate, site, chi_max=chi)
        exact = oracle_apply_gate(vec, gate, site, n)
        s = np.linalg.svd(exact.reshape(2 ** (site + 1), -1), compute_uv=False)
        best_fidelity = np.sqrt(np.sum(s[:chi] ** 2))
        got = abs(np.vdot(to_dense(out), exact))
        assert got == pytest.approx(best_fidelity, abs=1e-10)

    def test_rejects_non_unitary(self, rng):
        m, _ = from_dense(random_state(rng, 4))
        with pytest.raises(ValidationError):
            apply_two_qubit_gate(m, np.ones((4, 4)), 0)
        with pytest.raises(ValidationError):
            apply_two_qubit_gate(m, np.full((4, 4), np.nan), 0)

    def test_rejects_bad_site(self, rng):
        m, _ = from_dense(random_state(rng, 4))
        with pytest.raises(ValidationError):
            apply_two_qubit_gate(m, np.eye(4), 3)

    @pytest.mark.parametrize("chi", [None, 2])
    @pytest.mark.parametrize("site, k", [(0, 5), (1, 4), (1, 2)])
    def test_stack_matches_one_gate_at_a_time(self, rng, chi, site, k):
        n = 6
        vec = random_state(rng, n)
        gates = np.stack([random_unitary4(rng, complex_valued=bool(j % 2)) for j in range(k)])
        m, _ = from_dense(vec)
        stacked, weights = apply_two_qubit_gate(m, gates, site, chi)
        single = m
        for i, g in enumerate(gates, start=site):
            single, _ = apply_two_qubit_gate(single, g, i, chi)
        np.testing.assert_allclose(to_dense(stacked), to_dense(single), atol=1e-10)
        if chi is None:
            assert sum(weights) == 0.0
            expected = vec
            for i, g in enumerate(gates, start=site):
                expected = oracle_apply_gate(expected, g, i, n)
            np.testing.assert_allclose(to_dense(stacked), expected, atol=1e-10)
        if site + k == n - 1:
            assert stacked.canonical_form == "left"
            assert isometry_defect(stacked) < 1e-10
        else:
            assert stacked.canonical_form == "none"

    @pytest.mark.parametrize("chi", [None, 2])
    def test_staircase_on_product_state_is_exact_at_chi2(self, rng, chi):
        # [DERIVED] a left-to-right staircase on a product state never needs
        # a bond above 2, so the chi=2 cap discards nothing
        n = 7
        vec = np.zeros(2**n)
        vec[0] = 1.0
        gates = np.stack([random_unitary4(rng, complex_valued=True) for _ in range(n - 1)])
        m, _ = from_dense(vec)
        out, weights = apply_two_qubit_gate(m, gates, 0, chi)
        expected = vec
        for i, g in enumerate(gates):
            expected = oracle_apply_gate(expected, g, i, n)
        np.testing.assert_allclose(to_dense(out), expected, atol=1e-10)
        assert sum(weights) < 1e-20
        assert out.max_bond <= 2
        assert out.canonical_form == "left" and isometry_defect(out) < 1e-10

    def test_stack_rejects_bad_members_and_overrun(self, rng):
        m, _ = from_dense(random_state(rng, 5))
        good = random_unitary4(rng)
        with pytest.raises(ValidationError):
            apply_two_qubit_gate(m, np.stack([good, np.ones((4, 4)), good]), 0)
        with pytest.raises(ValidationError):
            apply_two_qubit_gate(m, np.stack([good] * 3), 2)  # pairs 2, 3, 4 of 5 sites
        with pytest.raises(ValidationError):
            apply_two_qubit_gate(m, np.zeros((0, 4, 4)), 0)
        with pytest.raises(ValidationError):
            apply_two_qubit_gate(m, np.stack([good] * 2), -1)


class TestIsometryError:
    def test_stack_takes_the_worst_member(self, rng):
        unitaries = np.stack([random_unitary4(rng, complex_valued=True) for _ in range(5)])
        assert isometry_error(unitaries) < 1e-12
        bad = unitaries.copy()
        bad[3] *= 1 + 1e-8
        assert isometry_error(bad) == pytest.approx(isometry_error(bad[3]))
        assert isometry_error(bad) > CANONICAL_ISOMETRY_TOL

    def test_non_finite_member_gives_inf(self, rng):
        stack = np.stack([random_unitary4(rng) for _ in range(3)])
        stack[1, 2, 0] = np.nan
        assert isometry_error(stack) == float("inf")

    def test_rectangular_stack(self, rng):
        # columns of a (k, n, m) stack with n > m, as for left-canonical tensors
        q = np.stack([np.linalg.qr(rng.standard_normal((6, 3)))[0] for _ in range(4)])
        assert isometry_error(q) < 1e-12
        assert isometry_error(q.swapaxes(1, 2)) > 0.1


class TestValidation:
    def test_bond_mismatch_rejected(self):
        with pytest.raises(ValidationError):
            MPS((np.zeros((1, 2, 3)), np.zeros((2, 2, 1))))

    def test_boundary_bonds_must_be_one(self):
        with pytest.raises(ValidationError):
            MPS((np.zeros((2, 2, 1)),))

    def test_unknown_canonical_form_rejected(self):
        with pytest.raises(ValidationError, match="unknown canonical form 'right'"):
            MPS((np.ones((1, 2, 1)),), canonical_form="right")

    def test_dense_cap_enforced(self):
        # one past DENSE_SITE_CAP = 20: refused before 2^21 amplitudes are allocated
        product = MPS(tuple(np.array([1.0, 0.0]).reshape(1, 2, 1) for _ in range(21)))
        with pytest.raises(ValidationError, match="dense cap of 20"):
            to_dense(product)
        with pytest.raises(ValidationError, match="dense cap of 20"):
            run(identity_circuit(21))


class TestSerialization:
    def test_roundtrip(self, rng):
        # each tensor survives JSON text as its shape and row-major data
        m, _ = from_dense(random_state(rng, 5), chi_max=3)
        payload = json.loads(json.dumps(mps_to_dict(m, {"note": "x"})))
        assert payload["canonical_form"] == "left"
        assert payload["bond_dims"] == m.bond_dims
        assert payload["metadata"] == {"note": "x"}
        for t, entry in zip(m.tensors, payload["tensors"], strict=True):
            assert set(entry) == {"shape", "data"}  # a real tensor gets no imag list
            assert entry["shape"] == list(t.shape)
            assert entry["data"] == t.ravel().tolist()

        # the imaginary part survives: [1, 1j, 0, 0] / sqrt(2) on two sites
        m, _ = from_dense(np.array([1, 1j, 0, 0]) / np.sqrt(2))
        payload = json.loads(json.dumps(mps_to_dict(m)))
        for t, entry in zip(m.tensors, payload["tensors"], strict=True):
            assert entry["shape"] == list(t.shape)
            assert entry["data"] == t.real.ravel().tolist()
            assert entry["imag"] == t.imag.ravel().tolist()
        assert any(any(entry["imag"]) for entry in payload["tensors"])
