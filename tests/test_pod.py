import numpy as np
import pytest

from kspod.pod import (
    PODBasis,
    align_modes,
    decompose,
    rank_for_energy,
    reconstruct,
    truncate,
)
from kspod.snapshots import make_grid, make_times, synth_flowfield


def two_mode_field(m=16):
    """Two orthonormal spatial patterns with 2*cos / 1*sin amplitudes over a
    full period; the analytic energy split is 4:1."""
    t = np.arange(m) / m
    phi_a = np.array([1.0, 0.0, 0.0])
    phi_b = np.array([0.0, 1.0, 0.0])
    return (
        2.0 * np.outer(phi_a, np.cos(2.0 * np.pi * t))
        + 1.0 * np.outer(phi_b, np.sin(2.0 * np.pi * t))
    )


def basis_invariants(basis):
    w = basis.quadrature_weights
    gram = basis.modes.T @ (w[:, None] * basis.modes)
    assert np.abs(gram - np.eye(basis.num_modes)).max() < 1e-10
    assert np.all(np.diff(basis.eigenvalues) <= 1e-12 * basis.eigenvalues[0])
    assert basis.energy_fractions.sum() == pytest.approx(1.0, abs=1e-12)
    # coefficient columns mutually orthogonal (method-of-snapshots property)
    cross = basis.coeffs.T @ basis.coeffs
    off = cross - np.diag(np.diag(cross))
    assert np.abs(off).max() <= 1e-8 * np.abs(np.diag(cross)).max()


class TestDecompose:
    def test_rank_one(self):
        a = np.array([2.0, -1.0, 0.5, 3.0])
        b = np.array([1.0, 4.0, -2.0])
        basis = decompose(np.outer(a, b), centering=False)
        assert basis.num_modes == 1
        recon = reconstruct(basis)
        err = np.linalg.norm(recon - np.outer(a, b)) / np.linalg.norm(np.outer(a, b))
        assert err < 1e-12

    def test_two_mode_energy_split(self):
        basis = decompose(two_mode_field(), centering=False)
        assert basis.num_modes == 2
        assert basis.energy_fractions[0] == pytest.approx(0.8, abs=1e-10)
        assert basis.energy_fractions[1] == pytest.approx(0.2, abs=1e-10)

    def test_matches_dense_svd_oracle(self):
        rng = np.random.default_rng(3)
        fld = rng.normal(size=(5, 4))
        basis = decompose(fld, centering=False)
        sing = np.linalg.svd(fld, compute_uv=False)
        assert basis.num_modes == 4
        assert np.allclose(basis.eigenvalues, sing ** 2,
                           rtol=0.0, atol=1e-10 * sing[0] ** 2)
        recon = reconstruct(basis)
        assert np.linalg.norm(recon - fld) / np.linalg.norm(fld) < 1e-10

    def test_centering_stores_mean(self):
        rng = np.random.default_rng(4)
        fld = rng.normal(size=(6, 5)) + 10.0
        basis = decompose(fld, centering=True)
        assert np.allclose(basis.mean_field, fld.mean(axis=1), atol=1e-12)
        recon = reconstruct(basis)
        assert np.linalg.norm(recon - fld) / np.linalg.norm(fld) < 1e-10

    def test_weighted_inner_product(self):
        rng = np.random.default_rng(5)
        fld = rng.normal(size=(8, 6))
        w = rng.uniform(0.5, 2.0, size=8)
        basis = decompose(fld, centering=False, weights=w)
        basis_invariants(basis)

    def test_single_snapshot_rejected(self):
        with pytest.raises(ValueError):
            decompose(np.ones((4, 1)), centering=False)

    def test_weight_length_mismatch(self):
        with pytest.raises(ValueError):
            decompose(np.ones((4, 3)), weights=np.ones(5))

    def test_invariants_random_sweep(self):
        rng = np.random.default_rng(6)
        for j, m in [(10, 4), (30, 12), (80, 25), (500, 200)]:
            basis = decompose(rng.normal(size=(j, m)), centering=False)
            basis_invariants(basis)

    @pytest.mark.parametrize("centering", [True, False])
    def test_independent_of_memory_layout(self, desk_setup, centering):
        # the same values in C order, in Fortran order or as a strided view
        # give the same basis bit for bit; a desk-size generated field made
        # the mean and eigenvalues differ in the last bits by layout
        grid, times = make_grid(50, 50), make_times(100)
        x = desk_setup["ranges"].scale(np.array([0.3, 0.6, 0.4]))
        fld = synth_flowfield(x, grid, times, desk_setup["recipe"]).field
        wide = np.zeros(fld.shape + (2,))
        wide[..., 1] = fld
        ref = decompose(np.asfortranarray(fld), centering=centering)
        for given in (np.ascontiguousarray(fld), wide[..., 1]):
            basis = decompose(given, centering=centering)
            for name in ("modes", "coeffs", "eigenvalues", "mean_field"):
                assert np.array_equal(getattr(basis, name), getattr(ref, name))

    def test_relabel_invariance(self):
        # Distinct singular values keep the eigenvectors well separated.
        rng = np.random.default_rng(7)
        u, _ = np.linalg.qr(rng.normal(size=(12, 5)))
        v, _ = np.linalg.qr(rng.normal(size=(9, 5)))
        fld = u @ np.diag([9.0, 6.0, 4.0, 2.0, 1.0]) @ v.T
        perm = rng.permutation(9)
        a = decompose(fld, centering=False)
        b = decompose(fld[:, perm], centering=False)
        assert np.allclose(a.eigenvalues, b.eigenvalues,
                           rtol=1e-10, atol=1e-12 * a.eigenvalues[0])
        for k in range(a.num_modes):
            dot = abs(a.modes[:, k] @ b.modes[:, k])
            assert dot == pytest.approx(1.0, abs=1e-8)

    def test_energy_accumulation_shape(self):
        rng = np.random.default_rng(8)
        basis = decompose(rng.normal(size=(60, 30)), centering=False)
        cum = np.cumsum(basis.energy_fractions)
        assert np.all(np.diff(cum) >= -1e-15)
        assert cum[-1] == pytest.approx(1.0, abs=1e-12)


class TestTruncate:
    def test_threshold_one_keeps_all(self):
        basis = decompose(two_mode_field(), centering=False)
        assert truncate(basis, energy_threshold=1.0).num_modes == 2

    def test_threshold_point_eight(self):
        basis = decompose(two_mode_field(), centering=False)
        assert truncate(basis, energy_threshold=0.8).num_modes == 1

    def test_explicit_zero_rejected(self):
        basis = decompose(two_mode_field(), centering=False)
        with pytest.raises(ValueError):
            truncate(basis, num_modes=0)

    def test_bad_threshold_rejected(self):
        basis = decompose(two_mode_field(), centering=False)
        for bad in (0.0, 1.5, -0.1):
            with pytest.raises(ValueError):
                truncate(basis, energy_threshold=bad)

    def test_exactly_one_criterion(self):
        basis = decompose(two_mode_field(), centering=False)
        with pytest.raises(ValueError):
            truncate(basis)
        with pytest.raises(ValueError):
            truncate(basis, energy_threshold=0.9, num_modes=1)

    def test_rank_for_energy(self):
        basis = decompose(two_mode_field(), centering=False)
        assert rank_for_energy(basis, 0.8) == 1
        assert rank_for_energy(basis, 0.80001) == 2


class TestReconstruct:
    def test_full_rank_reproduces(self):
        rng = np.random.default_rng(9)
        fld = rng.normal(size=(20, 10))
        basis = decompose(fld, centering=False)
        recon = reconstruct(basis)
        assert np.linalg.norm(recon - fld) / np.linalg.norm(fld) < 1e-10

    def test_truncation_error_equals_residual_energy(self):
        fld = two_mode_field()
        basis = decompose(fld, centering=False)
        recon = reconstruct(basis, num_modes=1)
        rel_sq = (np.linalg.norm(fld - recon) / np.linalg.norm(fld)) ** 2
        assert rel_sq == pytest.approx(basis.energy_fractions[1], abs=1e-8)

    def test_empty_index_list(self):
        basis = decompose(two_mode_field(), centering=False)
        assert reconstruct(basis, time_indices=[]).shape == (3, 0)

    def test_out_of_range(self):
        basis = decompose(two_mode_field(), centering=False)
        with pytest.raises(ValueError):
            reconstruct(basis, num_modes=5)
        with pytest.raises(IndexError):
            reconstruct(basis, time_indices=[99])

    @pytest.mark.parametrize("indices", [
        [True, False, True, False],  # a boolean mask, not steps [1, 0, 1, 0]
        [2.7],                       # not truncated to step 2
        [[0, 1], [2, 3]],            # not 1-D
    ])
    def test_malformed_indices_rejected(self, indices):
        basis = decompose(two_mode_field(), centering=False)
        with pytest.raises(IndexError):
            reconstruct(basis, time_indices=indices)


def stacked(bases):
    """The (n, K, J) mode rows and (n, m, K) coefficients of equal-rank bases,
    as align_modes takes them, C-contiguous like their copies."""
    return (np.ascontiguousarray([b.modes.T for b in bases]),
            np.ascontiguousarray([b.coeffs for b in bases]))


def varied_bases(count=6, k=3, weights=None):
    """Rank-k bases of random fields on one 40-point grid: each case's
    k-mode subspace differs from the others'."""
    gen = np.random.default_rng(7)
    shared = gen.normal(size=(40, 5))
    return [
        truncate(decompose(shared @ gen.normal(size=(5, 12)) + 0.3 * gen.normal(size=(40, 12)),
                           weights=weights), num_modes=k)
        for _ in range(count)
    ]


class TestAlignModes:
    def test_flipped_target_restored(self):
        # negating a case's modes and coefficients is undone bit for bit
        bases = varied_bases()
        modes, coeffs = stacked(bases)
        flipped_modes, flipped_coeffs = modes.copy(), coeffs.copy()
        flipped_modes[2, [0, 2]] *= -1.0
        flipped_coeffs[2][:, [0, 2]] *= -1.0
        assert np.array_equal(align_modes(modes, coeffs)[0],
                              align_modes(flipped_modes, flipped_coeffs)[0])
        assert np.array_equal(modes, flipped_modes)
        assert np.array_equal(coeffs, flipped_coeffs)

    def test_already_aligned_unchanged(self):
        # equal modes in every case, each column's largest entry positive,
        # are the reference itself and are not moved
        basis = decompose(two_mode_field(), centering=False)
        signs = np.sign(basis.modes[np.abs(basis.modes).argmax(axis=0), [0, 1]])
        basis = PODBasis(basis.modes * signs, basis.coeffs * signs, basis.eigenvalues,
                         basis.quadrature_weights)
        modes, coeffs = stacked([basis] * 4)
        before = modes.copy()
        resid, gap = align_modes(modes, coeffs)
        assert np.abs(modes - before).max() <= 1e-14
        assert resid.max() <= 1e-14
        assert gap > 1e12  # the cases span two dimensions between them

    def test_reconstruction_unchanged(self):
        w = np.linspace(0.5, 2.0, 40)
        bases = varied_bases(weights=w)
        modes, coeffs = stacked(bases)
        resid, gap = align_modes(modes, coeffs, w)
        for basis, rows, beta, r in zip(bases, modes, coeffs, resid):
            aligned = PODBasis(rows.T, beta, basis.eigenvalues, w, basis.mean_field)
            assert np.abs(reconstruct(aligned) - reconstruct(basis)).max() <= 1e-12
            # still W-orthonormal, and the Procrustes fit no worse than the
            # unrotated basis's
            assert np.abs(rows @ (w * rows).T - np.eye(3)).max() <= 1e-12
            assert r > 1e-3
        assert 1.0 < gap < np.inf

    def test_rotated_case_aligned_alike(self):
        # any rotation of a case's modes, with its coefficients, leaves its
        # rank-K reconstruction and so the aligned library unchanged
        modes, coeffs = stacked(varied_bases())
        q = np.linalg.qr(np.random.default_rng(4).normal(size=(3, 3)))[0]
        rotated_modes, rotated_coeffs = modes.copy(), coeffs.copy()
        rotated_modes[1] = q.T @ modes[1]
        rotated_coeffs[1] = coeffs[1] @ q
        align_modes(modes, coeffs)
        align_modes(rotated_modes, rotated_coeffs)
        assert np.abs(rotated_modes - modes).max() <= 1e-12
        assert np.abs(rotated_coeffs - coeffs).max() <= 1e-12 * np.abs(coeffs).max()

    def test_case_order_permutes_rows(self):
        modes, coeffs = stacked(varied_bases())
        order = np.array([3, 0, 5, 1, 4, 2])
        perm_modes, perm_coeffs = modes[order], coeffs[order]
        resid, gap = align_modes(modes, coeffs)
        perm_resid, perm_gap = align_modes(perm_modes, perm_coeffs)
        assert np.abs(perm_modes - modes[order]).max() <= 1e-12
        assert np.abs(perm_coeffs - coeffs[order]).max() <= 1e-12 * np.abs(coeffs).max()
        assert np.allclose(perm_resid, resid[order], rtol=1e-10, atol=0.0)
        assert perm_gap == pytest.approx(gap, rel=1e-10)

    def test_strided_view_rotated_in_place(self):
        # the emulator's library holds a mean row after each case's modes
        bases = varied_bases()
        modes, coeffs = stacked(bases)
        library = np.zeros((len(bases), 4, 40))
        library[:, :3] = modes
        align_modes(library[:, :3], coeffs.copy())
        align_modes(modes, coeffs)
        assert np.abs(library[:, :3] - modes).max() <= 1e-14
        assert not library[:, 3].any()

    def test_grid_mismatch(self):
        modes, coeffs = stacked(varied_bases())
        with pytest.raises(ValueError):
            align_modes(modes, coeffs, np.ones(41))
        with pytest.raises(ValueError):
            align_modes(modes, coeffs[:, :, :2])

