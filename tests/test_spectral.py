"""Spectral-oracle tests against the exact discrete box spectrum."""

import warnings

import numpy as np
import pytest

from qmetric.kernels import Grid, hermiticity_defect
from qmetric.potentials import (
    Domain,
    PotentialSpec,
    constants_preset,
    delta_potential,
    square_well,
)
from qmetric.spectral import (
    ExceptionalPointError,
    biorthonormalize,
    discretize,
    free_box_levels,
    pair_eigensystem,
    spectral_metric,
    spectrum_to_csv,
)
from qmetric.verify import invertibility_check, positivity_check, pseudo_hermiticity_residual

BT = constants_preset("bender-tan")
NAT = constants_preset("natural")


def free_box(n):
    pot = PotentialSpec(constants=BT, domain=Domain.box(np.pi))
    return pot, Grid.for_box(np.pi, n)


class TestDiscretize:
    def test_matrix_structure(self):
        pot = square_well(0.3, np.pi, BT)
        grid = Grid.for_box(np.pi, 65)
        ham = discretize(pot, grid)
        H = ham.matrix
        assert H.shape == (63, 63)
        assert ham.bc == "dirichlet"
        np.testing.assert_array_equal(H, H.T)  # complex symmetric, not Hermitian
        kappa = 1.0  # hbar^2 / 2m in this convention
        x = ham.interior_nodes
        np.testing.assert_allclose(np.diag(H),
                                   2.0 * kappa / grid.h**2
                                   + np.where(x > 0, -0.3j, np.where(x < 0, 0.3j, 0.0)),
                                   atol=1e-13)
        np.testing.assert_allclose(np.diag(H, 1), -kappa / grid.h**2, atol=1e-13)

    def test_line_domain_flagged_truncated(self):
        pot = delta_potential([(0.0, 0.5)], NAT)
        ham = discretize(pot, Grid(half_width=2.0, n=65))
        assert ham.bc == "truncated"

    def test_delta_spike_on_diagonal(self):
        grid = Grid(half_width=2.0, n=65)
        ham0 = discretize(PotentialSpec(constants=NAT, domain=Domain.line()), grid)
        ham = discretize(delta_potential([(0.0, 0.5)], NAT), grid)
        diff = ham.matrix - ham0.matrix
        j = np.argmin(np.abs(ham.interior_nodes))
        assert diff[j, j] == pytest.approx(0.5j / grid.h, abs=1e-15)
        diff[j, j] = 0.0
        assert np.all(diff == 0.0)

    def test_placement_warning(self):
        grid = Grid(half_width=2.0, n=65)
        a = -grid.half_width + 0.2 * grid.h  # nearest interior node is 0.8 h away
        with pytest.warns(RuntimeWarning, match="point coupling"):
            discretize(delta_potential([(a, 0.5)], NAT), grid)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            discretize(delta_potential([(0.0, 0.5)], NAT), grid)

    def test_zero_coupling_reduces_to_free_case(self):
        pot0, grid = free_box(65)
        np.testing.assert_array_equal(discretize(square_well(0.0, np.pi, BT), grid).matrix,
                                      discretize(pot0, grid).matrix)

    def test_box_grid_mismatch(self):
        with pytest.raises(ValueError, match="half-width"):
            discretize(square_well(0.3, np.pi, BT), Grid(half_width=2.0, n=65))

    def test_unknown_bc(self):
        pot, grid = free_box(65)
        with pytest.raises(ValueError, match="boundary"):
            discretize(pot, grid, bc="periodic")


class TestFreeSpectrum:
    def test_levels_match_eigensolver(self):
        pot, grid = free_box(65)
        sys = biorthonormalize(discretize(pot, grid))
        levels = free_box_levels(grid, BT)
        np.testing.assert_allclose(sys.energies.real, levels, rtol=1e-8)
        np.testing.assert_allclose(sys.energies.imag, 0.0, atol=1e-9)

    def test_ground_energy_continuum_limit(self):
        pot, grid = free_box(257)
        e1 = biorthonormalize(discretize(pot, grid)).energies[0].real
        # discrete dispersion: E1 = 1 - h^2/12 + O(h^4)
        assert abs(e1 - 1.0) < 2e-5
        assert abs(e1 - 1.0) > 1e-6

    def test_richardson_extrapolation(self):
        _, g1 = free_box(129)
        _, g2 = free_box(257)
        pot = PotentialSpec(constants=BT, domain=Domain.box(np.pi))
        e_coarse = biorthonormalize(discretize(pot, g1)).energies[0].real
        e_fine = biorthonormalize(discretize(pot, g2)).energies[0].real
        assert abs((4.0 * e_fine - e_coarse) / 3.0 - 1.0) < 1e-6

    def test_count_validation(self):
        _, grid = free_box(65)
        assert len(free_box_levels(grid, BT, count=10)) == 10
        with pytest.raises(ValueError):
            free_box_levels(grid, BT, count=0)


class TestBiorthonormalize:
    def test_small_coupling_spectrum_real(self):
        grid = Grid.for_box(np.pi, 129)
        sys = biorthonormalize(discretize(square_well(0.1, np.pi, BT), grid))
        e = sys.energies[:10]
        assert np.all(np.abs(e.imag) < 1e-6 * np.abs(e.real))

    def test_hermitian_limit_left_equals_right(self):
        pot, grid = free_box(65)
        sys = biorthonormalize(discretize(pot, grid))
        np.testing.assert_allclose(sys.left, sys.right, atol=1e-8)
        gram = grid.h * (sys.right.conj().T @ sys.right)
        np.testing.assert_allclose(gram, np.eye(63), atol=1e-10)

    def test_biorthonormality_defect(self):
        grid = Grid.for_box(np.pi, 65)
        sys = biorthonormalize(discretize(square_well(0.3, np.pi, BT), grid))
        overlap = grid.h * (sys.right.conj().T @ sys.left)
        assert np.max(np.abs(overlap - np.eye(63))) < 1e-8
        assert sys.defect < 1e-8

    def test_conjugate_shortcut_against_independent_left_solve(self):
        # for a complex-symmetric matrix the left vectors are conjugates
        # of the right ones up to normalization
        grid = Grid.for_box(np.pi, 65)
        sys = biorthonormalize(discretize(square_well(0.3, np.pi, BT), grid))
        for k in (0, 5, 20, 40):
            psi = sys.right[:, k]
            shortcut = np.conj(psi) / (grid.h * (psi.conj() @ np.conj(psi)))
            np.testing.assert_allclose(sys.left[:, k], shortcut,
                                       atol=1e-7 * np.max(np.abs(shortcut)))

    def test_sorted_by_real_part(self):
        grid = Grid.for_box(np.pi, 65)
        sys = biorthonormalize(discretize(square_well(0.4, np.pi, BT), grid))
        assert np.all(np.diff(sys.energies.real) >= -1e-12)

    def test_jordan_block_raises(self):
        with pytest.raises(ExceptionalPointError):
            pair_eigensystem(np.array([[1.0, 1.0], [0.0, 1.0]], dtype=complex), 1.0)

    def test_near_degenerate_gap_raises(self):
        with pytest.raises(ExceptionalPointError, match="gap"):
            pair_eigensystem(np.diag([1.0, 1.0 + 1e-12]).astype(complex), 1.0)

    def test_ill_conditioned_eigenvectors_raise(self):
        with pytest.raises(ExceptionalPointError, match="condition"):
            pair_eigensystem(np.array([[1.0, 1e9], [0.0, 2.0]], dtype=complex), 1.0)

    def test_exact_exceptional_points_raise(self):
        # the complex-symmetric block [[c+s, i*s], [i*s, c-s]] is a Jordan
        # block at the double eigenvalue c; embedded in a diagonal matrix and
        # rotated by a real orthogonal Q it stays complex symmetric and defective
        rng = np.random.default_rng(0)
        for m in (2, 10, 50):
            for _ in range(20):
                c, s = rng.uniform(0.5, 2.0), rng.uniform(0.1, 1.0)
                a = np.diag(np.concatenate(([c + s, c - s],
                                            rng.uniform(-3.0, 3.0, m - 2)))).astype(complex)
                a[0, 1] = a[1, 0] = 1j * s
                q = np.linalg.qr(rng.standard_normal((m, m)))[0]
                with pytest.raises(ExceptionalPointError):
                    pair_eigensystem(q @ a @ q.T, 1.0)

    def test_round_off_biorthonormality(self):
        grid = Grid.for_box(np.pi, 257)
        sys = biorthonormalize(discretize(square_well(0.9, np.pi, BT), grid))
        assert sys.defect < 1e-13


class TestSpectralMetric:
    def test_completeness_at_zero_coupling(self):
        pot, grid = free_box(65)
        sys = biorthonormalize(discretize(pot, grid))
        k = spectral_metric(sys, 63)
        inner = k.smooth[1:-1, 1:-1]
        target = np.eye(63) / grid.h
        assert np.max(np.abs(inner - target)) < 1e-6
        # walls stay zero
        assert np.all(k.smooth[0, :] == 0.0) and np.all(k.smooth[:, -1] == 0.0)

    def test_truncated_metric_hermitian_and_positive(self):
        grid = Grid.for_box(np.pi, 65)
        sys = biorthonormalize(discretize(square_well(0.1, np.pi, BT), grid))
        k = spectral_metric(sys, 40)
        assert hermiticity_defect(k) < 1e-10
        assert positivity_check(k, grid).passed
        # rank 40 out of 63: not invertible
        assert not invertibility_check(k, grid).passed

    def test_full_metric_strictly_positive_and_commuting(self):
        grid = Grid.for_box(np.pi, 65)
        ham = discretize(square_well(0.1, np.pi, BT), grid)
        sys = biorthonormalize(ham)
        k = spectral_metric(sys, 63)
        rep = positivity_check(k, grid)
        assert rep.passed and rep.meta["min_eigenvalue"] > 0.0
        assert pseudo_hermiticity_residual(k, ham).relative < 1e-6
        assert invertibility_check(k, grid).passed

    def test_mode_count_validated(self):
        pot, grid = free_box(65)
        sys = biorthonormalize(discretize(pot, grid))
        with pytest.raises(ValueError):
            spectral_metric(sys, 0)
        with pytest.raises(ValueError):
            spectral_metric(sys, 64)


class TestSpectrumCsv:
    def test_format_and_values(self, tmp_path):
        pot, grid = free_box(65)
        sys = biorthonormalize(discretize(pot, grid))
        path = tmp_path / "spectrum.csv"
        spectrum_to_csv(sys, path)
        lines = path.read_text().strip().split("\n")
        assert lines[0] == "n,Re_E,Im_E"
        assert len(lines) == 64
        first = lines[1].split(",")
        assert first[0] == "1"
        assert float(first[1]) == pytest.approx(sys.energies[0].real, rel=1e-11)
