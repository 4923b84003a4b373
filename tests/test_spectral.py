"""Spectral-oracle tests against the exact discrete box spectrum."""

import sys
import warnings
import weakref

import numpy as np
import pytest

from qmetric import spectral
from qmetric.closed_forms import bender_tan_Q, preset_seed
from qmetric.commands import _spectral_artifacts
from qmetric.kernels import Grid, hermiticity_defect, kernel_from_csv, kernel_to_csv
from qmetric.potentials import (
    Domain,
    PotentialSpec,
    constants_preset,
    delta_potential,
    eval_potential,
    pt_delta_pairs,
    scattering_potential,
    square_well,
)
from qmetric.series import KConfig, neumann_series
from qmetric.spectral import (
    ExceptionalPointError,
    _is_pt_symmetric,
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
        assert ham.diag.shape == (63,) and ham.off.shape == (62,)
        H = ham.dense()
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
        diff = ham.dense() - ham0.dense()
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
        np.testing.assert_array_equal(discretize(square_well(0.0, np.pi, BT), grid).dense(),
                                      discretize(pot0, grid).dense())

    def test_box_grid_mismatch(self):
        with pytest.raises(ValueError, match="half-width"):
            discretize(square_well(0.3, np.pi, BT), Grid(half_width=2.0, n=65))

    def test_two_diagonals_allocate_no_matrix(self, traced_peak):
        pot, grid = square_well(0.068931, np.pi, BT), Grid.for_box(np.pi, 769)
        m = grid.n - 2
        peak = traced_peak(lambda: discretize(pot, grid))
        assert peak < 0.01 * m * m * np.dtype(complex).itemsize

    @staticmethod
    def _index_assignment_matrix(pot, grid):
        """The dense matrix as an index-assignment builder writes it, entry by entry."""
        h, m = grid.h, grid.n - 2
        kappa = pot.constants.hbar**2 / (2.0 * pot.constants.mass)
        x = grid.nodes[1:-1]
        H = np.zeros((m, m), dtype=complex)
        idx = np.arange(m)
        H[idx, idx] = 2.0 * kappa / h**2 + eval_potential(pot, x)
        H[idx[:-1], idx[:-1] + 1] = -kappa / h**2
        H[idx[:-1] + 1, idx[:-1]] = -kappa / h**2
        for a, zeta in pot.deltas:
            j = int(np.argmin(np.abs(x - a)))
            H[j, j] += 1j * zeta / h
        return H

    @pytest.mark.parametrize("pot, grid", [
        (square_well(0.3, np.pi, BT), Grid.for_box(np.pi, 65)),
        (scattering_potential(0.7, 1.0, NAT), Grid(half_width=3.0, n=129)),
        (delta_potential([(0.3 + 0.1 / 32, 0.5)], NAT), Grid(half_width=2.0, n=129)),
    ], ids=["well", "scattering", "off-node-coupling"])
    def test_dense_equals_the_index_assignment_builder(self, pot, grid):
        ham = discretize(pot, grid)
        assert ham.diag.dtype == ham.off.dtype == np.complex128
        H = ham.dense()
        assert H.tobytes() == self._index_assignment_matrix(pot, grid).tobytes()
        assert ham.max_abs == np.max(np.abs(H))


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

    # the system keeps no right eigenvectors: R comes from pair_eigensystem,
    # whose energies, L and defect the system holds unchanged; on this PT-real
    # input L comes as real coordinates, which the system keeps as X = [a; b; c]
    def test_system_is_the_pair_without_right_vectors(self):
        ham = discretize(square_well(0.3, np.pi, BT), Grid.for_box(np.pi, 65))
        sys = biorthonormalize(ham)
        energies, _, left, defect = pair_eigensystem(ham.dense(), ham.grid.h)
        assert left.dtype == sys.coords.dtype == np.float64
        np.testing.assert_array_equal(sys.energies, energies)
        np.testing.assert_array_equal(sys.left, spectral._unfold(left))
        assert sys.defect == defect
        assert not hasattr(sys, "right")

    @pytest.mark.parametrize("column", [0, 40, 62], ids=["first_block", "second_block", "last"])
    @pytest.mark.parametrize("which", [1, 2], ids=["right", "left"])
    def test_nan_eigenvector_fails_the_residual_check(self, monkeypatch, which, column):
        pair = pair_eigensystem

        def with_nan(matrix, h):
            result = list(pair(matrix, h))
            result[which] = result[which].copy()
            result[which][5, column] = np.nan
            return tuple(result)

        monkeypatch.setattr(spectral, "pair_eigensystem", with_nan)
        with pytest.raises(ExceptionalPointError, match="residual nan"):
            biorthonormalize(discretize(square_well(0.3, np.pi, BT), Grid.for_box(np.pi, 65)))

    @pytest.mark.parametrize("name", ["well-unbroken", "general"])
    def test_nan_inverse_raises(self, monkeypatch, name):
        # a NaN in L makes the condition number and the defect NaN: both guards fail
        if name == "general":
            pot, grid = delta_potential([(0.0, 1.0), (-0.3, 0.5)], NAT), Grid(half_width=2.0, n=129)
        else:
            pot, grid = PT_INPUTS[name]
        inv = np.linalg.inv

        def with_nan(a):
            out = inv(a)
            out[3, 7] = np.nan
            return out

        monkeypatch.setattr(np.linalg, "inv", with_nan)
        with pytest.raises(ExceptionalPointError, match="nan"):
            pair_eigensystem(discretize(pot, grid).dense(), grid.h)

    def test_hermitian_limit_left_equals_right(self):
        pot, grid = free_box(65)
        _, right, left, _ = pair_eigensystem(discretize(pot, grid).dense(), grid.h)
        np.testing.assert_allclose(left, right, atol=1e-8)
        gram = grid.h * (right.conj().T @ right)
        np.testing.assert_allclose(gram, np.eye(63), atol=1e-10)

    def test_biorthonormality_defect(self):
        grid = Grid.for_box(np.pi, 65)
        ham = discretize(square_well(0.3, np.pi, BT), grid)
        sys = biorthonormalize(ham)
        right = spectral._unfold(pair_eigensystem(ham.dense(), grid.h)[1])
        overlap = grid.h * (right.conj().T @ sys.left)
        assert np.max(np.abs(overlap - np.eye(63))) < 1e-8
        assert sys.defect < 1e-8

    def test_conjugate_shortcut_against_independent_left_solve(self):
        # for a complex-symmetric matrix the left vectors are conjugates
        # of the right ones up to normalization
        grid = Grid.for_box(np.pi, 65)
        ham = discretize(square_well(0.3, np.pi, BT), grid)
        _, right, left, _ = pair_eigensystem(ham.dense(), grid.h)
        right, left = spectral._unfold(right), spectral._unfold(left)
        for k in (0, 5, 20, 40):
            psi = right[:, k]
            shortcut = np.conj(psi) / (grid.h * (psi.conj() @ np.conj(psi)))
            np.testing.assert_allclose(left[:, k], shortcut,
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


def _direct_eig(matrix, h):
    """Reference from one complex np.linalg.eig, sorted and scaled as pair_eigensystem does."""
    w, v = np.linalg.eig(matrix)
    order = np.lexsort((w.imag, w.real))
    right = v[:, order] / (np.sqrt(h) * np.linalg.norm(v[:, order], axis=0))
    return w[order], right, np.linalg.inv(right).conj().T / h


def _reversal_commuting_rotation(rng, m):
    """Random real orthogonal Q with Q P = P Q, P the reversal of the index order."""
    p = m // 2
    k = np.arange(p)
    basis = np.zeros((m, m))  # even columns 0..p-1 and m-1, odd columns p..2p-1
    basis[k, k] = basis[m - 1 - k, k] = basis[k, p + k] = 1.0 / np.sqrt(2.0)
    basis[m - 1 - k, p + k] = -1.0 / np.sqrt(2.0)
    if m % 2:
        basis[p, -1] = 1.0
    even = np.r_[k, np.arange(2 * p, m)]
    block = np.zeros((m, m))
    block[np.ix_(even, even)] = np.linalg.qr(rng.standard_normal((even.size, even.size)))[0]
    block[p:2 * p, p:2 * p] = np.linalg.qr(rng.standard_normal((p, p)))[0]
    return basis @ block @ basis.T


PT_INPUTS = {
    "well-unbroken": (square_well(0.9, np.pi, BT), Grid.for_box(np.pi, 257)),
    "well-broken": (square_well(3.0, np.pi, BT), Grid.for_box(np.pi, 257)),
    "scattering": (scattering_potential(0.7, 1.0, NAT), Grid(half_width=3.0, n=129)),
    "pt-deltas": (pt_delta_pairs([(0.37, 0.5)], NAT), Grid(half_width=2.0, n=129)),
}


# 0.390625 = 12.5 h on the n = 129 grid: each coupling sits midway between
# two nodes and takes the lower one, so the pair lands on nodes that are
# not mirror images
PT_READ_INPUTS = dict(PT_INPUTS, **{
    "general-deltas": (delta_potential([(0.0, 1.0), (-0.3, 0.5)], NAT),
                       Grid(half_width=2.0, n=129)),
    "pt-deltas-midway": (pt_delta_pairs([(0.390625, 0.5)], NAT), Grid(half_width=2.0, n=129)),
})


@pytest.mark.parametrize("name", PT_READ_INPUTS)
def test_pt_real_from_the_diagonals_equals_the_dense_test(tmp_path, name):
    pot, grid = PT_READ_INPUTS[name]
    _, summary = _spectral_artifacts(pot, grid, 1, tmp_path)
    assert summary["pt_real"] == _is_pt_symmetric(discretize(pot, grid).dense())
    assert summary["pt_real"] == (name in PT_INPUTS)


class TestPTRealPath:
    @pytest.mark.parametrize("name", PT_INPUTS)
    def test_matches_complex_solve(self, name):
        pot, grid = PT_INPUTS[name]
        ham = discretize(pot, grid)
        assert _is_pt_symmetric(ham.dense())
        sys = biorthonormalize(ham)
        energies, _, left = _direct_eig(ham.dense(), grid.h)
        assert np.max(np.abs(sys.energies - energies)) <= 1e-13 * np.max(np.abs(energies))
        reference = left @ left.conj().T
        reference = 0.5 * (reference + reference.conj().T)
        metric = spectral_metric(sys, ham.dim).smooth[1:-1, 1:-1]
        assert np.max(np.abs(metric - reference)) <= 1e-11 * np.max(np.abs(reference))
        # the real solve returns real levels with an exact zero imaginary part
        # and complex levels as exact conjugate pairs
        e = sys.energies
        pairs = e[e.imag != 0.0]
        assert (pairs.size > 0) == (name == "well-broken")
        np.testing.assert_array_equal(np.sort_complex(pairs), np.sort_complex(pairs.conj()))

    def test_general_input_keeps_complex_solve(self):
        grid = Grid(half_width=2.0, n=129)
        ham = discretize(delta_potential([(0.0, 1.0), (-0.3, 0.5)], NAT), grid)
        H = ham.dense()
        assert not _is_pt_symmetric(H)
        energies, right, left, _ = pair_eigensystem(H, grid.h)
        ref_energies, ref_right, ref_left = _direct_eig(H, grid.h)
        np.testing.assert_array_equal(energies, ref_energies)
        np.testing.assert_array_equal(right, ref_right)
        np.testing.assert_array_equal(left, ref_left)

    def test_pt_symmetric_exceptional_points_raise(self):
        # [[a + ib, c], [c, a - ib]] on the mirror pair (k, m-1-k) has levels
        # a +- sqrt(c^2 - b^2): a Jordan block at b = c.  The other pairs are
        # PT-unbroken (c > b); a real rotation commuting with the reversal and
        # the mirror average keep P conj(H) P = H exact, so the real path runs.
        # Each case raises at b = c and passes with c = 2b in the same slot.
        rng = np.random.default_rng(1)
        for m in (2, 3, 10, 11, 50, 51):
            p = m // 2
            k = np.arange(p)
            for _ in range(10):
                a, b = rng.uniform(-2.0, 2.0, p), rng.uniform(0.1, 1.0, p)
                c = b * rng.uniform(1.5, 3.0, p)
                q = _reversal_commuting_rotation(rng, m)
                mid = rng.uniform(-2.0, 2.0)
                for c0, defective in ((b[0], True), (2.0 * b[0], False)):
                    c[0] = c0
                    h = np.zeros((m, m), dtype=complex)
                    h[k, k], h[m - 1 - k, m - 1 - k] = a + 1j * b, a - 1j * b
                    h[k, m - 1 - k] = h[m - 1 - k, k] = c
                    if m % 2:
                        h[p, p] = mid
                    h = q @ h @ q.T
                    h = 0.5 * (h + h[::-1, ::-1].conj())
                    assert _is_pt_symmetric(h)
                    if defective:
                        with pytest.raises(ExceptionalPointError):
                            pair_eigensystem(h, 1.0)
                    else:
                        pair_eigensystem(h, 1.0)


def _extended_precision_levels(ham, shifts, sweeps=3):
    """Levels of the tridiagonal H near the given shifts, in np.clongdouble.

    Inverse iteration at the fixed shifts (one Thomas solve per sweep,
    all shifts at once), then the complex-symmetric Rayleigh quotient
    x^T H x / x^T x of the converged vectors.
    """
    d, e = ham.diag.astype(np.clongdouble), ham.off.astype(np.clongdouble)
    m = d.size
    pivots = d[:, None] - np.asarray(shifts).astype(np.clongdouble)[None, :]
    for i in range(m - 1):
        pivots[i + 1] -= e[i] ** 2 / pivots[i]
    x = np.ones((m, len(shifts)), dtype=np.clongdouble)
    for _ in range(sweeps):
        for i in range(m - 1):
            x[i + 1] -= (e[i] / pivots[i]) * x[i]
        x[m - 1] /= pivots[m - 1]
        for i in range(m - 2, -1, -1):
            x[i] = (x[i] - e[i] * x[i + 1]) / pivots[i]
        x /= np.sqrt(np.sum(np.abs(x) ** 2, axis=0))
    hx = d[:, None] * x
    hx[:-1] += e[:, None] * x[1:]
    hx[1:] += e[:, None] * x[:-1]
    return np.sum(x * hx, axis=0) / np.sum(x * x, axis=0)


def _fallback_bits(monkeypatch, matrix, h):
    """pair_eigensystem with the iteration switched off: the real eig of the fold."""
    with monkeypatch.context() as patch:
        patch.setattr(spectral, "_rqi_fold", lambda *args: None)
        return pair_eigensystem(matrix, h)


def _assert_same_bits(result, reference):
    for got, want in zip(result, reference):
        assert np.asarray(got).tobytes() == np.asarray(want).tobytes()


class TestRayleighQuotientPath:
    """Batched Rayleigh-quotient iteration on the diagonals of a PT-symmetric H."""

    @staticmethod
    def _count(monkeypatch, owner, name):
        """Patch owner.name with a spy; return the list it appends one entry to per call."""
        calls, target = [], getattr(owner, name)

        def spy(*args):
            calls.append(1)
            return target(*args)

        monkeypatch.setattr(owner, name, spy)
        return calls

    @pytest.mark.parametrize("name", ["well-unbroken", "scattering", "pt-deltas"])
    def test_unbroken_inputs_need_no_eig(self, monkeypatch, name):
        pot, grid = PT_INPUTS[name]
        eig_calls = self._count(monkeypatch, np.linalg, "eig")
        energies, _, _, defect = pair_eigensystem(discretize(pot, grid).dense(), grid.h)
        assert eig_calls == []
        assert np.all(energies.imag == 0.0) and defect < 1e-13

    @staticmethod
    def _random_pt_chain(m, seed):
        """Diagonals of a random exactly PT-symmetric tridiagonal matrix, and PT-invariant columns."""
        rng = np.random.default_rng(seed)
        diag = rng.standard_normal(m) + 1j * rng.standard_normal(m)
        off = rng.standard_normal(m - 1) + 1j * rng.standard_normal(m - 1)
        x = rng.standard_normal((m, 4)) + 1j * rng.standard_normal((m, 4))
        diag, off, x = (0.5 * (a + a[::-1].conj()) for a in (diag, off, x))
        assert _is_pt_symmetric(spectral._dense(diag, off))
        return diag, off, x, rng.standard_normal(4)

    # the half-chain solve and product give the top rows of the full ones, for
    # odd m (a real middle row) and even m (a 2 x 2 real system in the middle)
    @pytest.mark.parametrize("m", [1, 2, 6, 7, 64, 65])
    def test_twisted_solve_is_the_full_solve(self, m):
        diag, off, x, shifts = self._random_pt_chain(m, m)
        A = spectral._dense(diag, off)
        q = m - m // 2
        full = np.stack([np.linalg.solve(A - s * np.eye(m), x[:, j]) for j, s in enumerate(shifts)],
                        axis=1)
        half = spectral._twisted(diag, off, shifts, x[:q].copy())
        np.testing.assert_allclose(half, full[:q], rtol=1e-10, atol=1e-10 * np.max(np.abs(full)))
        if m % 2:
            assert np.all(half[-1].imag == 0.0)
        np.testing.assert_allclose(spectral._half_product(diag, off, x[:q]), (A @ x)[:q],
                                   rtol=1e-13, atol=1e-13 * np.max(np.abs(A @ x)))

    def test_converged_middle_pivot_is_guarded(self):
        # a shift at an exact level of the middle row alone zeroes the real
        # middle pivot: without the guard the solve divides by zero
        diag = np.array([2.0, 3.0, 2.0], dtype=complex)
        off = np.zeros(2, dtype=complex)
        with np.errstate(all="raise"):
            x = spectral._twisted(diag, off, np.array([3.0]), np.ones((2, 1), dtype=complex))
        assert np.all(np.isfinite(x)) and x[1, 0] == 1.0 / (1e-15 * 3.0)

    # at these couplings a full-chain solve at a converged shift left some
    # vectors at a phase near pi/2, which folded them to round-off; iterates
    # kept as the top half of a PT-invariant vector carry no such phase
    @pytest.mark.parametrize("zeta", [0.039933, 0.554783, 0.650569])
    def test_converged_phase_does_not_spoil_the_fold(self, monkeypatch, zeta):
        ham = discretize(square_well(zeta, np.pi, BT), Grid.for_box(np.pi, 129))
        eig_calls = self._count(monkeypatch, np.linalg, "eig")
        biorthonormalize(ham)
        assert eig_calls == []

    def _assert_lowest_levels_match_extended_precision(self, monkeypatch, ham, bound):
        shifts = np.sort(np.linalg.eigvals(ham.dense()).real)[:3]  # independent of the iteration
        reference = _extended_precision_levels(ham, shifts)
        eig_calls = self._count(monkeypatch, np.linalg, "eig")
        energies = pair_eigensystem(ham.dense(), ham.grid.h)[0]
        assert eig_calls == []
        error = np.abs(energies[:3] - reference) / np.abs(reference)
        assert np.all(error <= bound), error

    def test_lowest_levels_match_extended_precision(self, monkeypatch):
        pot, grid = PT_INPUTS["well-unbroken"]
        self._assert_lowest_levels_match_extended_precision(monkeypatch, discretize(pot, grid),
                                                            1e-14)

    # the levels are quotients summed by parts: x^T (A x) loses up to 4e-13
    # at n 769 to its cancelling O(1/h^2) terms, and eig about 1e-10
    @pytest.mark.parametrize("zeta", [0.068931, 0.9])
    def test_lowest_levels_at_n_769_match_extended_precision(self, monkeypatch, zeta):
        ham = discretize(square_well(zeta, np.pi, BT), Grid.for_box(np.pi, 769))
        self._assert_lowest_levels_match_extended_precision(monkeypatch, ham, 1e-14)

    def test_broken_spectrum_falls_back_after_one_block(self, monkeypatch):
        pot, grid = PT_INPUTS["well-broken"]
        H = discretize(pot, grid).dense()
        reference = _fallback_bits(monkeypatch, H, grid.h)
        sweeps = self._count(monkeypatch, spectral, "_twisted")
        result = pair_eigensystem(H, grid.h)
        # the lowest block holds the complex pairs: it fails, and no other block runs
        assert 0 < len(sweeps) <= spectral._RQI_SWEEPS
        _assert_same_bits(result, reference)
        assert np.any(result[0].imag != 0.0)

    def test_broken_starts_on_real_levels_fall_back_after_one_block(self, monkeypatch):
        # complex pairs at sorted levels 1, 2, 5, 6 and 760-765: the starts there
        # converge onto neighbouring real levels instead of stalling, so the
        # first block ends with a repeated level and the margin check stops it
        grid = Grid(half_width=2.0, n=769)
        H = discretize(pt_delta_pairs([(1.0, 5.0)], NAT), grid).dense()
        reference = _fallback_bits(monkeypatch, H, grid.h)
        sweeps = self._count(monkeypatch, spectral, "_twisted")
        eig_calls = self._count(monkeypatch, np.linalg, "eig")
        result = pair_eigensystem(H, grid.h)
        assert 0 < len(sweeps) <= spectral._RQI_SWEEPS and eig_calls == [1]
        _assert_same_bits(result, reference)
        assert np.any(result[0].imag != 0.0)

    def test_starts_on_one_level_fall_back(self, monkeypatch):
        # the second start is made a copy of the first: both converge to the
        # ground level, and the iteration must give way to eig rather than
        # report a false exceptional point from the repeated level
        pot, grid = PT_INPUTS["well-unbroken"]
        H = discretize(pot, grid).dense()
        reference = _fallback_bits(monkeypatch, H, grid.h)
        rayleigh, starts = spectral._rayleigh, []

        def one_level(diag, off, vectors):
            if not starts:
                starts.append(1)
                vectors[:, 1] = vectors[:, 0]
            return rayleigh(diag, off, vectors)

        monkeypatch.setattr(spectral, "_rayleigh", one_level)
        eig_calls = self._count(monkeypatch, np.linalg, "eig")
        result = pair_eigensystem(H, grid.h)
        assert eig_calls == [1]
        _assert_same_bits(result, reference)

    @staticmethod
    def _not_tridiagonal(H, kind):
        """H plus a real PT-symmetric perturbation: dense, or on the off-diagonals but unsymmetric."""
        rng = np.random.default_rng(2)
        if kind == "dense":
            s = rng.standard_normal(H.shape)
            s = s + s.T
            return H + 1e-3 * (s + s[::-1, ::-1])
        m = H.shape[0]
        k = np.arange(m - 1)
        r = 1e-3 * rng.standard_normal(m - 1)  # upper (k, k+1) and its PT image (m-1-k, m-2-k)
        H = H.copy()
        H[k, k + 1] += r
        H[m - 1 - k, m - 2 - k] += r
        return H

    def test_unconverged_block_fails_the_unfolded_check(self, monkeypatch):
        # a residual reported as zero ends every block after one sweep from the
        # sine starts; the check of the unfolded vectors on the two diagonals
        # must still send the input to eig
        pot, grid = PT_INPUTS["well-unbroken"]
        H = discretize(pot, grid).dense()
        reference = _fallback_bits(monkeypatch, H, grid.h)
        rayleigh = spectral._rayleigh

        def overclaimed(diag, off, z):
            return *rayleigh(diag, off, z)[:2], 0.0

        monkeypatch.setattr(spectral, "_rayleigh", overclaimed)
        eig_calls = self._count(monkeypatch, np.linalg, "eig")
        result = pair_eigensystem(H, grid.h)
        assert eig_calls == [1]
        _assert_same_bits(result, reference)

    def _assert_falls_back_before_the_iteration(self, monkeypatch, kind):
        pot, grid = PT_INPUTS["well-unbroken"]
        H = self._not_tridiagonal(discretize(pot, grid).dense(), kind)
        assert _is_pt_symmetric(H) and not spectral._is_tridiagonal(H)
        reference = _fallback_bits(monkeypatch, H, grid.h)
        rqi_calls = self._count(monkeypatch, spectral, "_rqi_fold")
        eig_calls = self._count(monkeypatch, np.linalg, "eig")
        result = pair_eigensystem(H, grid.h)
        assert rqi_calls == [] and eig_calls == [1]
        _assert_same_bits(result, reference)

    # the iteration solves the two diagonals of a symmetric tridiagonal matrix
    # only: the exact tridiagonality test sends any other PT-symmetric input,
    # here one a real symmetric perturbation fills, to eig at once
    def test_dense_input_falls_back(self, monkeypatch):
        self._assert_falls_back_before_the_iteration(monkeypatch, "dense")

    def test_unsymmetric_tridiagonal_input_falls_back(self, monkeypatch):
        self._assert_falls_back_before_the_iteration(monkeypatch, "unsymmetric")

    @pytest.mark.parametrize("name", PT_READ_INPUTS)
    def test_tridiagonality_test_is_exact(self, name):
        pot, grid = PT_READ_INPUTS[name]
        H = discretize(pot, grid).dense()
        assert spectral._is_tridiagonal(H)
        for i, j in [(0, 2), (grid.n - 3, 0), (5, 9)]:
            G = H.copy()
            G[i, j] = 1e-300
            assert not spectral._is_tridiagonal(G)
        G = H.copy()
        G[3, 4] *= 1.0 + 2.0**-52
        assert not spectral._is_tridiagonal(G)


def _exactly_hermitian_and_pt_symmetric(M):
    return np.array_equal(M, M.conj().T) and np.array_equal(M[::-1, ::-1].conj(), M)


class TestFoldedMetric:
    @pytest.mark.parametrize("n_modes", [40, None], ids=["40-modes", "all-modes"])
    @pytest.mark.parametrize("name", ["well-unbroken", "scattering", "pt-deltas"])
    def test_exactly_hermitian_and_pt_symmetric(self, tmp_path, name, n_modes):
        pot, grid = PT_INPUTS[name]
        sys = biorthonormalize(discretize(pot, grid))
        n_modes = n_modes or grid.n - 2
        k = spectral_metric(sys, n_modes)
        assert _exactly_hermitian_and_pt_symmetric(k.smooth[1:-1, 1:-1])
        assert np.all(k.smooth[[0, -1], :] == 0.0) and np.all(k.smooth[:, [0, -1]] == 0.0)
        kernel_to_csv(k, tmp_path / "metric.csv")
        stored = kernel_from_csv(tmp_path / "metric.csv")
        assert _exactly_hermitian_and_pt_symmetric(stored.smooth[1:-1, 1:-1])
        # the real product against the complex one on the same left vectors
        idx = np.argsort(np.abs(sys.energies.real), kind="stable")[:n_modes]
        phi = sys.left[:, idx]
        reference = phi @ phi.conj().T
        reference = 0.5 * (reference + reference.conj().T)
        metric = k.smooth[1:-1, 1:-1]
        assert np.max(np.abs(metric - reference)) <= 1e-13 * np.max(np.abs(reference))

    def test_broken_levels_keep_the_complex_product(self):
        # complex eigenvectors of the fold map to vectors that are not PT-invariant
        pot, grid = PT_INPUTS["well-broken"]
        sys = biorthonormalize(discretize(pot, grid))
        phi = sys.left
        reference = phi @ phi.conj().T
        reference = 0.5 * (reference + reference.conj().T)
        np.testing.assert_array_equal(spectral_metric(sys, grid.n - 2).smooth[1:-1, 1:-1],
                                      reference)

    @pytest.mark.parametrize("name, dtype", [("well-unbroken", np.float64),
                                             ("well-broken", np.complex128),
                                             ("general", np.complex128)])
    def test_inverse_runs_in_the_folded_basis(self, monkeypatch, name, dtype):
        if name == "general":
            pot, grid = delta_potential([(0.0, 1.0), (-0.3, 0.5)], NAT), Grid(half_width=2.0, n=129)
        else:
            pot, grid = PT_INPUTS[name]
        ham = discretize(pot, grid)
        seen = []
        inv = np.linalg.inv

        def spy(a, *args, **kwargs):
            seen.append(a.dtype)
            return inv(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "inv", spy)
        _, right, left, defect = pair_eigensystem(ham.dense(), grid.h)
        assert seen == [dtype]
        # real levels keep the real coordinates; complex pairs are mapped back
        assert right.dtype == left.dtype == dtype
        assert defect < 1e-13


class TestEigenSolveMemory:
    """No m x m matrix outlives its use in pair_eigensystem."""

    def test_traced_peak_at_n_769(self, traced_peak):
        # the dense input, freed before the iteration, then at most right, left,
        # the half-size moduli of the condition number and O(128 m) blocks:
        # 1.27 m x m complex arrays (3.03 with the complex eigenvectors mapped
        # back, 4.03 with a caller's frame keeping the input alive)
        ham = discretize(square_well(0.068931, np.pi, BT), Grid.for_box(np.pi, 769))
        peak = traced_peak(lambda: pair_eigensystem(ham.dense(), ham.grid.h))
        assert peak / (ham.dim**2 * np.dtype(complex).itemsize) < 1.4

    def test_oracle_solve_and_metric_traced_peak_at_n_769(self, traced_peak):
        # as oracle runs them: the peak comes in spectral_metric, with X held by
        # the system, eta = X X^T and the metric on the full grid, 2.27 m x m
        # complex arrays; 3.03 with complex eigenvector arrays in the solve
        ham = discretize(square_well(0.068931, np.pi, BT), Grid.for_box(np.pi, 769))
        peak = traced_peak(lambda: spectral_metric(biorthonormalize(ham), ham.dim))
        assert peak / (ham.dim**2 * np.dtype(complex).itemsize) < 2.4

    # CPython 3.11 moves a call's arguments into the callee's frame, so the
    # caller's ham.dense() temporary goes when pair_eigensystem drops it
    @pytest.mark.skipif(sys.version_info < (3, 11), reason="the caller holds its arguments")
    @pytest.mark.parametrize("case", ["folded", "broken", "complex"])
    def test_matrices_are_unreachable_once_used(self, monkeypatch, case):
        if case == "complex":
            pot, grid = delta_potential([(0.0, 1.0), (-0.3, 0.5)], NAT), Grid(half_width=2.0, n=129)
        else:
            pot, grid = PT_INPUTS["well-unbroken" if case == "folded" else "well-broken"]
        # weak references: dense matrices (the input, a matrix rebuilt for the
        # fold) and what was solved (the iteration's vectors, eig's input)
        inputs, solved = [], []
        dead_at_rqi, dead_at_eig, dead_at_inv = [], [], []
        pt_test, fold, rqi_fold = spectral._is_pt_symmetric, spectral._fold, spectral._rqi_fold
        eig, inv = np.linalg.eig, np.linalg.inv

        def pt_spy(a):
            inputs.append(weakref.ref(a))
            return pt_test(a)

        def fold_spy(a):
            inputs.append(weakref.ref(a))
            return fold(a)

        def rqi_spy(diag, off):
            dead_at_rqi.extend(ref() is None for ref in inputs)
            result = rqi_fold(diag, off)
            if result is not None:
                solved.append(weakref.ref(result[1]))
            return result

        def eig_spy(a):
            dead_at_eig.extend(ref() is None for ref in inputs)
            solved.append(weakref.ref(a))
            return eig(a)

        def inv_spy(a):
            dead_at_inv.extend(ref() is None for ref in inputs + solved)
            return inv(a)

        monkeypatch.setattr(spectral, "_is_pt_symmetric", pt_spy)
        monkeypatch.setattr(spectral, "_fold", fold_spy)
        monkeypatch.setattr(spectral, "_rqi_fold", rqi_spy)
        monkeypatch.setattr(np.linalg, "eig", eig_spy)
        monkeypatch.setattr(np.linalg, "inv", inv_spy)
        biorthonormalize(discretize(pot, grid))
        # the dense input is gone when the iteration runs on its diagonals; on
        # a broken spectrum, the matrix rebuilt from them is gone when eig
        # solves its fold; everything solved is gone when the inverse runs
        assert dead_at_rqi == ([] if case == "complex" else [True])
        assert dead_at_eig == {"folded": [], "broken": [True, True], "complex": [False]}[case]
        assert dead_at_inv == {"folded": [True, True], "broken": [True, True, True],
                               "complex": [True, True]}[case]


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


class TestNyquistMirror:
    """The all-mode metric is a checkerboard: the pins of its exact structure.

    With N = diag((-1)^i) and d = hbar^2 / (m h^2), the diagonal of the
    kinetic part, N H N + conj(H) = 2d I for any purely imaginary
    potential: the upper half of the spectrum mirrors the lower one, with
    eigenvectors N conj(psi).  The sum over every mode then carries a
    (-1)^(i - j) copy of the kernel at -zeta.
    """

    MODELS = {
        "well": lambda n: (square_well(0.3, np.pi, BT), Grid.for_box(np.pi, n)),
        "scattering": lambda n: (scattering_potential(0.1, 1.0, NAT), Grid(2.0, n)),
        "couplings": lambda n: (delta_potential([(-0.5, 0.7), (0.25, -0.4)], NAT),
                                Grid(2.0, n)),
    }

    @pytest.mark.parametrize("n", [65, 129])
    @pytest.mark.parametrize("model", sorted(MODELS))
    def test_mirror_identity_is_exact(self, model, n):
        pot, grid = self.MODELS[model](n)
        H = discretize(pot, grid).dense()
        s = (-1.0) ** np.arange(H.shape[0])
        d = pot.constants.hbar**2 / (pot.constants.mass * grid.h**2)
        assert np.array_equal(s[:, None] * H * s[None, :] + H.conj(), 2.0 * d * np.eye(s.size))

    @pytest.mark.parametrize("n", [65, 129, 257])
    def test_first_order_lives_on_the_odd_sublattice(self, n):
        # dM/dzeta by central differences at zeta = +-1e-4 (error O(zeta^2)):
        # twice the Bender-Tan kernel -Q on pairs with odd i - j, zero on even
        grid, dz = Grid.for_box(np.pi, n), 1e-4
        M = [spectral_metric(biorthonormalize(discretize(square_well(z, np.pi, BT), grid)),
                             n - 2).smooth[1:-1, 1:-1] for z in (dz, -dz)]
        dM = (M[0] - M[1]) / (2.0 * dz)
        x = grid.nodes[1:-1]
        target = -2.0 * bender_tan_Q(1.0, x[:, None], x[None, :])
        i = np.arange(n - 2)
        odd = (i[:, None] - i[None, :]) % 2 == 1
        sup = np.max(np.abs(target))
        assert np.max(np.abs(dM - target)[odd]) < 1e-8 * sup
        assert np.max(np.abs(dM)[~odd]) < 1e-11 * sup

    @pytest.mark.parametrize("n", [65, 129, 257])
    def test_second_order_differs_from_the_series_by_a_free_wave(self, n):
        # The zeta^2 term M2 of the metric, by central differences at
        # zeta = +-1e-2 and +-5e-3 with one Richardson step (error O(zeta^4)),
        # is zero on pairs with odd i - j.  On even i - j, M2 / 2 minus the
        # zeta^2 part of the bender-tan-seeded series is a discrete free wave
        # F(i - j) + G(i + j), which the 2h wave stencil annihilates: the two
        # routes differ by a zeta^2 seed.  Measured: 6e-10, 2e-9 and 7e-9 at
        # n 65, 129 and 257, where either term alone leaves 1e-2 to 9e-4.
        grid = Grid.for_box(np.pi, n)

        def metric(z):
            system = biorthonormalize(discretize(square_well(z, np.pi, BT), grid))
            return spectral_metric(system, n - 2).smooth[1:-1, 1:-1]

        def series(z):  # cubic in zeta at order 2, the seed being linear in it
            state = neumann_series(preset_seed("bender-tan", z, np.pi, BT),
                                   square_well(z, np.pi, BT), KConfig(max_order=2), grid)
            return state.partial_sum.smooth[1:-1, 1:-1]

        def second_difference(dz):
            return (metric(dz) + metric(-dz) - 2.0 * m0) / (2.0 * dz**2)

        def stencil(g):  # (2h)^2 (-d_x^2 + d_y^2) g at the nodes two in from the edge
            return g[4:, 2:-2] + g[:-4, 2:-2] - g[2:-2, 4:] - g[2:-2, :-4]

        m0 = metric(0.0)
        m2 = (4.0 * second_difference(5e-3) - second_difference(1e-2)) / 3.0
        s2 = 0.5 * (series(1.0) + series(-1.0)) - series(0.0)
        i = np.arange(n - 2)
        sep = i[:, None] - i[None, :]
        odd = sep % 2 == 1
        assert np.max(np.abs(m2[odd])) <= 1e-7
        # even centres whose stencil does not reach the diagonal
        off_band = (~odd & (np.abs(sep) > 2))[2:-2, 2:-2]
        assert np.max(np.abs(stencil(0.5 * m2 - s2)[off_band])) <= 1e-7
        assert np.max(np.abs(stencil(s2)[off_band])) > 1e-4


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
