"""Residual estimator tests with independently computed expected values."""

import json
import math

import numpy as np
import pytest

from qmetric.commands import _run_checks
from qmetric.closed_forms import square_well_eta1
from qmetric.kernels import (Grid, Kernel, SeedPair, hermiticity_defect, identity_kernel,
                             parity_kernel)
from qmetric.potentials import (
    Domain,
    PotentialSpec,
    constants_preset,
    delta_potential,
    eval_mass_term,
    eval_potential,
    scattering_potential,
    square_well,
)
from qmetric.series import KConfig, apply_K_to_identity, neumann_series
from qmetric.spectral import (
    DiscretizedHamiltonian,
    _fd_diagonals,
    _tridiagonal_product,
    biorthonormalize,
    discretize,
    pair_eigensystem,
    spectral_metric,
)
from qmetric.verify import (
    _BLOCK,
    _KG_BAND,
    KG_HEADROOM,
    KG_TOL,
    CheckReport,
    _commutator_blocks,
    _kg_budget_of,
    _kg_sup,
    _mass_term_sup,
    hermitian_eigenvalues,
    invertibility_check,
    kernel_matrix,
    kg_residual,
    positivity_check,
    pseudo_hermiticity_residual,
)

BT = constants_preset("bender-tan")
NAT = constants_preset("natural")


def real_well(depth=1.0, width=np.pi):
    dom = Domain.box(width)
    return PotentialSpec(constants=BT, domain=dom,
                         segments=(((-width / 2, 0.0), complex(depth)),
                                   ((0.0, width / 2), complex(depth))))


def _sampled_mass_term_sup(pot, grid):
    return _mass_term_sup(eval_potential(pot, grid.nodes), pot.constants.c0)


class TestReportSerialization:
    def test_json_line_key_order(self):
        rep = CheckReport(check="demo", residual=1.5, relative=0.25,
                          passed=True, meta={"n": 65})
        line = rep.to_json_line()
        assert line == '{"check": "demo", "residual": 1.5, "relative": 0.25, "pass": true, "meta": {"n": 65}}'
        assert json.loads(line)["pass"] is True


def test_numpy_scalar_tolerance_serializes_a_numpy_bool_pass():
    # residual <= np.float64 gives np.bool_, which json only takes through the coerce hook
    grid = Grid.for_box(np.pi, 33)
    rep = kg_residual(identity_kernel(grid), real_well(), grid, tolerance=np.float64(1e-8))
    assert type(rep.passed) is np.bool_
    rec = json.loads(rep.to_json_line())
    assert rec["pass"] is True and rec["meta"]["tolerance"] == 1e-8


class TestKernelMatrix:
    def test_identity_and_parity(self):
        grid = Grid.for_box(np.pi, 33)
        m = kernel_matrix(identity_kernel(grid))
        np.testing.assert_array_equal(m, np.eye(31) / grid.h)
        p = kernel_matrix(parity_kernel(grid))
        np.testing.assert_array_equal(p, np.eye(31)[::-1] / grid.h)

    def test_smooth_part_sampled_on_interior(self):
        grid = Grid.for_box(np.pi, 33)
        X, Y = grid.mesh()
        k = Kernel(grid=grid, c_diag=2.0, smooth=np.exp(1j * X) * np.cos(Y))
        m = kernel_matrix(k)
        assert m[0, 0] == pytest.approx(2.0 / grid.h + np.exp(1j * grid.nodes[1]) * np.cos(grid.nodes[1]))


class TestKleinGordonResidual:
    def test_identity_kernel_real_well_passes(self):
        grid = Grid.for_box(np.pi, 65)
        rep = kg_residual(identity_kernel(grid), real_well(), grid)
        assert rep.passed
        assert rep.residual == 0.0
        assert rep.meta["identity_channel"] == 0.0

    def test_parity_kernel_pt_well_passes(self):
        grid = Grid.for_box(np.pi, 65)
        rep = kg_residual(parity_kernel(grid), square_well(0.3, np.pi, BT), grid)
        assert rep.passed
        assert rep.meta["parity_channel"] == pytest.approx(0.0, abs=1e-14)

    def test_first_order_kernel_exact_residual(self):
        # the second-difference operator annihilates every function of
        # x + y or x - y alone, so for the closed first iterate the whole
        # residual reduces to the mass term times the kernel itself
        zeta, n = 0.1, 65
        grid = Grid.for_box(np.pi, n)
        pot = square_well(zeta, np.pi, BT)
        k = square_well_eta1(zeta, grid, BT)
        rep = kg_residual(k, pot, grid)
        X, Y = grid.mesh()
        I, J = np.meshgrid(np.arange(n), np.arange(n), indexing="ij")
        kept = np.abs(I - J) > 2
        kept[0, :] = kept[-1, :] = kept[:, 0] = kept[:, -1] = False
        mu2 = eval_mass_term(pot, X, Y)
        expected = np.max(np.abs(mu2 * k.smooth)[kept])
        assert rep.residual == pytest.approx(expected, rel=1e-12)
        # the quadratic defect lies within the default budget, far above KG_TOL
        assert rep.passed and rep.meta["tolerance"] == _kg_budget_of(k, pot, grid)
        assert not kg_residual(k, pot, grid, tolerance=KG_TOL).passed

    def test_quartering_under_coupling_halving(self):
        grid = Grid.for_box(np.pi, 65)
        res = {}
        for zeta in (0.1, 0.05):
            pot = square_well(zeta, np.pi, BT)
            res[zeta] = kg_residual(square_well_eta1(zeta, grid, BT), pot, grid).residual
        assert res[0.1] / res[0.05] == pytest.approx(4.0, rel=1e-12)

    def test_band_exclusion_hides_jump_rows(self):
        zeta = 0.1
        grid = Grid.for_box(np.pi, 65)
        pot = square_well(zeta, np.pi, BT)
        k = square_well_eta1(zeta, grid, BT)
        wide = kg_residual(k, pot, grid).residual
        tight = TestMassTermFromNodes._whole_array_residual(k, pot, grid, 0)
        # rows next to the diagonal see the sign jump, amplified like 1/h
        assert tight > 30.0 * wide

    def test_grid_mismatch_raises(self):
        grid = Grid.for_box(np.pi, 65)
        other = Grid.for_box(np.pi, 33)
        with pytest.raises(ValueError, match="grid"):
            kg_residual(identity_kernel(other), real_well(), grid)


class TestPseudoHermiticity:
    def test_hermitian_identity_commutes(self):
        grid = Grid.for_box(np.pi, 65)
        ham = discretize(real_well(), grid)
        rep = pseudo_hermiticity_residual(identity_kernel(grid), ham)
        assert rep.passed
        assert rep.residual == 0.0

    def test_metric_from_own_eigensystem_commutes(self):
        # any diagonalizable matrix with a real spectrum admits the
        # left-projector metric exactly
        rng = np.random.default_rng(7)
        m = 12
        s = np.eye(m) + 0.3 * (rng.standard_normal((m, m))
                               + 1j * rng.standard_normal((m, m)))
        d = np.diag(np.arange(1.0, m + 1.0))
        a = s @ d @ np.linalg.inv(s)
        energies, right, left, _ = pair_eigensystem(a, 1.0)
        np.testing.assert_allclose(energies.imag, 0.0, atol=1e-10)
        metric = left @ left.conj().T
        comm = a.conj().T @ metric - metric @ a
        scale = np.max(np.abs(metric)) * np.max(np.abs(a))
        assert np.max(np.abs(comm)) < 1e-10 * scale

    def test_first_order_kernel_linear_in_coupling(self):
        grid = Grid.for_box(np.pi, 65)
        res = {}
        for zeta in (0.1, 0.05):
            ham = discretize(square_well(zeta, np.pi, BT), grid)
            res[zeta] = pseudo_hermiticity_residual(
                square_well_eta1(zeta, grid, BT), ham).residual
        assert res[0.1] / res[0.05] == pytest.approx(2.0, rel=1e-3)

    def test_grid_mismatch_raises(self):
        grid = Grid.for_box(np.pi, 65)
        ham = discretize(real_well(), grid)
        with pytest.raises(ValueError, match="grid"):
            pseudo_hermiticity_residual(identity_kernel(Grid.for_box(np.pi, 33)), ham)


class TestPositivity:
    def test_identity_passes_with_grid_weight(self):
        grid = Grid.for_box(np.pi, 33)
        rep = positivity_check(identity_kernel(grid), grid)
        assert rep.passed
        assert rep.meta["min_eigenvalue"] == pytest.approx(1.0 / grid.h, rel=1e-12)

    def test_pure_parity_fails(self):
        grid = Grid.for_box(np.pi, 33)
        rep = positivity_check(parity_kernel(grid), grid)
        assert not rep.passed
        assert rep.meta["min_eigenvalue"] == pytest.approx(-1.0 / grid.h, rel=1e-12)
        assert rep.residual == pytest.approx(1.0 / grid.h, rel=1e-12)

    def test_non_hermitian_input_rejected(self):
        grid = Grid.for_box(np.pi, 33)
        X, Y = grid.mesh()
        k = Kernel(grid=grid, smooth=X + 0.5j * Y)
        rep = positivity_check(k, grid)
        defect = hermiticity_defect(k)
        assert defect >= 1e-8 and rep.passed is False
        assert rep.residual == rep.meta["hermiticity_defect"] == defect
        assert rep.relative == defect / k.sup_smooth
        assert json.loads(rep.to_json_line())["pass"] is False
        # a NaN entry fails in the record too, where eigvalsh used to raise LinAlgError
        smooth = np.zeros((grid.n, grid.n), dtype=complex)
        smooth[5, 9] = np.nan
        rep = positivity_check(Kernel(grid=grid, c_diag=1.0, smooth=smooth), grid)
        assert math.isnan(rep.residual) and rep.passed is False

    def test_small_hermitian_perturbations_stay_positive(self):
        # Gershgorin: identity/h plus any Hermitian piece below 1/(2 h n)
        # in sup norm keeps every eigenvalue positive
        rng = np.random.default_rng(11)
        grid = Grid.for_box(np.pi, 33)
        n = grid.n
        bound = 1.0 / (2.0 * grid.h * n)
        for _ in range(25):
            raw = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            herm = 0.5 * (raw + raw.conj().T)
            herm *= 0.9 * bound / np.max(np.abs(herm))
            rep = positivity_check(Kernel(grid=grid, c_diag=1.0, smooth=herm), grid)
            assert rep.passed


class TestInvertibility:
    def test_identity_has_unit_ratio(self):
        grid = Grid.for_box(np.pi, 33)
        rep = invertibility_check(identity_kernel(grid), grid)
        assert rep.passed
        assert rep.relative == pytest.approx(1.0, rel=1e-12)

    def test_rank_one_kernel_fails(self):
        grid = Grid.for_box(np.pi, 33)
        g = np.exp(-grid.nodes**2) * (1.0 + 0.2j * grid.nodes)
        k = Kernel(grid=grid, smooth=np.outer(g, g.conj()))
        rep = invertibility_check(k, grid)
        assert not rep.passed

    def test_small_coupling_first_order_invertible(self):
        grid = Grid.for_box(np.pi, 65)
        rep = invertibility_check(square_well_eta1(0.1, grid, BT), grid)
        assert rep.passed
        assert rep.meta["sigma_max"] > 0.0


def _hermitian_kernels():
    """Kernels whose interior matrix is exactly Hermitian, by name."""
    grid = Grid.for_box(np.pi, 65)
    well = square_well(0.3, np.pi, BT)
    rng = np.random.default_rng(37)
    raw = rng.standard_normal((65, 65)) + 1j * rng.standard_normal((65, 65))
    oracle = spectral_metric(biorthonormalize(discretize(well, grid)), 63)
    return {
        "identity": identity_kernel(grid),
        "parity": Kernel(grid=grid, c_anti=2.0),
        "k_delta": Kernel(grid=grid, c_diag=1.0,
                          smooth=apply_K_to_identity(well, grid).smooth),
        "random": Kernel(grid=grid, c_diag=1.0, smooth=0.002 * (raw + raw.conj().T)),
        # spectrum across zero: the smallest |lambda| sits mid-spectrum
        "indefinite": Kernel(grid=grid, c_diag=0.05, smooth=0.5 * (raw + raw.conj().T)),
        "oracle": oracle,
    }


HERMITIAN_NAMES = ["identity", "parity", "k_delta", "random", "indefinite", "oracle"]


def _svd_report(k, tolerance=1e-10):
    """invertibility_check as it reads off a full SVD of the interior matrix."""
    s = np.linalg.svd(kernel_matrix(k), compute_uv=False)
    ratio = s[-1] / s[0] if s[0] > 0.0 else 0.0
    return CheckReport(check="invertibility", residual=float(s[-1]), relative=float(ratio),
                       passed=bool(ratio > tolerance),
                       meta={"n": k.grid.n, "sigma_max": float(s[0]), "tolerance": tolerance})


def test_near_hermitian_kernel_takes_the_hermitian_part_and_the_svd():
    k = _hermitian_kernels()["random"]
    smooth = k.smooth.copy()
    smooth[10, 20] += 1e-13j  # Hermitian within 1e-12, not exactly
    k = Kernel(grid=k.grid, c_diag=k.c_diag, smooth=smooth)
    assert 0.0 < hermiticity_defect(k) <= 1e-12
    assert hermitian_eigenvalues(k) is None
    M = kernel_matrix(k)
    lam = np.linalg.eigvalsh(0.5 * (M + M.conj().T))
    rep = positivity_check(k, k.grid)
    assert rep.meta["min_eigenvalue"] == float(lam[0])
    assert rep.meta["max_eigenvalue"] == float(lam[-1])
    assert invertibility_check(k, k.grid).to_json_line() == _svd_report(k).to_json_line()


class TestSharedEigenSolve:
    @pytest.mark.parametrize("name", HERMITIAN_NAMES)
    def test_hermitian_singular_values_match_svd(self, name):
        k = _hermitian_kernels()[name]
        M = kernel_matrix(k)
        assert np.array_equal(M, M.conj().T)
        assert hermitian_eigenvalues(k) is not None
        rep, ref = invertibility_check(k, k.grid), _svd_report(k)
        assert rep.passed == ref.passed
        for got, want in ((rep.residual, ref.residual), (rep.relative, ref.relative),
                          (rep.meta["sigma_max"], ref.meta["sigma_max"])):
            assert abs(got - want) <= 1e-13 * abs(want)

    @pytest.mark.parametrize("name", HERMITIAN_NAMES)
    def test_shared_eigenvalues_give_the_same_reports(self, name):
        k = _hermitian_kernels()[name]
        ev = hermitian_eigenvalues(k)
        assert invertibility_check(k, k.grid, eigenvalues=ev) == invertibility_check(k, k.grid)
        assert positivity_check(k, k.grid, eigenvalues=ev) == positivity_check(k, k.grid)

    def test_non_hermitian_kernels_take_the_svd_path_bit_for_bit(self):
        grid = Grid.for_box(np.pi, 65)
        rng = np.random.default_rng(29)
        raw = rng.standard_normal((65, 65)) + 1j * rng.standard_normal((65, 65))
        kernels = [Kernel(grid=grid, c_diag=1.0 + 0.5j),
                   Kernel(grid=grid, c_diag=1.0, smooth=0.01 * raw)]
        for k in kernels:
            assert hermitian_eigenvalues(k) is None
            rep, ref = invertibility_check(k, grid), _svd_report(k)
            assert rep.to_json_line() == ref.to_json_line()

    def test_run_checks_makes_one_eigen_solve_and_no_svd(self, monkeypatch):
        k = _hermitian_kernels()["k_delta"]
        calls = []
        eigvalsh = np.linalg.eigvalsh

        def counting(a, *args, **kwargs):
            calls.append(a.shape)
            return eigvalsh(a, *args, **kwargs)

        def no_svd(*args, **kwargs):
            raise AssertionError("svd called on a Hermitian kernel")

        monkeypatch.setattr(np.linalg, "eigvalsh", counting)
        monkeypatch.setattr(np.linalg, "svd", no_svd)
        reports = _run_checks(["positivity", "invertibility"], k,
                              square_well(0.3, np.pi, BT), k.grid)
        assert [r.check for r in reports] == ["positivity", "invertibility"]
        assert calls == [(63, 63)]



FOLDED_NAMES = ["identity", "parity", "oracle"]  # exactly Hermitian and exactly PT-symmetric


class TestFoldedEigenvalues:
    def _spy(self, monkeypatch):
        seen = []
        eigvalsh = np.linalg.eigvalsh

        def spy(a, *args, **kwargs):
            seen.append(a.dtype)
            return eigvalsh(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigvalsh", spy)
        return seen

    @pytest.mark.parametrize("name", HERMITIAN_NAMES)
    def test_only_pt_symmetric_kernels_are_folded(self, monkeypatch, name):
        k = _hermitian_kernels()[name]
        M = kernel_matrix(k)
        assert np.array_equal(M[::-1, ::-1].conj(), M) == (name in FOLDED_NAMES)
        reference = np.linalg.eigvalsh(M)
        seen = self._spy(monkeypatch)
        ev = hermitian_eigenvalues(k)
        assert seen == [np.float64 if name in FOLDED_NAMES else np.complex128]
        if name in FOLDED_NAMES:
            scale = np.max(np.abs(reference))
            assert np.max(np.abs(ev - reference)) <= 1e-13 * scale
        else:
            np.testing.assert_array_equal(ev, reference)

    @pytest.mark.parametrize("name", ["random", "k_delta"])
    def test_complex_path_reports_are_unchanged(self, name):
        k = _hermitian_kernels()[name]
        ev = np.linalg.eigvalsh(kernel_matrix(k))
        assert positivity_check(k, k.grid) == positivity_check(k, k.grid, eigenvalues=ev)
        assert invertibility_check(k, k.grid) == invertibility_check(k, k.grid, eigenvalues=ev)

    def test_pt_symmetric_non_hermitian_matrix_is_not_folded(self, monkeypatch):
        # the well's own H is exactly PT-symmetric but not Hermitian
        grid = Grid.for_box(np.pi, 65)
        smooth = np.zeros((65, 65), dtype=complex)
        smooth[1:-1, 1:-1] = discretize(square_well(0.3, np.pi, BT), grid).dense()
        seen = self._spy(monkeypatch)
        assert hermitian_eigenvalues(Kernel(grid=grid, smooth=smooth)) is None
        assert seen == []


# several blocks of interior rows and columns, the last one short
BLOCKED_NS = [201, 2 * _BLOCK + 3]


def _blocked_cases(n):
    """(potential, grid, kernel) on n nodes for the blocked residual checks."""
    box, line = Grid.for_box(np.pi, n), Grid(half_width=2.0, n=n)
    rng = np.random.default_rng(n)
    raw = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return [(square_well(0.1, np.pi, BT), box, square_well_eta1(0.1, box, BT)),
            (real_well(), box, Kernel(grid=box, c_diag=1.0, smooth=0.002 * (raw + raw.conj().T))),
            (scattering_potential(0.2, 1.0, NAT), line,
             Kernel(grid=line, c_diag=1.0, c_anti=0.5, smooth=raw)),
            (delta_potential([(-0.5, 0.7), (0.25, -0.4)], NAT), line,
             Kernel(grid=line, c_diag=0.5j, smooth=np.outer(np.cos(line.nodes),
                                                            np.sin(line.nodes)))),
            # nonzero on the two end nodes only: sup|mu^2| sits in the first
            # and last rows and columns, outside the interior blocks
            (PotentialSpec(constants=NAT, domain=Domain.line(),
                           segments=(((-3.0, -1.99), 5.0 + 1.0j), ((1.99, 3.0), -5.0))),
             line, Kernel(grid=line, smooth=0.01 * raw))]


@pytest.mark.parametrize("n", BLOCKED_NS)
def test_blocked_grids_span_several_blocks_with_a_short_last_one(n):
    assert n - 2 > 2 * _BLOCK and (n - 2) % _BLOCK and n % _BLOCK


def _random_tridiagonal(rng, grid):
    """A random complex-symmetric tridiagonal Hamiltonian on the grid's interior nodes."""
    m = grid.n - 2
    return DiscretizedHamiltonian(
        grid=grid, diag=rng.standard_normal(m) + 1j * rng.standard_normal(m),
        off=rng.standard_normal(m - 1) + 1j * rng.standard_normal(m - 1), bc="dirichlet")


class TestBandedCommutator:
    def _dense(self, k, H):
        M = kernel_matrix(k)
        return float(np.max(np.abs(H.conj().T @ M - M @ H))), M

    def test_matches_dense_products(self):
        grid = Grid.for_box(np.pi, 65)
        rng = np.random.default_rng(31)
        hams = [discretize(square_well(0.3, np.pi, BT), grid),
                discretize(delta_potential([(-0.5, 0.7), (0.25, -0.4)], NAT), grid),
                _random_tridiagonal(rng, grid)]
        raw = rng.standard_normal((65, 65)) + 1j * rng.standard_normal((65, 65))
        kernels = list(_hermitian_kernels().values()) + [Kernel(grid=grid, c_diag=0.5j,
                                                                smooth=raw)]
        for ham in hams:
            H = ham.dense()
            for k in kernels:
                dense, M = self._dense(k, H)
                bound = (grid.n - 2) * np.finfo(float).eps \
                    * np.max(np.abs(H)) * np.max(np.abs(M))
                rep = pseudo_hermiticity_residual(k, ham)
                assert abs(rep.residual - dense) <= bound

    @staticmethod
    def _whole_array(k, ham, tolerance=1e-6):
        """pseudo_hermiticity_residual with both banded products formed on all of M at once."""
        M = kernel_matrix(k)
        comm = (_tridiagonal_product(ham.diag.conj(), ham.off.conj(), M)
                - _tridiagonal_product(ham.diag, ham.off, M.T).T)
        residual = float(np.max(np.abs(comm)))
        denom = max(float(np.max(np.abs(M))), 1e-300) \
            * max(float(np.max(np.abs(ham.dense()))), 1e-300)
        return CheckReport(check="pseudo_hermiticity", residual=residual,
                           relative=residual / denom, passed=residual / denom <= tolerance,
                           meta={"n": k.grid.n, "bc": ham.bc, "tolerance": tolerance})

    @pytest.mark.parametrize("n", BLOCKED_NS)
    def test_column_blocks_equal_the_whole_array_products(self, n):
        rng = np.random.default_rng(n + 1)
        for pot, grid, k in _blocked_cases(n):
            for ham in (discretize(pot, grid), _random_tridiagonal(rng, grid)):
                got = pseudo_hermiticity_residual(k, ham)
                assert got.to_json_line() == self._whole_array(k, ham).to_json_line()


class TestMassTermFromNodes:
    @staticmethod
    def _mesh_kg_residual(k, pot, grid, tolerance=1e-8, band_exclude=2):
        """kg_residual as the stencil [-Dxx + Dyy + mu^2] S, with mu^2 evaluated on grid.mesh()."""
        S, h = k.smooth, grid.h
        X, Y = grid.mesh()
        mu2 = eval_mass_term(pot, X, Y)
        R = -(S[2:, 1:-1] - 2.0 * S[1:-1, 1:-1] + S[:-2, 1:-1]) / h**2 \
            + (S[1:-1, 2:] - 2.0 * S[1:-1, 1:-1] + S[1:-1, :-2]) / h**2 \
            + mu2[1:-1, 1:-1] * S[1:-1, 1:-1]
        ii = np.arange(1, grid.n - 1)
        keep = np.abs(ii[:, None] - ii[None, :]) > band_exclude
        residual = float(np.max(np.abs(R[keep])))
        scale = max(k.sup_smooth, 1e-300) * (4.0 / h**2 + float(np.max(np.abs(mu2))))
        diag = float(np.abs(k.c_diag) * np.max(np.abs(eval_mass_term(pot, grid.nodes,
                                                                      grid.nodes))))
        anti = float(np.abs(k.c_anti) * np.max(np.abs(eval_mass_term(pot, grid.nodes,
                                                                      -grid.nodes))))
        return CheckReport(check="kg_residual", residual=residual, relative=residual / scale,
                           passed=residual <= tolerance,
                           meta={"n": grid.n, "band_exclude": band_exclude,
                                 "tolerance": tolerance, "identity_channel": diag,
                                 "parity_channel": anti})

    @staticmethod
    def _whole_array_residual(k, pot, grid, band_exclude, last=None):
        """sup of c0 (H^dag S - S H) - mu^2 last off the walls and the band, all of S at once."""
        S, h = k.smooth, grid.h
        kappa = pot.constants.hbar**2 / (2.0 * pot.constants.mass)
        diag = 2.0 * kappa / h**2 + eval_potential(pot, grid.nodes)
        off = np.full(grid.n - 1, -kappa / h**2, dtype=complex)
        comm = pot.constants.c0 * (_tridiagonal_product(diag.conj(), off.conj(), S)
                                   - _tridiagonal_product(diag, off, S.T).T)
        if last is not None:
            comm -= eval_mass_term(pot, *grid.mesh()) * last
        ii = np.arange(1, grid.n - 1)
        keep = np.abs(ii[:, None] - ii[None, :]) > band_exclude
        return float(np.max(np.abs(comm[1:-1, 1:-1])[keep]))

    def test_report_and_tolerance_equal_the_mesh_reference(self):
        well_grid = Grid.for_box(np.pi, 65)
        line_grid = Grid(half_width=2.0, n=65)
        cases = [(square_well(0.1, np.pi, BT), well_grid,
                  square_well_eta1(0.1, well_grid, BT)),
                 (real_well(), well_grid, _hermitian_kernels()["random"]),
                 (scattering_potential(0.2, 1.0, NAT), line_grid,
                  Kernel(grid=line_grid, c_diag=1.0, c_anti=0.5,
                         smooth=np.outer(np.cos(line_grid.nodes), np.sin(line_grid.nodes))))]
        cases += [case for n in BLOCKED_NS for case in _blocked_cases(n)]
        eps = np.finfo(float).eps
        for pot, grid, k in cases:
            X, Y = grid.mesh()
            mu_sup = float(np.max(np.abs(eval_mass_term(pot, X, Y))))
            tol = _kg_budget_of(k, pot, grid)
            assert tol == max(1e-8, KG_HEADROOM * mu_sup * k.sup_smooth)
            scale = max(k.sup_smooth, 1e-300) * (4.0 / grid.h**2 + mu_sup)
            got = kg_residual(k, pot, grid)
            assert got.meta["tolerance"] == tol and got.meta["band_exclude"] == _KG_BAND
            # the commutator is the reference bit for bit
            residual = self._whole_array_residual(k, pot, grid, _KG_BAND)
            want = CheckReport(check="kg_residual", residual=residual,
                               relative=residual / scale, passed=residual <= tol,
                               meta=got.meta)
            assert got.to_json_line() == want.to_json_line()
            # the stencil agrees at round-off, with the same tolerance and channels
            mesh = self._mesh_kg_residual(k, pot, grid, tol, _KG_BAND)
            assert abs(got.residual - mesh.residual) <= 4 * eps * scale
            assert abs(got.relative - mesh.relative) <= 4 * eps
            assert got.passed == mesh.passed and got.meta == mesh.meta

    @pytest.mark.parametrize("zeta, order", [(0.1, 1), (0.5, 3), (3.0, 4)])
    def test_discretization_residual_is_kg_less_the_truncation(self, zeta, order):
        # the series' split reads kg's operator and region, less mu^2 times the last iterate
        grid, pot = Grid.for_box(np.pi, 65), square_well(zeta, np.pi, BT)
        state = neumann_series(SeedPair.zero(), pot, KConfig(max_order=order), grid)
        last = state.iterates[-1].smooth
        want = self._whole_array_residual(state.partial_sum, pot, grid, _KG_BAND, last)
        assert state.discretization_residual == want
        assert _kg_sup(state.partial_sum.smooth, pot, grid, eval_potential(pot, grid.nodes)) \
            == kg_residual(state.partial_sum, pot, grid).residual


def _commutator(diag, off, A):
    """H^dag A - A H assembled from _commutator_blocks."""
    return np.concatenate([comm for _, _, comm in _commutator_blocks(diag, off, A)], axis=1)


@pytest.mark.parametrize("n", [65] + BLOCKED_NS)
def test_kg_and_pseudo_hermiticity_read_one_operator(n):
    """On segment potentials and kernels without singular lines, kg's commutator on the
    interior is pseudo-hermiticity's H^dag M - M H, except where it reads the walls."""
    box, line = Grid.for_box(np.pi, n), Grid(half_width=2.0, n=n)
    rng = np.random.default_rng(n + 2)
    raw = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    cases = [(square_well(0.1, np.pi, BT), box,
              Kernel(grid=box, smooth=square_well_eta1(0.1, box, BT).smooth)),
             (square_well(3.0, np.pi, BT), box, Kernel(grid=box, smooth=raw + raw.conj().T)),
             (scattering_potential(0.2, 1.0, NAT), line,
              Kernel(grid=line, smooth=np.outer(np.cos(line.nodes), np.sin(line.nodes)))),
             (_random_segments(rng, 7), line, Kernel(grid=line, smooth=raw))]
    eps = np.finfo(float).eps
    for pot, grid, k in cases:
        S = k.smooth
        ham = discretize(pot, grid)
        kg = _commutator(*_fd_diagonals(pot.constants, grid.h, eval_potential(pot, grid.nodes)),
                         S)[1:-1, 1:-1]
        ph = _commutator(ham.diag, ham.off, kernel_matrix(k))
        assert np.array_equal(kg[1:-1, 1:-1], ph[1:-1, 1:-1])
        # the first and last interior rows and columns also read the wall values
        assert np.any(S[[0, -1]] != 0) and not np.array_equal(kg, ph)
        off = ham.off[0]
        walls = ph.copy()
        walls[[0, -1], :] += np.conj(off) * S[[0, -1], 1:-1]
        walls[:, [0, -1]] -= off * S[1:-1, [0, -1]]
        scale = np.max(np.abs(S)) * ham.max_abs
        assert np.max(np.abs(kg - walls)) <= 4 * eps * scale


def _node_pair_mass_term_sup(pot, grid):
    """_mass_term_sup as a scan of all n^2 node pairs, _BLOCK rows at a time."""
    v = eval_potential(pot, grid.nodes)
    c0 = pot.constants.c0
    return float(np.max([np.max(np.abs(c0 * (np.conj(v[r:r + _BLOCK])[:, None] - v[None, :])))
                         for r in range(0, grid.n, _BLOCK)]))


def _random_segments(rng, n_segments, half_width=2.0):
    """A line potential of n_segments random complex pieces, some sharing a value."""
    cuts = np.sort(rng.uniform(-1.25 * half_width, 1.25 * half_width, n_segments + 1))
    pool = rng.standard_normal(max(1, n_segments // 2)) \
        + 1j * rng.standard_normal(max(1, n_segments // 2))
    pool[::3] = pool[::3].real  # real and imaginary values too
    pool[1::3] = 1j * pool[1::3].imag
    values = rng.choice(pool, n_segments)
    return PotentialSpec(constants=NAT, domain=Domain.line(),
                         segments=tuple(((a, b), v) for a, b, v in
                                        zip(cuts[:-1], cuts[1:], values) if b > a))


class TestMassTermSupOverDistinctValues:
    def test_equals_the_node_pair_scan(self):
        cases = []
        for n in (33, 101, 201):
            box, line = Grid.for_box(np.pi, n), Grid(half_width=2.0, n=n)
            cases += [(square_well(0.1, np.pi, BT), box), (square_well(3.0, np.pi, BT), box),
                      (scattering_potential(0.7, 1.0, NAT), line),
                      (delta_potential([(0.5, 0.3)], NAT), line)]
        rng = np.random.default_rng(19)
        for _ in range(200):
            grid = Grid(half_width=2.0, n=2 * int(rng.integers(16, 101)) + 1)
            cases.append((_random_segments(rng, int(rng.integers(1, 13))), grid))
        for pot, grid in cases:
            assert _sampled_mass_term_sup(pot, grid) == _node_pair_mass_term_sup(pot, grid)

    def test_hundreds_of_segments_span_several_blocks(self):
        grid = Grid(half_width=2.0, n=1025)
        pot = _random_segments(np.random.default_rng(23), 600)
        assert np.unique(eval_potential(pot, grid.nodes)).size > 2 * _BLOCK
        assert _sampled_mass_term_sup(pot, grid) == _node_pair_mass_term_sup(pot, grid)


def test_nan_in_an_interior_block_fails_both_residual_checks():
    n = 201
    grid = Grid.for_box(np.pi, n)
    pot = real_well()
    ham = discretize(pot, grid)
    clean = Kernel(grid=grid, c_diag=1.0)
    assert kg_residual(clean, pot, grid).residual == 0.0
    assert pseudo_hermiticity_residual(clean, ham).residual == 0.0
    # inside an interior block of rows (kg) and of columns (commutator), off the band
    i, j = 2 * _BLOCK + 5, 3 * _BLOCK + 7
    smooth = np.zeros((n, n), dtype=complex)
    smooth[i, j] = np.nan
    k = Kernel(grid=grid, c_diag=1.0, smooth=smooth)
    for rep in (kg_residual(k, pot, grid), pseudo_hermiticity_residual(k, ham)):
        assert math.isnan(rep.residual) and math.isnan(rep.relative)
        assert rep.passed is False
        assert json.loads(rep.to_json_line())["pass"] is False


def test_nan_kernel_fails_all_four_checks_in_their_records():
    # invertibility's SVD used to raise LinAlgError ("SVD did not converge") on this kernel
    grid = Grid.for_box(np.pi, 33)
    pot = square_well(0.1, np.pi, BT)
    smooth = np.zeros((33, 33), dtype=complex)
    smooth[5, 9] = np.nan
    k = Kernel(grid=grid, c_diag=1.0, smooth=smooth)
    reports = [kg_residual(k, pot, grid), positivity_check(k, grid),
               invertibility_check(k, grid), pseudo_hermiticity_residual(k, discretize(pot, grid))]
    for rep in reports:
        assert rep.passed is False and json.loads(rep.to_json_line())["pass"] is False
        assert math.isnan(rep.residual)
    inv = reports[2]
    assert inv.check == "invertibility" and math.isnan(inv.relative)
    assert set(inv.meta) == {"n", "sigma_max", "tolerance"} and math.isnan(inv.meta["sigma_max"])


@pytest.mark.parametrize("grid, domain", [
    (Grid.for_box(np.pi, 65), Domain.box(np.pi)), (Grid(half_width=2.0, n=65), Domain.line())])
def test_default_kg_residual_reads_each_input_once(monkeypatch, grid, domain):
    # one sup|S|, one sup|mu^2| and one sample of v on x and one on -x; it took 2, 2 and 7
    from qmetric import verify
    pot = PotentialSpec(constants=NAT, domain=domain,
                        segments=(((-1.5, 0.5), 1.0 + 0.5j), ((0.5, 1.5), -0.3j)))
    k = Kernel(grid=grid, c_diag=1.0, c_anti=0.5,
               smooth=np.outer(np.cos(grid.nodes), np.sin(grid.nodes)) + 0j)
    want = kg_residual(k, pot, grid).to_json_line()
    # both channels are mu^2 on the identity and parity lines, sampled on x and -x
    meta, nodes = json.loads(want)["meta"], grid.nodes
    for channel, c, y in (("identity_channel", 1.0, nodes), ("parity_channel", 0.5, -nodes)):
        assert meta[channel] == c * float(np.max(np.abs(eval_mass_term(pot, nodes, y)))) > 0.0
    calls = {"sup_smooth": 0, "_mass_term_sup": 0, "eval_potential": 0}

    def counted(name, fn):
        def call(*args):
            calls[name] += 1
            return fn(*args)
        return call

    monkeypatch.setattr(Kernel, "sup_smooth", property(counted("sup_smooth",
                                                               Kernel.sup_smooth.fget)))
    for name in ("_mass_term_sup", "eval_potential"):
        monkeypatch.setattr(verify, name, counted(name, getattr(verify, name)))
    assert kg_residual(k, pot, grid).to_json_line() == want
    assert calls == {"sup_smooth": 1, "_mass_term_sup": 1, "eval_potential": 2}


class TestResidualMemory:
    """Peak traced allocation inside each call, in units of the kernel's own bytes."""

    @pytest.fixture(scope="class")
    def case(self):
        n = 1025
        grid = Grid.for_box(np.pi, n)
        rng = np.random.default_rng(41)
        smooth = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        smooth += smooth.conj().T
        k = Kernel(grid=grid, c_diag=1.0, smooth=smooth)
        pot = square_well(0.3, np.pi, BT)
        return k, pot, discretize(pot, grid)

    def test_kg_residual(self, case, traced_peak):
        k, pot, _ = case
        assert traced_peak(lambda: kg_residual(k, pot, k.grid)) / k.smooth.nbytes < 1.0

    def test_mass_term_sup(self, case, traced_peak):
        # through its caller: the kg budget also takes sup|smooth| (0.5 of the bytes)
        k, pot, _ = case
        assert traced_peak(lambda: _kg_budget_of(k, pot, k.grid)) / k.smooth.nbytes < 1.0

    def test_pseudo_hermiticity_residual(self, case, traced_peak):
        # one copy of the interior matrix M is kept
        k, _, ham = case
        assert traced_peak(lambda: pseudo_hermiticity_residual(k, ham)) / k.smooth.nbytes < 2.0

    def test_hermitian_eigenvalues(self, traced_peak):
        # the copy of M, its real fold and eigvalsh's own copy of that; no conjugate
        # of M for the two exact tests (2.08 with whole-array tests)
        grid = Grid.for_box(np.pi, 513)
        k = spectral_metric(biorthonormalize(discretize(square_well(0.068931, np.pi, BT), grid)),
                            grid.n - 2)
        assert traced_peak(lambda: hermitian_eigenvalues(k)) / k.smooth.nbytes < 1.85
