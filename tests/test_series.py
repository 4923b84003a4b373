"""Series-engine tests against closed forms and brute-force integration."""

import numpy as np
import pytest

from qmetric.closed_forms import (
    delta_first_iterate,
    delta_second_iterate,
    deltas_eta1,
    preset_seed,
    scattering_k_delta,
    scattering_eta1,
    square_well_k_delta,
)
from qmetric.kernels import (
    Grid,
    Kernel,
    SeedPair,
    hermiticity_defect,
    identity_kernel,
    parity_kernel,
    smooth_kernel,
)
from qmetric.potentials import (
    Domain,
    PotentialSpec,
    constants_preset,
    delta_potential,
    eval_mass_term,
    eval_potential,
    pt_delta_pairs,
    scattering_potential,
    square_well,
    unit_step,
)
from qmetric import series
from qmetric.series import (
    KConfig,
    apply_K,
    apply_K_delta_rule,
    apply_K_smooth,
    apply_K_to_identity,
    convergence_bound,
    neumann_series,
)

NAT = constants_preset("natural")
BT = constants_preset("bender-tan")
CFG = KConfig()


def constant_line_potential(value, half_width=2.0, constants=NAT):
    """Segment potential equal to `value` across the whole grid square."""
    return PotentialSpec(constants=constants, domain=Domain.line(),
                         segments=(((-half_width, half_width), value),))


class TestKConfig:
    def test_defaults_round_trip(self):
        cfg = KConfig(r0=0.5, max_order=3)
        assert cfg.to_dict() == {"r0": 0.5, "max_order": 3}
        assert KConfig(**cfg.to_dict()) == cfg

    @pytest.mark.parametrize("kwargs", [
        {"r0": float("nan")}, {"max_order": -1}, {"max_order": 0}, {"r0": float("inf")},
    ])
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            KConfig(**kwargs)

    def test_unknown_key_rejected(self):
        with pytest.raises(TypeError, match="panels"):
            KConfig(r0=0.0, panels=3)
        with pytest.raises(TypeError, match="stop_tol"):  # the order is the one control
            KConfig(stop_tol=1e-10)


class TestIdentityAction:
    def test_square_well_matches_closed_form(self):
        grid = Grid.for_box(np.pi, 65)
        pot = square_well(0.7, np.pi, BT)
        X, Y = grid.mesh()
        out = apply_K_to_identity(pot, grid, CFG)
        np.testing.assert_allclose(out.smooth, square_well_k_delta(X, Y, 0.7, BT),
                                   atol=1e-14)
        assert out.c_diag == 0.0 and out.c_anti == 0.0

    def test_scattering_base_point_zero(self):
        grid = Grid(half_width=2.0, n=81)
        pot = scattering_potential(0.4, 1.0, NAT)
        out = apply_K_to_identity(pot, grid, CFG)
        np.testing.assert_allclose(out.smooth, scattering_eta1(0.4, 1.0, grid, NAT).smooth,
                                   atol=1e-14)

    def test_scattering_base_point_at_well_edge(self):
        grid = Grid(half_width=2.0, n=81)
        pot = scattering_potential(0.4, 1.0, NAT)
        X, Y = grid.mesh()
        out = apply_K_to_identity(pot, grid, KConfig(r0=-0.5))
        np.testing.assert_allclose(out.smooth, scattering_k_delta(X, Y, 0.4, 1.0, NAT),
                                   atol=1e-14)

    def test_base_point_shift_is_constant_odd_term(self):
        grid = Grid(half_width=2.0, n=81)
        pot = scattering_potential(0.4, 1.0, NAT)
        X, Y = grid.mesh()
        d = apply_K_to_identity(pot, grid, CFG).smooth \
            - apply_K_to_identity(pot, grid, KConfig(r0=-0.5)).smooth
        np.testing.assert_allclose(d, 0.5j * 0.4 * 1.0 * np.sign(X - Y), atol=1e-14)


class TestSmoothQuadratureExact:
    """Inputs whose bilinear representation and cell integrals are exact."""

    def test_constant_kernel_real_constant_potential(self):
        grid = Grid(half_width=2.0, n=49)
        pot = constant_line_potential(1.0)
        k = smooth_kernel(grid, np.ones((49, 49), dtype=complex))
        out = apply_K_smooth(k, pot, CFG, grid)
        X, Y = grid.mesh()
        inside = np.abs(X) + np.abs(Y) <= grid.half_width + 1e-12
        np.testing.assert_allclose(out.smooth[inside], (X**2 + Y**2)[inside], atol=1e-11)
        assert abs(out.smooth[36, 36] - 2.0) < 1e-12  # node (1, 1)

    def test_linear_kernel_real_constant_potential(self):
        grid = Grid(half_width=2.0, n=49)
        pot = constant_line_potential(1.0)
        X, Y = grid.mesh()
        out = apply_K_smooth(smooth_kernel(grid, (X + Y).astype(complex)), pot, CFG, grid)
        expected = X * Y**2 + Y**3 / 3.0 + X**2 * Y + X**3 / 3.0
        inside = np.abs(X) + np.abs(Y) <= grid.half_width + 1e-12
        np.testing.assert_allclose(out.smooth[inside], expected[inside], atol=1e-11)

    def test_mass_scaling(self):
        grid = Grid(half_width=2.0, n=49)
        pot2 = PotentialSpec(constants=BT, domain=Domain.line(),
                             segments=(((-2.0, 2.0), 1.0),))
        k = smooth_kernel(grid, np.ones((49, 49), dtype=complex))
        out_nat = apply_K_smooth(k, constant_line_potential(1.0), CFG, grid)
        out_half = apply_K_smooth(k, pot2, CFG, grid)
        np.testing.assert_allclose(out_half.smooth, 0.5 * out_nat.smooth, atol=1e-13)

    def test_hermiticity_preserved(self):
        grid = Grid.for_box(np.pi, 49)
        pot = square_well(0.6, np.pi, BT)
        rng = np.random.default_rng(21)
        raw = rng.standard_normal((49, 49)) + 1j * rng.standard_normal((49, 49))
        herm = 0.5 * (raw + np.conj(raw).T)
        out = apply_K_smooth(smooth_kernel(grid, herm), pot, CFG, grid)
        assert hermiticity_defect(out) < 1e-13

    def test_linearity(self):
        grid = Grid.for_box(np.pi, 41)
        pot = square_well(0.6, np.pi, BT)
        rng = np.random.default_rng(22)
        a = rng.standard_normal((41, 41)) + 1j * rng.standard_normal((41, 41))
        b = rng.standard_normal((41, 41)) + 1j * rng.standard_normal((41, 41))
        out_ab = apply_K_smooth(smooth_kernel(grid, a + 2.0 * b), pot, CFG, grid)
        out_a = apply_K_smooth(smooth_kernel(grid, a), pot, CFG, grid)
        out_b = apply_K_smooth(smooth_kernel(grid, b), pot, CFG, grid)
        scale = max(out_ab.sup_smooth, 1.0)
        np.testing.assert_allclose(out_ab.smooth, out_a.smooth + 2.0 * out_b.smooth,
                                   atol=1e-13 * scale)

    def test_base_point_off_grid_raises(self):
        grid = Grid(half_width=2.0, n=41)
        pot = constant_line_potential(1.0)
        k = smooth_kernel(grid, np.ones((41, 41), dtype=complex))
        with pytest.raises(ValueError, match="grid node"):
            apply_K_smooth(k, pot, KConfig(r0=0.001), grid)

    def test_non_finite_input_raises(self):
        grid = Grid(half_width=2.0, n=41)
        pot = constant_line_potential(1.0)
        bad = np.ones((41, 41), dtype=complex)
        bad[3, 5] = np.nan
        with pytest.raises(FloatingPointError):
            apply_K_smooth(smooth_kernel(grid, bad), pot, CFG, grid)

    def test_truncation_counter(self):
        # on the line, n of the 2n - 1 characteristics of each family leave
        # the window in each of the n - 1 cells, once per term
        grid = Grid(half_width=1.0, n=41)
        pot = constant_line_potential(1.0, half_width=1.0)
        assert series._clamped_evals(pot, grid) == 4 * 41 * 40
        # box domains clamp silently: the kernel is zero beyond the walls
        assert series._clamped_evals(square_well(0.4, 2.0, NAT), Grid.for_box(2.0, 41)) == 0

    @pytest.mark.parametrize("bilinear", [False, True])
    @pytest.mark.parametrize("L", [1.0, 1.01])
    def test_step_potential_exact(self, L, bilinear):
        # Away from the window edge, with F_v(t) = int_0^t v(r) 2 (t - r) dr and
        # H_v(t) = int_0^t v(r) r (t - r) dr, K maps eta = 1 to (m/hbar^2) [F_v(y) + F_{v*}(x)]
        # and eta = s r to (m/hbar^2) [2x H_v(y) + 2y H_{v*}(x)].  L = 1.01 puts the
        # breakpoints +-L/2 inside grid cells; eta = s r makes the cell integrands cubic.
        grid = Grid(half_width=2.0, n=129)
        pot = scattering_potential(0.7, L, NAT)
        X, Y = grid.mesh()
        eta = X * Y if bilinear else np.ones_like(X)
        out = apply_K_smooth(smooth_kernel(grid, eta.astype(complex)), pot, CFG, grid)

        def integral(t, conj):
            if bilinear:
                antiderivative = lambda r: t * r**2 / 2.0 - r**3 / 3.0
            else:
                antiderivative = lambda r: 2.0 * t * r - r**2
            total = np.zeros(t.shape, dtype=complex)
            for (a, b), v in pot.segments:
                total += (np.conj(v) if conj else v) * (
                    antiderivative(np.clip(t, a, b)) - antiderivative(np.clip(0.0, a, b)))
            return total

        keep = (np.abs(X) <= 0.6) & (np.abs(Y) <= 0.6)
        x, y = X[keep], Y[keep]
        if bilinear:
            ref = 2.0 * x * integral(y, False) + 2.0 * y * integral(x, True)
        else:
            ref = integral(y, False) + integral(x, True)
        err = np.max(np.abs(out.smooth[keep] - ref))
        assert err <= 1e-12 * np.max(np.abs(ref))

    def test_grid_box_mismatch_raises(self):
        pot = square_well(0.4, 2.0, NAT)
        with pytest.raises(ValueError, match="half-width"):
            apply_K_smooth(smooth_kernel(Grid(half_width=2.0, n=41),
                                         np.ones((41, 41), dtype=complex)),
                           pot, CFG, Grid(half_width=2.0, n=41))


def two_term_reference(S, pot, grid):
    """K on a smooth part as two characteristic terms, the second on S^T with conj weights."""
    w = series._cell_weights(pot, grid)
    j0 = int(np.argmin(np.abs(grid.nodes - CFG.r0)))
    out = series._characteristic_term(S, w, grid, j0)
    out += series._characteristic_term(S.T, np.conj(w), grid, j0).T
    out *= pot.constants.mass / pot.constants.hbar**2
    return out


class TestOneTermPerApplication:
    """apply_K_smooth computes one characteristic term per Hermitian part."""

    CASES = [
        (square_well(0.6, np.pi, BT), Grid.for_box(np.pi, 49)),
        (scattering_potential(0.4, 1.01, NAT), Grid(half_width=2.0, n=41)),
    ]

    @pytest.mark.parametrize("pot,grid", CASES, ids=["well", "scattering_off_node"])
    def test_hermitian_input_bit_identical(self, pot, grid):
        rng = np.random.default_rng(31)
        raw = rng.standard_normal((grid.n, grid.n)) + 1j * rng.standard_normal((grid.n, grid.n))
        inputs = [0.5 * (raw + raw.conj().T),
                  apply_K_to_identity(pot, grid, CFG).smooth,
                  neumann_series(SeedPair.zero(), pot, KConfig(max_order=2), grid).iterates[2].smooth]
        for S in inputs:
            assert np.array_equal(S, S.conj().T)
            out = apply_K_smooth(smooth_kernel(grid, S), pot, CFG, grid).smooth
            assert out.tobytes() == two_term_reference(S, pot, grid).tobytes()

    @pytest.mark.parametrize("pot,grid", CASES, ids=["well", "scattering_off_node"])
    def test_general_input_matches_two_terms(self, pot, grid):
        rng = np.random.default_rng(32)
        S = rng.standard_normal((grid.n, grid.n)) + 1j * rng.standard_normal((grid.n, grid.n))
        out = apply_K_smooth(smooth_kernel(grid, S), pot, CFG, grid).smooth
        ref = two_term_reference(S, pot, grid)
        assert np.max(np.abs(out - ref)) <= 1e-13 * np.max(np.abs(ref))


def brute_force_K(eta_fun, pot, x, y, r0, nr=1601, ns=1201):
    """Dense trapezoid evaluation of the operator on a callable kernel.

    Treats eta as zero outside the grid square of half-width X, matching
    the engine convention.
    """
    X = 0.5 * np.pi  # used with the pi box below
    c = pot.constants.mass / pot.constants.hbar**2

    def masked(s, r):
        inside = (np.abs(s) <= X) & (np.abs(r) <= X)
        return np.where(inside, eta_fun(np.clip(s, -X, X), np.clip(r, -X, X)), 0.0)

    def nested(lo_fun, hi_fun, outer_lo, outer_hi, weight_fun, transpose):
        t = np.linspace(outer_lo, outer_hi, nr)
        u = np.linspace(0.0, 1.0, ns)
        lo = lo_fun(t)[:, None]
        hi = hi_fun(t)[:, None]
        pts = lo + u[None, :] * (hi - lo)
        if transpose:
            vals = masked(t[:, None], pts)
        else:
            vals = masked(pts, t[:, None])
        inner = np.trapezoid(vals, x=pts, axis=1)
        return np.trapezoid(weight_fun(t) * inner, x=t)

    term1 = nested(lambda r: x - y + r, lambda r: x + y - r, r0, y,
                   lambda r: eval_potential(pot, r), transpose=False)
    term2 = nested(lambda s: -x + y + s, lambda s: x + y - s, r0, x,
                   lambda s: np.conj(eval_potential(pot, s)), transpose=True)
    return c * (term1 + term2)


class TestSmoothQuadratureOracle:
    def test_second_action_on_square_well(self):
        zeta = 0.6
        grid = Grid.for_box(np.pi, 65)
        pot = square_well(zeta, np.pi, BT)
        X, Y = grid.mesh()
        k1 = smooth_kernel(grid, square_well_k_delta(X, Y, zeta, BT))
        out = apply_K_smooth(k1, pot, CFG, grid)
        scale = max(out.sup_smooth, 1e-12)
        for i in (8, 32, 52):
            for j in (12, 32, 49):
                ref = brute_force_K(lambda s, r: square_well_k_delta(s, r, zeta, BT),
                                    pot, grid.nodes[i], grid.nodes[j], CFG.r0)
                assert abs(out.smooth[i, j] - ref) < 1e-3 * scale


def mesh_delta_rule(kernel, pot, grid):
    """Slice rule with every antiderivative evaluated on the n x n query meshes.

    Reference copy of the plain O(n^2) evaluation for the difference-grid
    gathers of apply_K_delta_rule; returns (smooth, clamped), clamped the
    number of limits that leave the window.
    """
    n, h, half = grid.n, grid.h, grid.half_width
    X, Y = grid.mesh()
    out = np.zeros((n, n), dtype=complex)
    tol = 1e-9 * max(1.0, half)
    clamped = 0
    locations = [a for a, _ in pot.deltas]
    for a, zeta in pot.deltas:
        z = pot.constants.c0 * zeta
        if kernel.c_diag != 0.0:
            out += kernel.c_diag * (0.5j * z) * unit_step(X + Y - 2.0 * a) * np.sign(Y - X)
        if kernel.c_anti != 0.0:
            out += kernel.c_anti * (0.5j * z) * (
                unit_step(Y - a) * (unit_step(X + Y) - unit_step(X - Y + 2.0 * a))
                - unit_step(X - a) * (unit_step(X + Y) - unit_step(Y - X + 2.0 * a)))
        if kernel.sup_smooth > 0.0:
            pos = np.clip((a + half) / h, 0.0, n - 1.0)
            ja = int(min(int(pos), n - 2))
            lam = pos - ja
            col = (1.0 - lam) * kernel.smooth[:, ja] + lam * kernel.smooth[:, ja + 1]
            row = (1.0 - lam) * kernel.smooth[ja, :] + lam * kernel.smooth[ja + 1, :]
            cuts = set(locations) | {2.0 * b - a for b in locations}
            col_model = series._SliceModel(grid.nodes, col, cuts)
            row_model = series._SliceModel(grid.nodes, row, cuts)
            tA, tB, tC = X + Y - a, X - Y + a, Y - X + a
            for tq in (tA, tB, tC):
                clamped += int(np.count_nonzero(np.abs(tq) > half + tol))
            I1 = col_model.antiderivative(tA) - col_model.antiderivative(tB)
            I2 = row_model.antiderivative(tA) - row_model.antiderivative(tC)
            out += (0.5j * z) * (unit_step(Y - a) * I1 - unit_step(X - a) * I2)
    return out, clamped


def list_insert_slice(nodes, vals, cuts):
    """Reference copy of the per-cut list-insert build of _SliceModel: (t, w, cum)."""
    atol = 1e-9 * max(1.0, abs(float(nodes[-1])))
    cuts = sorted(c for c in cuts if nodes[0] - atol < c < nodes[-1] + atol)
    keep = np.ones(len(nodes), dtype=bool)
    for c in cuts:
        keep &= np.abs(nodes - c) > atol
    kn, kv = nodes[keep], vals[keep]

    def one_sided(c, side):
        if side == "left":
            pick = np.nonzero(kn < c - atol)[0][-2:]
        else:
            pick = np.nonzero(kn > c + atol)[0][:2]
        if len(pick) == 0:
            return 0.0 + 0.0j
        if len(pick) == 1:
            return kv[pick[0]]
        (xa, xb), (va, vb) = kn[pick], kv[pick]
        return va + (vb - va) * (c - xa) / (xb - xa)

    t_list, w_list = list(kn), list(kv)
    for c in cuts:
        pos = np.searchsorted(np.asarray(t_list), c)
        t_list[pos:pos] = [c, c]
        w_list[pos:pos] = [one_sided(c, "left"), one_sided(c, "right")]
    t = np.asarray(t_list, dtype=float)
    w = np.asarray(w_list, dtype=complex)
    cum = np.zeros(len(t), dtype=complex)
    cum[1:] = np.cumsum(0.5 * (w[:-1] + w[1:]) * np.diff(t))
    return t, w, cum


class TestDeltaRule:
    def test_identity_gives_first_iterate(self):
        grid = Grid(half_width=2.0, n=41)
        X, Y = grid.mesh()
        for a in (0.0, 0.35):
            pot = delta_potential([(a, 0.5)], NAT)
            out = apply_K_delta_rule(identity_kernel(grid), pot, grid)
            np.testing.assert_array_equal(out.smooth,
                                          delta_first_iterate(X, Y, NAT.c0 * 0.5, a))

    def test_pair_identity_matches_summed_closed_form(self):
        grid = Grid(half_width=2.0, n=41)
        pot = pt_delta_pairs([(0.7, 0.5)], NAT)
        out = apply_K_delta_rule(identity_kernel(grid), pot, grid)
        ref = deltas_eta1(pot.deltas, grid, NAT)
        np.testing.assert_array_equal(out.smooth, ref.smooth)

    @staticmethod
    def untruncated(grid, a):
        """Points whose slice-integral limits stay inside the grid square."""
        X, Y = grid.mesh()
        half = grid.half_width
        return (np.abs(X + Y - a) <= half - 1e-9) & (np.abs(X - Y + a) <= half - 1e-9)

    def test_second_iterate_on_grid_aligned_coupling(self):
        grid = Grid(half_width=2.0, n=161)
        X, Y = grid.mesh()
        z = 1.0
        pot = delta_potential([(0.0, z / NAT.c0)], NAT)
        k1 = smooth_kernel(grid, delta_first_iterate(X, Y, z, 0.0))
        out = apply_K_delta_rule(k1, pot, grid)
        keep = self.untruncated(grid, 0.0)
        np.testing.assert_allclose(out.smooth[keep],
                                   delta_second_iterate(X, Y, z, 0.0)[keep], atol=1e-12)

    def test_second_iterate_off_grid_coupling(self):
        grid = Grid(half_width=2.0, n=161)
        X, Y = grid.mesh()
        z, a = 1.0, 0.355
        pot = delta_potential([(a, z / NAT.c0)], NAT)
        k1 = smooth_kernel(grid, delta_first_iterate(X, Y, z, a))
        out = apply_K_delta_rule(k1, pot, grid)
        keep = self.untruncated(grid, a)
        err = np.max(np.abs((out.smooth - delta_second_iterate(X, Y, z, a))[keep]))
        assert err < 0.02

    def test_smooth_slice_against_dense_integration(self):
        grid = Grid(half_width=2.0, n=201)
        X, Y = grid.mesh()
        z, a = 0.9, 0.3

        def eta(s, r):
            return np.exp(-(s**2 + r**2)) * (1.0 + 0.3j * s * r)

        pot = delta_potential([(a, z / NAT.c0)], NAT)
        out = apply_K_delta_rule(smooth_kernel(grid, eta(X, Y)), pot, grid)

        def theta(t):
            return 1.0 if t > 0 else (0.5 if t == 0 else 0.0)

        def dense(lo, hi, f):
            t = np.linspace(lo, hi, 40001)
            return np.trapezoid(f(t), x=t)

        for i in (20, 100, 150, 190):
            for j in (30, 100, 170):
                x, y = grid.nodes[i], grid.nodes[j]
                i1 = dense(x - y + a, x + y - a, lambda s: eta(np.clip(s, -2, 2), a)
                           * (np.abs(s) <= 2.0))
                i2 = dense(y - x + a, x + y - a, lambda r: eta(a, np.clip(r, -2, 2))
                           * (np.abs(r) <= 2.0))
                ref = 0.5j * z * (theta(y - a) * i1 - theta(x - a) * i2)
                assert abs(out.smooth[i, j] - ref) < 5e-4

    def test_parity_seed_channel(self):
        grid = Grid(half_width=2.0, n=81)
        X, Y = grid.mesh()
        z, a = 1.0, 0.4
        pot = delta_potential([(a, z / NAT.c0)], NAT)
        out = apply_K_delta_rule(parity_kernel(grid), pot, grid)
        # independent form: the parity line enters the slice integrals as
        # an indicator of the anti-diagonal crossing the integration range
        ind1 = ((X + Y > 0) & (X - Y + 2 * a < 0)).astype(float)
        ind2 = ((X + Y > 0) & (Y - X + 2 * a < 0)).astype(float)
        step = lambda t: np.where(t > 0, 1.0, np.where(t < 0, 0.0, 0.5))
        expected = 0.5j * z * (step(Y - a) * ind1 - step(X - a) * ind2)
        off_lines = (np.abs(X + Y) > 1e-9) & (np.abs(X - Y + 2 * a) > 1e-9) \
            & (np.abs(Y - X + 2 * a) > 1e-9) & (np.abs(Y - a) > 1e-9) \
            & (np.abs(X - a) > 1e-9)
        np.testing.assert_allclose(out.smooth[off_lines], expected[off_lines], atol=1e-14)
        assert hermiticity_defect(out) < 1e-14

    def test_truncation_counted_on_the_line(self):
        grid = Grid(half_width=1.0, n=41)
        pot = delta_potential([(0.0, 0.5)], NAT)
        clamped = mesh_delta_rule(smooth_kernel(grid, np.ones((41, 41), dtype=complex)),
                                  pot, grid)[1]
        assert series._clamped_evals(pot, grid) == clamped > 0

    def test_coupling_outside_grid_raises(self):
        grid = Grid(half_width=1.0, n=41)
        pot = delta_potential([(1.5, 0.5)], NAT)
        with pytest.raises(ValueError, match="outside the grid"):
            apply_K_delta_rule(identity_kernel(grid), pot, grid)

    @pytest.mark.parametrize("half_width, n, exact", [(2.0, 129, True), (1.7, 101, False)],
                             ids=["dyadic", "non_dyadic"])
    @pytest.mark.parametrize("channel", ["smooth", "parity"])
    def test_difference_grid_matches_mesh_evaluation(self, half_width, n, exact, channel):
        # x_i + y_j equals diff_nodes[i + j] bit for bit only when h is dyadic;
        # elsewhere the antiderivatives see round-off-shifted query points
        grid = Grid(half_width=half_width, n=n)
        X, Y = grid.mesh()
        pot = delta_potential([(0.5, 0.8), (-0.355, 0.6), (0.0, -0.3)], NAT)
        smooth = np.exp(-(X**2 + Y**2)) * (1.0 + 0.3j * X * Y) + 0.2 * (X > 0.3)
        kernel = Kernel(grid=grid, c_anti=1.0 if channel == "parity" else 0.0,
                        smooth=smooth)
        out = apply_K_delta_rule(kernel, pot, grid).smooth
        ref, clamped = mesh_delta_rule(kernel, pot, grid)
        if exact:
            assert np.array_equal(out, ref)
        else:
            assert np.max(np.abs(out - ref)) <= 1e-14 * np.max(np.abs(ref))
        assert series._clamped_evals(pot, grid) == clamped > 0

    @pytest.mark.parametrize("half_width, n", [(2.0, 129), (1.7, 101)],
                             ids=["dyadic", "non_dyadic"])
    @pytest.mark.parametrize("make_kernel", [identity_kernel, parity_kernel],
                             ids=["identity", "parity"])
    def test_hoisted_singular_meshes_match_per_coupling(self, half_width, n, make_kernel):
        # the singular steps see the same x + y, x - y, y - x values whether
        # those meshes are built once per call or once per coupling
        grid = Grid(half_width=half_width, n=n)
        pot = delta_potential([(0.5, 0.8), (-0.355, 0.6), (0.0, -0.3)], NAT)
        kernel = make_kernel(grid)
        out = apply_K_delta_rule(kernel, pot, grid).smooth
        ref, _ = mesh_delta_rule(kernel, pot, grid)
        assert out.tobytes() == ref.tobytes()

    def test_antiderivative_sees_difference_grid_only(self, monkeypatch):
        grid = Grid(half_width=2.0, n=65)
        X, Y = grid.mesh()
        pot = delta_potential([(0.5, 0.8), (-0.355, 0.6)], NAT)
        sizes = []
        antiderivative = series._SliceModel.antiderivative

        def recording(model, t):
            sizes.append(np.size(t))
            return antiderivative(model, t)

        monkeypatch.setattr(series._SliceModel, "antiderivative", recording)
        apply_K_delta_rule(smooth_kernel(grid, np.exp(-(X**2 + Y**2)) + 0j), pot, grid)
        assert len(sizes) == 4 * len(pot.deltas)
        assert max(sizes) <= 2 * grid.n - 1


class TestSliceModel:
    NODES = np.linspace(-1.7, 1.7, 33)

    @pytest.mark.parametrize("cuts", [
        [NODES[16]],
        [0.5 * (NODES[10] + NODES[11])],
        [NODES[0]],
        [NODES[1]],
        [0.5 * (NODES[0] + NODES[1])],
        [NODES[2]],
        [NODES[-1], NODES[-2]],
        [0.5 * (NODES[-2] + NODES[-1])],
        [2.5, -3.0],
        [NODES[5], NODES[5], 0.3, 0.3],
        [],
    ], ids=["on_node", "between_nodes", "first_node", "one_kept_left",
            "one_kept_left_between", "two_kept_left", "last_two_nodes",
            "one_kept_right_between", "outside", "duplicates", "none"])
    def test_vectorised_build_matches_list_inserts(self, cuts):
        rng = np.random.default_rng(7)
        vals = rng.normal(size=33) + 1j * rng.normal(size=33)
        model = series._SliceModel(self.NODES, vals, cuts)
        t, w, cum = list_insert_slice(self.NODES, vals, cuts)
        assert np.array_equal(model.t, t)
        assert np.array_equal(model.w, w)
        assert np.array_equal(model.cum, cum)


def complex_smooth_reference(S, pot, grid):
    """apply_K_smooth with S and the cell weights held as complex128 throughout."""
    j0 = int(np.argmin(np.abs(grid.nodes - CFG.r0)))
    w = series._cell_weights(pot, grid).astype(complex)

    def image(H):
        term = series._characteristic_term(H.astype(complex), w, grid, j0)
        term += term.conj().T
        return term

    adjoint = S.conj().T
    if np.array_equal(S, adjoint):
        out = image(S)
    else:
        out = image(0.5 * (S + adjoint))
        out += 1j * image(-0.5j * (S - adjoint))
    out *= pot.constants.mass / pot.constants.hbar**2
    return out


def complex_delta_reference(kernel, pot, grid):
    """The difference-grid slice rule with every slice held as complex128."""
    n, h, half = grid.n, grid.h, grid.half_width
    nodes, diff = grid.nodes, grid.diff_nodes
    X, Y = grid.mesh()
    S = kernel.smooth.astype(complex)
    out = np.zeros((n, n), dtype=complex)
    locations = [a for a, _ in pot.deltas]
    skew = series._skew
    for a, zeta in pot.deltas:
        z = pot.constants.c0 * zeta
        if kernel.c_diag != 0.0:
            out += kernel.c_diag * (0.5j * z) * unit_step(X + Y - 2.0 * a) * np.sign(Y - X)
        if kernel.sup_smooth > 0.0:
            pos = np.clip((a + half) / h, 0.0, n - 1.0)
            ja = int(min(int(pos), n - 2))
            lam = pos - ja
            col = (1.0 - lam) * S[:, ja] + lam * S[:, ja + 1]
            row = (1.0 - lam) * S[ja, :] + lam * S[ja + 1, :]
            cuts = set(locations) | {2.0 * b - a for b in locations}
            col_model = series._SliceModel(nodes, col, cuts)
            row_model = series._SliceModel(nodes, row, cuts)
            t_sum, t_dif = diff - a, diff + a
            I1 = (skew(col_model.antiderivative(t_sum), 0, (n, n), (1, 1))
                  - skew(col_model.antiderivative(t_dif), n - 1, (n, n), (1, -1)))
            I2 = (skew(row_model.antiderivative(t_sum), 0, (n, n), (1, 1))
                  - skew(row_model.antiderivative(t_dif), n - 1, (n, n), (-1, 1)))
            step = unit_step(nodes - a)
            out += (0.5j * z) * (step * I1 - step[:, None] * I2)
    return out


def record_dtypes(monkeypatch):
    """Patch the characteristic term and the slice model to record the dtypes they get."""
    seen = []
    term, init = series._characteristic_term, series._SliceModel.__init__

    def recording_term(S, w, grid, j0):
        seen.append(np.result_type(S, w))
        return term(S, w, grid, j0)

    def recording_init(model, nodes, vals, cuts):
        seen.append(vals.dtype)
        init(model, nodes, vals, cuts)

    monkeypatch.setattr(series, "_characteristic_term", recording_term)
    monkeypatch.setattr(series._SliceModel, "__init__", recording_init)
    return seen


def real_well(half_width=0.5 * np.pi):
    return PotentialSpec(constants=BT, domain=Domain.box(2.0 * half_width),
                         segments=(((-half_width, 0.3), 1.0), ((0.3, half_width), -0.5)))


def complex_well(half_width=0.5 * np.pi):
    return PotentialSpec(constants=BT, domain=Domain.box(2.0 * half_width),
                         segments=(((-half_width, 0.3), 0.4 - 0.7j),
                                   ((0.3, half_width), -0.5 + 0.2j)))


def union1d_cell_weights(pot, grid):
    """series._cell_weights as written with np.union1d and np.isin."""
    n, h, nodes = grid.n, grid.h, grid.nodes
    t = np.union1d(nodes, [c for (a, b), _ in pot.segments for c in (a, b)
                           if nodes[0] < c < nodes[-1]])
    cell = np.searchsorted(nodes, t[:-1], side="right") - 1
    lo = (t[:-1] - nodes[cell]) / h
    hi = np.where(np.isin(t[1:], nodes), 1.0, (t[1:] - nodes[cell]) / h)
    v = eval_potential(pot, 0.5 * (t[:-1] + t[1:]))

    def basis(lam):
        return np.stack([2.0 * (lam - 0.5) * (lam - 1.0), 4.0 * lam * (1.0 - lam),
                         lam * (2.0 * lam - 1.0), lam * (lam - 0.5) * (lam - 1.0)])

    piece = h * (hi - lo) / 6.0 * (basis(lo) + 4.0 * basis(0.5 * (lo + hi)) + basis(hi))
    w = np.zeros((n - 1, 4), dtype=complex)
    np.add.at(w, cell, (piece * v).T)
    return w.T


@pytest.mark.parametrize("pot, grid", [
    (square_well(0.1, np.pi, BT), Grid.for_box(np.pi, 65)),
    (scattering_potential(0.3, 1.0, NAT), Grid(half_width=2.0, n=65)),
    (real_well(), Grid.for_box(np.pi, 65)),  # a breakpoint at 0.3, between two nodes
], ids=["well", "scattering_barrier", "off_node_breakpoint"])
def test_cell_weights_bit_equal_to_the_union1d_form(pot, grid):
    w = series._cell_weights(pot, grid)
    assert w.tobytes() == union1d_cell_weights(pot, grid).tobytes()


def test_well_splits_no_cell_at_its_middle_node():
    # the well's breakpoint 0 is the middle node; a node 2.2e-16 off it split a sliver cell
    pot = square_well(0.1, np.pi, BT)
    for n in range(33, 2050, 2):
        assert not series._cell_weights(pot, Grid.for_box(np.pi, n))[3].any(), n


def smooth_inputs(n, seed):
    """Real, imaginary and general inputs, Hermitian and not, some with exact zeros."""
    rng = np.random.default_rng(seed)
    a, b = rng.standard_normal((2, n, n))
    sym, anti = a + a.T, b - b.T
    return {
        "real_hermitian": sym + 0j,
        "imaginary_hermitian": 1j * anti,
        "general_hermitian": sym + 1j * anti,
        "real_sparse": np.where(np.abs(sym) > 1.0, sym, 0.0) + 0j,
        "imaginary_sparse": 1j * np.where(np.abs(anti) > 1.0, anti, 0.0),
        "real_non_hermitian": a + 0j,
        "imaginary_non_hermitian": 1j * b,
        "general_non_hermitian": a + 1j * b,
    }


class TestOneComponentArithmetic:
    """Real or imaginary inputs run in float64 with the bits of the complex path."""

    @pytest.mark.parametrize("pot", [square_well(0.6, np.pi, BT), real_well(), complex_well()],
                             ids=["imaginary_well", "real_well", "complex_well"])
    def test_smooth_matches_complex_reference(self, pot):
        grid = Grid.for_box(np.pi, 49)
        inputs = smooth_inputs(grid.n, 41)
        state = neumann_series(SeedPair.zero(), pot, KConfig(max_order=3), grid)
        inputs.update({f"iterate_{k}": it.smooth for k, it in enumerate(state.iterates[1:], 1)})
        for name, S in inputs.items():
            out = apply_K_smooth(smooth_kernel(grid, S), pot, CFG, grid).smooth
            assert out.tobytes() == complex_smooth_reference(S, pot, grid).tobytes(), name

    @pytest.mark.parametrize("half_width, n", [(2.0, 129), (1.7, 101)],
                             ids=["dyadic", "non_dyadic"])
    @pytest.mark.parametrize("couplings", [
        [(0.5, 0.8), (-0.355, 0.6), (0.0, -0.3)],
        [(0.5, 0.4), (-0.5, -0.4)],
    ], ids=["three", "pt_pair"])
    def test_delta_rule_matches_complex_reference(self, half_width, n, couplings):
        # an off-node coupling and negative strengths; the pt pair's slice
        # limits interpolate between nodes, where a real division would round
        # differently from numpy's complex one
        grid = Grid(half_width=half_width, n=n)
        pot = delta_potential(couplings, NAT)
        inputs = smooth_inputs(n, 43)
        state = neumann_series(SeedPair.zero(), pot, KConfig(max_order=3), grid)
        inputs.update({f"iterate_{k}": it.smooth for k, it in enumerate(state.iterates[1:], 1)})
        kernels = {name: smooth_kernel(grid, S) for name, S in inputs.items()}
        kernels["identity_plus_real"] = Kernel(grid=grid, c_diag=1.0,
                                               smooth=inputs["real_hermitian"])
        infinite = inputs["imaginary_hermitian"].copy()
        infinite.imag[n // 2, n // 3] = np.inf  # complex arithmetic makes nan of it
        kernels["imaginary_with_inf"] = smooth_kernel(grid, infinite)
        for name, kernel in kernels.items():
            with np.errstate(invalid="ignore"):
                out = apply_K_delta_rule(kernel, pot, grid).smooth
                ref = complex_delta_reference(kernel, pot, grid)
            assert out.tobytes() == ref.tobytes(), name

    @pytest.mark.parametrize("pot, grid, dtype", [
        (square_well(0.6, np.pi, BT), Grid.for_box(np.pi, 49), np.float64),
        (delta_potential([(0.5, 0.8), (-0.355, 0.6)], NAT), Grid(half_width=2.0, n=65),
         np.float64),
        (complex_well(), Grid.for_box(np.pi, 49), np.complex128),
    ], ids=["imaginary_well", "point_couplings", "complex_well"])
    def test_iterates_reach_the_engine_as(self, monkeypatch, pot, grid, dtype):
        seen = record_dtypes(monkeypatch)
        neumann_series(SeedPair.zero(), pot, KConfig(max_order=4), grid)
        assert seen and all(d == dtype for d in seen), seen


class TestDispatch:
    def test_parity_under_segments_unsupported(self):
        grid = Grid.for_box(np.pi, 41)
        pot = square_well(0.5, np.pi, BT)
        with pytest.raises(ValueError, match="parity"):
            apply_K(parity_kernel(grid), pot, CFG, grid)

    def test_mixed_potential_sums_channels(self):
        grid = Grid.for_box(np.pi, 65)
        X, Y = grid.mesh()
        pot = PotentialSpec(constants=BT, domain=Domain.box(np.pi),
                            segments=square_well(0.5, np.pi, BT).segments,
                            deltas=((0.3, 0.2),))
        out = apply_K(identity_kernel(grid), pot, CFG, grid)
        ref = square_well_k_delta(X, Y, 0.5, BT) \
            + delta_first_iterate(X, Y, BT.c0 * 0.2, 0.3)
        np.testing.assert_allclose(out.smooth, ref, atol=1e-14)

    @pytest.mark.parametrize("other", [Grid(3.0, 65), Grid(2.0, 67)], ids=["half_width", "n"])
    @pytest.mark.parametrize("apply", [
        lambda k, pot, grid: apply_K(k, pot, CFG, grid),
        lambda k, pot, grid: apply_K_smooth(k, pot, CFG, grid),
        lambda k, pot, grid: apply_K_delta_rule(k, pot, grid),
    ], ids=["apply_K", "apply_K_smooth", "apply_K_delta_rule"])
    def test_kernel_from_another_grid_raises(self, apply, other):
        # as in kg_residual: an image labelled with `other` would hold values
        # computed on the kernel's own spacing
        own = Grid(2.0, 65)
        pot = PotentialSpec(constants=NAT, domain=Domain.line(),
                            segments=(((-3.0, 3.0), 0.3j),), deltas=((0.5, 0.2),))
        k = apply_K(identity_kernel(own), pot, CFG, own)
        with pytest.raises(ValueError, match="kernel grid does not match the supplied grid"):
            apply(k, pot, other)

    def test_empty_potential_maps_to_zero(self):
        grid = Grid(half_width=1.0, n=41)
        pot = PotentialSpec(constants=NAT, domain=Domain.line())
        out = apply_K(identity_kernel(grid), pot, CFG, grid)
        assert out.sup_smooth == 0.0 and out.c_diag == 0.0

    def test_lone_smooth_image_has_the_bytes_of_a_sum_with_zeros(self):
        # apply_K returns the image itself: it holds no -0.0 that zeros + image would flip
        grid = Grid.for_box(np.pi, 65)
        pot = square_well(0.5, np.pi, BT)
        rng = np.random.default_rng(33)
        raw = rng.standard_normal((grid.n, grid.n)) + 1j * rng.standard_normal((grid.n, grid.n))
        real = raw.real + raw.real.T
        # real, imaginary (the 0 - x branch), complex Hermitian and general inputs
        for S in (real, 1j * real, raw + raw.conj().T, raw,
                  apply_K_to_identity(pot, grid, CFG).smooth):
            k = smooth_kernel(grid, S)
            image = apply_K_smooth(k, pot, CFG, grid).smooth
            summed = np.zeros_like(image) + image
            assert apply_K(k, pot, CFG, grid).smooth.tobytes() == summed.tobytes()

    @pytest.fixture(scope="class")
    def well_iterate(self):
        grid = Grid.for_box(np.pi, 513)
        pot = square_well(0.092467, np.pi, BT)
        return pot, grid, apply_K(identity_kernel(grid), pot, CFG, grid)

    def test_smooth_image_peak_memory(self, well_iterate, traced_peak):
        # the float64 cell sums (1.0 of the input's bytes), the real term (0.5) and
        # the complex image (1.0), with prefix blocks of O(_BLOCK n) beside them:
        # 2.03; 6.05 with the whole padded prefix table (3.0) and its temporaries
        pot, grid, k = well_iterate
        for call in (apply_K_smooth, apply_K):
            assert traced_peak(lambda: call(k, pot, CFG, grid)) / k.smooth.nbytes < 2.5

    def test_complex_hermitian_image_peak_memory(self, well_iterate, traced_peak):
        # complex cell sums (2.0) and term (1.0), then the term and its adjoint:
        # 3.61; 11.1 with the whole complex prefix table
        pot, grid, k = well_iterate
        raw = k.smooth + 1e-3 * np.random.default_rng(5).standard_normal(k.smooth.shape)
        h = smooth_kernel(grid, raw + raw.conj().T)
        assert traced_peak(lambda: apply_K_smooth(h, pot, CFG, grid)) / h.smooth.nbytes < 5.0

    def test_identity_image_peak_memory(self, well_iterate, traced_peak):
        # the complex result and one block of rows: 1.28; 4.03 over the whole mesh
        pot, grid, k = well_iterate
        peak = traced_peak(lambda: apply_K_to_identity(pot, grid, CFG))
        assert peak / k.smooth.nbytes < 1.5

    def test_delta_rule_peak_memory(self, traced_peak):
        # an imaginary iterate on three couplings: the result (1.0 of the input's
        # bytes) and per coupling its two float64 slice integrals (0.5 each), the
        # image formed in the first: 2.06; 4.04 with the image's temporaries and
        # a contiguous copy of the imaginary part
        grid = Grid(half_width=2.0, n=513)
        pot = delta_potential([(-0.5, 0.7), (0.25, -0.4), (0.75, 0.5)], NAT)
        k = apply_K_delta_rule(identity_kernel(grid), pot, grid)
        assert not k.smooth.real.any()
        assert traced_peak(lambda: apply_K_delta_rule(k, pot, grid)) / k.smooth.nbytes < 2.3


class TestNeumannSeries:
    @pytest.mark.parametrize("model, order, calls", [("well", 4, 5), ("deltas", 6, 7)])
    def test_each_sup_norm_is_taken_once(self, model, order, calls, monkeypatch):
        # apply_K takes the norm neumann_series has just recorded for sup_norms
        taken = []
        sup = Kernel.sup_smooth.fget
        monkeypatch.setattr(Kernel, "sup_smooth", property(lambda k: taken.append(k) or sup(k)))
        if model == "well":
            grid, pot = Grid.for_box(np.pi, 65), square_well(0.092467, np.pi, BT)
        else:
            grid = Grid(half_width=2.0, n=65)
            pot = delta_potential([(-0.5, 0.7), (0.25, -0.4), (0.75, 0.5)], NAT)
        state = neumann_series(SeedPair.zero(), pot, KConfig(max_order=order), grid)
        assert len(state.iterates) == calls == len(taken)

    @pytest.mark.parametrize("model", ["well", "deltas", "none"])
    @pytest.mark.parametrize("seed", ["zero", "bender-tan", "negative-zero"])
    def test_sink_gets_the_iterates_a_kept_run_keeps(self, model, seed):
        # in order, with the same bytes; the partial sum is zeros + u + K u + ...
        # summed in order, the sign of every zero included (-0.0 + 0.0 = +0.0)
        if model == "well":
            grid, pot = Grid.for_box(np.pi, 65), square_well(0.092467, np.pi, BT)
        elif model == "none":  # the seed alone
            grid, pot = Grid(half_width=2.0, n=65), PotentialSpec(NAT, Domain.line())
        else:
            grid = Grid(half_width=2.0, n=65)
            pot = delta_potential([(-0.5, 0.7), (0.25, -0.4), (0.75, 0.5)], NAT)
        if seed == "negative-zero":
            minus_zero = lambda t: np.full(np.shape(t), complex(-0.0, -0.0))
            seed = SeedPair(minus_zero, minus_zero)
        else:
            seed = preset_seed(seed, 0.1, np.pi, BT)
        cfg = KConfig(max_order=4)
        kept = neumann_series(seed, pot, cfg, grid)
        got = []
        streamed = neumann_series(seed, pot, cfg, grid, sink=lambda *item: got.append(item))
        orders = len(kept.iterates)
        assert orders == (1 if model == "none" else 5)
        assert [order for order, _ in got] == list(range(orders)) and streamed.iterates == []
        for (_, k), ref in zip(got, kept.iterates):
            assert (k.c_diag, k.c_anti) == (ref.c_diag, ref.c_anti)
            assert k.smooth.tobytes() == ref.smooth.tobytes()
        total = np.zeros((grid.n, grid.n), dtype=complex)
        for k in kept.iterates:
            total += k.smooth
        for state in (kept, streamed):
            assert state.partial_sum.smooth.tobytes() == total.tobytes()
            assert (state.partial_sum.c_diag, state.partial_sum.c_anti) == (
                sum(k.c_diag for k in kept.iterates), sum(k.c_anti for k in kept.iterates))
        assert streamed.sup_norms == kept.sup_norms
        assert streamed.truncation_residuals == kept.truncation_residuals
        assert len(kept.truncation_residuals) == orders
        assert (streamed.discretization_residual, streamed.converged, streamed.truncated_evals) \
            == (kept.discretization_residual, kept.converged, kept.truncated_evals)
        assert (kept.converged is None) == (model == "deltas")

    def test_single_coupling_two_orders(self):
        grid = Grid(half_width=2.0, n=161)
        X, Y = grid.mesh()
        z = 1.0
        pot = delta_potential([(0.0, z / NAT.c0)], NAT)
        state = neumann_series(SeedPair.zero(), pot, KConfig(max_order=2), grid)
        assert len(state.iterates) == 3
        ref = delta_first_iterate(X, Y, z, 0.0) + delta_second_iterate(X, Y, z, 0.0)
        keep = TestDeltaRule.untruncated(grid, 0.0)
        np.testing.assert_allclose(state.partial_sum.smooth[keep], ref[keep], atol=1e-12)
        assert state.partial_sum.c_diag == 1.0
        assert state.sup_norms[0] == 0.0
        assert state.sup_norms[1] == pytest.approx(0.5, abs=1e-15)
        assert state.truncated_evals > 0
        assert state.discretization_residual is None and state.converged is None

    def test_truncated_evals_count_the_applications_with_a_smooth_input(self):
        # the zero seed has no smooth part, so its image K u clamps nothing
        grid = Grid(half_width=2.0, n=65)
        couplings = delta_potential([(0.5, 0.8), (-0.355, 0.6), (0.0, -0.3)], NAT)
        state = neumann_series(SeedPair.zero(), couplings, KConfig(max_order=6), grid)
        assert len(state.sup_norms) == 7 and state.sup_norms[0] == 0.0
        ones = smooth_kernel(grid, np.ones((65, 65), dtype=complex))
        clamped = mesh_delta_rule(ones, couplings, grid)[1]
        assert state.truncated_evals == 5 * clamped > 0
        segments = scattering_potential(0.1, 1.0, NAT)
        state = neumann_series(SeedPair.zero(), segments, KConfig(max_order=4), grid)
        assert len(state.sup_norms) == 5
        assert state.truncated_evals == 3 * 4 * 65 * 64

    def test_square_well_first_order(self):
        grid = Grid.for_box(np.pi, 65)
        X, Y = grid.mesh()
        pot = square_well(0.7, np.pi, BT)
        state = neumann_series(SeedPair.zero(), pot, KConfig(max_order=1), grid)
        np.testing.assert_allclose(state.partial_sum.smooth,
                                   square_well_k_delta(X, Y, 0.7, BT), atol=1e-14)

    def test_scattering_first_order_with_edge_base_point(self):
        grid = Grid(half_width=2.0, n=81)
        X, Y = grid.mesh()
        pot = scattering_potential(0.4, 1.0, NAT)
        state = neumann_series(SeedPair.zero(), pot,
                               KConfig(r0=-0.5, max_order=1), grid)
        np.testing.assert_allclose(state.partial_sum.smooth,
                                   scattering_k_delta(X, Y, 0.4, 1.0, NAT), atol=1e-14)

    def test_trivial_potential_stops_at_seed(self):
        grid = Grid(half_width=1.0, n=41)
        pot = PotentialSpec(constants=NAT, domain=Domain.line())
        state = neumann_series(SeedPair.zero(), pot, CFG, grid)
        assert len(state.iterates) == 1 and state.sup_norms == [0.0]

    def test_stop_tolerance(self):
        # there is none: K is linear, so only an exactly zero iterate ends the ladder early
        grid = Grid.for_box(np.pi, 41)
        for zeta, orders in ((0.0, 1), (1e-9, 4)):
            state = neumann_series(SeedPair.zero(), square_well(zeta, np.pi, BT),
                                   KConfig(max_order=4), grid)
            assert len(state.iterates) == len(state.truncation_residuals) == orders + 1
            assert (state.sup_norms[-1] == 0.0) == (zeta == 0.0) and state.sup_norms[-1] < 1e-30
            assert state.converged is True

    def test_divergence_flag(self):
        # no flag: for a coupling the truncation residual is the line density |z| sup|K^l u|
        # on the slices at a; it rises at z = 12 and falls at z = 0.2, and gives no verdict
        grid = Grid(half_width=2.0, n=65)
        strong = delta_potential([(0.0, 12.0 / NAT.c0)], NAT)
        weak = delta_potential([(0.0, 0.2 / NAT.c0)], NAT)
        rising = neumann_series(SeedPair.zero(), strong, KConfig(max_order=12), grid)
        falling = neumann_series(SeedPair.zero(), weak, KConfig(max_order=4), grid)
        r = rising.truncation_residuals
        assert r[0] == 0.0 and r[1] == pytest.approx(72.0, rel=1e-12)
        assert all(later > earlier for earlier, later in zip(r[1:], r[2:]))
        assert r[4] == pytest.approx(2.07e4, rel=0.01) and r[12] == pytest.approx(1.42e6, rel=0.01)
        f = falling.truncation_residuals
        assert all(later < earlier for earlier, later in zip(f[1:], f[2:]))
        for state in (rising, falling):
            assert state.discretization_residual is None and state.converged is None

    def test_truncation_residual_of_each_part_and_of_both(self):
        # segments: sup|mu^2 S| over all node pairs; couplings: |z| sup|S| on the two slices
        # through the coupling node; a potential with both: the larger of the two
        grid = Grid(half_width=2.0, n=65)
        rng = np.random.default_rng(7)
        S = rng.standard_normal((65, 65)) + 1j * rng.standard_normal((65, 65))
        segments = scattering_potential(0.4, 1.0, NAT)
        couplings = delta_potential([(0.5, 0.3), (-0.25, -0.8)], NAT)
        mixed = PotentialSpec(NAT, Domain.line(), segments.segments, couplings.deltas)
        X, Y = grid.mesh()

        def truncation(S, pot, grid):
            return series._truncation_residual(S, pot, grid, eval_potential(pot, grid.nodes))
        assert truncation(S, segments, grid) == np.max(np.abs(eval_mass_term(segments, X, Y) * S))
        slices = [abs(NAT.c0 * zeta) * max(np.max(np.abs(S[:, j])), np.max(np.abs(S[j, :])))
                  for j, zeta in ((40, 0.3), (28, -0.8))]
        assert truncation(S, couplings, grid) == max(slices)
        assert truncation(S, mixed, grid) == max(max(slices), truncation(S, segments, grid))

    def test_each_pass_samples_the_potential_once(self, monkeypatch):
        # the truncation residual of each order and the closing grid-part pass form mu^2
        # from one sample of v on the nodes, taken once per ladder: the count does not grow
        # with n or the order (it was 40, 112 and 208 at n 65, 257 and 513, then 9)
        from qmetric import potentials, verify
        sampled = potentials.eval_potential
        calls = []
        for module in (potentials, series, verify):
            monkeypatch.setattr(module, "eval_potential",
                                lambda pot, x: calls.append(np.shape(x)) or sampled(pot, x))
        for n in (65, 257, 513):
            calls.clear()
            neumann_series(SeedPair.zero(), square_well(0.068931, np.pi, BT),
                           KConfig(max_order=4), Grid.for_box(np.pi, n))
            # the node sample and the three characteristic terms' midpoints
            assert len(calls) == 4
            assert calls.count((n,)) == 1

    @pytest.mark.parametrize("zeta, truncation", [(0.1, 0.0153398), (1.0, 1.53398)])
    def test_order_one_discretization_residual_is_round_off(self, zeta, truncation):
        # K(delta) is piecewise linear, so the stencil meets mu^2 K u to round-off
        state = neumann_series(SeedPair.zero(), square_well(zeta, np.pi, BT),
                               KConfig(max_order=1), Grid.for_box(np.pi, 129))
        assert state.truncation_residuals == [0.0, pytest.approx(truncation, rel=1e-5)]
        assert 0.0 < state.discretization_residual < 1e-11 * truncation
        assert state.converged is False

    def test_strong_well_converges_by_residual(self):
        # zeta 3: truncation against discretization at orders 4, 9 and 12
        grid, pot = Grid.for_box(np.pi, 129), square_well(3.0, np.pi, BT)
        for order, truncation, grid_part, converged in ((4, 8.66, 0.0847, False),
                                                        (9, 0.308, 0.0725, False),
                                                        (12, 0.0138, 0.0724, True)):
            state = neumann_series(SeedPair.zero(), pot, KConfig(max_order=order), grid)
            assert state.truncation_residuals[-1] == pytest.approx(truncation, rel=0.01)
            assert state.discretization_residual == pytest.approx(grid_part, rel=0.01)
            assert state.converged is converged

    def test_coupling_rescaling_is_exact(self):
        grid = Grid(half_width=2.0, n=41)
        cfg = KConfig(max_order=2)
        base = neumann_series(SeedPair.zero(), delta_potential([(0.0, 0.5)], NAT),
                              cfg, grid)
        for lam in (2.0, -1.0, 0.5):
            scaled = neumann_series(SeedPair.zero(),
                                    delta_potential([(0.0, lam * 0.5)], NAT), cfg, grid)
            for ell in (1, 2):
                np.testing.assert_array_equal(scaled.iterates[ell].smooth,
                                              lam**ell * base.iterates[ell].smooth)

    def test_hermiticity_along_the_series(self):
        grid = Grid.for_box(np.pi, 49)
        pot = square_well(0.6, np.pi, BT)
        state = neumann_series(SeedPair.zero(), pot, KConfig(max_order=3), grid)
        for k in state.iterates:
            assert hermiticity_defect(k) < 1e-12
        assert hermiticity_defect(state.partial_sum) < 1e-12


class TestConvergenceBound:
    def test_first_order_is_constant(self):
        grid = Grid(half_width=2.0, n=41)
        pot = delta_potential([(0.0, 0.5)], NAT)
        b = convergence_bound(pot, grid, 1)
        np.testing.assert_array_equal(b, 0.5 * np.ones((41, 41)))

    def test_dominates_computed_iterates(self):
        grid = Grid(half_width=2.0, n=81)
        for zeta in (0.25, 0.5, 1.0):
            pot = delta_potential([(0.0, zeta)], NAT)
            state = neumann_series(SeedPair.zero(), pot, KConfig(max_order=3), grid)
            for ell in (1, 2, 3):
                bound = convergence_bound(pot, grid, ell)
                assert np.all(np.abs(state.iterates[ell].smooth) <= bound + 1e-9)

    def test_rejects_unsupported_potentials(self):
        grid = Grid(half_width=2.0, n=41)
        with pytest.raises(ValueError):
            convergence_bound(pt_delta_pairs([(0.5, 0.3)], NAT), grid, 1)
        with pytest.raises(ValueError):
            convergence_bound(scattering_potential(0.4, 1.0, NAT), grid, 1)
        with pytest.raises(ValueError):
            convergence_bound(delta_potential([(0.0, 0.5)], NAT), grid, 0)
        with pytest.raises(ValueError, match="pure point coupling only"):
            convergence_bound(PotentialSpec(constants=NAT, domain=Domain.line(),
                                            segments=(((-0.5, 0.5), 0.2j),),
                                            deltas=((0.0, 0.5),)), grid, 1)
