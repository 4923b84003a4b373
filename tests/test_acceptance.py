"""Acceptance criteria, one per numbered test, each printing a status line.

Run with -s to see the per-criterion lines.  Four clauses are known to
fail: three check against a tabulated coefficient form for the double
point-coupling pass that is internally inconsistent, and one asserts a
grid-refinement decay that the measured residual provably cannot have.
They are kept faithful rather than loosened, and the status lines report
the measured numbers.  See the README acceptance section.
"""

import time

import numpy as np

from qmetric.closed_forms import (
    bender_tan_Q,
    delta_first_iterate,
    delta_second_iterate,
    preset_seed,
    preset_w,
    scattering_eta1,
    scattering_k_delta,
    square_well_eta1,
    square_well_k_delta,
)
from qmetric.kernels import (
    Grid,
    Kernel,
    SeedPair,
    hermiticity_defect,
    seed_to_kernel,
)
from qmetric.potentials import (
    Domain,
    PotentialSpec,
    constants_preset,
    delta_potential,
    scattering_potential,
    square_well,
    unit_step,
)
from qmetric.series import KConfig, apply_K_to_identity, neumann_series
from qmetric.spectral import biorthonormalize, discretize, spectral_metric
from qmetric.verify import kg_residual, positivity_check, pseudo_hermiticity_residual

from test_properties import PROPERTY_SUITES

BT = constants_preset("bender-tan")
NAT = constants_preset("natural")


def report(label: str, ok: bool, detail: str) -> str:
    print(f"[{label}] {'PASS' if ok else 'FAIL'}  {detail}", flush=True)
    return detail


def second_iterate_tabulated(x, y, z: float, a: float) -> np.ndarray:
    """Tabulated coefficient form quoted for the double point-coupling pass."""
    p = np.asarray(x, dtype=float) - a
    q = np.asarray(y, dtype=float) - a
    s = p + q
    return (z**2 / 4.0) * (unit_step(p) + unit_step(q)) * (s * unit_step(s) - np.abs(p - q))


def untruncated_mask(grid: Grid, a: float) -> np.ndarray:
    """Nodes whose characteristic integrals stay inside the grid square."""
    X, Y = grid.mesh()
    lim = grid.half_width - 1e-9
    return (np.abs(X + Y - a) <= lim) & (np.abs(X - Y + a) <= lim)


def _delta_iterate_errors(n: int):
    z, a = 1.0, 0.0
    pot = delta_potential([(a, z / NAT.c0)], NAT)
    grid = Grid(half_width=2.0, n=n)
    state = neumann_series(SeedPair.zero(), pot, KConfig(max_order=2), grid)
    X, Y = grid.mesh()
    mask = untruncated_mask(grid, a)
    k2 = state.iterates[2].smooth
    err_tab = float(np.max(np.abs(k2 - second_iterate_tabulated(X, Y, z, a))[mask]))
    err_closed = float(np.max(np.abs(k2 - delta_second_iterate(X, Y, z, a))[mask]))
    return state, grid, err_tab, err_closed


def test_criterion_1_square_well_first_order():
    t0 = time.perf_counter()
    zeta, n = 0.1, 129
    grid = Grid.for_box(np.pi, n)
    pot = square_well(zeta, np.pi, BT)
    X, Y = grid.mesh()
    closed = square_well_k_delta(X, Y, zeta, BT)
    direct = apply_K_to_identity(pot, grid).smooth
    state = neumann_series(SeedPair.zero(), pot, KConfig(max_order=1), grid)
    err_direct = float(np.max(np.abs(direct - closed)))
    err_series = float(np.max(np.abs(state.iterates[1].smooth - closed)))
    elapsed = time.perf_counter() - t0
    ok = err_direct <= 1e-12 and err_series <= 1e-12 and elapsed < 1.0
    detail = report("criterion 1", ok,
                    f"first-order square-well kernel: direct err {err_direct:.2e}, "
                    f"series err {err_series:.2e}, {elapsed:.2f} s")
    assert ok, detail


def test_criterion_2_exponential_gauge_expansion():
    t0 = time.perf_counter()
    zeta, n = 0.1, 129
    grid = Grid.for_box(np.pi, n)
    X, Y = grid.mesh()
    eta1 = square_well_eta1(zeta, grid, BT, preset_w("bender-tan", np.pi, BT))
    err = float(np.max(np.abs((-bender_tan_Q(zeta, X, Y)) - eta1.smooth)))
    elapsed = time.perf_counter() - t0
    ok = eta1.c_diag == 1.0 and err <= 1e-12 and elapsed < 1.0
    detail = report("criterion 2", ok,
                    f"identity-minus-Q vs gauged first order: sup err {err:.2e}, "
                    f"{elapsed:.2f} s")
    assert ok, detail


def test_criterion_3_scattering_model():
    zeta, L, n = 0.4, 1.0, 129
    grid = Grid(half_width=2.0, n=n)
    pot = scattering_potential(zeta, L, NAT)
    X, Y = grid.mesh()
    closed = scattering_k_delta(X, Y, zeta, L, NAT)
    direct = apply_K_to_identity(pot, grid, KConfig(r0=-L / 2.0)).smooth
    err_k = float(np.max(np.abs(direct - closed)))
    eta1 = scattering_eta1(zeta, L, grid, NAT)
    gauged = seed_to_kernel(preset_seed("jmp-2005", zeta, L, NAT), grid)
    err_eta = float(np.max(np.abs((gauged.smooth + closed) - eta1.smooth)))
    outside = np.abs(X + Y) >= L
    leak = float(np.max(np.abs(closed[outside])))
    ok = err_k <= 1e-12 and err_eta <= 1e-12 and leak == 0.0
    detail = report("criterion 3", ok,
                    f"scattering closed forms: kernel err {err_k:.2e}, gauge "
                    f"decomposition err {err_eta:.2e}, outside-support sup {leak:.1e}")
    assert ok, detail


def test_criterion_4_first_iterate_exact():
    t0 = time.perf_counter()
    state, grid, _, _ = _delta_iterate_errors(129)
    X, Y = grid.mesh()
    err = float(np.max(np.abs(state.iterates[1].smooth - delta_first_iterate(X, Y, 1.0, 0.0))))
    elapsed = time.perf_counter() - t0
    ok = err == 0.0 and elapsed < 10.0
    detail = report("criterion 4a", ok,
                    f"point-coupling first iterate exact: sup err {err:.1e}, {elapsed:.2f} s")
    assert ok, detail


def test_criterion_4_second_iterate_vs_tabulated_form():
    t0 = time.perf_counter()
    _, _, err_tab, err_closed = _delta_iterate_errors(129)
    elapsed = time.perf_counter() - t0
    ok = err_tab <= 5e-4 and elapsed < 10.0
    detail = report("criterion 4b", ok,
                    f"second iterate vs tabulated coefficient form: sup err "
                    f"{err_tab:.3e} (budget 5e-4); engine agrees with the "
                    f"independently verified closed form to {err_closed:.1e}; "
                    f"{elapsed:.2f} s")
    assert ok, detail


def test_criterion_4_second_iterate_refinement_ratio():
    t0 = time.perf_counter()
    _, _, err_coarse, _ = _delta_iterate_errors(129)
    _, _, err_fine, _ = _delta_iterate_errors(257)
    ratio = err_coarse / err_fine
    elapsed = time.perf_counter() - t0
    ok = ratio >= 3.5 and elapsed < 10.0
    detail = report("criterion 4c", ok,
                    f"tabulated-form error refinement ratio {ratio:.2f} "
                    f"(required >= 3.5): the discrepancy is a fixed coefficient "
                    f"difference, not a quadrature error; {elapsed:.2f} s")
    assert ok, detail


def test_criterion_5_iterate_bound_domination():
    from qmetric.series import convergence_bound
    worst = -np.inf
    for z in (0.5, 1.0, 2.0):
        pot = delta_potential([(0.0, z / NAT.c0)], NAT)
        grid = Grid(half_width=2.0, n=65)
        state = neumann_series(SeedPair.zero(), pot, KConfig(max_order=3), grid)
        for ell in (1, 2, 3):
            bound = convergence_bound(pot, grid, ell)
            excess = float(np.max(np.abs(state.iterates[ell].smooth) - bound))
            worst = max(worst, excess)
    ok = worst <= 1e-12
    detail = report("criterion 5a", ok,
                    f"iterate bound dominates orders 1-3 at |z| in {{0.5,1,2}}: "
                    f"max excess {worst:.2e}")
    assert ok, detail


def test_criterion_5_quoted_point_value():
    computed = float(delta_second_iterate(1.0, 0.5, 1.0, 0.0).real)
    quoted, bound = 0.5, 0.75
    ok = abs(computed - quoted) <= 1e-12
    detail = report("criterion 5b", ok,
                    f"second iterate at (1,0.5), z=1: computed {computed} vs quoted "
                    f"{quoted} (bound {bound} still dominates the computed value)")
    assert ok, detail


def test_criterion_6_wave_residual_quartering():
    t0 = time.perf_counter()
    n = 257
    grid = Grid.for_box(np.pi, n)
    res = {}
    for zeta in (0.1, 0.05):
        pot = square_well(zeta, np.pi, BT)
        res[zeta] = kg_residual(square_well_eta1(zeta, grid, BT), pot, grid).residual
    ratio = res[0.1] / res[0.05]
    elapsed = time.perf_counter() - t0
    ok = abs(ratio - 4.0) <= 0.15 * 4.0 and elapsed < 30.0
    detail = report("criterion 6", ok,
                    f"wave-equation residual ratio under coupling halving: "
                    f"{ratio:.4f} (target 4 +/- 15%), {elapsed:.2f} s")
    assert ok, detail


def test_criterion_7_spectral_oracle():
    t0 = time.perf_counter()
    free = PotentialSpec(constants=BT, domain=Domain.box(np.pi))
    e_fine = biorthonormalize(discretize(free, Grid.for_box(np.pi, 257))).energies[0].real
    e_coarse = biorthonormalize(discretize(free, Grid.for_box(np.pi, 129))).energies[0].real
    richardson = (4.0 * e_fine - e_coarse) / 3.0
    grid = Grid.for_box(np.pi, 257)
    ham = discretize(square_well(0.1, np.pi, BT), grid)
    system = biorthonormalize(ham)
    e10 = system.energies[:10]
    imag_ratio = float(np.max(np.abs(e10.imag) / np.abs(e10.real)))
    metric = spectral_metric(system, system.energies.size)
    herm = hermiticity_defect(metric)
    pos = positivity_check(metric, grid)
    psh = pseudo_hermiticity_residual(metric, ham)
    elapsed = time.perf_counter() - t0
    ok = (abs(e_fine - 1.0) <= 1e-3 and abs(richardson - 1.0) <= 1e-4
          and imag_ratio < 1e-6 and herm <= 1e-10
          and pos.passed and pos.meta["min_eigenvalue"] > 0.0
          and psh.relative < 1e-6 and elapsed < 60.0)
    detail = report("criterion 7", ok,
                    f"spectral oracle: E1 err {abs(e_fine - 1.0):.2e}, Richardson err "
                    f"{abs(richardson - 1.0):.2e}, max |Im/Re| {imag_ratio:.2e}, "
                    f"hermiticity {herm:.2e}, min eig {pos.meta['min_eigenvalue']:.3e}, "
                    f"commutator rel {psh.relative:.2e}, {elapsed:.1f} s")
    assert ok, detail


def _difference_residual(zeta: float, n: int) -> float:
    grid = Grid.for_box(np.pi, n)
    pot = square_well(zeta, np.pi, BT)
    state = neumann_series(preset_seed("bender-tan", zeta, np.pi, BT), pot,
                           KConfig(max_order=1), grid)
    system = biorthonormalize(discretize(pot, grid))
    metric = spectral_metric(system, 40)
    series = state.partial_sum
    diff = Kernel(grid=grid, c_diag=series.c_diag, c_anti=series.c_anti,
                  smooth=series.smooth - metric.smooth)
    return kg_residual(diff, pot, grid).residual


def test_criterion_8_difference_coupling_exponent():
    r_full = _difference_residual(0.1, 65)
    r_half = _difference_residual(0.05, 65)
    exponent = float(np.log2(r_full / r_half))
    ok = abs(exponent - 2.0) <= 0.2 * 2.0
    detail = report("criterion 8a", ok,
                    f"difference-kernel residual coupling exponent {exponent:.3f} "
                    f"(nominal 2 +/- 20%)")
    assert ok, detail


def test_criterion_8_difference_grid_exponent():
    r_coarse = _difference_residual(0.1, 65)
    r_fine = _difference_residual(0.1, 129)
    exponent = float(np.log2(r_coarse / r_fine))
    ok = abs(exponent - 2.0) <= 0.2 * 2.0
    detail = report("criterion 8b", ok,
                    f"difference-kernel residual grid exponent {exponent:.3f} "
                    f"(nominal 2 +/- 20%): the residual is the mass term times "
                    f"the first-order kernel, which the stencil reproduces at "
                    f"every spacing, so refinement does not shrink it")
    assert ok, detail


def test_criterion_9_property_suites(property_suite):
    # each suite runs once per session; elapsed is the suites' own run time
    runs = [property_suite(name) for name in PROPERTY_SUITES]
    elapsed = sum(seconds for _, seconds in runs)
    cases = sum(result["cases"] for result, _ in runs)
    ok = elapsed < 120.0
    detail = report("criterion 9", ok,
                    f"five property suites, {cases} randomized cases, {elapsed:.1f} s")
    assert ok, detail
