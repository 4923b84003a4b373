"""Randomized property suites for the kernel engine.

Each suite runs a fixed number of seeded cases and asserts its invariant
on every one.  The tests ask the session fixture `property_suite`
(conftest.py) for the suites by their PROPERTY_SUITES name, so each suite
runs once per session and the acceptance harness times the same runs.
"""

import numpy as np

from qmetric.kernels import (
    Grid,
    Kernel,
    SeedPair,
    hermiticity_defect,
    invert_operator_form,
    operator_form_free,
    seed_reality_defect,
    seed_to_kernel,
)
from qmetric.potentials import (
    constants_preset,
    delta_potential,
    scattering_potential,
    square_well,
)
from qmetric.series import KConfig, apply_K, neumann_series

BT = constants_preset("bender-tan")
NAT = constants_preset("natural")
BOX_GRID = Grid.for_box(np.pi, 33)
LINE_GRID = Grid(half_width=2.0, n=33)
CFG = KConfig(max_order=2)


def _rotating_potential(rng, i):
    """Cycle square well / scattering / point couplings with random strengths."""
    kind = i % 3
    if kind == 0:
        return square_well(0.05 + 0.45 * rng.random(), np.pi, BT), BOX_GRID, False
    if kind == 1:
        return (scattering_potential(0.05 + 0.45 * rng.random(), 1.0, NAT),
                LINE_GRID, False)
    terms = [(float(rng.uniform(-1.5, 1.5)), float(rng.uniform(0.1, 0.5)))
             for _ in range(rng.integers(1, 3))]
    return delta_potential(terms, NAT), LINE_GRID, True


def _random_smooth(rng, grid, hermitian=False):
    b = rng.standard_normal((grid.n, grid.n)) + 1j * rng.standard_normal((grid.n, grid.n))
    if hermitian:
        b = 0.5 * (b + b.conj().T)
    return b


def _random_valid_seed(rng, grid):
    """Seed profiles satisfying u_plus(-t) = u_plus(t)* and u_minus real."""
    t = grid.diff_nodes
    w = np.pi / grid.half_width
    even = sum(rng.standard_normal() * np.cos(k * w * t / 2.0) for k in range(3))
    odd = sum(rng.standard_normal() * np.sin(k * w * t / 2.0) for k in range(1, 4))
    um = sum(rng.standard_normal() * np.cos(k * w * t / 2.0 + rng.standard_normal())
             for k in range(3))
    return t, 0.1 * (even + 1j * odd), 0.1 * np.asarray(um, dtype=complex)


def run_hermiticity_suite(n_cases=200, rng_seed=101):
    """K maps Hermitian kernels to Hermitian kernels."""
    rng = np.random.default_rng(rng_seed)
    worst = 0.0
    for i in range(n_cases):
        pot, grid, allow_parity = _rotating_potential(rng, i)
        k = Kernel(grid=grid,
                   c_diag=float(rng.standard_normal()),
                   c_anti=float(rng.standard_normal()) if allow_parity else 0.0,
                   smooth=_random_smooth(rng, grid, hermitian=True))
        out = apply_K(k, pot, CFG, grid)
        scale = max(1.0, out.sup_smooth)
        rel = hermiticity_defect(out) / scale
        worst = max(worst, rel)
        assert rel < 1e-12, f"case {i}: hermiticity defect {rel:.3e}"
    return {"cases": n_cases, "max_rel_defect": worst}


def run_linearity_suite(n_cases=200, rng_seed=202):
    """K(aF + bG) = a K(F) + b K(G) to 1e-10."""
    rng = np.random.default_rng(rng_seed)
    worst = 0.0
    for i in range(n_cases):
        pot, grid, _ = _rotating_potential(rng, i)
        f = Kernel(grid=grid, smooth=_random_smooth(rng, grid))
        g = Kernel(grid=grid, smooth=_random_smooth(rng, grid))
        a = complex(rng.standard_normal(), rng.standard_normal())
        b = complex(rng.standard_normal(), rng.standard_normal())
        combo = Kernel(grid=grid, smooth=a * f.smooth + b * g.smooth)
        lhs = apply_K(combo, pot, CFG, grid).smooth
        rhs = a * apply_K(f, pot, CFG, grid).smooth + b * apply_K(g, pot, CFG, grid).smooth
        scale = max(1.0, float(np.max(np.abs(lhs))))
        rel = float(np.max(np.abs(lhs - rhs))) / scale
        worst = max(worst, rel)
        assert rel < 1e-10, f"case {i}: linearity defect {rel:.3e}"
    return {"cases": n_cases, "max_rel_defect": worst}


def run_scaling_suite(n_cases=200, rng_seed=303):
    """Scaling the coupling by lambda scales the order-l iterate by lambda^l."""
    rng = np.random.default_rng(rng_seed)
    worst = 0.0
    seed = SeedPair.zero()
    for i in range(n_cases):
        lam = float(rng.uniform(0.5, 2.0))
        if i % 2 == 0:
            zeta = 0.1 + 0.2 * rng.random()
            base_pot, grid = square_well(zeta, np.pi, BT), BOX_GRID
            scaled_pot = square_well(lam * zeta, np.pi, BT)
        else:
            a = float(rng.uniform(-1.0, 1.0))
            zeta = 0.1 + 0.2 * rng.random()
            base_pot, grid = delta_potential([(a, zeta)], NAT), LINE_GRID
            scaled_pot = delta_potential([(a, lam * zeta)], NAT)
        base = neumann_series(seed, base_pot, CFG, grid)
        scaled = neumann_series(seed, scaled_pot, CFG, grid)
        for ell in (1, 2):
            ref = lam**ell * base.iterates[ell].smooth
            got = scaled.iterates[ell].smooth
            scale = max(1.0, float(np.max(np.abs(ref))))
            rel = float(np.max(np.abs(got - ref))) / scale
            worst = max(worst, rel)
            assert rel < 1e-10, f"case {i} order {ell}: scaling defect {rel:.3e}"
    return {"cases": n_cases, "max_rel_defect": worst}


def run_seed_constraint_suite(n_cases=200, rng_seed=404):
    """Valid seeds pass; violating profiles are rejected with the right defect."""
    rng = np.random.default_rng(rng_seed)
    grid = LINE_GRID
    worst_valid = 0.0
    for i in range(n_cases):
        t, up, um = _random_valid_seed(rng, grid)
        if i % 2 == 0:
            seed = SeedPair.from_table(t, up, um)
            d = seed_reality_defect(seed, grid)
            worst_valid = max(worst_valid, d)
            assert d < 1e-12, f"case {i}: valid seed rejected, defect {d:.3e}"
            k = seed_to_kernel(seed, grid)
            assert hermiticity_defect(k) < 1e-12
        else:
            eps = 10.0 ** rng.uniform(-6, -3)
            if rng.random() < 0.5:
                up = up + 1j * eps  # even imaginary part breaks the mirror rule
            else:
                um = um + 1j * eps  # u_minus must stay real
            seed = SeedPair.from_table(t, up, um)
            d = seed_reality_defect(seed, grid)
            assert 0.5 * eps < d < 4.0 * eps, f"case {i}: defect {d:.3e} vs eps {eps:.3e}"
            try:
                seed_to_kernel(seed, grid)
            except ValueError:
                pass
            else:
                raise AssertionError(f"case {i}: violating seed was accepted")
    return {"cases": n_cases, "max_valid_defect": worst_valid}


def run_operator_form_suite(n_cases=200, rng_seed=505):
    """Free-particle momentum form: L real, K(p)* = K(-p), round trip closes."""
    rng = np.random.default_rng(rng_seed)
    grid = LINE_GRID
    worst = 0.0
    for i in range(n_cases):
        t, up, um = _random_valid_seed(rng, grid)
        seed = SeedPair.from_table(t, up, um)
        form = operator_form_free(seed, grid, hbar=1.0)
        scale = max(1.0, float(np.max(np.abs(form.L))), float(np.max(np.abs(form.K))))
        real_defect = float(np.max(np.abs(form.L.imag))) / scale
        mirror_defect = float(np.max(np.abs(np.conj(form.K) - form.K[::-1]))) / scale
        x, up_back, um_back = invert_operator_form(form, grid)
        round_trip = max(float(np.max(np.abs(up_back - seed.u_plus(x)))),
                         float(np.max(np.abs(um_back - seed.u_minus(x)))))
        rel = max(real_defect, mirror_defect, round_trip / scale)
        worst = max(worst, rel)
        assert rel < 1e-8, f"case {i}: operator-form defect {rel:.3e}"
    return {"cases": n_cases, "max_rel_defect": worst}


PROPERTY_SUITES = {
    "hermiticity": run_hermiticity_suite,
    "linearity": run_linearity_suite,
    "scaling": run_scaling_suite,
    "seed constraints": run_seed_constraint_suite,
    "operator form": run_operator_form_suite,
}


def test_hermiticity_preservation_suite(property_suite):
    property_suite("hermiticity")


def test_linearity_suite(property_suite):
    property_suite("linearity")


def test_coupling_scaling_suite(property_suite):
    property_suite("scaling")


def test_seed_constraint_suite(property_suite):
    property_suite("seed constraints")


def test_operator_form_suite(property_suite):
    property_suite("operator form")
