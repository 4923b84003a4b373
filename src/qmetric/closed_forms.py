"""Closed-form first and second order kernels for the benchmark potentials.

Everything here is an explicit formula evaluated pointwise, with no
quadrature and no dependence on the series engine, so these functions
serve as independent references for it.  Conventions:

  * the identity seed produces, at first order, a gauge family
    eta_1(x, y) = w_plus(x - y) + w_minus(x + y) + (particular term);
  * sign(0) = 0 and the step convention theta(0) = 1/2 throughout;
  * zeta is the real coupling strength of the imaginary potential
    (i*zeta on half-boxes, or i*zeta*delta(x - a) point couplings).
"""

from __future__ import annotations

import numpy as np

from qmetric.kernels import Grid, Kernel, SeedPair
from qmetric.potentials import PhysConstants, unit_step

__all__ = [
    "square_well_k_delta",
    "square_well_eta1",
    "bender_tan_Q",
    "scattering_k_delta",
    "scattering_eta1",
    "deltas_eta1",
    "delta_first_iterate",
    "delta_second_iterate",
    "preset_w",
    "preset_seed",
]


def square_well_k_delta(x, y, zeta: float, constants: PhysConstants) -> np.ndarray:
    """First action of K on delta(x - y) for the imaginary square well.

    Base point r0 = 0 (the sign flip of the well).  The value is
    (i m zeta / 2 hbar^2) |x + y| sign(x - y), independent of the box
    width as long as both arguments stay inside the box.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    c = constants.mass / constants.hbar**2
    return (0.5j * c * zeta) * np.abs(x + y) * np.sign(x - y)


def _gauge_term(scale, w_pair, X, Y) -> np.ndarray:
    """scale * (w_plus(x - y) + w_minus(x + y)) on the mesh (X, Y)."""
    wp, wm = w_pair
    return scale * (np.asarray(wp(X - Y), dtype=complex) + np.asarray(wm(X + Y), dtype=complex))


def square_well_eta1(zeta: float, grid: Grid, constants: PhysConstants,
                     w_pair=None) -> Kernel:
    """First-order metric kernel for the imaginary square well on a box grid.

    Args:
        w_pair: optional (w_plus, w_minus) callables for the gauge part,
            added as zeta * (w_plus(x - y) + w_minus(x + y)).  See
            preset_w for ready-made choices.

    Returns:
        Kernel with c_diag = 1 and the first-order smooth part.
    """
    X, Y = grid.mesh()
    smooth = np.asarray(square_well_k_delta(X, Y, zeta, constants), dtype=complex)
    if w_pair is not None:
        smooth = smooth + _gauge_term(zeta, w_pair, X, Y)
    return Kernel(grid=grid, c_diag=1.0, smooth=smooth)


def bender_tan_Q(zeta: float, x, y) -> np.ndarray:
    """Generating function of the leading metric correction on the pi box.

    Fixed conventions hbar = 1, mass = 1/2, box (-pi/2, pi/2):

        Q(x, y) = -(i zeta / 4) [ x - y + sign(x - y) (|x + y| - pi) ]

    and delta(x - y) - Q(x, y) reproduces square_well_eta1 with the
    matching gauge preset.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    return (-0.25j * zeta) * (x - y + np.sign(x - y) * (np.abs(x + y) - np.pi))


def scattering_k_delta(x, y, zeta: float, L: float, constants: PhysConstants) -> np.ndarray:
    """First action of K on delta(x - y) for the well of width L on the line.

    Equals (i m zeta / 2 hbar^2) max(0, L - |x + y|) sign(y - x); it
    vanishes identically once |x + y| >= L.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    c = constants.mass / constants.hbar**2
    return (0.5j * c * zeta) * np.maximum(0.0, L - np.abs(x + y)) * np.sign(y - x)


def scattering_eta1(zeta: float, L: float, grid: Grid, constants: PhysConstants,
                    w_pair=None) -> Kernel:
    """First-order metric kernel for the imaginary well of width L on the line.

    The particular part is
    (i m zeta / 4 hbar^2) (2L + 2|x+y| - |x+y+L| - |x+y-L|) sign(x - y),
    which simplifies to (i m zeta / 2 hbar^2) min(L, |x+y|) sign(x - y).
    """
    X, Y = grid.mesh()
    s = X + Y
    c = constants.mass / constants.hbar**2
    bracket = 2.0 * L + 2.0 * np.abs(s) - np.abs(s + L) - np.abs(s - L)
    smooth = (0.25j * c * zeta) * bracket * np.sign(X - Y)
    smooth = np.asarray(smooth, dtype=complex)
    if w_pair is not None:
        smooth = smooth + _gauge_term(zeta, w_pair, X, Y)
    return Kernel(grid=grid, c_diag=1.0, smooth=smooth)


def delta_first_iterate(x, y, z: float, a: float) -> np.ndarray:
    """K acting once on delta(x - y) for a single point coupling at a.

    z is the scaled strength 2 m zeta / hbar^2.  The value is
    (i z / 2) theta(x + y - 2a) sign(y - x): a jump supported on the
    quarter-plane above the anti-diagonal through (a, a).
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    return (0.5j * z) * unit_step(x + y - 2.0 * a) * np.sign(y - x)


def delta_second_iterate(x, y, z: float, a: float) -> np.ndarray:
    """K applied twice to delta(x - y) for a single point coupling at a.

    With p = x - a and q = y - a:

        (z^2/4) [ theta(q) max(0, min(p + q, 2q))
                + theta(p) max(0, min(p + q, 2p)) ]

    continuous, real, and symmetric in (x, y).
    """
    p = np.asarray(x, dtype=float) - a
    q = np.asarray(y, dtype=float) - a
    term_q = unit_step(q) * np.maximum(0.0, np.minimum(p + q, 2.0 * q))
    term_p = unit_step(p) * np.maximum(0.0, np.minimum(p + q, 2.0 * p))
    return (0.25 * z * z) * (term_q + term_p)


def deltas_eta1(terms, grid: Grid, constants: PhysConstants, w_pairs=None) -> Kernel:
    """First-order metric kernel for point couplings i*zeta_n*delta(x - a_n).

    smooth = sum_n [ z_n (w_n+(x-y) + w_n-(x+y)) + delta_first_iterate ]
    with z_n = c0 * zeta_n.  w_pairs, if given, must supply one
    (w_plus, w_minus) pair per term.
    """
    terms = [(float(a), float(zeta)) for a, zeta in terms]
    if w_pairs is not None and len(w_pairs) != len(terms):
        raise ValueError("w_pairs must match the number of point couplings")
    X, Y = grid.mesh()
    smooth = np.zeros((grid.n, grid.n), dtype=complex)
    for k, (a, zeta) in enumerate(terms):
        z = constants.c0 * zeta
        smooth += delta_first_iterate(X, Y, z, a)
        if w_pairs is not None:
            smooth += _gauge_term(z, w_pairs[k], X, Y)
    return Kernel(grid=grid, c_diag=1.0, smooth=smooth)


def _zero_w(t):
    return np.zeros_like(np.asarray(t, dtype=float), dtype=complex)


def preset_w(name: str, L: float, constants: PhysConstants):
    """Named gauge-function pairs (w_plus, w_minus), unscaled.

    "zero" turns the gauge freedom off.  "bender-tan" matches the pi-box
    generating-function convention, generalized to width L:
    w_plus(t) = (i m / 2 hbar^2)(|t| - L) sign(t).  "jmp-2005" uses the
    piecewise-constant choice w_plus(t) = (i m L / 2 hbar^2) sign(t).
    Both have w_minus = 0 and keep the kernel Hermitian for real
    couplings.
    """
    c = constants.mass / constants.hbar**2
    if name == "zero":
        return _zero_w, _zero_w
    if name == "bender-tan":
        def wp(t):
            t = np.asarray(t, dtype=float)
            return (0.5j * c) * (np.abs(t) - L) * np.sign(t)
        return wp, _zero_w
    if name == "jmp-2005":
        def wp(t):
            t = np.asarray(t, dtype=float)
            return (0.5j * c * L) * np.sign(t)
        return wp, _zero_w
    raise ValueError(f"unknown gauge preset {name!r}")


def preset_seed(name: str, zeta: float, L: float, constants: PhysConstants) -> SeedPair:
    """Gauge preset packaged as a seed: u_plus = zeta*w_plus, u_minus = zeta*w_minus.

    The label names the preset and, unless it is zero, zeta and L.
    """
    wp, wm = preset_w(name, L, constants)
    label = f"{name}-gauge" + ("" if name == "zero" else f" zeta={float(zeta)!r} L={float(L)!r}")
    return SeedPair(u_plus=lambda t: zeta * np.asarray(wp(t), dtype=complex),
                    u_minus=lambda t: zeta * np.asarray(wm(t), dtype=complex),
                    label=label)
