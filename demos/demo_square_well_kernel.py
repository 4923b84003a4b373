"""
First-order metric kernel for the imaginary square well
=======================================================

Builds the pseudo-metric kernel eta(x, y) for the PT-symmetric well
v(x) = i*zeta*sign(x) on a box of width pi, two independent ways:

  1. the closed first-order expression, and
  2. one pass of the integral operator applied to the identity seed,

then runs the residual battery (wave-operator residual, Hermiticity,
positivity, invertibility) on the result.
"""

import numpy as np

from qmetric import (
    Grid, KConfig, constants_preset, square_well, square_well_eta1,
    apply_K_to_identity, hermiticity_defect, kg_residual,
    positivity_check, invertibility_check, discretize,
    pseudo_hermiticity_residual,
)

zeta = 0.2
L = np.pi
const = constants_preset("bender-tan")
grid = Grid.for_box(L, 129)
pot = square_well(zeta, L, const)

print(f"model: imaginary square well, zeta = {zeta}, box width = pi, "
      f"{grid.n} x {grid.n} grid")

# Route 1: the closed form (zero-gauge seed).
eta_closed = square_well_eta1(zeta, grid, const)

# Route 2: one application of the operator to the delta(x - y) seed.
eta_series = apply_K_to_identity(pot, grid, KConfig())

gap = np.max(np.abs(eta_closed.smooth - eta_series.smooth))
print(f"closed form vs one operator pass: sup difference = {gap:.3e}")

# The kernel must be Hermitian, eta(x, y)* = eta(y, x).
print(f"hermiticity defect: {hermiticity_defect(eta_closed):.3e}")

# Residual battery.  The wave-operator check excludes a 2-cell band
# around x = y where the kernel genuinely jumps (that jump carries the
# distributional channel, reported separately in the meta dict).  The
# residual of a first-order kernel is second order in the coupling, and
# the check's own budget is the product of the two first-order factors.
rep = kg_residual(eta_closed, pot, grid)
print(f"wave residual: sup = {rep.residual:.3e} within budget {rep.meta['tolerance']:.3e} "
      f"(pass={rep.passed}, band jump channel = {rep.meta['identity_channel']:.3e})")

rep = positivity_check(eta_closed, grid)
print(f"positivity: min eigenvalue = {rep.meta['min_eigenvalue']:.3e}  "
      f"pass = {rep.passed}")
rep = invertibility_check(eta_closed, grid)
print(f"invertibility: singular-value ratio = {rep.relative:.3e}  "
      f"pass = {rep.passed}")

# The intertwining defect H^dag M - M H of a first-order kernel decays
# linearly in zeta; halving the coupling halves the relative residual.
ham = discretize(pot, grid)
r1 = pseudo_hermiticity_residual(eta_closed, ham).relative
r2 = pseudo_hermiticity_residual(
    square_well_eta1(zeta / 2, grid, const),
    discretize(square_well(zeta / 2, L, const), grid)).relative
print(f"intertwining residual at zeta and zeta/2: {r1:.3e} / {r2:.3e} "
      f"(ratio {r1 / r2:.4f})")
