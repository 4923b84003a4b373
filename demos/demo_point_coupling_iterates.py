"""
Iterates of the integral operator for a single point coupling
=============================================================

For v(x) = i*zeta*delta(x - a) every application of the operator has a
closed form, which makes the point coupling the sharpest test of the
series engine: the first two iterates must agree with the closed
expressions to machine precision on every node the finite window can
represent.  The script also shows each order's truncation residual, the
line density |z| sup|K^l u| on the slices at a by which the partial sum
misses the wave equation: it falls for a weak coupling and rises for a
strong one.
"""

import numpy as np

from qmetric import (
    Grid, KConfig, SeedPair, constants_preset, delta_potential,
    delta_first_iterate, delta_second_iterate, neumann_series,
)

const = constants_preset("natural")
grid = Grid(2.0, 161)
cfg = KConfig(max_order=4)

# z is the scaled strength that appears in the closed forms; the
# potential factory takes the bare coupling zeta = z * hbar^2 / (2 m).
z, a = 1.0, 0.0
c0 = 2.0 * const.mass / const.hbar**2
pot = delta_potential([(a, z / c0)], const)

zero_seed = SeedPair.zero()
state = neumann_series(zero_seed, pot, cfg, grid)
print(f"point coupling z = {z} at a = {a}, order {cfg.max_order} partial sum")
print("sup norms per order:", ["%.3e" % s for s in state.sup_norms])
print("truncation residuals per order:", ["%.3e" % r for r in state.truncation_residuals])

X, Y = grid.mesh()

# On a finite window the engine clamps characteristics that exit the
# domain; restrict the comparison to nodes whose characteristics stay
# inside.  (The counter in the state records how often clamping fired.)
inside = ((np.abs(X + Y - a) <= grid.half_width - grid.h)
          & (np.abs(X - Y + a) <= grid.half_width - grid.h))
print(f"slice-integral limits clamped to the window: {state.truncated_evals}")

for order, closed in ((1, delta_first_iterate), (2, delta_second_iterate)):
    err = np.max(np.abs(state.iterates[order].smooth - closed(X, Y, z, a))[inside])
    print(f"iterate {order} vs closed form (untruncated nodes): {err:.3e}")

# A strong coupling makes the truncation residual grow order by order; the
# engine keeps the partial sum.  The wave stencil cannot read a coupling's
# line density, so point couplings get no converged verdict (None).
strong = delta_potential([(a, 12.0 / c0)], const)
state = neumann_series(zero_seed, strong, cfg, grid)
print(f"z = 12: truncation residuals {['%.2e' % r for r in state.truncation_residuals]} "
      f"-> converged = {state.converged}")
