"""
Biorthonormal spectrum and the spectral metric
==============================================

Discretizes H = p^2/2m + i*zeta*sign(x) on a box, checks that the
spectrum stays real below the symmetry-breaking threshold, and builds
the metric operator from the left eigenvectors,

    M = sum_n phi_n phi_n^dag,

which intertwines H^dag and H by construction.  The last block sets the
wave residual of this metric minus the integral-operator kernel beside
the residuals of the two kernels alone, which shows what that
difference can and cannot tell.
"""

import os
import tempfile

import numpy as np

from qmetric import (
    Grid, KConfig, Kernel, constants_preset, square_well, free_box_levels,
    discretize, biorthonormalize, spectral_metric, spectrum_to_csv,
    preset_seed, neumann_series, pseudo_hermiticity_residual,
    positivity_check, kg_residual,
)

zeta = 0.1
L = np.pi
const = constants_preset("bender-tan")
grid = Grid.for_box(L, 129)
pot = square_well(zeta, L, const)

ham = discretize(pot, grid)
system = biorthonormalize(ham)

# Reality of the spectrum.  At zeta = 0.1 the well is far below the
# breaking threshold and every discrete level is real to solver noise.
imag_over_real = np.max(np.abs(system.energies.imag)) / np.max(np.abs(system.energies.real))
print(f"levels: {len(system.energies)}, max |Im E| / max |Re E| = {imag_over_real:.3e}")
print(f"biorthonormality defect |<R_m, L_n> - delta_mn|: {system.defect:.3e}")

# The lowest levels approach the free box ladder as zeta -> 0; at finite
# zeta the shift is second order in the coupling.
free = free_box_levels(grid, const, count=3)
for k in range(3):
    print(f"  E_{k + 1}: {system.energies[k].real:.6f}   free box {free[k]:.6f}")

# Metric from the 40 lowest modes: Hermitian, positive, intertwining.
metric = spectral_metric(system, 40)
print(f"intertwining residual of the spectral metric: "
      f"{pseudo_hermiticity_residual(metric, ham).relative:.3e}")
pos = positivity_check(metric, grid)
print(f"positivity: min eigenvalue = {pos.meta['min_eigenvalue']:.3e} "
      f"(a 40-of-127 mode metric is positive semidefinite, so the smallest "
      f"eigenvalue sits at the numerical-rank floor; pass = {pos.passed})")

# The difference against the integral-operator kernel.  The wave residual
# is linear in the kernel, and the spectral metric satisfies the lattice
# wave equation to round-off, so the residual of the difference is the
# series kernel's own, almost all of it the truncation term mu^2 K^L u.
# It does not show that the two routes agree: a series from the zero or
# jmp-2005 seed, another member of the eta family, reads within 1% of it.
seed = preset_seed("bender-tan", zeta, L, const)
series = neumann_series(seed, pot, KConfig(max_order=1), grid).partial_sum
diff = Kernel(grid=grid, c_diag=series.c_diag, c_anti=series.c_anti,
              smooth=series.smooth - metric.smooth)
both, own, alone = (kg_residual(k, pot, grid).residual for k in (diff, series, metric))
print(f"wave residual: series - spectral {both:.6e}, series alone {own:.6e}, "
      f"spectral alone {alone:.1e}")

with tempfile.TemporaryDirectory() as out:
    path = os.path.join(out, "spectrum.csv")
    spectrum_to_csv(system, path)
    print(f"spectrum written to {path} (removed when the demo exits)")
