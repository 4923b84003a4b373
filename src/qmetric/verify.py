"""Residual and property checks tying kernels to their defining relations.

Every check returns a CheckReport carrying the sup-norm residual, a
scale-free relative residual, a pass flag against the stated tolerance,
and free-form metadata; reports serialize to JSON lines.

Singular kernel parts enter matrix-level checks through their exact grid
representation: the identity line as I/h and the parity line as P/h on
the interior nodes.

Factorisations: when that interior matrix M is exactly Hermitian (the
oracle's metric is by construction, and the series keeps the kernels of
the built-in models Hermitian bit for bit), positivity and invertibility
both read one eigvalsh of M, which hermitian_eigenvalues computes once
for both; the singular values are then |lambda|.  An M that is also
exactly PT-symmetric (P conj(M) P = M, P the reversal of the node order,
as the oracle's metric is) is folded to a real symmetric matrix U^dag M U
first, so that eigvalsh runs in real arithmetic.  An M that is not
exactly Hermitian takes an SVD for invertibility.

Both wave checks read one operator, the commutator H^dag A - A H, formed
with banded products on the two diagonals of a finite-difference H; times
2m/hbar^2 it is the lattice Klein-Gordon operator [-Dxx + Dyy + mu^2] A.
It runs over blocks of _BLOCK columns, the exact Hermiticity and PT
tests of M over blocks of _BLOCK rows, and the sup of the mass term
mu^2(x, y) over blocks of _BLOCK distinct node values of v (mu^2 sees a
node pair only through v(x) and v(y)), so their memory beyond the kernel
and M is O(_BLOCK n).  The per-block maxima are reduced with np.max,
which keeps a NaN (Python's max drops it).  Each element keeps the
expression and operation order of the whole-array form, so the reports
are the same bit for bit.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from qmetric.kernels import _BLOCK, Grid, Kernel, _conj_equal, _grids_match, hermiticity_defect
from qmetric.potentials import PotentialSpec, eval_mass_term, eval_potential
from qmetric.spectral import (DiscretizedHamiltonian, _fd_diagonals, _fold, _is_pt_symmetric,
                              _tridiagonal_product)

__all__ = [
    "CheckReport",
    "kernel_matrix",
    "hermitian_eigenvalues",
    "kg_residual",
    "mass_term_sup",
    "pseudo_hermiticity_residual",
    "positivity_check",
    "invertibility_check",
]

_TINY = 1e-300

# default tolerances of kg_residual, pseudo_hermiticity_residual and invertibility_check
KG_TOL = 1e-8
PSEUDO_HERMITICITY_TOL = 1e-6
INVERTIBILITY_TOL = 1e-10


@dataclass
class CheckReport:
    check: str
    residual: float
    relative: float
    passed: bool
    meta: dict = field(default_factory=dict)

    def to_json_line(self, **fields) -> str:
        """One JSON object; `fields` (e.g. config_sha256) follow meta."""
        def coerce(value):
            if isinstance(value, (bool, np.bool_)):
                return bool(value)
            if isinstance(value, (int, np.integer)):
                return int(value)
            return float(value)

        return json.dumps({"check": self.check, "residual": self.residual,
                           "relative": self.relative, "pass": self.passed,
                           "meta": self.meta, **fields}, default=coerce)


def kernel_matrix(k: Kernel) -> np.ndarray:
    """Interior-node matrix M = c_diag I/h + c_anti P/h + smooth samples.

    P is the grid parity permutation (node x -> -x), which maps the set
    of interior nodes onto itself.
    """
    n, h = k.grid.n, k.grid.h
    m = n - 2
    M = np.array(k.smooth[1:-1, 1:-1], dtype=complex)
    idx = np.arange(m)
    if k.c_diag != 0.0:
        M[idx, idx] += k.c_diag / h
    if k.c_anti != 0.0:
        M[idx, idx[::-1]] += k.c_anti / h
    return M


def hermitian_eigenvalues(k: Kernel) -> np.ndarray | None:
    """Ascending eigenvalues of the interior matrix M, or None unless M == M^dag exactly.

    positivity_check and invertibility_check both accept the result, so
    one eigvalsh serves the two checks.  An M that is also exactly
    PT-symmetric has the same eigenvalues as its real symmetric fold
    U^dag M U, whose eigvalsh is taken instead.  Both exact tests run over
    row blocks, so M is the only full-size array held before the fold.
    """
    M = kernel_matrix(k)
    if not _conj_equal(M, M.T):
        return None
    return np.linalg.eigvalsh(_fold(M) if _is_pt_symmetric(M) else M)


def mass_term_sup(pot: PotentialSpec, grid: Grid) -> float:
    """sup |mu^2(x, y)| over all node pairs, from the pairs of distinct node values of v."""
    # a set, not np.unique: numpy 2.4's np.unique imports numpy.ma (about 15 ms, 1.5 MB)
    v = np.fromiter(set(eval_potential(pot, grid.nodes).tolist()), complex)
    c0 = pot.constants.c0
    return float(np.max([np.max(np.abs(c0 * (np.conj(v[r:r + _BLOCK])[:, None] - v[None, :])))
                         for r in range(0, v.size, _BLOCK)]))


def _commutator_blocks(diag: np.ndarray, off: np.ndarray, A: np.ndarray):
    """(c0, c1, H^dag A - A H) for the columns c0:c1 of A, _BLOCK columns at a time.

    H is complex symmetric with diagonals diag and off: H^dag has diagonals
    (conj diag, conj off), and A H = (H A^T)^T.
    """
    m = A.shape[1]
    for c0 in range(0, m, _BLOCK):
        c1 = min(c0 + _BLOCK, m)
        lo, hi = max(c0 - 1, 0), min(c1 + 1, m)  # A H on c0:c1 reads one column either side
        ah = _tridiagonal_product(diag[lo:hi], off[lo:hi - 1], A[:, lo:hi].T)[c0 - lo:c1 - lo].T
        yield c0, c1, _tridiagonal_product(diag.conj(), off.conj(), A[:, c0:c1]) - ah


def kg_residual(k: Kernel, pot: PotentialSpec, grid: Grid,
                tolerance: float = KG_TOL, band_exclude: int = 2) -> CheckReport:
    """Wave-operator residual (H^dag S - S H) * 2m/hbar^2 of the smooth part S.

    H is the finite-difference Hamiltonian on all n nodes without point
    couplings, so S's wall values enter: [-Dxx + Dyy + mu^2] S, term by
    term.  The sup skips the walls and the band |i - j| <= band_exclude,
    where first-order kernels fold.  The identity and parity lines enter
    only through the mass term; their channels sup|c_diag mu^2(x, x)| and
    sup|c_anti mu^2(x, -x)| go in the metadata, not the verdict.
    """
    if not _grids_match(k.grid, grid):
        raise ValueError("kernel grid does not match the supplied grid")
    n, h = grid.n, grid.h
    v = eval_potential(pot, grid.nodes)
    rows = np.arange(1, n - 1)[:, None]
    maxima = []
    for j0, j1, comm in _commutator_blocks(*_fd_diagonals(pot.constants, h, v), k.smooth):
        cols = np.arange(j0, j1)
        keep = (np.abs(rows - cols) > band_exclude) & (cols > 0) & (cols < n - 1)
        maxima.append(np.max(np.abs(pot.constants.c0 * comm[1:-1]), where=keep, initial=0.0))
    residual = float(np.max(maxima))
    scale = max(k.sup_smooth, _TINY) * (4.0 / h**2 + mass_term_sup(pot, grid))
    diag_channel = float(np.abs(k.c_diag) * np.max(np.abs(
        pot.constants.c0 * (np.conj(v) - v))))
    anti_channel = float(np.abs(k.c_anti) * np.max(np.abs(eval_mass_term(
        pot, grid.nodes, -grid.nodes))))
    return CheckReport(
        check="kg_residual",
        residual=residual,
        relative=residual / scale,
        passed=residual <= tolerance,
        meta={"n": grid.n, "band_exclude": band_exclude, "tolerance": tolerance,
              "identity_channel": diag_channel, "parity_channel": anti_channel})


def pseudo_hermiticity_residual(k: Kernel, ham: DiscretizedHamiltonian,
                                tolerance: float = PSEUDO_HERMITICITY_TOL) -> CheckReport:
    """Sup norm of H^dag M - M H for the kernel's interior matrix M.

    kg_residual's banded products, with discretize's interior H (point
    couplings included, walls at zero).
    """
    if not _grids_match(k.grid, ham.grid):
        raise ValueError("kernel and Hamiltonian grids do not match")
    M = kernel_matrix(k)
    comm_maxima, m_maxima = [], []
    for c0, c1, comm in _commutator_blocks(ham.diag, ham.off, M):
        comm_maxima.append(np.max(np.abs(comm)))
        m_maxima.append(np.max(np.abs(M[:, c0:c1])))
    residual = float(np.max(comm_maxima))
    relative = residual / (max(float(np.max(m_maxima)), _TINY) * max(ham.max_abs, _TINY))
    return CheckReport(
        check="pseudo_hermiticity",
        residual=residual,
        relative=relative,
        passed=relative <= tolerance,
        meta={"n": k.grid.n, "bc": ham.bc, "tolerance": tolerance})


def positivity_check(k: Kernel, grid: Grid,
                     eigenvalues: np.ndarray | None = None) -> CheckReport:
    """Smallest eigenvalue of the Hermitized interior matrix.

    Passes when the spectrum is nonnegative within the eigensolver's
    rounding floor dim * eps * max_eigenvalue (rank-deficient but
    positive-semidefinite truncations are accepted; genuinely indefinite
    kernels fail).  The exact extreme eigenvalues are in the metadata.
    eigenvalues, if given, is hermitian_eigenvalues(k), which also
    computes it when not given; on an exactly Hermitian M the Hermitized
    matrix is M itself, and only an M that is not exactly Hermitian takes
    eigvalsh of (M + M^dag) / 2.
    """
    if not _grids_match(k.grid, grid):
        raise ValueError("kernel grid does not match the supplied grid")
    defect = hermiticity_defect(k)
    if defect >= 1e-8:
        raise ValueError(f"kernel is not Hermitian (defect {defect:.3g})")
    if eigenvalues is None:
        eigenvalues = hermitian_eigenvalues(k)
    if eigenvalues is None:
        M = kernel_matrix(k)
        eigenvalues = np.linalg.eigvalsh(0.5 * (M + M.conj().T))
    lam_min = float(eigenvalues[0])
    lam_max = float(eigenvalues[-1])
    floor = (k.grid.n - 2) * np.finfo(float).eps * max(abs(lam_max), abs(lam_min))
    residual = max(0.0, -lam_min)
    return CheckReport(
        check="positivity",
        residual=residual,
        relative=residual / max(abs(lam_max), _TINY),
        passed=bool(lam_min > -floor),
        meta={"n": k.grid.n, "min_eigenvalue": lam_min, "max_eigenvalue": lam_max,
              "floor": floor})


def invertibility_check(k: Kernel, grid: Grid, tolerance: float = INVERTIBILITY_TOL,
                        eigenvalues: np.ndarray | None = None) -> CheckReport:
    """Singular-value ratio sigma_min / sigma_max of the interior matrix.

    On an exactly Hermitian M the singular values are |lambda| for the
    eigenvalues from hermitian_eigenvalues(k), passed in or computed here;
    any other M takes an SVD.
    """
    if not _grids_match(k.grid, grid):
        raise ValueError("kernel grid does not match the supplied grid")
    if eigenvalues is None:
        eigenvalues = hermitian_eigenvalues(k)
    if eigenvalues is None:
        s = np.linalg.svd(kernel_matrix(k), compute_uv=False)
        sigma_max, sigma_min = float(s[0]), float(s[-1])
    else:
        s = np.abs(eigenvalues)
        sigma_max, sigma_min = float(s.max()), float(s.min())
    ratio = sigma_min / sigma_max if sigma_max > 0.0 else 0.0
    return CheckReport(
        check="invertibility",
        residual=sigma_min,
        relative=ratio,
        passed=bool(ratio > tolerance),
        meta={"n": k.grid.n, "sigma_max": sigma_max, "tolerance": tolerance})
