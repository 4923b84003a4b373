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
exactly Hermitian takes an SVD for invertibility; one that holds a NaN or
an inf gets NaN singular values instead, and a failing record.

Both wave checks read one operator, the commutator H^dag A - A H, formed
with banded products on the two diagonals of a finite-difference H; times
2m/hbar^2 it is the lattice Klein-Gordon operator [-Dxx + Dyy + mu^2] A.
The series' convergence verdict reads kg's region of it less mu^2 times
the last iterate (_kg_sup).  kg takes one sample of v on the nodes and
one on the negated nodes (for the parity channel), one sup|S| and one
sup|mu^2| for all it reports; the series samples v once per ladder.  The
operator runs over blocks of _BLOCK columns, the exact Hermiticity and PT
tests of M over blocks of _BLOCK rows, and the sup of the mass term
mu^2(x, y) over blocks of _BLOCK distinct values in the sample of v (mu^2
sees a node pair only through v(x) and v(y)), so their memory beyond the
kernel and M is O(_BLOCK n).  The
per-block maxima are reduced with np.max, which keeps a NaN (Python's max
drops it).  Each element keeps the expression and operation order of the
whole-array form, so the reports are the same bit for bit.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from qmetric.kernels import _BLOCK, Grid, Kernel, _conj_equal, _grids_match, hermiticity_defect
from qmetric.potentials import PotentialSpec, eval_potential
from qmetric.spectral import (DiscretizedHamiltonian, _fd_diagonals, _fold, _is_pt_symmetric,
                              _tridiagonal_product)

__all__ = [
    "CheckReport",
    "kernel_matrix",
    "hermitian_eigenvalues",
    "kg_residual",
    "pseudo_hermiticity_residual",
    "positivity_check",
    "invertibility_check",
]

_TINY = 1e-300

# default tolerances of pseudo_hermiticity_residual and invertibility_check, and the
# floor of kg_residual's; its headroom over sup|mu^2| sup|S| is measured on the shipped models
KG_TOL = 1e-8
KG_HEADROOM = 1.25
_KG_BAND = 2  # kg skips |i - j| <= _KG_BAND, where first-order kernels fold
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


def _mass_term_sup(v: np.ndarray, c0: float) -> float:
    """sup |mu^2(x, y)| over all node pairs, from the pairs of distinct values of the sample v."""
    # a set, not np.unique: numpy 2.4's np.unique imports numpy.ma (about 15 ms, 1.5 MB)
    v = np.fromiter(set(v.tolist()), complex)
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


def _kg_budget(sup_mu2: float, sup_s: float) -> float:
    return max(KG_TOL, KG_HEADROOM * sup_mu2 * sup_s)


def _kg_budget_of(k: Kernel, pot: PotentialSpec, grid: Grid) -> float:
    """kg_residual's default budget for k (oracle --cross-check's, for the series kernel)."""
    sup_mu2 = _mass_term_sup(eval_potential(pot, grid.nodes), pot.constants.c0)
    return _kg_budget(sup_mu2, k.sup_smooth)


def _kg_sup(S: np.ndarray, pot: PotentialSpec, grid: Grid, v: np.ndarray,
            last: np.ndarray | None = None) -> float:
    """sup|(H^dag S - S H) * 2m/hbar^2 - mu^2 last| off the walls and |i - j| <= _KG_BAND, v
    the potential on the nodes.  A partial sum S = sum_{l<=L} K^l u misses the continuum
    equation by mu^2 K^L u exactly, so with last = K^L u what is left is the grid's part."""
    n, c0 = grid.n, pot.constants.c0
    rows, maxima = np.arange(1, n - 1)[:, None], []
    for j0, j1, comm in _commutator_blocks(*_fd_diagonals(pot.constants, grid.h, v), S):
        comm *= c0
        if last is not None:  # mu^2 = c0 (conj v(x) - v(y)) on the block's columns
            comm -= c0 * (np.conj(v[:, None]) - v[j0:j1]) * last[:, j0:j1]
        cols = np.arange(j0, j1)
        keep = (np.abs(rows - cols) > _KG_BAND) & (cols > 0) & (cols < n - 1)
        maxima.append(np.max(np.abs(comm[1:-1]), where=keep, initial=0.0))
    return float(np.max(maxima))


def kg_residual(k: Kernel, pot: PotentialSpec, grid: Grid,
                tolerance: float | None = None) -> CheckReport:
    """Wave-operator residual (H^dag S - S H) * 2m/hbar^2 of the smooth part S.

    H is the finite-difference Hamiltonian on all n nodes without point
    couplings, so S's wall values enter: [-Dxx + Dyy + mu^2] S, term by
    term.  The sup skips the walls and the band |i - j| <= 2, where
    first-order kernels fold.  The identity and parity lines enter only
    through the mass term; their channels sup|c_diag mu^2(x, x)| and
    sup|c_anti mu^2(x, -x)| go in the metadata, not the verdict.  With no
    tolerance the budget is max(KG_TOL, KG_HEADROOM sup|mu^2| sup|S|).
    """
    if not _grids_match(k.grid, grid):
        raise ValueError("kernel grid does not match the supplied grid")
    nodes, c0 = grid.nodes, pot.constants.c0
    v, v_neg = eval_potential(pot, nodes), eval_potential(pot, -nodes)
    sup_s, sup_mu2 = k.sup_smooth, _mass_term_sup(v, c0)
    tolerance = _kg_budget(sup_mu2, sup_s) if tolerance is None else tolerance
    residual = _kg_sup(k.smooth, pot, grid, v)
    scale = max(sup_s, _TINY) * (4.0 / grid.h**2 + sup_mu2)
    diag_channel = float(np.abs(k.c_diag) * np.max(np.abs(c0 * (np.conj(v) - v))))
    anti_channel = float(np.abs(k.c_anti) * np.max(np.abs(c0 * (np.conj(v) - v_neg))))
    return CheckReport(
        check="kg_residual",
        residual=residual,
        relative=residual / scale,
        passed=residual <= tolerance,
        meta={"n": grid.n, "band_exclude": _KG_BAND, "tolerance": tolerance,
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
    eigvalsh of (M + M^dag) / 2.  A Hermiticity defect of 1e-8 or more, or NaN,
    fails, with the defect as the residual (over sup|smooth| as the relative one).
    """
    if not _grids_match(k.grid, grid):
        raise ValueError("kernel grid does not match the supplied grid")
    defect = hermiticity_defect(k)
    if not defect < 1e-8:  # a NaN defect fails too
        return CheckReport(check="positivity", residual=defect,
                           relative=defect / max(k.sup_smooth, _TINY), passed=False,
                           meta={"n": k.grid.n, "hermiticity_defect": defect})
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
    any other M takes an SVD, unless it is not finite: then sigma_max and
    sigma_min are NaN and the check fails.
    """
    if not _grids_match(k.grid, grid):
        raise ValueError("kernel grid does not match the supplied grid")
    if eigenvalues is None:
        eigenvalues = hermitian_eigenvalues(k)
    if eigenvalues is None:  # a NaN is never exactly Hermitian; the SVD stops on NaN or inf
        M = kernel_matrix(k)
        s = np.linalg.svd(M, compute_uv=False) if np.isfinite(M).all() else [np.nan]
        sigma_max, sigma_min = float(s[0]), float(s[-1])
    else:
        s = np.abs(eigenvalues)
        sigma_max, sigma_min = float(s.max()), float(s.min())
    ratio = sigma_min / sigma_max if sigma_max != 0.0 else 0.0
    return CheckReport(
        check="invertibility",
        residual=sigma_min,
        relative=ratio,
        passed=bool(ratio > tolerance),
        meta={"n": k.grid.n, "sigma_max": sigma_max, "tolerance": tolerance})
