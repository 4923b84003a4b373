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
exactly Hermitian takes an SVD for invertibility.  The intertwining
commutator H^dag M - M H is formed with banded products on the two
diagonals of the finite-difference H.

The wave-operator residual and the commutator run over blocks of _BLOCK
rows or columns, and the sup of the mass term mu^2(x, y) over blocks of
_BLOCK distinct node values of v (mu^2 sees a node pair only through v(x)
and v(y)), so their memory beyond the kernel and M is O(_BLOCK n).  The
per-block maxima are reduced with np.max, which keeps a NaN (Python's max
drops it).  Each element keeps the expression and operation order of the
whole-array form, so the reports are the same bit for bit.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from qmetric.kernels import Grid, Kernel, hermiticity_defect
from qmetric.potentials import PotentialSpec, eval_mass_term, eval_potential
from qmetric.spectral import DiscretizedHamiltonian, _fold, _is_pt_symmetric, _tridiagonal_product

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
_BLOCK = 32  # rows (kg_residual), distinct v values (mass_term_sup) or columns per block

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

    def to_json_line(self) -> str:
        def coerce(value):
            if isinstance(value, (bool, np.bool_)):
                return bool(value)
            if isinstance(value, (int, np.integer)):
                return int(value)
            return float(value)

        return json.dumps({"check": self.check, "residual": self.residual,
                           "relative": self.relative, "pass": self.passed,
                           "meta": self.meta}, default=coerce)


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
    U^dag M U, whose eigvalsh is taken instead.
    """
    M = kernel_matrix(k)
    if not np.array_equal(M, M.conj().T):
        return None
    return np.linalg.eigvalsh(_fold(M) if _is_pt_symmetric(M) else M)


def _grids_match(a: Grid, b: Grid) -> bool:
    # a stored half-width is %.12e text, so it is compared relatively
    return a.n == b.n and abs(a.half_width - b.half_width) <= 1e-12 * max(1.0, a.half_width)


def _mass_term(pot: PotentialSpec, v: np.ndarray, rows: slice, cols: slice) -> np.ndarray:
    """eval_mass_term on the block rows x cols of v, e.g. v = eval_potential on the nodes."""
    return pot.constants.c0 * (np.conj(v[rows])[:, None] - v[None, cols])


def mass_term_sup(pot: PotentialSpec, grid: Grid) -> float:
    """sup |mu^2(x, y)| over all node pairs, from the pairs of distinct node values of v."""
    # a set, not np.unique: numpy 2.4's np.unique imports numpy.ma (about 15 ms, 1.5 MB)
    v = np.fromiter(set(eval_potential(pot, grid.nodes).tolist()), complex)
    return float(np.max([np.max(np.abs(_mass_term(pot, v, slice(r, r + _BLOCK), slice(None))))
                         for r in range(0, v.size, _BLOCK)]))


def kg_residual(k: Kernel, pot: PotentialSpec, grid: Grid,
                tolerance: float = KG_TOL, band_exclude: int = 2) -> CheckReport:
    """Wave-operator residual [-Dxx + Dyy + mu^2] smooth on interior nodes.

    Second central differences; a band |i - j| <= band_exclude around
    the diagonal is left out of the sup because first-order kernels fold
    there and the centered stencil does not apply.  The identity and
    parity lines contribute only through the mass term; their channel
    values sup|c_diag * mu^2(x, x)| and sup|c_anti * mu^2(x, -x)| are
    reported in the metadata, not folded into the verdict.  The residual
    is formed for _BLOCK interior rows at a time.
    """
    if not _grids_match(k.grid, grid):
        raise ValueError("kernel grid does not match the supplied grid")
    S = k.smooth
    n, h = grid.n, grid.h
    nodes = grid.nodes
    v = eval_potential(pot, nodes)
    cols = np.arange(1, n - 1)
    maxima = []
    for r0 in range(1, n - 1, _BLOCK):
        r1 = min(r0 + _BLOCK, n - 1)
        rows = slice(r0, r1)
        R = -(S[r0 + 1:r1 + 1, 1:-1] - 2.0 * S[rows, 1:-1] + S[r0 - 1:r1 - 1, 1:-1]) / h**2 \
            + (S[rows, 2:] - 2.0 * S[rows, 1:-1] + S[rows, :-2]) / h**2 \
            + _mass_term(pot, v, rows, slice(1, -1)) * S[rows, 1:-1]
        keep = np.abs(np.arange(r0, r1)[:, None] - cols[None, :]) > band_exclude
        maxima.append(np.max(np.abs(R), where=keep, initial=0.0))
    residual = float(np.max(maxima))
    scale = max(k.sup_smooth, _TINY) * (4.0 / h**2 + mass_term_sup(pot, grid))
    diag_channel = float(np.abs(k.c_diag) * np.max(np.abs(
        pot.constants.c0 * (np.conj(v) - v))))
    anti_channel = float(np.abs(k.c_anti) * np.max(np.abs(eval_mass_term(
        pot, nodes, -nodes))))
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

    Both products are banded, on the two diagonals of H, and formed for
    _BLOCK columns of M at a time.
    """
    if not _grids_match(k.grid, ham.grid):
        raise ValueError("kernel and Hamiltonian grids do not match")
    M = kernel_matrix(k)
    diag, off = ham.diag, ham.off
    m = M.shape[0]
    # H is complex symmetric: H^dag has diagonals (conj diag, conj off), M H = (H M^T)^T
    hdag = (diag.conj(), off.conj())
    comm_maxima, m_maxima = [], []
    for c0 in range(0, m, _BLOCK):
        c1 = min(c0 + _BLOCK, m)
        lo, hi = max(c0 - 1, 0), min(c1 + 1, m)  # M H on c0:c1 reads one column either side
        mh = _tridiagonal_product(diag[lo:hi], off[lo:hi - 1], M[:, lo:hi].T)[c0 - lo:c1 - lo].T
        comm = _tridiagonal_product(*hdag, M[:, c0:c1]) - mh
        comm_maxima.append(np.max(np.abs(comm)))
        m_maxima.append(np.max(np.abs(M[:, c0:c1])))
    residual = float(np.max(comm_maxima))
    denom = max(float(np.max(m_maxima)), _TINY) * max(ham.max_abs, _TINY)
    relative = residual / denom
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
