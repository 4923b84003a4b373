"""Finite-difference spectral construction of the metric kernel.

The Hamiltonian -kappa d^2/dx^2 + v(x) is discretized on the interior
nodes of a grid with walls held at zero (exact for box domains, a
truncated approximation on the line).  Second central differences make
it complex symmetric and tridiagonal, and it is stored as its main
diagonal and its one off-diagonal.  The dense matrix exists only
inside biorthonormalize, as the input of the one eigen-solve, which
frees it once folded or solved and gives the right eigenvectors;
the left eigenvectors are their dual basis, which makes the pair a
biorthonormal system under the grid inner product h * sum(conj(a) * b)
by construction.  Only the left ones are kept.  A matrix with exact PT
symmetry, P conj(H) P = H with P the reversal of the node order, is
similar to a real matrix (Mostafazadeh, J. Math. Phys. 43, 3944
(2002)): folded by a unitary U with PT-invariant columns it is solved,
inverted and checked in that real basis, and only the eigenvectors are
mapped back.  Its eigenpairs come from Rayleigh-quotient iteration on
the two diagonals, batched over shifts in one Thomas sweep, and a real
eig of the fold runs only where that does not converge to distinct,
checked levels, as on a PT-broken spectrum; every other matrix gets a
complex solve.  The metric
kernel is then the resolved sum of left projectors

    M(x, y) = sum_n phi_n(x) * conj(phi_n(y))

over a chosen number of modes, a real product when the selected left
vectors are PT-invariant.  Couplings where the eigensystem degenerates
raise ExceptionalPointError.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from qmetric.kernels import _BLOCK, FLOAT_FMT, Grid, Kernel, _conj_equal
from qmetric.potentials import PhysConstants, PotentialSpec, check_box_grid, eval_potential

__all__ = [
    "ExceptionalPointError",
    "DiscretizedHamiltonian",
    "BiorthonormalSystem",
    "discretize",
    "free_box_levels",
    "pair_eigensystem",
    "biorthonormalize",
    "spectral_metric",
    "spectrum_to_csv",
]


class ExceptionalPointError(RuntimeError):
    """Raised when eigenvectors coalesce and no biorthonormal system exists."""


@dataclass
class DiscretizedHamiltonian:
    """The Hamiltonian on the interior grid nodes as its two diagonals.

    The matrix is complex symmetric and tridiagonal: diag holds its m
    main-diagonal entries and off the m - 1 entries on either side of
    it.  bc records how the walls are treated: "dirichlet" (exact for a
    box) or "truncated" (zero imposed at the edge of a finite window on
    the line).
    """

    grid: Grid
    diag: np.ndarray
    off: np.ndarray
    bc: str

    @property
    def interior_nodes(self) -> np.ndarray:
        return self.grid.nodes[1:-1]

    @property
    def dim(self) -> int:
        return self.grid.n - 2

    @property
    def max_abs(self) -> float:
        """max |H_ij|: every entry off the two diagonals is zero."""
        return float(max(np.max(np.abs(self.diag)), np.max(np.abs(self.off))))

    def dense(self) -> np.ndarray:
        """The m x m matrix, written through strided views of one zeroed array."""
        m = self.dim
        H = np.zeros((m, m), dtype=complex)
        flat = H.reshape(-1)
        flat[::m + 1] = self.diag
        flat[1::m + 1] = self.off
        flat[m::m + 1] = self.off
        return H


@dataclass
class BiorthonormalSystem:
    """Paired eigenvalues with the left eigenvectors as matrix columns.

    Normalization: h * psi_n^dag left[:, m] = delta_nm for the right
    eigenvectors psi_n, scaled to sqrt(h) * ||psi_n|| = 1.
    biorthonormalize checks the psi_n and does not keep them, so the
    system holds one m x m complex array.  Energies are sorted by real
    part, ties by imaginary part.
    """

    grid: Grid
    energies: np.ndarray
    left: np.ndarray
    defect: float


def discretize(pot: PotentialSpec, grid: Grid) -> DiscretizedHamiltonian:
    """Build the interior-node diagonals with second central differences.

    Point couplings i*zeta*delta(x - a) enter as diagonal spikes
    i*zeta/h at the interior node nearest a, the lower one when a lies
    exactly midway; if that node is further than h/2 away a placement
    warning is emitted.  The walls are "dirichlet" on a box and
    "truncated" on the line.
    """
    check_box_grid(pot, grid)
    h = grid.h
    kappa = pot.constants.hbar**2 / (2.0 * pot.constants.mass)
    x = grid.nodes[1:-1]
    diag = 2.0 * kappa / h**2 + eval_potential(pot, x)
    off = np.full(x.size - 1, -kappa / h**2, dtype=complex)
    for a, zeta in pot.deltas:
        j = int(np.argmin(np.abs(x - a)))
        if abs(x[j] - a) > 0.5 * h + 1e-12:
            warnings.warn(
                f"point coupling at {a} lies {abs(x[j] - a):.3g} from the nearest "
                "interior node (more than half a grid cell)", RuntimeWarning)
        diag[j] += 1j * zeta / h
    return DiscretizedHamiltonian(grid=grid, diag=diag, off=off,
                                  bc="dirichlet" if pot.domain.is_box else "truncated")


def free_box_levels(grid: Grid, constants: PhysConstants, count: int | None = None) -> np.ndarray:
    """Exact eigenvalues of the discretized zero-potential box.

    E_k = (2 kappa / h^2) (1 - cos(k pi h / L)) for k = 1 .. n-2, with
    L the box width; the continuum limit is kappa (k pi / L)^2.
    """
    m = grid.n - 2
    if count is None:
        count = m
    if not 1 <= count <= m:
        raise ValueError(f"count must lie in [1, {m}], got {count}")
    k = np.arange(1, count + 1)
    kappa = constants.hbar**2 / (2.0 * constants.mass)
    L = 2.0 * grid.half_width
    return (2.0 * kappa / grid.h**2) * (1.0 - np.cos(k * np.pi * grid.h / L))


def _is_pt_symmetric(a: np.ndarray) -> bool:
    """Exact PT symmetry P conj(a) P = a, with P the reversal of the node order.

    np.flip reverses every axis: both index orders of a matrix, the one
    order of a diagonal stored as a vector.
    """
    return _conj_equal(a, np.flip(a))


def _fold(matrix: np.ndarray) -> np.ndarray:
    """U^dag A U for an exactly PT-symmetric A (P conj(A) P = A), built by slicing.

    U is the unitary with PT-invariant columns (e_k + e_{m-1-k})/sqrt(2),
    i (e_k - e_{m-1-k})/sqrt(2) for k < p = m // 2 and, for odd m, e_p,
    so U^dag A U is real.  With A_t = A[top, top] and B = A[top, reversed
    bottom] its blocks are Re(A_t + B), Im(B - A_t), Im(A_t + B),
    Re(A_t - B), plus the middle row and column.  An A that is also
    exactly Hermitian folds to an exactly symmetric matrix.
    """
    m = matrix.shape[0]
    p = m // 2
    top, bottom = slice(0, p), slice(m - 1, m - 1 - p, -1)
    A, B = matrix[top, top], matrix[top, bottom]
    real = np.empty((m, m))
    real[:p, :p] = (A + B).real
    real[:p, p:2 * p] = (B - A).imag
    real[p:2 * p, :p] = (A + B).imag
    real[p:2 * p, p:2 * p] = (A - B).real
    if m % 2:
        col, row = np.sqrt(2.0) * matrix[top, p], np.sqrt(2.0) * matrix[p, top]
        real[:p, -1], real[p:2 * p, -1] = col.real, col.imag
        real[-1, :p], real[-1, p:2 * p] = row.real, -row.imag
        real[-1, -1] = matrix[p, p].real
    return real


def _unfold(vectors: np.ndarray) -> np.ndarray:
    """U @ vectors by slicing, U as in _fold: real columns map to PT-invariant ones."""
    m = vectors.shape[0]
    p = m // 2
    out = np.empty(vectors.shape, dtype=complex)
    top, bottom = out[:p], out[m - 1:m - 1 - p:-1]
    odd = vectors[p:2 * p] * (1j / np.sqrt(2.0))
    np.multiply(vectors[:p], 1.0 / np.sqrt(2.0), out=top)
    np.subtract(top, odd, out=bottom)
    top += odd
    if m % 2:
        out[p] = vectors[-1]
    return out


def _fold_vectors(vectors: np.ndarray) -> np.ndarray:
    """Unit real columns Re(U^dag psi), U as in _fold, for eigenvectors psi of a PT-symmetric A.

    An eigenvector of a real level is PT-invariant only up to a phase,
    psi = e^{i theta} phi with P conj(phi) = phi, and a solve at a
    converged shift leaves that phase to round-off.  psi^T P psi =
    e^{2 i theta} ||phi||^2 gives it, and each column is turned back by
    it first.  Then U^dag (psi + P conj(psi)) / 2 = Re(U^dag psi), so
    taking the real part makes the column exactly PT-invariant and
    folds it in one step; the folded columns are scaled to unit norm.
    """
    m = vectors.shape[0]
    p = m // 2
    twice = np.sum(vectors * vectors[::-1], axis=0)
    vectors = vectors * np.sqrt(twice.conj() / np.abs(twice))
    top, bottom = vectors[:p], vectors[m - 1:m - 1 - p:-1]
    out = np.empty(vectors.shape)
    np.multiply(top.real + bottom.real, 1.0 / np.sqrt(2.0), out=out[:p])
    np.multiply(top.imag - bottom.imag, 1.0 / np.sqrt(2.0), out=out[p:2 * p])
    if m % 2:
        out[-1] = vectors[p].real
    out /= np.linalg.norm(out, axis=0)
    return out


_RQI_BLOCK = 128  # shifts per Thomas sweep: all m at once would raise oracle's peak memory
_RQI_SWEEPS = 6  # per block; the well near its PT-breaking coupling needs 5
_RQI_TOL = 1e-15  # target max|A x - s x| of a unit x, relative to max|A|; round-off leaves <= 4e-16
_RQI_CHECK = 1e-14  # the same against the whole fold, with room for its sqrt(2) and the product
_RQI_MARGIN = 1e-7  # least relative level gap: 100 x the exceptional-point bound


def _thomas(diag: np.ndarray, off: np.ndarray, shifts: np.ndarray,
            rhs: np.ndarray) -> np.ndarray:
    """Solve (A - shifts[j]) y_j = rhs[:, j] for every column j at once, in place.

    A is the symmetric tridiagonal matrix with main diagonal diag and
    off-diagonal off.  One Thomas sweep without pivoting: the Python
    loop runs over the m rows, each step vectorised over the shifts.  An
    exactly zero pivot, as a shift equal to a leading diagonal entry
    gives, is replaced by 1e-15 max|diag|.
    """
    m = diag.size
    pivots = np.subtract.outer(diag, shifts)
    tiny = 1e-15 * np.max(np.abs(diag))
    for i in range(m):
        pivot = pivots[i]
        if np.count_nonzero(pivot) < pivot.size:
            pivot[pivot == 0] = tiny
        if i + 1 < m:
            ratio = off[i] / pivot
            pivots[i + 1] -= ratio * off[i]
            rhs[i + 1] -= ratio * rhs[i]
    rhs[m - 1] /= pivots[m - 1]
    for i in range(m - 2, -1, -1):
        rhs[i] -= off[i] * rhs[i + 1]
        rhs[i] /= pivots[i]
    return rhs


def _rayleigh(diag: np.ndarray, off: np.ndarray, vectors: np.ndarray):
    """Normalize the columns in place; return them, their quotients and max residual.

    The quotient is the complex-symmetric one, x^T A x / x^T x, real for
    a PT-invariant x and blind to a column's phase; the columns are
    scaled by their Hermitian norm, since x^T x is indefinite on
    PT-invariant vectors.
    """
    vectors /= np.linalg.norm(vectors, axis=0)
    product = _tridiagonal_product(diag, off, vectors)
    shifts = (np.sum(vectors * product, axis=0) / np.sum(vectors * vectors, axis=0)).real
    product -= vectors * shifts
    return vectors, shifts, np.max(np.abs(product))


def _rqi_fold(real: np.ndarray, diag: np.ndarray, off: np.ndarray):
    """Eigenpairs of the fold of a PT-symmetric tridiagonal matrix, or None.

    Batched Rayleigh-quotient iteration on the two diagonals of the
    complex matrix, _RQI_BLOCK shifts per Thomas sweep: the k-th start
    is the k-th sine of the free box, times i for even k so that every
    start is PT-invariant, and real shifts keep the iterates so, up to
    a phase that round-off sets once a shift has converged.  A
    block's largest residual max|A x - s x| must fall below _RQI_TOL
    max|A| within _RQI_SWEEPS sweeps and at least halve at each sweep
    until then; the first block that fails either ends the attempt.
    Its levels are then complex (a PT-broken spectrum, which real starts
    cannot reach: there the residual stalls near 1e-6 max|A|) or not yet
    resolved.  The converged vectors are folded by _fold_vectors, which
    also removes that phase.  The
    result (levels, V) is returned only if the levels are distinct by
    more than _RQI_MARGIN (relative) and real V = V diag(levels) holds
    to _RQI_CHECK against the whole folded matrix `real`, checked over
    column blocks; a matrix whose diagonals are not all of it fails
    there.  On None the caller solves the fold with eig.
    """
    m = diag.size
    hnorm = max(float(np.max(np.abs(diag))), float(np.max(np.abs(off), initial=0.0)))
    nodes = np.arange(1, m + 1) * (np.pi / (m + 1))
    levels, folded = np.empty(m), np.empty((m, m))
    with np.errstate(all="ignore"):  # a non-finite sweep fails the residual test
        for c0 in range(0, m, _RQI_BLOCK):
            k = np.arange(c0 + 1, min(c0 + _RQI_BLOCK, m) + 1)
            start = np.sin(np.outer(nodes, k)) * np.where(k % 2, 1.0, 1j)
            x, shifts, previous = _rayleigh(diag, off, start)
            for _ in range(_RQI_SWEEPS):
                x, shifts, residual = _rayleigh(diag, off, _thomas(diag, off, shifts, x))
                if residual <= _RQI_TOL * hnorm:
                    break
                if not residual < 0.5 * previous:  # stalled
                    return None
                previous = residual
            else:
                return None
            levels[c0:c0 + k.size] = shifts
            folded[:, c0:c0 + k.size] = _fold_vectors(x)
    ordered = np.sort(levels)
    if not np.all(np.diff(ordered) > _RQI_MARGIN * max(1.0, float(np.abs(ordered).max()))):
        return None
    anorm = float(np.max(np.abs(real)))
    for c0 in range(0, m, _RQI_BLOCK):
        v = folded[:, c0:c0 + _RQI_BLOCK]
        if not np.max(np.abs(real @ v - v * levels[c0:c0 + _RQI_BLOCK])) <= _RQI_CHECK * anorm:
            return None
    return levels, folded


def pair_eigensystem(matrix: np.ndarray, h: float):
    """Diagonalize a matrix once and take the dual basis as left eigenvectors.

    The one eigen-solve is a complex eig, or, for an exactly PT-symmetric
    matrix (P conj(H) P = H, P the index reversal), a solve of the real
    folded matrix U^dag H U, with U unitary and PT-invariant columns
    (Mostafazadeh 2002).  That solve is first tried by batched
    Rayleigh-quotient iteration on the matrix's main and first upper
    diagonals (_rqi_fold), O(m^2) work; the vectors it finds are made
    exactly PT-invariant and folded, and they are kept only if they pass
    a residual check against the whole fold and their levels are
    distinct with margin.  Otherwise, as for a PT-broken spectrum (whose
    complex pairs real starts cannot reach) or a matrix that is not
    tridiagonal, a real eig of the fold runs.  The right eigenvectors are
    sorted and scaled to sqrt(h) * ||psi_n|| = 1; the left ones are then
    fixed by them, L = R^{-dag} / h, so that h * R^dag L = I by
    construction.  On the folded branch the sort, the scaling, the
    inverse and the defect product all act on the eigenvectors V of the
    folded matrix, in real arithmetic unless the spectrum has
    complex-conjugate pairs, and only the results are mapped back,
    R = U V and L = U V^{-dag} / h; U is unitary, so the normalization and
    the defect carry over.  No m x m matrix outlives the solve: the
    complex input is dropped once folded (a caller's temporary, as in
    biorthonormalize, is then freed) and the folded matrix once solved.
    The peak comes when L is mapped back, with R, V^{-dag} / h and the
    complex L alive, about three m x m complex arrays on the real
    branch.  Returns (energies, right, left, defect) with the
    normalization of BiorthonormalSystem.  Raises ExceptionalPointError
    for eigenvalue gaps below 1e-9 (relative), an eigenvector 1-norm
    condition number ||R||_1 ||R^{-1}||_1 = ||R||_1 h ||L||_inf above 1e6,
    or a biorthonormality defect >= 1e-8; a NaN condition number or
    defect raises too.
    """
    matrix = np.asarray(matrix, dtype=complex)
    m = matrix.shape[0]
    folded = _is_pt_symmetric(matrix)
    solved = None
    if folded:
        diag, off = np.diagonal(matrix).copy(), np.diagonal(matrix, 1).copy()
        matrix = _fold(matrix)  # drops the last reference to the complex input
        solved = _rqi_fold(matrix, diag, off)
    wr, vr = solved if solved is not None else np.linalg.eig(matrix)
    del matrix, solved  # the solve is done, and nothing below reads the fold
    scale = max(1.0, float(np.abs(wr).max()))
    if m > 1:
        gap = (np.abs(wr[:, None] - wr[None, :]) + np.diag(np.full(m, np.inf))).min()
        if gap < 1e-9 * scale:
            raise ExceptionalPointError(
                f"eigenvalue gap {gap:.3g} below threshold; "
                "eigenvectors are coalescing")
    order = np.lexsort((wr.imag, wr.real))
    energies = wr[order].astype(complex)
    right = vr[:, order]
    del vr  # right is a sorted copy; a real eig's vr views a complex array
    right = right / (np.sqrt(h) * np.linalg.norm(right, axis=0))
    left = np.linalg.inv(right).conj().T / h
    defect = float(np.max(np.abs(h * (right.conj().T @ left) - np.eye(m))))
    if folded:
        right = _unfold(right)
        left = _unfold(left)
    cond = np.linalg.norm(right, 1) * h * np.linalg.norm(left, np.inf)
    # 1-norm bound (cond_1 <= m cond_2): real wells and point couplings sit near
    # 0.8 m (52-668 for n = 65-769), computed exceptional-point eigenvectors >= 1.6e7
    if not cond <= 1e6:  # a NaN fails as well
        raise ExceptionalPointError(
            f"right eigenvector condition number {cond:.3g} exceeds 1e6")
    if not defect < 1e-8:
        raise ExceptionalPointError(f"biorthonormality defect {defect:.3g} >= 1e-8")
    return energies, right, left, defect


def _tridiagonal_product(diag: np.ndarray, off: np.ndarray, v: np.ndarray) -> np.ndarray:
    """A @ v for the symmetric tridiagonal A with main diagonal diag and off-diagonal off."""
    out = diag[:, None] * v
    out[:-1] += off[:, None] * v[1:]
    out[1:] += off[:, None] * v[:-1]
    return out


def biorthonormalize(ham: DiscretizedHamiltonian) -> BiorthonormalSystem:
    """Biorthonormal eigensystem of a discretized Hamiltonian.

    The dense matrix is built here as a temporary for the eigen-solve,
    which frees it once folded (or, on the complex branch, solved).  The
    eigen-relations H psi = E psi and H^dag phi = conj(E) phi are then
    validated to a relative residual below 1e-8 (a NaN residual fails),
    with banded products on the two diagonals of H formed for _BLOCK
    columns at a time, so the check holds R, L and O(_BLOCK m) besides.
    R is not kept: the system holds L alone.
    """
    energies, right, left, defect = pair_eigensystem(ham.dense(), ham.grid.h)
    diag, off = ham.diag, ham.off
    hnorm = max(1.0, ham.max_abs)
    residuals, r_max = [], []
    for c0 in range(0, energies.size, _BLOCK):
        cols = slice(c0, c0 + _BLOCK)
        psi, phi, e = right[:, cols], left[:, cols], energies[cols]
        residuals.append(np.max(np.abs(_tridiagonal_product(diag, off, psi)
                                       - psi * e[None, :])))
        residuals.append(np.max(np.abs(_tridiagonal_product(diag.conj(), off.conj(), phi)
                                       - phi * np.conj(e)[None, :])))
        r_max.append(np.max(np.abs(psi)))
    rel = np.max(residuals) / (hnorm * max(1.0, float(np.max(r_max))))
    if not rel < 1e-8:  # a NaN residual fails as well
        raise ExceptionalPointError(f"eigenpair residual {rel:.3g} >= 1e-8")
    return BiorthonormalSystem(grid=ham.grid, energies=energies, left=left, defect=defect)


def spectral_metric(sys: BiorthonormalSystem, n_modes: int) -> Kernel:
    """Metric kernel from the n_modes left eigenvectors of lowest |Re E|.

    The interior-node matrix M = sum phi phi^dag is Hermitian by
    construction and embedded into the full grid with zero walls.  When
    the selected vectors are exactly PT-invariant, as the folded branch
    of pair_eigensystem makes the unbroken ones, each is a + ib on the
    first p = m // 2 nodes, a - ib mirrored on the last p and c on the
    middle one, with a, b, c real.  Then eta = X X^T with
    X = [a; b; c] is formed in float64 and symmetrized, and M is written
    block by block: a a^T + b b^T + i (b a^T - a b^T) on the top-left,
    a a^T - b b^T + i (a b^T + b a^T) on the top-right, the conjugates
    mirrored, and the middle row and column from the c terms; M is then
    exactly Hermitian and exactly PT-symmetric.  Any other selection
    takes the complex product, explicitly Hermitized.  With every mode
    selected (oracle's default) the vectors are read from sys.left in
    place, since the sum does not depend on their order, and the
    PT test runs over row blocks, so no m x m complex copy is made: the
    peak is the real Gram matrix and the metric.  The identity
    content of the metric appears only in the infinite-mode limit, so
    c_diag = c_anti = 0 here.
    """
    m = sys.left.shape[1]
    if not 1 <= n_modes <= m:
        raise ValueError(f"n_modes must lie in [1, {m}], got {n_modes}")
    if n_modes == m:  # the sum over every mode needs no order, so no column copy
        phi = sys.left
    else:
        phi = sys.left[:, np.argsort(np.abs(sys.energies.real), kind="stable")[:n_modes]]
    if not _conj_equal(phi, phi[::-1]):
        M = phi @ phi.conj().T
        M = 0.5 * (M + M.conj().T)
        smooth = np.zeros((sys.grid.n, sys.grid.n), dtype=complex)
        smooth[1:-1, 1:-1] = M
        return Kernel(grid=sys.grid, smooth=smooth)
    p = m // 2  # m = n - 2 is odd: the grid keeps n odd
    top, bottom = slice(0, p), slice(m - 1, m - 1 - p, -1)
    X = np.concatenate((phi[:p].real, phi[:p].imag, phi[p:p + 1].real))
    del phi  # a selected copy would otherwise set the peak memory
    eta = X @ X.T
    del X
    eta += eta.T
    eta *= 0.5
    smooth = np.zeros((sys.grid.n, sys.grid.n), dtype=complex)
    aa, bb = eta[:p, :p], eta[p:2 * p, p:2 * p]
    ab, ba = eta[:p, p:2 * p], eta[p:2 * p, :p]
    inner = smooth[1:-1, 1:-1]
    inner[top, top].real = inner[bottom, bottom].real = aa + bb
    inner[top, bottom].real = inner[bottom, top].real = aa - bb
    im = ba - ab
    inner[top, top].imag, inner[bottom, bottom].imag = im, -im
    im = ab + ba
    inner[top, bottom].imag, inner[bottom, top].imag = im, -im
    ac, bc = eta[:p, -1], eta[p:2 * p, -1]
    inner[top, p], inner[bottom, p] = ac + 1j * bc, ac - 1j * bc
    inner[p, top], inner[p, bottom] = ac - 1j * bc, ac + 1j * bc
    inner[p, p] = eta[-1, -1]
    return Kernel(grid=sys.grid, smooth=smooth)


def spectrum_to_csv(sys: BiorthonormalSystem, path) -> None:
    """Write the sorted energies as CSV rows n,Re_E,Im_E (n starting at 1)."""
    with open(path, "w") as fh:
        fh.write("n,Re_E,Im_E\n")
        for k, e in enumerate(sys.energies, start=1):
            fh.write(f"{k},{FLOAT_FMT % e.real},{FLOAT_FMT % e.imag}\n")
