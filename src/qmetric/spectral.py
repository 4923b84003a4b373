"""Finite-difference spectral construction of the metric kernel.

The Hamiltonian -kappa d^2/dx^2 + v(x) is discretized on the interior
nodes of a grid with walls held at zero (exact for box domains, a
truncated approximation on the line).  Second central differences make
it complex symmetric and tridiagonal, and it is stored as its main
diagonal and its one off-diagonal.  The dense matrix exists only
inside biorthonormalize, as the input of the one eigen-solve, which
frees it once its diagonals are read, folded or solved and gives the
right eigenvectors; the left eigenvectors are their dual basis, which
makes the pair a biorthonormal system under the grid inner product
h * sum(conj(a) * b) by construction.  Only the left ones are kept.  A
matrix with exact PT symmetry, P conj(H) P = H with P the reversal of
the node order, is similar to a real matrix (Mostafazadeh, J. Math.
Phys. 43, 3944 (2002)): folded by a unitary U with PT-invariant columns
it is solved, inverted and checked in that real basis.  A PT-invariant
vector is fixed by the top half of the chain and its real middle node,
and in those coordinates, the fold's up to a factor sqrt(2), the
eigenpairs of a tridiagonal H come from Rayleigh-quotient iteration:
one twisted solve of half the chain per sweep, batched over shifts,
and a check on the two diagonals.  A real eig of the fold runs only
where that does not converge to distinct, checked levels, as on a
PT-broken spectrum or a dense input; every other matrix gets a complex
solve.  When every level is real the eigenvectors stay real
coordinates through to the metric, and no m x m complex eigenvector
array is formed.  The metric kernel is then the resolved sum of left
projectors

    M(x, y) = sum_n phi_n(x) * conj(phi_n(y))

over a chosen number of modes, a real product of those coordinates
when every level is real.  Couplings where the eigensystem degenerates
raise ExceptionalPointError.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from qmetric.kernels import FLOAT_FMT, Grid, Kernel, _conj_equal
from qmetric.potentials import PhysConstants, PotentialSpec, check_grid, eval_potential

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
        """The m x m matrix."""
        return _dense(self.diag, self.off)


def _dense(diag: np.ndarray, off: np.ndarray) -> np.ndarray:
    """The symmetric tridiagonal matrix, written through strided views of one zeroed array."""
    m = diag.size
    H = np.zeros((m, m), dtype=complex)
    flat = H.reshape(-1)
    flat[::m + 1] = diag
    flat[1::m + 1] = off
    flat[m::m + 1] = off
    return H


@dataclass
class BiorthonormalSystem:
    """Paired eigenvalues with the left eigenvectors as matrix columns.

    Normalization: h * psi_n^dag left[:, m] = delta_nm for the right
    eigenvectors psi_n, scaled to sqrt(h) * ||psi_n|| = 1.
    biorthonormalize checks the psi_n and does not keep them.  Energies
    are sorted by real part, ties by imaginary part.

    coords holds the left vectors phi_n in one of two forms.  A complex
    array holds their node values.  A real one, as biorthonormalize makes
    for an exactly PT-symmetric H with real levels, holds X = [a; b; c]:
    phi_n is a + ib on the first p = m // 2 nodes, a - ib mirrored on the
    last p and c on the middle node (odd m).  That is one m x m real
    array, half the complex one.  The left property gives node values in
    either case, unfolding X into a new complex array on each call.
    """

    grid: Grid
    energies: np.ndarray
    coords: np.ndarray
    defect: float

    @property
    def left(self) -> np.ndarray:
        X = self.coords
        if np.iscomplexobj(X):
            return X
        m = X.shape[0]
        p = m // 2
        out = np.empty(X.shape, dtype=complex)
        out[:p].real, out[:p].imag = X[:p], X[p:2 * p]
        out[m - 1:m - 1 - p:-1] = out[:p].conj()
        if m % 2:
            out[p] = X[-1]
        return out


def _fd_diagonals(constants: PhysConstants, h: float, v: np.ndarray):
    """(diag, off) of -kappa d^2/dx^2 + v, second central differences on the nodes of v."""
    kappa = constants.hbar**2 / (2.0 * constants.mass)
    return 2.0 * kappa / h**2 + v, np.full(v.size - 1, -kappa / h**2, dtype=complex)


def discretize(pot: PotentialSpec, grid: Grid) -> DiscretizedHamiltonian:
    """Build the interior-node diagonals with second central differences.

    Point couplings i*zeta*delta(x - a) enter as diagonal spikes
    i*zeta/h at the interior node nearest a, the lower one when a lies
    exactly midway.  A coupling off the grid raises ValueError (check_grid);
    one on it whose nearest interior node is further than h/2 away gets a
    placement warning.  The walls are "dirichlet" on a box and
    "truncated" on the line.
    """
    check_grid(pot, grid)
    x, h = grid.nodes[1:-1], grid.h
    diag, off = _fd_diagonals(pot.constants, h, eval_potential(pot, x))
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


def _is_tridiagonal(a: np.ndarray) -> bool:
    """Exactly symmetric tridiagonal: equal first off-diagonals and zeros beyond them.

    np.count_nonzero reads a in place, so the test copies nothing the size of a.
    """
    upper = np.diagonal(a, 1)
    return (np.array_equal(upper, np.diagonal(a, -1))
            and np.count_nonzero(a)
            == np.count_nonzero(np.diagonal(a)) + 2 * np.count_nonzero(upper))


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


def _node_abs_sums(vectors: np.ndarray, axis: int) -> np.ndarray:
    """Sums of |U @ vectors| along axis, for real vectors and U as in _fold.

    The mirrored rows (a +- ib) / sqrt(2) share the modulus hypot(a, b) / sqrt(2),
    so U @ vectors is not formed.  Along axis 1 (row sums) the bottom rows,
    equal to the top ones, are left out.
    """
    p = vectors.shape[0] // 2
    pairs = np.hypot(vectors[:p], vectors[p:2 * p]).sum(axis=axis) / np.sqrt(2.0)
    middle = np.abs(vectors[2 * p:]).sum(axis=axis)
    return 2.0 * pairs + middle if axis == 0 else np.concatenate((pairs, middle))


_RQI_BLOCK = 128  # shifts per sweep and columns per checked block: all m at once would raise the peak
_RQI_SWEEPS = 6  # per block; the well near its PT-breaking coupling needs 5
_RQI_TOL = 1e-15  # target max|A x - s x| of a unit x, relative to max|A|; round-off leaves <= 4e-16
_RQI_CHECK = 1e-14  # the same for the unfolded x, with room for the fold's sqrt(2) round-off
_RQI_MARGIN = 1e-7  # least relative level gap: 100 x the exceptional-point bound


def _half_sum(terms: np.ndarray, m: int) -> np.ndarray:
    """Column sums over all m rows of a PT-invariant product, from its top m - m // 2 rows.

    Row m-1-k holds the conjugate of row k, so each sum is real: twice the
    real part over the mirrored rows, plus the middle row of an odd m.
    """
    p = m // 2
    total = 2.0 * np.sum(terms[:p].real, axis=0)
    if m % 2:
        total += terms[p].real
    return total


def _half_product(diag: np.ndarray, off: np.ndarray, z: np.ndarray) -> np.ndarray:
    """The top rows of A x, for the PT-invariant x whose top q = m - m // 2 rows are z.

    A is the PT-symmetric tridiagonal matrix with main diagonal diag and
    off-diagonal off.  Below row q - 1, x continues with
    conj(z[m // 2 - 1]), the mirror image of the last mirrored row.
    """
    m, q = diag.size, z.shape[0]
    out = _tridiagonal_product(diag[:q], off[:q - 1], z)
    if m > 1:
        out[-1] += off[q - 1] * z[m // 2 - 1].conj()
    return out


def _twisted(diag: np.ndarray, off: np.ndarray, shifts: np.ndarray,
             rhs: np.ndarray) -> np.ndarray:
    """Solve (A - shifts[j]) x_j = r_j in place, for PT-invariant r_j given by their top rows.

    A is as in _half_product, the shifts are real and rhs holds the top
    q = m - m // 2 rows of every r_j.  The solutions are PT-invariant too,
    so only their top rows are solved for, by a twisted factorization
    (Parlett & Dhillon, Linear Algebra Appl. 267, 247 (1997)): rows
    0 .. p-1, p = m // 2, are eliminated from the top, and the elimination
    from the bottom, their mirrored conjugate, is never formed.  The two
    meet in the middle: for odd m at the real middle row, one real
    equation; for even m at rows p-1 and p, where
    pivot y + off[p-1] conj(y) = r is a 2 x 2 real system.  The Python
    loops run over the p rows, each step vectorised over the shifts.  An
    exactly zero pivot, as a shift equal to a leading diagonal entry or
    a converged shift at the middle gives, is replaced by
    1e-15 max|diag|, and an exactly zero 2 x 2 determinant by
    1e-15 max|diag|^2.
    """
    m = diag.size
    p = m // 2
    pivots = np.subtract.outer(diag[:p], shifts)
    scale = np.max(np.abs(diag))
    tiny = 1e-15 * scale
    for i in range(p):
        pivot = pivots[i]
        if np.count_nonzero(pivot) < pivot.size:
            pivot[pivot == 0] = tiny
        if i + 1 < p:
            ratio = off[i] / pivot
            pivots[i + 1] -= ratio * off[i]
            rhs[i + 1] -= ratio * rhs[i]
    if m % 2:
        middle, r = diag[p].real - shifts, rhs[p].real
        if p:
            ratio = off[p - 1] / pivots[p - 1]
            middle = middle - 2.0 * (ratio * off[p - 1]).real
            r = r - 2.0 * (ratio * rhs[p - 1]).real
        middle[middle == 0] = tiny
        rhs[p] = r / middle
        solved = p
    else:
        pivot, r, o = pivots[p - 1], rhs[p - 1], off[p - 1].real
        det = pivot.real**2 + pivot.imag**2 - o * o
        det[det == 0] = tiny * scale
        rhs[p - 1] = (pivot.conj() * r - o * r.conj()) / det
        solved = p - 1
    for i in range(solved - 1, -1, -1):
        rhs[i] -= off[i] * rhs[i + 1]
        rhs[i] /= pivots[i]
    return rhs


def _rayleigh(diag: np.ndarray, off: np.ndarray, z: np.ndarray):
    """Normalize half-chain columns in place; return them, their quotients and max residual.

    z holds the top rows of PT-invariant columns x.  The quotient is the
    complex-symmetric one, x^T A x / x^T x, real for a PT-invariant x;
    the columns are scaled by the Hermitian norm of x, since x^T x is
    indefinite on PT-invariant vectors.  The sums over the chain come
    from its top rows (_half_sum), and so does the residual
    max|A x - s x|: the bottom rows mirror them.
    """
    m = diag.size
    z /= np.sqrt(_half_sum(z.real**2 + z.imag**2, m))
    product = _half_product(diag, off, z)
    shifts = _half_sum(z * product, m) / _half_sum(z * z, m)
    product -= z * shifts
    return z, shifts, np.max(np.abs(product))


def _quotients(diag: np.ndarray, off: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Real parts of x^T A x / x^T x for the columns of x, the form summed by parts.

    A is as in _tridiagonal_product.  x^T A x = sum_i w_i x_i^2 -
    sum_i off_i (x_{i+1} - x_i)^2 with w_i = diag_i + off_{i-1} + off_i.  For
    a finite-difference H, w is the potential: the O(1/h^2) terms cancel
    in w, where they are exact, and not in the sum, where x^T (A x)
    rounds them (4e-13 relative on the well's ground level at n 769,
    against 1e-15 this way).
    """
    w = diag.copy()
    w[:-1] += off
    w[1:] += off
    squares = x * x
    step = x[1:] - x[:-1]
    step *= step
    return ((w @ squares - off @ step) / np.sum(squares, axis=0)).real


def _unfolded_levels(diag: np.ndarray, off: np.ndarray, v: np.ndarray, tol: float):
    """Quotients s of the unfolded columns x = U v, or None unless max|A x - s x| <= tol.

    A function of its own so that x and A x, complex m x _RQI_BLOCK arrays,
    are freed before the next block iterates.
    """
    x = _unfold(v)
    s = _quotients(diag, off, x)
    product = _tridiagonal_product(diag, off, x)
    product -= x * s
    return s if np.max(np.abs(product)) <= tol else None  # a NaN fails as well


def _rqi_fold(diag: np.ndarray, off: np.ndarray):
    """Eigenpairs of the fold of a PT-symmetric tridiagonal matrix, or None.

    Batched Rayleigh-quotient iteration in the coordinates PT invariance
    leaves free, the top q = m - m // 2 rows of the chain.  The k-th start
    is the k-th sine of the free box, times i for even k so that every
    start is PT-invariant, and each sweep is one twisted solve (_twisted)
    of _RQI_BLOCK real shifts, whose solutions are exactly PT-invariant
    again.  A block's largest residual max|A x - s x| must fall below
    _RQI_TOL max|A| within _RQI_SWEEPS sweeps and at least halve at each
    sweep until then; the first block that fails either ends the
    attempt.  Its levels are then complex (a PT-broken spectrum, which
    real starts cannot reach: there the residual stalls near 1e-6 max|A|)
    or not yet resolved.  A converged column z folds to the unit real
    column v = [sqrt(2) Re z_top; sqrt(2) Im z_top; z_mid] (z_mid for odd
    m only), with U v = x, U as in _fold.  Each block of these is then
    unfolded and checked on the two diagonals: the level kept is the
    quotient x^T A x / x^T x of the unfolded x, and A x = s x must hold
    to _RQI_CHECK max|A|.  The levels found so far must also be distinct
    by more than _RQI_MARGIN (relative), so starts that land on a level
    already found end the attempt at that block.  Returns (levels, V),
    the columns v as V; on None the caller solves the fold with eig.  The
    caller has checked that the two diagonals are all of the matrix.
    """
    m = diag.size
    p, q = m // 2, m - m // 2
    hnorm = max(float(np.max(np.abs(diag))), float(np.max(np.abs(off), initial=0.0)))
    nodes = np.arange(1, q + 1) * (np.pi / (m + 1))
    levels, folded = np.empty(m), np.empty((m, m))
    with np.errstate(all="ignore"):  # a non-finite sweep fails the residual test
        for c0 in range(0, m, _RQI_BLOCK):
            k = np.arange(c0 + 1, min(c0 + _RQI_BLOCK, m) + 1)
            cols = slice(c0, c0 + k.size)
            start = np.sin(np.outer(nodes, k)) * np.where(k % 2, 1.0, 1j)
            z, shifts, previous = _rayleigh(diag, off, start)
            for _ in range(_RQI_SWEEPS):
                z, shifts, residual = _rayleigh(diag, off, _twisted(diag, off, shifts, z))
                if residual <= _RQI_TOL * hnorm:
                    break
                if not residual < 0.5 * previous:  # stalled
                    return None
                previous = residual
            else:
                return None
            v = folded[:, cols]
            np.multiply(z[:p].real, np.sqrt(2.0), out=v[:p])
            np.multiply(z[:p].imag, np.sqrt(2.0), out=v[p:2 * p])
            if m % 2:
                v[-1] = z[p].real
            s = _unfolded_levels(diag, off, v, _RQI_CHECK * hnorm)
            if s is None:
                return None
            levels[cols] = s
            ordered = np.sort(levels[:cols.stop])
            if not np.all(np.diff(ordered)
                          > _RQI_MARGIN * max(1.0, float(np.abs(ordered).max()))):
                return None
    return levels, folded


def _defect(right: np.ndarray, left: np.ndarray, h: float) -> float:
    """max|h R^dag L - I|, formed for _RQI_BLOCK columns of L at a time; a NaN propagates."""
    adjoint = right.conj().T  # a view for real R
    maxima = []
    for c0 in range(0, left.shape[1], _RQI_BLOCK):
        gram = adjoint @ left[:, c0:c0 + _RQI_BLOCK]
        gram *= h
        k = np.arange(gram.shape[1])
        gram[c0 + k, k] -= 1.0
        maxima.append(np.max(np.abs(gram)))
    return float(np.max(maxima))


def pair_eigensystem(matrix: np.ndarray, h: float):
    """Diagonalize a matrix once and take the dual basis as left eigenvectors.

    The one eigen-solve is a complex eig, or, for an exactly PT-symmetric
    matrix (P conj(H) P = H, P the index reversal), a solve of the real
    folded matrix U^dag H U, with U unitary and PT-invariant columns
    (Mostafazadeh 2002).  When the matrix is also exactly symmetric
    tridiagonal (an O(m^2) test that reads it in place), its two
    diagonals are copied, the complex input is dropped (a caller's
    temporary, as in biorthonormalize, is then freed), and the fold is
    solved by Rayleigh-quotient iteration on the top half of the chain
    (_rqi_fold), O(m^2) work with no m x m array but the folded
    eigenvectors.  Otherwise, as for a PT-broken spectrum (whose complex
    pairs real starts cannot reach) or a dense input, the fold is formed
    (from the two diagonals when the input was tridiagonal: the same
    bits) and a real eig solves it.  The right eigenvectors are sorted
    and scaled to sqrt(h) * ||psi_n|| = 1; the left ones are then fixed
    by them, L = R^{-dag} / h, so that h * R^dag L = I by construction.
    On the folded branch the sort, the scaling, the inverse and the
    defect product all act on the eigenvectors of the folded matrix.
    When every level is real they are real, and right and left are
    returned as those real coordinates, R = U right and L = U left; the
    real dtype marks them, and _unfold maps them to node values.  With
    complex-conjugate pairs they are complex and are mapped back to node
    values here.  U is unitary, so the normalization and the defect carry
    over.  The complex input is dropped once folded, as is the fold once
    solved.  On the real branch the peak comes at the inverse and the
    defect product, with about four m x m real arrays alive; with complex
    pairs it comes when L is mapped back, with about three m x m complex
    ones.  Returns (energies, right, left, defect) with the normalization
    of BiorthonormalSystem.  Raises ExceptionalPointError for eigenvalue
    gaps below 1e-9 (relative; on real levels read from their sorted
    differences), an eigenvector 1-norm condition number
    ||R||_1 ||R^{-1}||_1 = ||R||_1 h ||L||_inf above 1e6, or a
    biorthonormality defect >= 1e-8; a NaN condition number or defect
    raises too.
    """
    matrix = np.asarray(matrix, dtype=complex)
    m = matrix.shape[0]
    folded = _is_pt_symmetric(matrix)
    solved = None
    if folded and _is_tridiagonal(matrix):
        diag, off = np.diagonal(matrix).copy(), np.diagonal(matrix, 1).copy()
        matrix = None  # drops the last reference to the complex input
        solved = _rqi_fold(diag, off)
        if solved is None:  # the two diagonals are all of the matrix
            matrix = _dense(diag, off)
    if solved is None:
        if folded:
            matrix = _fold(matrix)  # drops the complex input
        solved = np.linalg.eig(matrix)
    del matrix  # the solve is done, and nothing below reads the matrix or its fold
    wr, vr = solved
    del solved
    scale = max(1.0, float(np.abs(wr).max()))
    order = np.lexsort((wr.imag, wr.real))
    if m > 1:
        if np.isrealobj(wr):  # sorted levels: the least gap lies between neighbours
            gap = np.diff(wr[order]).min()
        else:
            gap = (np.abs(wr[:, None] - wr[None, :]) + np.diag(np.full(m, np.inf))).min()
        if gap < 1e-9 * scale:
            raise ExceptionalPointError(
                f"eigenvalue gap {gap:.3g} below threshold; "
                "eigenvectors are coalescing")
    energies = wr[order].astype(complex)
    right = vr[:, order]
    del vr  # right is a sorted copy; a real eig's vr views a complex array
    right /= np.sqrt(h) * np.linalg.norm(right, axis=0)
    left = np.linalg.inv(right).conj().T
    left /= h
    defect = _defect(right, left, h)
    if np.isrealobj(right):  # the norms of U right and U left, without forming them
        cond = _node_abs_sums(right, 0).max() * h * _node_abs_sums(left, 1).max()
    else:
        if folded:  # complex pairs: their vectors are not PT-invariant
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
    which frees it once its diagonals are copied or it is folded (on the
    complex branch, once solved).  The eigen-relations H psi = E psi and
    H^dag phi = conj(E) phi are then validated to a relative residual
    below 1e-8 (a NaN residual fails), with banded products on the two
    diagonals of H formed for _RQI_BLOCK columns at a time.  Real
    coordinates (pair_eigensystem's PT-real branch) are unfolded to node
    values one such block at a time, so the check holds R, L and
    O(_RQI_BLOCK m) besides.  R is not kept.  Real coordinates of L are
    scaled in place to X = [a; b; c] (BiorthonormalSystem), so the system
    holds one m x m real array; any other L stays complex node values.
    """
    energies, right, left, defect = pair_eigensystem(ham.dense(), ham.grid.h)
    real = np.isrealobj(left)
    diag, off = ham.diag, ham.off
    hnorm = max(1.0, ham.max_abs)
    residuals, r_max = [], []
    for c0 in range(0, energies.size, _RQI_BLOCK):
        cols = slice(c0, c0 + _RQI_BLOCK)
        psi, phi, e = right[:, cols], left[:, cols], energies[cols]
        if real:
            psi, phi = _unfold(psi), _unfold(phi)
        residuals.append(np.max(np.abs(_tridiagonal_product(diag, off, psi)
                                       - psi * e[None, :])))
        residuals.append(np.max(np.abs(_tridiagonal_product(diag.conj(), off.conj(), phi)
                                       - phi * np.conj(e)[None, :])))
        r_max.append(np.max(np.abs(psi)))
    rel = np.max(residuals) / (hnorm * max(1.0, float(np.max(r_max))))
    if not rel < 1e-8:  # a NaN residual fails as well
        raise ExceptionalPointError(f"eigenpair residual {rel:.3g} >= 1e-8")
    del right
    if real:  # U's mirrored columns carry 1 / sqrt(2), so a and b are the first 2p rows / sqrt(2)
        left[:2 * (left.shape[0] // 2)] *= 1.0 / np.sqrt(2.0)
    return BiorthonormalSystem(grid=ham.grid, energies=energies, coords=left, defect=defect)


def spectral_metric(sys: BiorthonormalSystem, n_modes: int) -> Kernel:
    """Metric kernel from the n_modes left eigenvectors of lowest |Re E|.

    The interior-node matrix M = sum phi phi^dag is Hermitian by
    construction and embedded into the full grid with zero walls.  A
    system from pair_eigensystem's PT-real branch holds the left vectors
    as X = [a; b; c] (BiorthonormalSystem): each is a + ib on the first
    p = m // 2 nodes, a - ib mirrored on the last p and c on the middle
    one.  Then eta = X X^T is formed in float64 (numpy's product of X
    with its own transpose is exactly symmetric, which is tested; it is
    symmetrized otherwise), and M is written block by block:
    a a^T + b b^T + i (b a^T - a b^T) on the top-left,
    a a^T - b b^T + i (a b^T + b a^T) on the top-right, the conjugates
    mirrored, and the middle row and column from the c terms; M is then
    exactly Hermitian and exactly PT-symmetric.  Complex left vectors (a
    PT-broken spectrum, a matrix without PT symmetry) take the complex
    product, explicitly Hermitized.  With every mode selected (oracle's
    default) the vectors are read from the system in place, since the
    sum does not depend on their order, so on the PT-real branch the
    peak is X, eta and the metric.  The identity content of the metric
    appears only in the infinite-mode limit, so c_diag = c_anti = 0 here.
    """
    m = sys.coords.shape[1]
    if not 1 <= n_modes <= m:
        raise ValueError(f"n_modes must lie in [1, {m}], got {n_modes}")
    if n_modes == m:  # the sum over every mode needs no order, so no column copy
        phi = sys.coords
    else:
        phi = sys.coords[:, np.argsort(np.abs(sys.energies.real), kind="stable")[:n_modes]]
    if np.iscomplexobj(phi):
        M = phi @ phi.conj().T
        M = 0.5 * (M + M.conj().T)
        smooth = np.zeros((sys.grid.n, sys.grid.n), dtype=complex)
        smooth[1:-1, 1:-1] = M
        return Kernel(grid=sys.grid, smooth=smooth)
    eta = phi @ phi.T
    del phi  # a selected copy would otherwise set the peak memory
    if not _conj_equal(eta, eta.T):  # numpy forms X X^T by syrk: exactly symmetric already
        eta += eta.T  # a copy of eta, as the operands overlap
        eta *= 0.5
    p = m // 2  # m = n - 2 is odd: the grid keeps n odd
    top, bottom = slice(0, p), slice(m - 1, m - 1 - p, -1)
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
