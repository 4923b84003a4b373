"""Two-point kernel representation and seed handling.

A kernel eta(x, y) on the square grid is stored as two symbolic singular
coefficients plus a dense smooth part:

    eta(x, y) = c_diag * delta(x - y) + c_anti * delta(x + y) + smooth(x, y)

smooth is an (n, n) complex array with rows indexed by x and columns by
y.  Seeds are pairs of one-argument profiles u_plus, u_minus combined as
u(x, y) = u_plus(x - y) + u_minus(x + y), subject to the reality
constraints u_plus(x)* = u_plus(-x) and u_minus(x)* = u_minus(x) that
make the seed Hermitian.

Kernel artifacts are written by kernel_to_csv and kernel_to_pgm; a batch
of them goes through write_kernel_files, which runs the writers in forked
worker processes, one per available CPU, and writes the same bytes.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Callable

import numpy as np

__all__ = [
    "FLOAT_FMT",
    "Grid",
    "Kernel",
    "SeedPair",
    "OperatorForm",
    "identity_kernel",
    "parity_kernel",
    "smooth_kernel",
    "seed_reality_defect",
    "seed_to_kernel",
    "hermiticity_defect",
    "operator_form_free",
    "invert_operator_form",
    "kernel_to_csv",
    "kernel_from_csv",
    "kernel_to_pgm",
    "write_kernel_files",
]

FLOAT_FMT = "%.12e"

_MIN_N = 33


@dataclass(frozen=True)
class Grid:
    """Uniform square grid on [-half_width, half_width]^2.

    n is odd so that 0 is a node; n >= 33 keeps the quadrature and
    finite-difference error floors meaningful.
    """

    half_width: float
    n: int

    def __post_init__(self):
        if not self.half_width > 0.0:
            raise ValueError(f"half_width must be positive, got {self.half_width}")
        if self.n < _MIN_N:
            raise ValueError(f"n must be at least {_MIN_N}, got {self.n}")
        if self.n % 2 == 0:
            raise ValueError(f"n must be odd so that 0 is a node, got {self.n}")

    @staticmethod
    def for_box(L: float, n: int) -> "Grid":
        """Grid covering a box of length L (nodes include the walls)."""
        return Grid(half_width=0.5 * L, n=n)

    @property
    def h(self) -> float:
        return 2.0 * self.half_width / (self.n - 1)

    @property
    def nodes(self) -> np.ndarray:
        return np.linspace(-self.half_width, self.half_width, self.n)

    @property
    def diff_nodes(self) -> np.ndarray:
        """Nodes of the difference coordinate x - y (and x + y), spacing h."""
        return np.linspace(-2.0 * self.half_width, 2.0 * self.half_width, 2 * self.n - 1)

    def mesh(self) -> tuple[np.ndarray, np.ndarray]:
        """(X, Y) with X[i, j] = x_i, Y[i, j] = y_j."""
        return np.meshgrid(self.nodes, self.nodes, indexing="ij")


@dataclass
class Kernel:
    grid: Grid
    c_diag: complex = 0.0
    c_anti: complex = 0.0
    smooth: np.ndarray = None

    def __post_init__(self):
        self.c_diag = complex(self.c_diag)
        self.c_anti = complex(self.c_anti)
        if self.smooth is None:
            self.smooth = np.zeros((self.grid.n, self.grid.n), dtype=complex)
        else:
            self.smooth = np.asarray(self.smooth, dtype=complex)
            if self.smooth.shape != (self.grid.n, self.grid.n):
                raise ValueError(
                    f"smooth part must have shape {(self.grid.n, self.grid.n)}, "
                    f"got {self.smooth.shape}"
                )

    @property
    def sup_smooth(self) -> float:
        return float(np.max(np.abs(self.smooth)))


def identity_kernel(grid: Grid) -> Kernel:
    return Kernel(grid=grid, c_diag=1.0)


def parity_kernel(grid: Grid) -> Kernel:
    return Kernel(grid=grid, c_anti=1.0)


def smooth_kernel(grid: Grid, smooth: np.ndarray) -> Kernel:
    return Kernel(grid=grid, smooth=smooth)


@dataclass
class SeedPair:
    """Pair of seed profiles; both callables must accept numpy arrays."""

    u_plus: Callable[[np.ndarray], np.ndarray]
    u_minus: Callable[[np.ndarray], np.ndarray]
    label: str = "custom"

    @staticmethod
    def zero() -> "SeedPair":
        z = lambda x: np.zeros_like(np.asarray(x, dtype=float), dtype=complex)
        return SeedPair(u_plus=z, u_minus=z, label="zero")

    @staticmethod
    def from_table(x: np.ndarray, u_plus_vals: np.ndarray,
                   u_minus_vals: np.ndarray, label: str = "tabulated") -> "SeedPair":
        """Linear interpolation through tabulated values; 0 outside the table."""
        x = np.asarray(x, dtype=float)
        up = np.asarray(u_plus_vals, dtype=complex)
        um = np.asarray(u_minus_vals, dtype=complex)
        if x.ndim != 1 or up.shape != x.shape or um.shape != x.shape:
            raise ValueError("tabulated seed arrays must be 1-d and of equal length")

        def interp(vals):
            def f(t):
                t = np.asarray(t, dtype=float)
                re = np.interp(t, x, vals.real, left=0.0, right=0.0)
                im = np.interp(t, x, vals.imag, left=0.0, right=0.0)
                return re + 1j * im
            return f

        return SeedPair(u_plus=interp(up), u_minus=interp(um), label=label)


def seed_reality_defect(seed: SeedPair, grid: Grid) -> float:
    """Max violation of the seed reality constraints on the difference grid."""
    t = grid.diff_nodes
    up = np.asarray(seed.u_plus(t), dtype=complex)
    up_neg = np.asarray(seed.u_plus(-t), dtype=complex)
    um = np.asarray(seed.u_minus(t), dtype=complex)
    d_plus = float(np.max(np.abs(np.conj(up) - up_neg)))
    d_minus = float(np.max(np.abs(np.conj(um) - um)))
    return max(d_plus, d_minus)


def seed_to_kernel(seed: SeedPair, grid: Grid, include_identity: bool = True,
                   include_parity: bool = False, tol: float = 1e-12) -> Kernel:
    """Build the seed kernel u = [delta] + u_plus(x-y) + u_minus(x+y).

    Raises:
        ValueError: if the seed violates its reality constraints by more
            than tol on the difference grid.
    """
    defect = seed_reality_defect(seed, grid)
    if defect > tol:
        raise ValueError(
            f"seed violates reality constraints: max violation {defect:.3e} > {tol:.1e}"
        )
    X, Y = grid.mesh()
    smooth = np.asarray(seed.u_plus(X - Y), dtype=complex) \
        + np.asarray(seed.u_minus(X + Y), dtype=complex)
    return Kernel(
        grid=grid,
        c_diag=1.0 if include_identity else 0.0,
        c_anti=1.0 if include_parity else 0.0,
        smooth=smooth,
    )


def hermiticity_defect(kernel: Kernel) -> float:
    """Deviation from eta(x,y)* = eta(y,x).

    Smooth part: max |smooth(x,y)* - smooth(y,x)| over nodes; singular
    coefficients contribute |Im c_diag| + |Im c_anti|.
    """
    d = float(np.max(np.abs(np.conj(kernel.smooth) - kernel.smooth.T)))
    return d + abs(kernel.c_diag.imag) + abs(kernel.c_anti.imag)


@dataclass
class OperatorForm:
    """Free-particle operator form eta = L(p) + K(p) P, tabulated over momentum."""

    p: np.ndarray
    L: np.ndarray
    K: np.ndarray
    hbar: float


def _forward_transform(vals: np.ndarray, x0: float, dx: float) -> tuple[np.ndarray, np.ndarray]:
    """Continuum-convention transform (2l*pi)^(-1/2) int e^{-ikx} u dx on samples.

    Returns (k sorted ascending, transform values).
    """
    m = vals.shape[0]
    k = 2.0 * np.pi * np.fft.fftfreq(m, d=dx)
    ft = dx * np.exp(-1j * k * x0) * np.fft.fft(vals) / np.sqrt(2.0 * np.pi)
    order = np.argsort(k)
    return k[order], ft[order]


def operator_form_free(seed: SeedPair, grid: Grid, hbar: float = 1.0) -> OperatorForm:
    """Momentum-space form of the free-particle metric built from a seed.

    With the transform convention u~(k) = (2pi)^(-1/2) int e^{-ikx} u(x) dx,
    the operator is eta = L(p) + K(p) P with L(p) = sqrt(2pi) u~_plus(p/hbar)
    and K(p) = sqrt(2pi) u~_minus(-p/hbar).  The seed reality constraints
    make L real-valued and K(p)* = K(-p).
    """
    t = grid.diff_nodes
    dx = t[1] - t[0]
    up = np.asarray(seed.u_plus(t), dtype=complex)
    um = np.asarray(seed.u_minus(t), dtype=complex)
    k, up_t = _forward_transform(up, t[0], dx)
    _, um_t = _forward_transform(um, t[0], dx)
    root = np.sqrt(2.0 * np.pi)
    # K(p) needs u~_minus at -p/hbar; the sorted k grid is symmetric, so reverse.
    return OperatorForm(p=hbar * k, L=root * up_t, K=root * um_t[::-1], hbar=hbar)


def invert_operator_form(form: OperatorForm, grid: Grid) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Transform an OperatorForm back to seed profiles on the difference grid.

    Returns (x, u_plus values, u_minus values).
    """
    t = grid.diff_nodes
    dx = t[1] - t[0]
    k = form.p / form.hbar
    dk = k[1] - k[0]
    root = np.sqrt(2.0 * np.pi)
    up_t = form.L / root
    um_t = form.K[::-1] / root
    phase = np.exp(1j * np.outer(t, k))
    up = phase @ up_t * dk / root
    um = phase @ um_t * dk / root
    return t, up, um


def kernel_to_csv(kernel: Kernel, path) -> None:
    """Write the kernel in the tabular format.

    Three comment headers carry the singular coefficients and the grid
    metadata, followed by a column header and row-major x,y,re,im rows
    (x outer, every number as FLOAT_FMT).  Each grid row is formatted by
    one template whose x,y fields are filled in once, applied to the
    interleaved re,im values of that row.
    """
    g = kernel.grid
    nodes = [FLOAT_FMT % v for v in g.nodes]
    cells = ["," + y + "," + FLOAT_FMT + "," + FLOAT_FMT + "\n" for y in nodes]
    values = np.ascontiguousarray(kernel.smooth).view(np.float64)
    with open(path, "w") as f:
        f.write("# c_diag_re,c_diag_im," + FLOAT_FMT % kernel.c_diag.real + ","
                + FLOAT_FMT % kernel.c_diag.imag + "\n")
        f.write("# c_anti_re,c_anti_im," + FLOAT_FMT % kernel.c_anti.real + ","
                + FLOAT_FMT % kernel.c_anti.imag + "\n")
        f.write("# half_width,n," + FLOAT_FMT % g.half_width + ",%d\n" % g.n)
        f.write("x,y,re,im\n")
        for x, row in zip(nodes, values):
            f.write((x + x.join(cells)) % tuple(row))


def kernel_from_csv(path) -> Kernel:
    with open(path) as f:
        lines = [f.readline().rstrip("\n") for _ in range(4)]
    try:
        head_diag = lines[0].removeprefix("# c_diag_re,c_diag_im,").split(",")
        head_anti = lines[1].removeprefix("# c_anti_re,c_anti_im,").split(",")
        head_grid = lines[2].removeprefix("# half_width,n,").split(",")
        c_diag = complex(float(head_diag[0]), float(head_diag[1]))
        c_anti = complex(float(head_anti[0]), float(head_anti[1]))
        grid = Grid(half_width=float(head_grid[0]), n=int(head_grid[1]))
        if lines[3] != "x,y,re,im":
            raise ValueError(f"unexpected column header {lines[3]!r}")
        data = np.loadtxt(path, delimiter=",", skiprows=4, ndmin=2)
    except (IndexError, ValueError) as exc:
        raise ValueError(f"malformed kernel CSV: {exc}") from exc
    if data.shape != (grid.n * grid.n, 4):
        raise ValueError(f"kernel CSV has {data.shape[0]} rows, expected {grid.n * grid.n}")
    smooth = np.ascontiguousarray(data[:, 2:4]).view(complex).reshape(grid.n, grid.n)
    return Kernel(grid=grid, c_diag=c_diag, c_anti=c_anti, smooth=smooth)


def kernel_to_pgm(kernel: Kernel, path) -> None:
    """Write |smooth| as an ASCII portable graymap with min/max in the header."""
    mag = np.abs(kernel.smooth)
    lo, hi = float(mag.min()), float(mag.max())
    if hi > lo:
        img = np.rint(255.0 * (mag - lo) / (hi - lo)).astype(int)
    else:
        img = np.zeros_like(mag, dtype=int)
    n = kernel.grid.n
    with open(path, "w") as f:
        f.write("P2\n")
        f.write("# |smooth| min=" + FLOAT_FMT % lo + " max=" + FLOAT_FMT % hi + "\n")
        f.write(f"{n} {n}\n255\n")
        for row in img:
            f.write(" ".join(str(v) for v in row) + "\n")


# The jobs of the running write_kernel_files call, set in each forked worker
# by its initializer; the parent never assigns it.
_WORKER_JOBS: list = []


def _adopt_jobs(jobs: list) -> None:
    global _WORKER_JOBS
    _WORKER_JOBS = jobs


def _run_job(index: int) -> None:
    writer, kernel, path = _WORKER_JOBS[index]
    writer(kernel, path)


def write_kernel_files(jobs) -> None:
    """Run (writer, kernel, path) jobs, e.g. (kernel_to_csv, k, "k.csv").

    The jobs run on min(len(jobs), available CPUs) worker processes made
    by POSIX fork, so the workers read the kernels from the memory they
    share with this process: only job indices and exceptions are pickled.
    Each file gets the bytes the writer alone would give it.  The first
    exception of a job, in job order, is raised here once every job has
    ended.
    """
    # imported here: at module level the pool modules slow every CLI start
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    jobs = list(jobs)
    workers = min(len(jobs), len(os.sched_getaffinity(0)))
    with ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("fork"),
                             initializer=_adopt_jobs, initargs=(jobs,)) as pool:
        for _ in pool.map(_run_job, range(len(jobs))):
            pass
