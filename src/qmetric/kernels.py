"""Two-point kernel representation and seed handling.

A kernel eta(x, y) on the square grid is stored as two symbolic singular
coefficients plus a dense smooth part:

    eta(x, y) = c_diag * delta(x - y) + c_anti * delta(x + y) + smooth(x, y)

smooth is an (n, n) complex array with rows indexed by x and columns by
y.  Seeds are pairs of one-argument profiles u_plus, u_minus combined as
u(x, y) = u_plus(x - y) + u_minus(x + y), subject to the reality
constraints u_plus(x)* = u_plus(-x) and u_minus(x)* = u_minus(x) that
make the seed Hermitian.

Kernel artifacts are written by kernel_to_csv and kernel_to_pgm and read
by kernel_from_csv.  Every child process is forked by ForkedWriter: one
child per call, at most one per available CPU at a time, every child
reaped when its block is left, and the first failure raised.
"""

from __future__ import annotations

import functools
import math
import mmap
import os
import pickle
import warnings
from collections import deque
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
    "ForkedWriter",
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
        # 2 half_width is the box length, and h and the nodes come from it
        if not (self.half_width > 0.0 and math.isfinite(2.0 * self.half_width)):
            raise ValueError(f"half_width must be positive and finite, got {self.half_width}")
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
        nodes = np.linspace(-self.half_width, self.half_width, self.n)
        nodes[self.n // 2] = 0.0  # linspace can miss it by an ulp
        return nodes

    @property
    def diff_nodes(self) -> np.ndarray:
        """Nodes of the difference coordinate x - y (and x + y), spacing h, 0 in the middle."""
        nodes = np.linspace(-2.0 * self.half_width, 2.0 * self.half_width, 2 * self.n - 1)
        nodes[self.n - 1] = 0.0
        return nodes

    def mesh(self) -> tuple[np.ndarray, np.ndarray]:
        """(X, Y) with X[i, j] = x_i, Y[i, j] = y_j."""
        return np.meshgrid(self.nodes, self.nodes, indexing="ij")


def _grids_match(a: Grid, b: Grid) -> bool:
    # a stored half-width is %.12e text, so it is compared relatively
    return a.n == b.n and abs(a.half_width - b.half_width) <= 1e-12 * max(1.0, a.half_width)


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
        """Linear interpolation through tabulated values at strictly increasing x; 0 outside."""
        x = np.asarray(x, dtype=float)
        up = np.asarray(u_plus_vals, dtype=complex)
        um = np.asarray(u_minus_vals, dtype=complex)
        if x.ndim != 1 or up.shape != x.shape or um.shape != x.shape:
            raise ValueError("tabulated seed arrays must be 1-d and of equal length")
        if not np.all(np.diff(x) > 0.0):
            raise ValueError("tabulated seed x must be strictly increasing")

        def interp(vals):
            def f(t):
                t = np.asarray(t, dtype=float)
                re = np.interp(t, x, vals.real, left=0.0, right=0.0)
                im = np.interp(t, x, vals.imag, left=0.0, right=0.0)
                return re + 1j * im
            return f

        return SeedPair(u_plus=interp(up), u_minus=interp(um), label=label)


def seed_reality_defect(seed: SeedPair, grid: Grid) -> float:
    """Max violation of the seed reality constraints on the difference grid:
    NaN or inf when a value there is NaN or inf."""
    t = grid.diff_nodes
    up = np.asarray(seed.u_plus(t), dtype=complex)
    up_neg = np.asarray(seed.u_plus(-t), dtype=complex)
    um = np.asarray(seed.u_minus(t), dtype=complex)
    with np.errstate(invalid="ignore"):  # inf - inf
        d_plus = np.max(np.abs(np.conj(up) - up_neg))
        d_minus = np.max(np.abs(np.conj(um) - um))
    return float(np.maximum(d_plus, d_minus))  # keeps a NaN, which max() may drop


def seed_to_kernel(seed: SeedPair, grid: Grid) -> Kernel:
    """Build the seed kernel u = delta(x - y) + u_plus(x-y) + u_minus(x+y).

    The profiles are evaluated over blocks of _BLOCK rows, on the same
    x_i - y_j and x_i + y_j that grid.mesh() gives, into a zeroed array
    allocated before any block.  A block is copied in only when it holds
    a nonzero bit (so -0.0 is kept), and a vanishing seed never
    writes the array's pages.

    Raises:
        ValueError: if the seed violates its reality constraints by more
            than 1e-12 on the difference grid (a NaN or inf value counts
            as a violation), or if its values do not have the shape of
            the grid.
    """
    defect = seed_reality_defect(seed, grid)
    if not defect <= 1e-12:
        raise ValueError(
            f"seed violates reality constraints: max violation {defect:.3e} > 1.0e-12"
        )
    n, nodes = grid.n, grid.nodes
    smooth = np.zeros((n, n), dtype=complex)
    for r in range(0, n, _BLOCK):
        x = nodes[r:r + _BLOCK, None]
        block = np.asarray(seed.u_plus(x - nodes), dtype=complex) \
            + np.asarray(seed.u_minus(x + nodes), dtype=complex)
        if block.shape != (x.shape[0], n):
            raise ValueError(f"smooth part must have shape {(n, n)}, got {block.shape}")
        if block.view(np.uint64).any():
            smooth[r:r + _BLOCK] = block
    return Kernel(grid=grid, c_diag=1.0, smooth=smooth)


def hermiticity_defect(kernel: Kernel) -> float:
    """Deviation from eta(x,y)* = eta(y,x).

    Smooth part: max |smooth(x,y)* - smooth(y,x)| over nodes; singular
    coefficients contribute |Im c_diag| + |Im c_anti|.
    """
    d = float(np.max(np.abs(np.conj(kernel.smooth) - kernel.smooth.T)))
    return d + abs(kernel.c_diag.imag) + abs(kernel.c_anti.imag)


_BLOCK = 32  # rows or columns per block of the blocked seed, checks, residuals and writers


def _conj_equal(a: np.ndarray, b: np.ndarray) -> bool:
    """np.array_equal(a, b.conj()), compared over blocks of _BLOCK rows.

    b is meant to be a view of a, a.T for Hermiticity (a == a^dag) or
    np.flip(a) for PT symmetry, so that no full-size conjugate is formed.
    A NaN compares unequal, as in np.array_equal.
    """
    return a.shape == b.shape and all(
        np.array_equal(a[r:r + _BLOCK], b[r:r + _BLOCK].conj())
        for r in range(0, a.shape[0], _BLOCK))


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


# The array formatter below gives the bytes of FLOAT_FMT % value for whole
# arrays.  A value with |v| in [_ARRAY_MIN, _ARRAY_MAX] is scaled to
# q = |v| 10^(12 - E), E its decimal exponent, with a double-double power of
# ten and Dekker's exact two-product (Numer. Math. 18, 224 (1971)); its 13
# digits are q rounded to an integer.  The fraction r that the rounding drops
# is known to about 3e-16, so only |r - 1/2| <= _TIE_MARGIN can need the
# round-half-even of correct rounding (Gay, "Correctly rounded binary-decimal
# and decimal-binary conversions", 1990): those values, non-finite ones and
# those outside the range are formatted by FLOAT_FMT % one at a time.  NUL
# bytes mark what FLOAT_FMT leaves out of a field; its text never holds one.
_ARRAY_MIN, _ARRAY_MAX = 1e-280, 1e280
_POW10_MIN, _POW10_COUNT = -270, 566  # the table holds 10^k, -270 <= k <= 295
_TIE_MARGIN = 1e-9
_SPLITTER = 134217729.0  # 2^27 + 1
_FIELD = 20  # the widest FLOAT_FMT field, -d.dddddddddddde-ddd
# columns: sign, leading digit, point, 12 digits, e, exponent sign, 3 digits
_TEMPLATE = np.frombuffer(b"-0.000000000000e+000", dtype=np.uint8)
# FLOAT_FMT % 0.0 is _TEMPLATE with NULs for the sign and the exponent's hundreds digit
_ZERO_FIELD = _TEMPLATE.copy()
_ZERO_FIELD[[0, 17]] = 0


def _split(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Dekker's split x = hi + lo into two halves of 26 significant bits."""
    c = _SPLITTER * x
    hi = c - (c - x)
    return hi, x - hi


@functools.lru_cache(maxsize=None)
def _format_tables() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(pow10, digits, exponents), built on first use, not at import.

    pow10 has the rows hi, lo and Dekker's split of hi, with hi + lo equal
    to 10^k to double-double accuracy: both parts are correctly rounded from
    exact integer arithmetic (int / int true division rounds correctly).
    digits[i] holds the 4 characters of "%04d" % i and exponents[e + 999]
    those of "%+04d" % e, each as one uint32.
    """
    pow10 = np.empty((4, _POW10_COUNT))
    for i, k in enumerate(range(_POW10_MIN, _POW10_MIN + _POW10_COUNT)):
        if k >= 0:
            hi = float(10 ** k)
            lo = float(10 ** k - int(hi))
        else:
            hi = 1 / 10 ** -k
            num, den = hi.as_integer_ratio()
            lo = (den - num * 10 ** -k) / (den * 10 ** -k)
        pow10[:2, i] = hi, lo
    pow10[2], pow10[3] = _split(pow10[0])
    pow10.setflags(write=False)  # shared by every caller of the cache
    digits = np.frombuffer("".join("%04d" % i for i in range(10000)).encode(), np.uint32)
    exponents = np.frombuffer("".join("%+04d" % e for e in range(-999, 1000)).encode(),
                              np.uint32)
    return pow10, digits, exponents


def _scale(a: np.ndarray, E: np.ndarray, pow10: np.ndarray):
    """(floor, fraction) of q = a 10^(12 - E); the fraction lies in (-0.001, 1.001).

    q = p + tail with p + e = a hi exactly (Dekker's two-product) and
    tail = e + a lo; the fraction of p is exact since p < 2^53.
    """
    hi, lo, hi_h, hi_l = (row.take(12 - E - _POW10_MIN) for row in pow10)
    a_h, a_l = _split(a)
    p = a * hi
    tail = ((a_h * hi_h - p) + a_h * hi_l + a_l * hi_h) + a_l * hi_l + a * lo
    whole = np.floor(p)
    return whole, (p - whole) + tail


def _format_values(values: np.ndarray) -> np.ndarray:
    """FLOAT_FMT of every value, as uint8 fields of shape values.shape + (_FIELD,).

    A field without its NULs spells FLOAT_FMT % float(value).  An array-path
    field is laid out as _TEMPLATE, sign, 13 digits and a signed 3-digit
    exponent, with a NUL for the sign unless the sign bit is set and for the
    exponent's hundreds digit if |E| < 100; any other field is left-aligned.
    """
    pow10, digits, exponents = _format_tables()
    v = np.ascontiguousarray(values, dtype=np.float64).reshape(-1)
    a = np.abs(v)
    zero = a == 0.0
    array_path = (a >= _ARRAY_MIN) & (a <= _ARRAY_MAX)
    a = np.where(array_path, a, 1.0)
    E = np.floor(np.log10(a)).astype(np.int64)
    whole, r = _scale(a, E, pow10)
    # log10 may miss E by one, so E is redone where p leaves [10^12, 10^13).
    # A p rounded up onto 10^12 or 10^13 leaves q within 1/2 of it, which is
    # printed as 1.000000000000 with the right exponent either way.
    fix = np.flatnonzero((whole < 1e12) | (whole >= 1e13))
    E[fix] += np.where(whole[fix] < 1e12, -1, 1)
    whole[fix], r[fix] = _scale(a[fix], E[fix], pow10)
    D = whole + (r > 0.5)
    slow = np.flatnonzero(~(array_path | zero) | (np.abs(r - 0.5) <= _TIE_MARGIN)
                          | (D < 1e12) | (D > 1e13))
    carry = D == 1e13
    E += carry
    D[carry] = 1e12
    D[zero] = 0.0  # zeros were scaled as a = 1, so E is 0 already
    # floor(D / 10^k) is exact: D < 2^53 is an integer, so the quotient lies
    # at least 10^-12 from the next integer
    lead, q8, q4 = (np.floor(D / s) for s in (1e12, 1e8, 1e4))
    groups = np.empty((v.size, 3), dtype=np.intp)
    groups[:, 0] = q8 - 1e4 * lead
    groups[:, 1] = q4 - 1e4 * q8
    groups[:, 2] = D - 1e4 * q4
    chars = np.empty((v.size, _FIELD), dtype=np.uint8)
    chars[:] = _TEMPLATE
    chars[:, 0] *= np.signbit(v)
    chars[:, 1] += lead.astype(np.uint8)
    chars[:, 3:15] = digits.take(groups).view(np.uint8)
    chars[:, 16:] = exponents.take(E + 999)[:, None].view(np.uint8)
    chars[:, 17] *= np.abs(E) >= 100
    for i in slow:
        text = (FLOAT_FMT % float(v[i])).encode().ljust(_FIELD, b"\0")
        chars[i] = np.frombuffer(text, dtype=np.uint8)
    return chars.reshape(np.shape(values) + (_FIELD,))


def _write_rows(f, nodes: np.ndarray, values: np.ndarray) -> None:
    """Write the lines x,y,re,im of a square grid to the binary file f, x outer.

    values[i] holds re, im of every (nodes[i], y) in turn.  Each line is
    laid out in four fixed columns of a NUL-marked field and its separator;
    a block of _BLOCK grid rows is written with one bytearray.translate
    that deletes its NULs.  The separators and y column are filled once; re
    and im are formatted apart.  A column that is +0.0 throughout a block,
    with no sign bit set, gets _ZERO_FIELD unformatted, if the block before
    formatted it: the iterates of a real or imaginary potential are real or
    imaginary, so one of their columns is zero everywhere.  Same bytes.
    """
    n = len(nodes)
    node_chars = _format_values(nodes)
    buf = np.empty((min(_BLOCK, n), n, 4, _FIELD + 1), dtype=np.uint8)
    fields = buf[..., :_FIELD]
    buf[..., _FIELD] = np.frombuffer(b",,,\n", dtype=np.uint8)
    fields[:, :, 1] = node_chars
    zero_columns = set()  # the value columns that hold _ZERO_FIELD
    for i in range(0, n, _BLOCK):
        rows = slice(i, i + _BLOCK)
        m = len(nodes[rows])
        fields[:m, :, 0] = node_chars[rows, None]
        block = values[rows].reshape(m, n, 2)
        for c in (2, 3):
            part = block[..., c - 2]
            if part.view(np.uint64).any():
                fields[:m, :, c] = _format_values(part)
                zero_columns.discard(c)
            elif c not in zero_columns:
                fields[:, :, c] = _ZERO_FIELD
                zero_columns.add(c)
        f.write(bytearray(buf[:m]).translate(None, b"\0"))


def kernel_to_csv(kernel: Kernel, path) -> None:
    """Write the kernel in the tabular format.

    Three comment headers carry the singular coefficients and the grid
    metadata, followed by a column header and row-major x,y,re,im rows
    (x outer, every number as FLOAT_FMT).  The rows are formatted in
    numpy, a block of grid rows at a time, with the bytes of FLOAT_FMT %.
    """
    g = kernel.grid
    values = np.ascontiguousarray(kernel.smooth).view(np.float64)
    with open(path, "wb") as f:
        f.write(("# c_diag_re,c_diag_im," + FLOAT_FMT % kernel.c_diag.real + ","
                 + FLOAT_FMT % kernel.c_diag.imag + "\n"
                 + "# c_anti_re,c_anti_im," + FLOAT_FMT % kernel.c_anti.real + ","
                 + FLOAT_FMT % kernel.c_anti.imag + "\n"
                 + "# half_width,n," + FLOAT_FMT % g.half_width + ",%d\n" % g.n
                 + "x,y,re,im\n").encode())
        _write_rows(f, g.nodes, values)


# A forked worker must parse at least this many rows to pay for its fork and
# reap, about 3 ms, the parse time of some 4k rows.
_MIN_WORKER_ROWS = 4096
# np.loadtxt tokenizes the lines that skiprows skips at about this share of
# their full parse time.
_SKIP_COST = 0.18


def _row_starts(rows: int, parts: int) -> list:
    """The parts + 1 bounds of `parts` row ranges that take equal times to parse.

    Range k costs its own rows plus _SKIP_COST times the rows it skips, so
    with q = 1 - _SKIP_COST equal costs start range k at
    rows (1 - q^k) / (1 - q^parts).  Two ranges split about 55 : 45.
    """
    q = 1.0 - _SKIP_COST
    return [round(rows * (1.0 - q**k) / (1.0 - q**parts)) for k in range(parts + 1)]


def _parse_rows(path, start: int, stop: int, to_end: bool) -> np.ndarray:
    """np.loadtxt of data rows start to stop, or start to the end of the file.

    Raises ValueError for a part of any other shape, and any warning as an
    exception: np.loadtxt warns when a blank or comment line counts against
    max_rows, so a bounded range that does not hold exactly its own lines
    raises.
    """
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        part = np.loadtxt(path, delimiter=",", skiprows=4 + start,
                          max_rows=None if to_end else stop - start, ndmin=2)
    if part.shape != (stop - start, 4):
        raise ValueError(f"rows {start} to {stop} parsed to shape {part.shape}")
    return part


def _parse_split(path, rows: int, parts: int):
    """The (rows, 4) data parsed in `parts` row ranges, or None on any failure.

    ForkedWriter's children parse ranges 1 and up while this process parses
    range 0, all into an anonymous shared mapping, which backs the array.
    The last range reads to the end, so extra rows fail too.
    """
    starts = _row_starts(rows, parts)

    def parse(k):
        data[starts[k]:starts[k + 1]] = _parse_rows(path, starts[k], starts[k + 1],
                                                    k == parts - 1)

    try:
        data = np.frombuffer(mmap.mmap(-1, rows * 4 * 8), dtype=np.float64).reshape(rows, 4)
        with ForkedWriter() as children:
            for k in range(1, parts):
                children.run(functools.partial(parse, k), f"the parser of range {k}")
            parse(0)
        return data
    except Exception:  # a failed mapping, fork, open or parse, here or in a child
        return None


def kernel_from_csv(path) -> Kernel:
    """Read a kernel written by kernel_to_csv.

    The n^2 data rows are parsed in row ranges, one per available CPU and
    at most one per _MIN_WORKER_ROWS rows (see _parse_split), each by the
    same np.loadtxt as a whole-file parse.  A range that holds a blank or
    comment line, a bad row, or too few or too many rows sends the read
    back to one whole-file np.loadtxt, so the kernel and every error are
    those of the whole-file parse.

    Raises:
        ValueError: for a malformed header, a row that is not four numbers,
            a wrong row count, or a row whose x,y lie more than h/4 from the
            grid nodes of its place in the x-outer order.
    """
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
        rows = grid.n * grid.n
        parts = min(len(os.sched_getaffinity(0)), rows // _MIN_WORKER_ROWS)
        data = _parse_split(path, rows, parts) if parts > 1 else None
        if data is None:
            data = np.loadtxt(path, delimiter=",", skiprows=4, ndmin=2)
    except (IndexError, ValueError) as exc:
        raise ValueError(f"malformed kernel CSV: {exc}") from exc
    if data.shape[0] != grid.n * grid.n:
        raise ValueError(f"kernel CSV has {data.shape[0]} rows, expected {grid.n * grid.n}")
    if data.shape[1] != 4:
        raise ValueError(f"malformed kernel CSV: {data.shape[1]} columns per row, expected 4")
    # row i n + j must sit at (x_i, y_j): a y-outer file would load transposed.
    # The distances of a block of grid rows go through one buffer that stays
    # in cache; fresh n x n arrays cost twice as much in a new process.
    nodes, tol = grid.nodes, 0.25 * grid.h
    xy = data[:, :2].reshape(grid.n, grid.n, 2)
    buf = np.empty((_BLOCK, grid.n))
    for i in range(0, grid.n, _BLOCK):
        block = xy[i:i + _BLOCK]
        off = buf[:len(block)]
        for axis, expected in enumerate((nodes[i:i + _BLOCK, None], nodes)):
            np.abs(np.subtract(block[..., axis], expected, out=off), out=off)
            if not off.max() <= tol:  # a nan fails too
                k = i * grid.n + int(np.argmin(off <= tol))
                raise ValueError(f"malformed kernel CSV: row {k + 1} has x,y = "
                                 f"{float(data[k, 0])!r},{float(data[k, 1])!r}, expected "
                                 f"the x-outer node {float(nodes[k // grid.n])!r},"
                                 f"{float(nodes[k % grid.n])!r}")
    smooth = np.ascontiguousarray(data[:, 2:4]).view(complex).reshape(grid.n, grid.n)
    return Kernel(grid=grid, c_diag=c_diag, c_anti=c_anti, smooth=smooth)


# The decimal text of every gray level, looked up a row at a time.
_GRAY_TEXT = np.array([str(v).encode() for v in range(256)], dtype=object)


def kernel_to_pgm(kernel: Kernel, path) -> None:
    """Write |smooth| as an ASCII portable graymap with min/max in the header.

    |smooth| is formed for _BLOCK rows at a time, once for its min and max
    (a NaN propagates to both) and once to scale and write the block.
    """
    n = kernel.grid.n
    blocks = [slice(r, r + _BLOCK) for r in range(0, n, _BLOCK)]
    ends = [(m.min(), m.max()) for m in (np.abs(kernel.smooth[b]) for b in blocks)]
    lo, hi = float(np.min([e[0] for e in ends])), float(np.max([e[1] for e in ends]))
    with open(path, "wb") as f:
        f.write(b"P2\n")
        f.write(("# |smooth| min=" + FLOAT_FMT % lo + " max=" + FLOAT_FMT % hi + "\n").encode())
        f.write(f"{n} {n}\n255\n".encode())
        for b in blocks:
            mag = np.abs(kernel.smooth[b])
            if hi > lo:
                img = np.rint(255.0 * (mag - lo) / (hi - lo)).astype(int)
            else:
                img = np.zeros_like(mag, dtype=int)
            text = _GRAY_TEXT
            if img.min() < 0 or img.max() > 255:
                # an infinite |smooth| beside finite ones casts nan to an arbitrary int
                levels, img = np.unique(img, return_inverse=True)
                text = np.array([str(v).encode() for v in levels], dtype=object)
                img = img.reshape(mag.shape)
            for row in img:
                f.write(b" ".join(text[row]) + b"\n")


class ForkedWriter:
    """Run calls in forked children, one child per call, as they are given.

    run(call, name) forks a child that runs call() and returns: the child
    sees the memory of this process as of the fork, so the caller may drop
    or reuse what call reads at once.  At most one child per available CPU
    runs; run waits for the oldest one when all are busy.
    write(writer, kernel, path) runs writer(kernel, path), e.g. with
    kernel_to_csv, and each file gets the bytes the writer alone gives it.

    Use it as a context manager.  Leaving the block reaps every child.  A
    child that fails sends its exception back through a pipe, and once all
    are reaped the exception of the first failed call, in the order the
    calls were given, is raised, unless the block raised one already.  The
    other calls run all the same.
    """

    def __init__(self):
        self._slots = len(os.sched_getaffinity(0))
        self._running = deque()  # (name, pid, read end of its pipe), oldest first
        self._errors = []

    def __enter__(self) -> "ForkedWriter":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        while self._running:
            self._reap()
        if exc_type is None and self._errors:
            raise self._errors[0]

    def write(self, writer, kernel: Kernel, path) -> None:
        _format_tables()  # built once here, not in every child
        self.run(functools.partial(writer, kernel, path), f"the writer of {path}")

    def run(self, call, name: str) -> None:
        if len(self._running) >= self._slots:
            self._reap()
        read_end, write_end = os.pipe()
        try:
            pid = os.fork()
        except OSError:
            os.close(read_end)
            os.close(write_end)
            raise
        if pid == 0:  # the child runs call, reports any exception and never returns
            status = 1
            try:
                os.close(read_end)
                call()
                status = 0
            except Exception as error:  # anything else ends the child with no report
                with open(write_end, "wb") as pipe:
                    pickle.dump(error, pipe)
            finally:
                os._exit(status)
        os.close(write_end)
        self._running.append((name, pid, read_end))

    def _reap(self) -> None:
        """Wait for the oldest child; keep its exception if it failed."""
        name, pid, read_end = self._running.popleft()
        with open(read_end, "rb") as pipe:
            message = pipe.read()  # only the child holds the write end: EOF when it exits
        status = os.waitpid(pid, 0)[1]
        if status:
            try:
                error = pickle.loads(message)
            except Exception:  # the child died before it could send one
                error = OSError(f"{name} ended with wait status {status}")
            self._errors.append(error)
