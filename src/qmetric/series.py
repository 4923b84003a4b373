"""Neumann-series engine for pseudo-metric kernels.

The integral operator acting on a kernel eta is

    (K eta)(x, y) = (m/hbar^2) [ int_{r0}^{y} dr v(r) int_{x-y+r}^{x+y-r} ds eta(s, r)
                  + int_{r0}^{x} ds conj(v(s)) int_{-x+y+s}^{x+y-s} dr eta(s, r) ]

and the kernel solution is the series eta = sum_l K^l u over a seed u.
Identity and parity singular parts are propagated by closed forms.  The
smooth part goes through characteristic-line quadrature of the bilinear
representation: on each grid cell the integrand of a characteristic is a
cubic in r, integrated exactly by one Simpson pair, and a cell holding a
segment breakpoint is split there (only v jumps).  Point couplings use the
slice rule: each delta at x = a contributes line integrals of the
kernel slices at y = a and x = a, with one-sided limits recovered at
jump positions by two-node extrapolation.  The integration limits
x + y - a and +-(x - y) + a depend on i + j or i - j alone, so each slice
antiderivative is evaluated once on the 2n - 1 difference-grid nodes
and read back over the square as a Hankel or Toeplitz view.

K weights eta by v(r) in its first term and by conj(v(s)) in the second,
so an imaginary potential (the square well, the scattering barrier and
imaginary point couplings) maps a real Hermitian kernel to an imaginary
one and back, and a real potential keeps either: from the identity seed
every iterate is purely real or purely imaginary.  When the component
the input lacks is exactly zero, the characteristic quadrature and the
slice rule run on the other one in float64 and write the result into the
component the phase selects.  Every nonzero value is then the same
rounded product or sum as in complex arithmetic, and every zero is +0.0
as the complex accumulation leaves it, so the bytes do not change.  Any
other input runs the same code in complex128.

Evaluations outside the grid square treat the kernel as zero.  For a
box domain that is exact (the kernel vanishes at and beyond the walls);
on the full line it is a truncation, counted per evaluation (per
characteristic and cell in the smooth quadrature) and reported through
the optional stats dictionary and SeriesState.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, fields

import numpy as np
from numpy.lib.stride_tricks import as_strided

from qmetric.kernels import _BLOCK, Grid, Kernel, SeedPair, _conj_equal, seed_to_kernel
from qmetric.potentials import PotentialSpec, check_box_grid, eval_potential, unit_step

__all__ = [
    "KConfig",
    "SeriesState",
    "apply_K_to_identity",
    "apply_K_smooth",
    "apply_K_delta_rule",
    "apply_K",
    "neumann_series",
    "convergence_bound",
]


@dataclass(frozen=True)
class KConfig:
    """Base point and iteration controls for the series engine.

    r0 is the base point of the indefinite integrals (it must lie on a
    grid node when the smooth quadrature is used).  That quadrature has no
    accuracy knob: it integrates the cubic integrand of each grid cell
    exactly, splitting cells at the segment breakpoints inside them.
    """

    r0: float = 0.0
    max_order: int = 4
    stop_tol: float = 1e-10

    def __post_init__(self):
        if not np.isfinite(self.r0):
            raise ValueError(f"r0 must be finite, got {self.r0}")
        if self.max_order < 1:
            raise ValueError(f"max_order must be at least 1, got {self.max_order}")
        if not self.stop_tol > 0.0:
            raise ValueError(f"stop_tol must be positive, got {self.stop_tol}")

    def to_dict(self) -> dict:
        return asdict(self)

    @staticmethod
    def from_dict(data: dict) -> "KConfig":
        extra = set(data) - {f.name for f in fields(KConfig)}
        if extra:
            raise ValueError(f"unknown series config keys: {sorted(extra)}")
        return KConfig(**data)


@dataclass
class SeriesState:
    """Iterates K^l u (kept only without a sink), their sum, and per-order sup norms."""

    iterates: list
    partial_sum: Kernel
    sup_norms: list
    diverged: bool = False
    truncated_evals: int = 0


def _segment_prefix(pot: PotentialSpec, t) -> np.ndarray:
    """Exact int_0^t v(r) dr for the piecewise-constant segment part."""
    t = np.asarray(t, dtype=float)
    out = np.zeros(t.shape, dtype=complex)
    for (a, b), v in pot.segments:
        out += v * (np.clip(t, a, b) - np.clip(0.0, a, b))
    return out


def apply_K_to_identity(pot: PotentialSpec, grid: Grid, cfg: KConfig | None = None) -> Kernel:
    """Closed-form action of K on the identity kernel delta(x - y).

    Only the segment part of the potential enters here; point couplings
    are handled by apply_K_delta_rule.  The result is

        (m/hbar^2) [ int_{r0}^{(x+y)/2} Re v + i sign(y-x) int_{r0}^{(x+y)/2} Im v ]

    with both integrals evaluated exactly for piecewise-constant v.  It is
    formed for _BLOCK rows x at a time, so the scratch is O(_BLOCK n).
    """
    check_box_grid(pot, grid)
    r0 = 0.0 if cfg is None else cfg.r0
    Y = grid.nodes
    base = _segment_prefix(pot, np.asarray(r0))
    c = pot.constants.mass / pot.constants.hbar**2
    smooth = np.empty((grid.n, grid.n), dtype=complex)
    for r in range(0, grid.n, _BLOCK):
        X = Y[r:r + _BLOCK, None]
        pref = _segment_prefix(pot, 0.5 * (X + Y))
        smooth[r:r + _BLOCK] = c * ((pref.real - base.real)
                                    + 1j * np.sign(Y - X) * (pref.imag - base.imag))
    return Kernel(grid=grid, smooth=smooth)


def _cell_weights(pot: PotentialSpec, grid: Grid) -> np.ndarray:
    """Weights (w0, wm, w1, w3) of the exact rule on each r cell, shape (4, n-1).

    Along a characteristic, cell [r_c, r_c + h] contributes the integral
    of v(r) g(lam), r = r_c + lam h, with g cubic in lam: that is
    w0 g(0) + wm g(1/2) + w1 g(1) + w3 g3, g3 the cubic coefficient.
    Cells are split at segment breakpoints; on each piece v is constant
    and Simpson's rule is exact.  An unsplit cell gets v h (1/6, 4/6, 1/6, 0).
    """
    n, h, nodes = grid.n, grid.h, grid.nodes
    # np.union1d and np.isin without np.unique, whose first call imports numpy.ma
    t = np.sort(np.concatenate([nodes, [c for (a, b), _ in pot.segments for c in (a, b)
                                        if nodes[0] < c < nodes[-1]]]))
    t = t[np.concatenate([[True], t[1:] != t[:-1]])]
    cell = np.searchsorted(nodes, t[:-1], side="right") - 1
    on_node = nodes[np.minimum(np.searchsorted(nodes, t[1:]), n - 1)] == t[1:]
    lo = (t[:-1] - nodes[cell]) / h
    hi = np.where(on_node, 1.0, (t[1:] - nodes[cell]) / h)
    v = eval_potential(pot, 0.5 * (t[:-1] + t[1:]))

    def basis(lam):  # Lagrange basis on lam = 0, 1/2, 1, and the cubic vanishing there
        return np.stack([2.0 * (lam - 0.5) * (lam - 1.0), 4.0 * lam * (1.0 - lam),
                         lam * (2.0 * lam - 1.0), lam * (lam - 0.5) * (lam - 1.0)])

    piece = h * (hi - lo) / 6.0 * (basis(lo) + 4.0 * basis(0.5 * (lo + hi)) + basis(hi))
    w = np.zeros((n - 1, 4), dtype=complex)
    np.add.at(w, cell, (piece * v).T)
    return w.T


def _skew(buf: np.ndarray, first: int, shape: tuple, steps: tuple) -> np.ndarray:
    """Read-only view of buf with [i, j] at flat index first + i*steps[0] + j*steps[1]."""
    return as_strided(buf.reshape(-1)[first:], shape, [s * buf.itemsize for s in steps],
                      writeable=False)


def _characteristic_term(S: np.ndarray, w: np.ndarray, grid: Grid, j0: int) -> np.ndarray:
    """A(x,y) = int_{r0}^{y} v(r) [ C(x+y-r, r) - C(x-y+r, r) ] dr on all nodes.

    C(t, r), the cumulative integral of the bilinear kernel along the first
    coordinate (zero below -X, constant above X), fills `prefix`: row k+n-1
    holds it at s_k in column r_c (even columns) and at s_k + h/2 in column
    r_c + h/2 (odd columns).  The query t = x-+y+-r at r = r_c + lam h sits
    at s-index u -+ c -+ lam (u indexes x-+y), so g(0), g(1/2), g(1) of all
    (u, c) are skew views; cell integrals, summed over r in `acc`, too.

    `prefix` is built for _BLOCK cell columns c0..c1-1 at a time: node
    columns c0..c1 and midpoint columns c0..c1-1 over all 3n-2 padded rows,
    so the scratch beside `acc` and `out` is O(_BLOCK n).  The cumulative
    sum over r carries from block to block: accumulate adds in sequence, so
    the carry gives the bits of one cumsum over all cells.  Each family
    builds its blocks afresh, since `acc` serves both in turn.
    """
    n, h = grid.n, grid.h
    width = 2 * n - 1
    dtype = np.result_type(S, w)
    pw = 2 * _BLOCK + 1
    prefix = np.empty((3 * n - 2, pw), dtype=dtype)
    acc = np.empty((width, n), dtype=dtype)
    c = np.flatnonzero(w[3])  # split cells, where g3 = (h/2) twist enters
    twist = np.zeros((3 * n - 2, c.size), dtype=S.dtype)
    twist[n - 1:width - 1] = S[1:, c + 1] - S[:-1, c + 1] - S[1:, c] + S[:-1, c]
    out = np.zeros((n, n), dtype=dtype)
    # sgn = -1: t = x+y-r, the cell spans s-rows u-c-1 (lam = 1) to u-c; read at u = i+j.
    # sgn = +1: t = x-y+r, it spans u+c-n+1 (lam = 0) to u+c-n+2; read at u = i-j+n-1.
    for sgn, node_row, cell_row, first in ((-1, n - 1, n - 2, 0), (1, 0, 0, (n - 1) * n)):
        acc[:, 0] = 0.0
        for c0 in range(0, n - 1, _BLOCK):
            c1 = min(c0 + _BLOCK, n - 1)
            node, mid = prefix[:, 0:2 * (c1 - c0) + 1:2], prefix[:, 1:2 * (c1 - c0):2]
            node[:n] = 0.0
            np.cumsum(0.5 * h * (S[:-1, c0:c1 + 1] + S[1:, c0:c1 + 1]), axis=0,
                      out=node[n:width])
            node[width:] = node[width - 1]
            np.add(node[:, :-1], node[:, 1:], out=mid)
            mid *= 0.5
            left, right = slice(c0, c1), slice(c0 + 1, c1 + 1)
            mid[n - 1:width - 1] += h / 16 * (3 * (S[:-1, left] + S[:-1, right])
                                              + S[1:, left] + S[1:, right])
            steps = (pw, sgn * pw + 2)
            g_node = _skew(prefix, (node_row + sgn * c0) * pw, (width, c1 - c0 + 1), steps)
            g_mid = _skew(prefix, (cell_row + sgn * c0) * pw + 1, (width, c1 - c0), steps)
            cells = acc[:, c0 + 1:c1 + 1]
            np.multiply(g_mid, w[1, left], out=cells)
            cells += g_node[:, :-1] * w[0, left]
            cells += g_node[:, 1:] * w[2, left]
            k = np.flatnonzero((c0 <= c) & (c < c1))
            rows = np.arange(width)[:, None] + sgn * c[k] + cell_row
            cells[:, c[k] - c0] += 0.5 * h * w[3, c[k]] * twist[rows, k]
            if c0:
                cells[:, 0] += acc[:, c0]
            np.cumsum(cells, axis=1, out=cells)
        acc -= acc[:, [j0]]
        for r in range(0, n, _BLOCK):
            out[r:r + _BLOCK] -= sgn * _skew(acc, first + r * n, (min(_BLOCK, n - r), n),
                                             (n, 1 - sgn * n))
    return out


def _one_component(a: np.ndarray):
    """(part, phase) with a = phase * part, part a real view of a and phase 1 or 1j,
    when one component of a is zero throughout; (a, None) otherwise."""
    if not a.imag.any():
        return a.real, 1
    if not a.real.any():
        return a.imag, 1j
    return a, None


def _hermitian_image(S: np.ndarray, w: np.ndarray, grid: Grid, j0: int) -> np.ndarray:
    """Both characteristic terms of K on a Hermitian S, as T + T^dag.

    The second term is the first one evaluated on S^T = conj(S) with the
    conjugate weights, then transposed; the term is built from real
    operations, so that is conj(T)^T = T^dag bit for bit.

    When S and the weights each have one component, S = s_phase s and
    w = w_phase v with s, v real, the term is T = p t with p = s_phase
    w_phase in {1, i, -1} and t the term of s and v, computed in float64.
    The image is then t + t^T, i (t - t^T) or -(t + t^T), with the bits
    the complex arithmetic gives: every nonzero value is the same
    rounded product or sum, and every zero is +0.0.
    """
    s, s_phase = _one_component(S)
    v, w_phase = _one_component(w)
    if s_phase is None or w_phase is None:
        term = _characteristic_term(S, w, grid, j0)
        term += term.conj().T
        return term
    t = _characteristic_term(s, np.ascontiguousarray(v), grid, j0)
    out = np.zeros(S.shape, dtype=complex)
    phase = s_phase * w_phase
    if phase == 1j:
        np.subtract(t, t.T, out=out.imag)
    elif phase == 1:
        np.add(t, t.T, out=out.real)
    else:  # 0 - x, not -x, so that a zero sum stays +0.0
        np.subtract(0.0, t + t.T, out=out.real)
    return out


def apply_K_smooth(kernel: Kernel, pot: PotentialSpec, cfg: KConfig,
                   grid: Grid, stats: dict | None = None) -> Kernel:
    """Quadrature action of K on the smooth kernel part (segment potential).

    Singular parts of the input are ignored here; the dispatcher
    apply_K adds their closed-form images.  On a Hermitian input the
    second term of K is the adjoint of the first, so one characteristic
    term is computed and Hermiticity is preserved exactly; the exact
    test S == S^dag runs over row blocks, without a copy of S^dag.  Any
    other input is split as S = S_h + i S_a into the Hermitian parts
    S_h = (S + S^dag)/2 and S_a = (S - S^dag)/(2i), and K, being linear,
    gives K(S_h) + i K(S_a).  On the line, n of the 2n-1 characteristics
    of each family leave the grid square inside each of the n-1 cells;
    every such pair counts once per term.
    """
    check_box_grid(pot, grid)
    n, X, count = grid.n, grid.half_width, not pot.domain.is_box
    j0_hits = np.nonzero(np.abs(grid.nodes - cfg.r0) <= 1e-9 * max(1.0, X))[0]
    if len(j0_hits) == 0:
        raise ValueError(f"series base point r0={cfg.r0} must coincide with a grid node")
    j0, w, S = int(j0_hits[0]), _cell_weights(pot, grid), kernel.smooth
    if _conj_equal(S, S.T):
        out = _hermitian_image(S, w, grid, j0)
    else:
        adjoint = S.conj().T
        out = _hermitian_image(0.5 * (S + adjoint), w, grid, j0)
        out += 1j * _hermitian_image(-0.5j * (S - adjoint), w, grid, j0)
    out *= pot.constants.mass / pot.constants.hbar**2
    if not np.all(np.isfinite(out)):
        raise FloatingPointError("non-finite value in characteristic quadrature")
    if stats is not None:
        stats["truncated_evals"] = stats.get("truncated_evals", 0) + count * 4 * n * (n - 1)
    return Kernel(grid=grid, smooth=out)


class _SliceModel:
    """Piecewise-linear slice with one-sided limits at marked jump positions.

    Nodes lying on a marked position are dropped (they store midpoint
    averages); the one-sided limits there are rebuilt by linear
    extrapolation from the two nearest nodes on each side.
    """

    def __init__(self, nodes: np.ndarray, vals: np.ndarray, cuts):
        atol = 1e-9 * max(1.0, abs(float(nodes[-1])))
        cuts = np.sort(np.fromiter(cuts, dtype=float))
        cuts = cuts[(nodes[0] - atol < cuts) & (cuts < nodes[-1] + atol)]
        keep = np.all(np.abs(nodes[:, None] - cuts) > atol, axis=1)
        kn, kv = nodes[keep], vals[keep]
        m = len(kn)
        # the two nearest kept nodes below (row 0) and above (row 1) each cut,
        # as ascending index pairs (lo, lo + 1) with indices outside [0, m)
        # missing; a lone node gives its own value, none gives 0
        lo = np.stack([np.searchsorted(kn, cuts - atol) - 2,
                       np.searchsorted(kn, cuts + atol, side="right")])
        hi = lo + 1
        has_lo, has_hi = (lo >= 0) & (lo < m), (hi >= 0) & (hi < m)
        limits = np.zeros(lo.shape, dtype=np.result_type(vals, 1.0))
        limits[has_hi] = kv[hi[has_hi]]
        limits[has_lo] = kv[lo[has_lo]]
        both = has_lo & has_hi
        a, b, c = lo[both], hi[both], np.broadcast_to(cuts, lo.shape)[both]
        # numpy divides a complex array by a real one as a product with the
        # reciprocal, so that product gives real and complex slices equal bits
        limits[both] = kv[a] + (kv[b] - kv[a]) * (c - kn[a]) * (1.0 / (kn[b] - kn[a]))
        at = np.repeat(np.searchsorted(kn, cuts), 2)
        self.t = np.insert(kn, at, np.repeat(cuts, 2))
        self.w = np.insert(kv.astype(limits.dtype), at, limits.T.ravel())
        widths = np.diff(self.t)
        self.cum = np.zeros(len(self.t), dtype=limits.dtype)
        self.cum[1:] = np.cumsum(0.5 * (self.w[:-1] + self.w[1:]) * widths)

    def antiderivative(self, t) -> np.ndarray:
        t = np.asarray(t, dtype=float)
        tc = np.clip(t, self.t[0], self.t[-1])
        idx = np.clip(np.searchsorted(self.t, tc, side="right") - 1, 0, len(self.t) - 2)
        t0 = self.t[idx]
        width = self.t[idx + 1] - t0
        safe = np.where(width > 0.0, width, 1.0)
        f = np.where(width > 0.0, (tc - t0) / safe, 0.0)
        w0 = self.w[idx]
        val = w0 + f * (self.w[idx + 1] - w0)
        return self.cum[idx] + 0.5 * (w0 + val) * (tc - t0)


def apply_K_delta_rule(kernel: Kernel, pot: PotentialSpec, grid: Grid,
                       stats: dict | None = None, sup: float | None = None) -> Kernel:
    """Action of the point couplings i*zeta_n*delta(x - a_n) under K.

    For each coupling, with z_n = 2 m zeta_n / hbar^2:

        (iz_n/2) [ theta(y - a_n) int_{x-y+a_n}^{x+y-a_n} F(s, a_n) ds
                 - theta(x - a_n) int_{y-x+a_n}^{x+y-a_n} F(a_n, r) dr ]

    applied to identity, parity and smooth input parts: the first two
    analytically, the smooth part by exact integration of its slice
    models at y = a_n and x = a_n.

    The smooth part evaluates each slice antiderivative on the 2n - 1
    points diff_nodes -+ a_n only (four 1-D calls per coupling): node
    (i, j) reads x + y - a_n at index i + j and x - y + a_n (y - x + a_n)
    at index i - j + n - 1 (j - i + n - 1).  Clamped limits are counted on
    the same points, weighted by the number of grid nodes on each
    diagonal.  The antiderivatives are continuous, so where h is not
    dyadic and diff_nodes[i + j] differs from x_i + y_j by round-off the
    result moves by round-off only.  The singular-part steps are not
    continuous: a round-off shift flips their theta(0) = 1/2 ties on lines
    such as x + y = 2 a_n, so they are evaluated on x_i + y_j, x_i - y_j
    and y_j - x_i, formed from the node vectors for _BLOCK rows x at a
    time, coupling by coupling: no n x n mesh is built.

    A finite smooth part that is exactly real or exactly imaginary is
    sliced in float64, through a real view of it, without a copy.  The
    factor iz_n/2 is imaginary, so the image of a real part is added to
    the imaginary half of the result and that of an imaginary part,
    negated, to the real half.  Each coupling's image is formed in place,
    in the array of its first slice integral, so a coupling adds the two
    n x n slice integrals to the result and the input.

    sup is kernel.sup_smooth, when the caller has measured it already.
    """
    check_box_grid(pot, grid)
    n, h, half = grid.n, grid.h, grid.half_width
    nodes, diff = grid.nodes, grid.diff_nodes
    out = np.zeros((n, n), dtype=complex)
    c0 = pot.constants.c0
    tol = 1e-9 * max(1.0, half)
    clamped = 0
    count = not pot.domain.is_box
    locations = [a for a, _ in pot.deltas]
    if sup is None:
        sup = kernel.sup_smooth
    S, phase = kernel.smooth, None
    if sup > 0.0 and np.isfinite(sup):  # complex arithmetic turns inf into nan
        S, phase = _one_component(S)
    singular = kernel.c_diag != 0.0 or kernel.c_anti != 0.0
    # grid nodes on the diagonal u = i + j, and on u = i - j + n - 1
    multiplicity = np.minimum(np.arange(1, 2 * n), np.arange(2 * n - 1, 0, -1))
    for a, zeta in pot.deltas:
        if abs(a) > half + tol:
            raise ValueError(f"delta location {a} lies outside the grid")
        z = c0 * zeta
        for r in range(0, n if singular else 0, _BLOCK):
            X, block = nodes[r:r + _BLOCK, None], out[r:r + _BLOCK]
            x_plus_y = X + nodes
            if kernel.c_diag != 0.0:
                block += kernel.c_diag * (0.5j * z) * unit_step(x_plus_y - 2.0 * a) \
                    * np.sign(nodes - X)
            if kernel.c_anti != 0.0:
                step_x_plus_y = unit_step(x_plus_y)
                block += kernel.c_anti * (0.5j * z) * (
                    unit_step(nodes - a) * (step_x_plus_y - unit_step(X - nodes + 2.0 * a))
                    - unit_step(X - a) * (step_x_plus_y - unit_step(nodes - X + 2.0 * a)))
        if sup > 0.0:
            pos = np.clip((a + half) / h, 0.0, n - 1.0)
            ja = int(min(int(pos), n - 2))
            lam = pos - ja
            col = (1.0 - lam) * S[:, ja] + lam * S[:, ja + 1]
            row = (1.0 - lam) * S[ja, :] + lam * S[ja + 1, :]
            # jump lines of earlier iterates cross this slice at the coupling
            # locations and at their reflections through x + y = 2 a_m
            cuts = set(locations) | {2.0 * b - a for b in locations}
            col_model = _SliceModel(nodes, col, cuts)
            row_model = _SliceModel(nodes, row, cuts)
            t_sum, t_dif = diff - a, diff + a
            if count:
                clamped += int(multiplicity @ (np.abs(t_sum) > half + tol))
                clamped += 2 * int(multiplicity @ (np.abs(t_dif) > half + tol))
            col_sum = col_model.antiderivative(t_sum)
            col_dif = col_model.antiderivative(t_dif)
            row_sum = row_model.antiderivative(t_sum)
            row_dif = row_model.antiderivative(t_dif)
            # image = step(y) I1 - step(x) I2, scaled, formed in I1's array
            image = _skew(col_sum, 0, (n, n), (1, 1)) - _skew(col_dif, n - 1, (n, n), (1, -1))
            I2 = _skew(row_sum, 0, (n, n), (1, 1)) - _skew(row_dif, n - 1, (n, n), (-1, 1))
            step = unit_step(nodes - a)
            image *= step
            I2 *= step[:, None]
            image -= I2
            del I2
            image *= 0.5j * z if phase is None else 0.5 * z
            if phase is None:
                out += image
            elif phase == 1:  # (iz/2) s lands in the imaginary part
                out.imag += image
            else:  # (iz/2) i s = -(z/2) s
                out.real -= image
    if stats is not None:
        stats["truncated_evals"] = stats.get("truncated_evals", 0) + clamped
    return Kernel(grid=grid, smooth=out)


def apply_K(kernel: Kernel, pot: PotentialSpec, cfg: KConfig, grid: Grid,
            stats: dict | None = None, sup: float | None = None) -> Kernel:
    """One application of K, dispatching singular and smooth input parts.

    The images of the parts are summed into a zeroed array, except that
    an image that is the only term is returned as it is: the smooth image
    under a segment-only potential, and the point-coupling image when the
    couplings are the whole potential.  sup is kernel.sup_smooth, when
    the caller has measured it already; otherwise it is taken here, once.

    Raises:
        ValueError: for a parity singular part under a segment
            potential (no closed-form rule exists for that channel).
    """
    check_box_grid(pot, grid)
    if pot.has_segments and kernel.c_anti != 0.0:
        raise ValueError("parity singular part is not supported under a segment potential")
    if sup is None:
        sup = kernel.sup_smooth
    # each image's zeros are +0.0 (see _hermitian_image; the slice rule sums
    # from +0.0), as zeros + image leaves them
    if pot.has_segments and kernel.c_diag == 0.0 and not pot.has_deltas and sup > 0.0:
        return apply_K_smooth(kernel, pot, cfg, grid, stats)
    if pot.has_deltas and not pot.has_segments:
        return apply_K_delta_rule(kernel, pot, grid, stats, sup)
    out = np.zeros((grid.n, grid.n), dtype=complex)
    if pot.has_segments:
        if kernel.c_diag != 0.0:
            image = apply_K_to_identity(pot, grid, cfg).smooth
            out += np.multiply(kernel.c_diag, image, out=image)
            del image
        if sup > 0.0:
            out += apply_K_smooth(kernel, pot, cfg, grid, stats).smooth
    if pot.has_deltas:
        out += apply_K_delta_rule(kernel, pot, grid, stats, sup).smooth
    return Kernel(grid=grid, smooth=out)


def neumann_series(seed: SeedPair, pot: PotentialSpec, cfg: KConfig,
                   grid: Grid, sink=None) -> SeriesState:
    """Iterate K from a seed kernel and accumulate the series solution.

    Each iterate K^l u goes to sink(l, iterate) as soon as it exists, in
    order from l = 0, and the series keeps only the current iterate, the
    partial sum and the sup norms.  With no sink the iterates are kept in
    the returned state's `iterates`.  An iterate joins the partial sum
    once the next one exists, just before it is dropped, and the seed u
    joins with K u: the sum is formed then as np.add(u, 0.0), which has
    the bits of zeros + u, so no sum is held while the first two
    applications of K run.  The iterates are added in order.

    Stops after max_order applications or when the latest iterate's sup
    norm drops below stop_tol.  Divergence (three consecutive sup-norm
    increases ending above ten times the order-1 norm) sets a flag on
    the returned state; the computation is still returned.
    """
    iterates: list = []
    if sink is None:
        sink = lambda order, kernel: iterates.append(kernel)
    k = seed_kernel = seed_to_kernel(seed, grid)
    sup_norms = [k.sup_smooth]
    sink(0, k)
    c_diag, c_anti, smooth = 0 + k.c_diag, 0 + k.c_anti, None
    stats: dict = {}
    if pot.has_segments or pot.has_deltas:
        for order in range(1, cfg.max_order + 1):
            nxt = apply_K(k, pot, cfg, grid, stats, sup_norms[-1])
            if k is not seed_kernel:
                if smooth is None:
                    smooth, seed_kernel = np.add(seed_kernel.smooth, 0.0), None
                smooth += k.smooth
            k = nxt
            sup_norms.append(k.sup_smooth)
            c_diag += k.c_diag
            c_anti += k.c_anti
            sink(order, k)
            if sup_norms[-1] < cfg.stop_tol:
                break
    if smooth is None:
        smooth = np.add(seed_kernel.smooth, 0.0)
    if k is not seed_kernel:
        smooth += k.smooth
    partial = Kernel(grid=grid, c_diag=c_diag, c_anti=c_anti, smooth=smooth)
    diverged = (len(sup_norms) >= 4
                and sup_norms[-1] > sup_norms[-2] > sup_norms[-3] > sup_norms[-4]
                and sup_norms[-1] > 10.0 * sup_norms[1])
    return SeriesState(iterates=iterates, partial_sum=partial, sup_norms=sup_norms,
                       diverged=diverged,
                       truncated_evals=stats.get("truncated_evals", 0))


def convergence_bound(pot: PotentialSpec, grid: Grid, ell: int) -> np.ndarray:
    """Pointwise bound |z|^l (|x-a| + |y-a|)^(l-1) / 2 on the l-th iterate.

    Valid for a single point coupling acting on the identity seed.
    """
    if len(pot.deltas) != 1:
        raise ValueError("the iterate bound is available for a single point coupling only")
    if pot.has_segments:
        raise ValueError("the iterate bound is available for a pure point coupling only")
    if ell < 1:
        raise ValueError(f"iterate order must be at least 1, got {ell}")
    a, zeta = pot.deltas[0]
    z = pot.constants.c0 * zeta
    X, Y = grid.mesh()
    return 0.5 * np.abs(z) ** ell * (np.abs(X - a) + np.abs(Y - a)) ** (ell - 1)
