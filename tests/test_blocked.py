"""The blocked characteristic term, K on the identity, the seed kernel and
the singular part of the slice rule against whole-array references, and
the peak memory of the whole compute path.

The references are the whole-array forms these functions had before they
ran over blocks; the blocked forms must give the same bits on every path.
The blocked PGM writer has its whole-array reference in test_kernels.
"""

import numpy as np
import pytest

from qmetric import kernels, series
from qmetric.cli import main
from qmetric.closed_forms import preset_seed
from qmetric.kernels import (
    Grid,
    Kernel,
    SeedPair,
    identity_kernel,
    parity_kernel,
    seed_reality_defect,
    seed_to_kernel,
    smooth_kernel,
)
from qmetric.potentials import (
    Domain,
    PotentialSpec,
    constants_preset,
    delta_potential,
    scattering_potential,
    square_well,
    unit_step,
)
from qmetric.series import (
    KConfig,
    _characteristic_term,
    _one_component,
    _skew,
    _SliceModel,
    apply_K,
    apply_K_delta_rule,
    apply_K_smooth,
    apply_K_to_identity,
)

BT = constants_preset("bender-tan")
CFG = KConfig()


# --------------------------------------------------------------------------
# Whole-array references


def reference_characteristic_term(S, w, grid, j0):
    n, h = grid.n, grid.h
    width = 2 * n - 1
    dtype = np.result_type(S, w)
    prefix = np.empty((3 * n - 2, width), dtype=dtype)
    acc = np.empty((width, n), dtype=dtype)
    node, mid = prefix[:, 0::2], prefix[:, 1::2]
    node[:n] = 0.0
    np.cumsum(0.5 * h * (S[:-1] + S[1:]), axis=0, out=node[n:width])
    node[width:] = node[width - 1]
    np.add(node[:, :-1], node[:, 1:], out=mid)
    mid *= 0.5
    mid[n - 1:width - 1] += h / 16 * (3 * (S[:-1, :-1] + S[:-1, 1:]) + S[1:, :-1] + S[1:, 1:])
    c = np.flatnonzero(w[3])
    twist = np.zeros((3 * n - 2, c.size), dtype=S.dtype)
    twist[n - 1:width - 1] = S[1:, c + 1] - S[:-1, c + 1] - S[1:, c] + S[:-1, c]
    out = np.zeros((n, n), dtype=dtype)
    cells = acc[:, 1:]
    for sgn, node_row, cell_row, first in ((-1, n - 1, n - 2, 0), (1, 0, 0, (n - 1) * n)):
        steps = (width, sgn * width + 2)
        g_node = _skew(prefix, node_row * width, (width, n), steps)
        g_mid = _skew(prefix, cell_row * width + 1, (width, n - 1), steps)
        np.multiply(g_mid, w[1], out=cells)
        cells += g_node[:, :-1] * w[0]
        cells += g_node[:, 1:] * w[2]
        rows = np.arange(width)[:, None] + sgn * c + cell_row
        cells[:, c] += 0.5 * h * w[3, c] * twist[rows, np.arange(c.size)]
        acc[:, 0] = 0.0
        np.cumsum(cells, axis=1, out=cells)
        acc -= acc[:, [j0]]
        out -= sgn * _skew(acc, first, (n, n), (n, 1 - sgn * n))
    return out


def reference_apply_K_to_identity(pot, grid, cfg=None):
    r0 = 0.0 if cfg is None else cfg.r0
    X, Y = grid.mesh()
    pref = series._segment_prefix(pot, 0.5 * (X + Y))
    base = series._segment_prefix(pot, np.asarray(r0))
    c = pot.constants.mass / pot.constants.hbar**2
    smooth = c * ((pref.real - base.real)
                  + 1j * np.sign(Y - X) * (pref.imag - base.imag))
    return Kernel(grid=grid, smooth=smooth)


def reference_seed_to_kernel(seed, grid):
    defect = seed_reality_defect(seed, grid)
    if not defect <= 1e-12:
        raise ValueError(
            f"seed violates reality constraints: max violation {defect:.3e} > 1.0e-12"
        )
    X, Y = grid.mesh()
    smooth = np.asarray(seed.u_plus(X - Y), dtype=complex) \
        + np.asarray(seed.u_minus(X + Y), dtype=complex)
    return Kernel(grid=grid, c_diag=1.0, smooth=smooth)


def reference_apply_K_delta_rule(kernel, pot, grid, stats=None, sup=None):
    # the singular parts' steps on n x n meshes, built once per call
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
    if sup > 0.0 and np.isfinite(sup):
        S, phase = _one_component(S)
    if kernel.c_diag != 0.0 or kernel.c_anti != 0.0:
        X, Y = grid.mesh()
        x_plus_y, x_minus_y, y_minus_x = X + Y, X - Y, Y - X
        sign_y_minus_x, step_x_plus_y = np.sign(y_minus_x), unit_step(x_plus_y)
    multiplicity = np.minimum(np.arange(1, 2 * n), np.arange(2 * n - 1, 0, -1))
    for a, zeta in pot.deltas:
        z = c0 * zeta
        if kernel.c_diag != 0.0:
            out += kernel.c_diag * (0.5j * z) * unit_step(x_plus_y - 2.0 * a) * sign_y_minus_x
        if kernel.c_anti != 0.0:
            out += kernel.c_anti * (0.5j * z) * (
                unit_step(Y - a) * (step_x_plus_y - unit_step(x_minus_y + 2.0 * a))
                - unit_step(X - a) * (step_x_plus_y - unit_step(y_minus_x + 2.0 * a)))
        if sup > 0.0:
            pos = np.clip((a + half) / h, 0.0, n - 1.0)
            ja = int(min(int(pos), n - 2))
            lam = pos - ja
            col = (1.0 - lam) * S[:, ja] + lam * S[:, ja + 1]
            row = (1.0 - lam) * S[ja, :] + lam * S[ja + 1, :]
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
            image = _skew(col_sum, 0, (n, n), (1, 1)) - _skew(col_dif, n - 1, (n, n), (1, -1))
            I2 = _skew(row_sum, 0, (n, n), (1, 1)) - _skew(row_dif, n - 1, (n, n), (-1, 1))
            step = unit_step(nodes - a)
            image *= step
            I2 *= step[:, None]
            image -= I2
            image *= 0.5j * z if phase is None else 0.5 * z
            if phase is None:
                out += image
            elif phase == 1:
                out.imag += image
            else:
                out.real -= image
    if stats is not None:
        stats["truncated_evals"] = stats.get("truncated_evals", 0) + clamped
    return Kernel(grid=grid, smooth=out)


# --------------------------------------------------------------------------
# Cases


def split_cell_well(n):
    """A well whose walls lie between nodes: split cells and a twist."""
    segments = (((-1.0, -0.3), 0.0), ((-0.3, 0.7), 0.35j), ((0.7, 1.0), 0.0))
    return PotentialSpec(constants=BT, domain=Domain.box(2.0), segments=segments), \
        Grid(half_width=1.0, n=n)


def well(n):
    return square_well(0.092467, np.pi, BT), Grid.for_box(np.pi, n)


def scattering(n):
    return scattering_potential(0.1, 1.0, constants_preset("natural")), Grid(2.0, n)


CASES = {"well": well, "scattering": scattering, "split-cell": split_cell_well}
# n - 1 a multiple of the block, one block exactly, and a ragged last block
SIZES = (65, kernels._BLOCK + 1, 2 * kernels._BLOCK + 19)


def hermitian_inputs(grid):
    rng = np.random.default_rng(grid.n)
    raw = rng.standard_normal((grid.n, grid.n)) + 1j * rng.standard_normal((grid.n, grid.n))
    real = raw.real + raw.real.T
    return {"real": real + 0j, "imaginary": 1j * real, "complex": raw + raw.conj().T,
            "general": raw}


@pytest.mark.parametrize("n", SIZES)
@pytest.mark.parametrize("case", sorted(CASES))
def test_characteristic_term_bits(case, n):
    pot, grid = CASES[case](n)
    w = series._cell_weights(pot, grid)
    assert case != "split-cell" or w[3].any()
    image = apply_K_to_identity(pot, grid, CFG).smooth
    # the float64 path on a strided real view and on a copy, and the complex path
    inputs = ((image.imag, w.imag), (np.ascontiguousarray(image.imag), w.imag.copy()),
              (image, w), (hermitian_inputs(grid)["complex"], w))
    for j0 in ((n - 1) // 2, 3):  # r0 at the centre, and off it
        for S, weights in inputs:
            got = _characteristic_term(S, weights, grid, j0)
            assert got.tobytes() == reference_characteristic_term(S, weights, grid, j0).tobytes()


@pytest.mark.parametrize("n", SIZES)
@pytest.mark.parametrize("case", sorted(CASES))
def test_apply_K_smooth_bits(case, n, monkeypatch):
    pot, grid = CASES[case](n)
    inputs = hermitian_inputs(grid)
    inputs["iterate"] = apply_K_to_identity(pot, grid, CFG).smooth
    got = {}
    for name, S in inputs.items():
        stats = {}
        got[name] = (apply_K_smooth(smooth_kernel(grid, S), pot, CFG, grid, stats).smooth,
                     stats)
    monkeypatch.setattr(series, "_characteristic_term", reference_characteristic_term)
    for name, S in inputs.items():
        stats = {}
        ref = apply_K_smooth(smooth_kernel(grid, S), pot, CFG, grid, stats).smooth
        assert got[name][0].tobytes() == ref.tobytes(), name
        assert got[name][1] == stats == {
            "truncated_evals": (not pot.domain.is_box) * 4 * n * (n - 1)}


@pytest.mark.parametrize("n", SIZES)
@pytest.mark.parametrize("case", sorted(CASES))
def test_apply_K_to_identity_bits(case, n):
    pot, grid = CASES[case](n)
    for cfg in (CFG, KConfig(r0=float(grid.nodes[3]))):
        got = apply_K_to_identity(pot, grid, cfg).smooth
        assert got.tobytes() == reference_apply_K_to_identity(pot, grid, cfg).smooth.tobytes()


def test_apply_K_identity_channel_bits():
    # the identity image is scaled in its own array, as c_diag * image would be
    pot, grid = split_cell_well(83)
    k = Kernel(grid=grid, c_diag=0.3 - 0.7j, smooth=hermitian_inputs(grid)["complex"])
    ref = np.zeros((grid.n, grid.n), dtype=complex)
    ref += k.c_diag * reference_apply_K_to_identity(pot, grid, CFG).smooth
    ref += apply_K_smooth(k, pot, CFG, grid).smooth
    assert apply_K(k, pot, CFG, grid).smooth.tobytes() == ref.tobytes()


def _signed_zero(t):
    # -0.0 + -0.0 is the only sum that keeps the sign: u_plus is -0.0 everywhere
    # and u_minus on x + y < -2.5, the first rows of the pi box only
    return np.where(np.asarray(t) < -2.5, complex(-0.0, -0.0), 0j)


def _nan_corner(t):
    return np.where(np.asarray(t) > 2.9, complex(np.nan, 0.0), 0j)


def seeds():
    x = np.linspace(-4.0, 4.0, 161)
    return {
        "zero": SeedPair.zero(),
        "zero-preset": preset_seed("zero", 0.1, np.pi, BT),
        "bender-tan": preset_seed("bender-tan", 0.1, np.pi, BT),
        "jmp-2005": preset_seed("jmp-2005", 0.1, np.pi, BT),
        "tabulated": SeedPair.from_table(x, np.exp(-x**2) + 0.3j * x * np.exp(-x**2),
                                         0.2 * np.cos(x)),
        "negative-zero": SeedPair(lambda t: np.full(np.shape(t), complex(-0.0, -0.0)),
                                  _signed_zero),
        "nan": SeedPair(lambda t: np.zeros(np.shape(t), complex), _nan_corner),
    }


@pytest.mark.parametrize("n", SIZES)
@pytest.mark.parametrize("name", sorted(seeds()))
def test_seed_kernel_bits(name, n):
    seed, grid = seeds()[name], Grid.for_box(np.pi, n)
    if name == "nan":  # a NaN value fails the reality constraints
        with pytest.raises(ValueError, match="max violation nan"):
            reference_seed_to_kernel(seed, grid)
        with pytest.raises(ValueError, match="max violation nan"):
            seed_to_kernel(seed, grid)
        return
    got = seed_to_kernel(seed, grid)
    ref = reference_seed_to_kernel(seed, grid)
    assert (got.c_diag, got.c_anti) == (ref.c_diag, ref.c_anti) == (1.0, 0.0)
    assert got.smooth.tobytes() == ref.smooth.tobytes()
    if name == "negative-zero":  # -0.0 on some rows only, kept there
        signs = np.signbit(got.smooth.real).any(axis=1)
        assert signs[0] and not signs.all()


@pytest.mark.parametrize("bad, message", [
    (SeedPair(u_plus=lambda t: np.exp(-t**2) * (1 + 0.01j),
              u_minus=lambda t: np.zeros_like(t, dtype=complex)),
     "seed violates reality constraints"),
    # profiles that ignore their argument's shape are not broadcast
    (SeedPair(u_plus=lambda t: 0j, u_minus=lambda t: 0j), "smooth part must have shape"),
], ids=["reality", "scalar"])
def test_seed_errors_are_unchanged(bad, message):
    grid = Grid.for_box(np.pi, 65)
    with pytest.raises(ValueError) as ref:
        reference_seed_to_kernel(bad, grid)
    with pytest.raises(ValueError) as got:
        seed_to_kernel(bad, grid)
    assert str(got.value) == str(ref.value)
    assert str(got.value).startswith(message)


def couplings(n):
    terms = [(-0.9375, 0.51632), (-0.75, 0.778181), (0.25, 0.852212)]
    return delta_potential(terms, constants_preset("natural")), Grid(2.0, n)


@pytest.mark.parametrize("n", [33, 65, 101])  # 101: h is not dyadic
@pytest.mark.parametrize("smooth", [False, True], ids=["singular_only", "with_smooth"])
@pytest.mark.parametrize("c_diag, c_anti", [(1.0, 0.0), (0.0, 1.0), (0.7 - 0.2j, -0.4 + 0.9j)],
                         ids=["c_diag", "c_anti", "both"])
def test_singular_image_bits(c_diag, c_anti, smooth, n):
    # the blocked steps give the mesh steps' bits, with the smooth image of
    # each coupling added after its singular terms, as before
    three, grid = couplings(n)
    x = grid.nodes
    part = np.exp(-np.subtract.outer(x, x)**2) * 0.3j if smooth else None
    k = Kernel(grid=grid, c_diag=c_diag, c_anti=c_anti, smooth=part)
    # and two couplings off the nodes, where the steps meet theta(0) ties
    for pot in (three, delta_potential([(0.1, 0.4), (0.55, -0.3)], BT)):
        got_stats, ref_stats = {}, {}
        got = apply_K_delta_rule(k, pot, grid, got_stats).smooth
        ref = reference_apply_K_delta_rule(k, pot, grid, ref_stats).smooth
        assert got.tobytes() == ref.tobytes()
        assert got_stats == ref_stats


@pytest.mark.parametrize("n", SIZES)
def test_coupling_image_is_the_slice_rule_image(n):
    # apply_K returns the slice rule's own array, as zeros + image: every bit,
    # the sign of each zero included
    pot, grid = couplings(n)
    x = grid.nodes
    inputs = {"identity": identity_kernel(grid), "parity": parity_kernel(grid),
              "smooth": smooth_kernel(grid, np.exp(-np.subtract.outer(x, x)**2)
                                      * (1.0 + 0.2j * np.sign(np.subtract.outer(x, x))))}
    inputs["iterate"] = apply_K(inputs["identity"], pot, CFG, grid)
    for name, k in inputs.items():
        got_stats, ref_stats = {}, {}
        got = apply_K(k, pot, CFG, grid, got_stats).smooth
        ref = np.zeros((grid.n, grid.n), dtype=complex)
        ref += apply_K_delta_rule(k, pot, grid, ref_stats).smooth
        assert got.tobytes() == ref.tobytes(), name
        assert got_stats == ref_stats, name
        assert (got == 0.0).any(), name


# --------------------------------------------------------------------------
# Memory of the whole compute path, in units of one complex n x n array


@pytest.mark.parametrize("name", ["zero", "bender-tan"])
def test_seed_kernel_peak_memory(name, traced_peak):
    # the kernel's array and block temporaries; the n x n meshes are gone
    n = 513
    seed, grid = seeds()[name], Grid.for_box(np.pi, n)
    assert traced_peak(lambda: seed_to_kernel(seed, grid)) / (16 * n * n) < 1.5


def test_coupling_image_peak_memory(traced_peak):
    # the result and the one-component slice integrals; no zeroed copy beside them
    n = 513
    pot, grid = couplings(n)
    iterate = apply_K(identity_kernel(grid), pot, CFG, grid)
    assert traced_peak(lambda: apply_K(iterate, pot, CFG, grid)) / (16 * n * n) < 2.5


def test_coupling_identity_image_peak_memory(traced_peak):
    # the result and O(32 n) block scratch: no n x n mesh (6.1-7.1 units before)
    n = 513
    pot, grid = couplings(n)
    k = identity_kernel(grid)
    assert traced_peak(lambda: apply_K(k, pot, CFG, grid)) / (16 * n * n) < 1.5


def _well_compute(out, n=513, order=4):
    return ["compute", "--model", "square-well", "--zeta", "0.092467", "--n", str(n),
            "--order", str(order), "--out", str(out)]


def test_compute_peak_is_the_kept_kernels(tmp_path, traced_peak):
    # the current iterate and the partial sum, and K's scratch: the
    # characteristic term's cell sums and its image, about two units.  The
    # writers run in forked children, so nothing here grows with the order:
    # 4.0 units at orders 2 to 6 (9.0 at order 6 when every iterate was
    # kept).  tracemalloc counts the zero seed's array as allocated until
    # the partial sum is, though no page of it is ever written.
    n, order = 513, 6
    peak = traced_peak(lambda: main(_well_compute(tmp_path, n, order)))
    assert peak / (16 * n * n) < 4.5
    assert (tmp_path / f"iter_{order}.csv").exists()


def test_compute_resident_peak(tmp_path, resident_peak):
    # the same run in a fresh process, its forked writers included, above
    # the import alone: the current iterate, the partial sum, K's scratch
    # and the writers' buffers, 4.9 units (6.5 when every iterate was kept).
    # The zero seed's array is never touched, so it adds nothing resident.
    n = 513
    base = resident_peak()
    peak = resident_peak(_well_compute(tmp_path, n))
    assert (peak - base) / (16 * n * n) < 5.4
    assert (tmp_path / "iter_4.csv").exists()


def test_compute_resident_peak_does_not_grow_with_order(tmp_path, resident_peak):
    # one unit more per order when every iterate was kept (order 8 less
    # order 4: 3.0 units); each iterate now goes to its writer as it
    # appears.  Orders 2 and 3 hold less (3.6 and 4.2 units against 4.9):
    # the sum is formed only once the second application of K has
    # returned, and order 4 is the first whose K takes the real-image
    # branch of the characteristic term, with its half-unit temporary,
    # while the sum is held.
    n = 513
    low = resident_peak(_well_compute(tmp_path / "low", n, 4))
    high = resident_peak(_well_compute(tmp_path / "high", n, 8))
    assert (high - low) / (16 * n * n) < 0.5


def test_coupling_compute_resident_peak(tmp_path, resident_peak):
    # three couplings at order 6, as the deltas-series benchmark runs them:
    # 8.5 units above the import when every iterate was kept and K on the
    # identity built n x n meshes, 4.5 units now
    n = 513
    base = resident_peak()
    peak = resident_peak(["compute", "--model", "deltas", "--deltas",
                          "0.51632:-0.9375,0.778181:-0.75,0.852212:0.25", "--extent", "2",
                          "--n", str(n), "--order", "6", "--out", str(tmp_path)])
    assert (peak - base) / (16 * n * n) < 5.0
    assert (tmp_path / "iter_6.csv").exists()
