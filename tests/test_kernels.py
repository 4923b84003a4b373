import io
import os

import numpy as np
import pytest

from qmetric import kernels
from qmetric.kernels import (
    FLOAT_FMT,
    ForkedWriter,
    Grid,
    Kernel,
    SeedPair,
    hermiticity_defect,
    identity_kernel,
    invert_operator_form,
    kernel_from_csv,
    kernel_to_csv,
    kernel_to_pgm,
    operator_form_free,
    parity_kernel,
    seed_reality_defect,
    seed_to_kernel,
    smooth_kernel,
)


def gaussian_seed():
    # u_plus(x)* = u_plus(-x): even real part, odd imaginary part
    up = lambda x: np.exp(-x**2) * (1.0 + 1j * np.sin(3.0 * x))
    um = lambda x: np.exp(-(x - 1.0) ** 2) + np.exp(-(x + 1.0) ** 2)
    return SeedPair(u_plus=up, u_minus=um, label="gaussian")


def test_grid_validation():
    with pytest.raises(ValueError):
        Grid(half_width=-1.0, n=33)
    with pytest.raises(ValueError):
        Grid(half_width=1.0, n=31)
    with pytest.raises(ValueError):
        Grid(half_width=1.0, n=34)


@pytest.mark.parametrize("half_width", [np.inf, -np.inf, np.nan, 1e308],
                         ids=["inf", "minus_inf", "nan", "overflowing_box"])
def test_grid_rejects_non_finite_half_width(half_width):
    # 2 half_width = inf for 1e308 would give h = inf and nan nodes
    with pytest.raises(ValueError, match="half_width must be positive and finite"):
        Grid(half_width=half_width, n=33)

def test_grid_geometry():
    g = Grid(half_width=2.0, n=33)
    assert g.h == pytest.approx(4.0 / 32)
    assert g.nodes[0] == -2.0 and g.nodes[-1] == 2.0
    assert g.nodes[16] == 0.0
    d = g.diff_nodes
    assert len(d) == 65 and d[0] == -4.0 and d[-1] == 4.0
    np.testing.assert_allclose(np.diff(d), g.h)
    gb = Grid.for_box(L=np.pi, n=65)
    assert gb.half_width == pytest.approx(np.pi / 2)


@pytest.mark.parametrize("half_width", [np.pi / 2, 2.0])
def test_grid_middle_node_is_zero(half_width):
    # linspace alone misses 0 by an ulp at 121 of these n on the pi box (51, 83, 101, ...)
    # and at 91 on half-width 2 (99, 197, 207, ...)
    for n in range(33, 2050, 2):
        g = Grid(half_width=half_width, n=n)
        assert g.nodes[n // 2] == 0.0 and g.diff_nodes[n - 1] == 0.0, n


def test_mesh_orientation():
    g = Grid(half_width=1.0, n=33)
    X, Y = g.mesh()
    assert X[3, 7] == g.nodes[3]
    assert Y[3, 7] == g.nodes[7]


def test_kernel_defaults_and_shape_check():
    g = Grid(half_width=1.0, n=33)
    k = Kernel(grid=g, c_diag=2.0)
    assert k.smooth.shape == (33, 33)
    assert k.sup_smooth == 0.0
    assert identity_kernel(g).c_diag == 1.0
    assert parity_kernel(g).c_anti == 1.0
    with pytest.raises(ValueError, match="shape"):
        Kernel(grid=g, smooth=np.zeros((5, 5)))


def test_seed_reality_defect_valid_seed():
    g = Grid(half_width=2.0, n=33)
    assert seed_reality_defect(gaussian_seed(), g) < 1e-14
    assert seed_reality_defect(SeedPair.zero(), g) == 0.0


def test_seed_to_kernel_rejects_bad_seed():
    g = Grid(half_width=2.0, n=33)
    bad = SeedPair(u_plus=lambda x: np.exp(-x**2) * (1 + 0.01j),
                   u_minus=lambda x: np.zeros_like(x, dtype=complex))
    with pytest.raises(ValueError, match="max violation"):
        seed_to_kernel(bad, g)
    bad_minus = SeedPair(u_plus=lambda x: np.zeros_like(x, dtype=complex),
                         u_minus=lambda x: 1j * np.ones_like(x))
    with pytest.raises(ValueError, match="max violation"):
        seed_to_kernel(bad_minus, g)


@pytest.mark.parametrize("value", [np.nan, np.inf, complex(0.0, -np.inf)],
                         ids=["nan", "inf", "imag_inf"])
def test_seed_to_kernel_rejects_non_finite_seed(value):
    # a non-finite value makes the reality defect NaN, which no bound admits
    g = Grid(half_width=2.0, n=33)
    bad = SeedPair(u_plus=lambda t: np.zeros(np.shape(t), complex),
                   u_minus=lambda t: np.where(np.abs(np.asarray(t)) < 0.5, value, 0j))
    with pytest.raises(ValueError, match="seed violates reality constraints"):
        seed_to_kernel(bad, g)


@pytest.mark.parametrize("x", [[1.0, 0.5, 0.0, -0.5, -1.0], [-1.0, 0.0, 0.0, 1.0],
                               [-1.0, np.nan, 1.0]], ids=["descending", "repeated", "nan"])
def test_tabulated_seed_needs_strictly_increasing_x(x):
    vals = np.square(x)
    with pytest.raises(ValueError, match="strictly increasing"):
        SeedPair.from_table(x, vals, np.zeros_like(vals))


def test_seed_to_kernel_structure():
    g = Grid(half_width=2.0, n=33)
    seed = gaussian_seed()
    k = seed_to_kernel(seed, g)
    assert k.c_diag == 1.0 and k.c_anti == 0.0
    i, j = 5, 20
    x, y = g.nodes[i], g.nodes[j]
    expected = seed.u_plus(np.array(x - y)) + seed.u_minus(np.array(x + y))
    np.testing.assert_allclose(k.smooth[i, j], expected)


def test_seed_kernel_is_hermitian():
    g = Grid(half_width=2.0, n=65)
    k = seed_to_kernel(gaussian_seed(), g)
    assert hermiticity_defect(k) < 1e-12


def test_hermiticity_defect_detects_violations():
    g = Grid(half_width=1.0, n=33)
    rng = np.random.default_rng(3)
    s = rng.standard_normal((33, 33)) + 1j * rng.standard_normal((33, 33))
    assert hermiticity_defect(smooth_kernel(g, s)) > 0.1
    assert hermiticity_defect(Kernel(grid=g, c_diag=1j)) == pytest.approx(1.0)
    assert hermiticity_defect(Kernel(grid=g, c_anti=2.0 - 0.5j)) == pytest.approx(0.5)
    # Hermitian combination passes
    herm = 0.5 * (s + np.conj(s).T)
    assert hermiticity_defect(smooth_kernel(g, herm)) < 1e-15


@pytest.mark.parametrize("row", [0, kernels._BLOCK + 3, 2 * kernels._BLOCK + 4],
                         ids=["first", "middle", "last_short"])
@pytest.mark.parametrize("value", [1e-12, np.nan], ids=["small", "nan"])
def test_blocked_conjugate_test_equals_array_equal(row, value):
    # 2 full blocks and a short one of 5 rows; a is exactly Hermitian and PT-symmetric
    m = 2 * kernels._BLOCK + 5
    rng = np.random.default_rng(7)
    a = rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))
    a += a.conj().T
    a = 0.5 * (a + np.flip(a).conj())
    diagonal = np.diagonal(a).copy()  # a PT-symmetric vector
    cases = [a, a.copy(), a[:, :-1], diagonal, diagonal.copy()]
    cases[1][row, (row + 7) % m] += value  # one defect, in the chosen block of rows
    cases[4][row] += value
    for b in cases:
        assert kernels._conj_equal(b, b.T) == np.array_equal(b, b.conj().T)
        assert kernels._conj_equal(b, np.flip(b)) == np.array_equal(b, np.flip(b).conj())
    assert kernels._conj_equal(a, a.T) and kernels._conj_equal(a, np.flip(a))
    assert kernels._conj_equal(diagonal, np.flip(diagonal))
    assert not kernels._conj_equal(cases[1], cases[1].T)
    assert not kernels._conj_equal(cases[1], np.flip(cases[1]))
    assert not kernels._conj_equal(cases[4], np.flip(cases[4]))


def test_tabulated_seed_interpolation():
    g = Grid(half_width=2.0, n=33)
    t = g.diff_nodes
    seed0 = gaussian_seed()
    tab = SeedPair.from_table(t, seed0.u_plus(t), seed0.u_minus(t))
    np.testing.assert_allclose(tab.u_plus(t), seed0.u_plus(t), atol=1e-15)
    np.testing.assert_allclose(tab.u_minus(t), seed0.u_minus(t), atol=1e-15)
    # midpoints of a linear interpolant are the nodal averages
    mid = 0.5 * (t[:-1] + t[1:])
    np.testing.assert_allclose(tab.u_plus(mid),
                               0.5 * (seed0.u_plus(t)[:-1] + seed0.u_plus(t)[1:]),
                               atol=1e-15)
    # outside the table the seed vanishes
    np.testing.assert_allclose(tab.u_plus(np.array([-10.0, 10.0])), 0.0)
    with pytest.raises(ValueError):
        SeedPair.from_table(t, seed0.u_plus(t)[:-1], seed0.u_minus(t))


def test_operator_form_gaussian_closed_form():
    # for u_plus(x) = exp(-x^2) the momentum profile is sqrt(pi) exp(-p^2/4)
    g = Grid(half_width=8.0, n=129)
    seed = SeedPair(u_plus=lambda x: np.exp(-x**2) + 0j,
                    u_minus=lambda x: (np.exp(-(x - 1.0) ** 2)
                                       + np.exp(-(x + 1.0) ** 2)))
    form = operator_form_free(seed, g, hbar=1.0)
    sel = np.abs(form.p) <= 5.0
    p = form.p[sel]
    np.testing.assert_allclose(form.L[sel], np.sqrt(np.pi) * np.exp(-p**2 / 4),
                               atol=1e-10)
    # the shifted pair transforms to 2 sqrt(pi) cos(p) exp(-p^2/4)
    np.testing.assert_allclose(form.K[sel],
                               2.0 * np.sqrt(np.pi) * np.cos(p) * np.exp(-p**2 / 4),
                               atol=1e-10)
    i0 = np.argmin(np.abs(form.p))
    assert form.p[i0] == 0.0
    assert form.L[i0] == pytest.approx(np.sqrt(np.pi), abs=1e-10)


def test_operator_form_matches_direct_sum():
    # independent slow transform at a few momenta, same sample set
    g = Grid(half_width=6.0, n=65)
    seed = gaussian_seed()
    form = operator_form_free(seed, g, hbar=1.0)
    t = g.diff_nodes
    dx = t[1] - t[0]
    up = seed.u_plus(t)
    um = seed.u_minus(t)
    for idx in [3, 40, 64, 90, 120]:
        k = form.p[idx]
        l_direct = dx * np.sum(np.exp(-1j * k * t) * up)
        k_direct = dx * np.sum(np.exp(+1j * k * t) * um)
        np.testing.assert_allclose(form.L[idx], l_direct, atol=1e-12)
        np.testing.assert_allclose(form.K[idx], k_direct, atol=1e-12)


def test_operator_form_L_real_for_valid_seed():
    rng = np.random.default_rng(17)
    g = Grid(half_width=3.0, n=49)
    t = g.diff_nodes
    m = len(t)
    for _ in range(10):
        even = rng.standard_normal(m)
        even = even + even[::-1]
        odd = rng.standard_normal(m)
        odd = odd - odd[::-1]
        up_vals = even + 1j * odd
        um_vals = rng.standard_normal(m).astype(complex)
        tab = SeedPair.from_table(t, up_vals, um_vals)
        form = operator_form_free(tab, g, hbar=0.7)
        assert np.max(np.abs(form.L.imag)) < 1e-12 * max(1.0, np.max(np.abs(form.L)))
        # K(p)* = K(-p)
        np.testing.assert_allclose(np.conj(form.K), form.K[::-1], atol=1e-12)


def test_operator_form_round_trip():
    g = Grid(half_width=8.0, n=129)
    seed = gaussian_seed()
    form = operator_form_free(seed, g, hbar=1.0)
    t, up, um = invert_operator_form(form, g)
    np.testing.assert_allclose(up, seed.u_plus(t), atol=1e-8)
    np.testing.assert_allclose(um, seed.u_minus(t), atol=1e-8)


def test_csv_round_trip(tmp_path):
    g = Grid(half_width=1.5, n=33)
    rng = np.random.default_rng(5)
    s = rng.standard_normal((33, 33)) + 1j * rng.standard_normal((33, 33))
    k = Kernel(grid=g, c_diag=1.0, c_anti=0.25 - 0.5j, smooth=s)
    path = tmp_path / "kernel.csv"
    kernel_to_csv(k, path)
    back = kernel_from_csv(path)
    assert back.grid == g
    assert back.c_diag == k.c_diag
    np.testing.assert_allclose(back.c_anti, k.c_anti, rtol=1e-11)
    np.testing.assert_allclose(back.smooth, k.smooth, rtol=1e-11, atol=1e-13)


def test_csv_round_trip_special_values(tmp_path):
    # re and im are read back as the two halves of one complex value, so inf,
    # nan and signed zeros survive in either part (re + 1j*im would turn
    # complex(1, inf) into nan+infj and complex(-0.0, 1) into 0.0+1j)
    specials = [np.inf, -np.inf, np.nan, 0.0, -0.0, 1.0]
    values = [complex(re, im) for re in specials for im in specials]
    g = Grid(half_width=1.0, n=33)
    s = np.ones(g.n * g.n, dtype=complex)
    s[:len(values)] = values
    path = tmp_path / "kernel.csv"
    kernel_to_csv(Kernel(grid=g, smooth=s.reshape(g.n, g.n)), path)
    back = kernel_from_csv(path).smooth.ravel().view(np.float64)
    sent = s.view(np.float64)
    assert np.array_equal(back, sent, equal_nan=True)
    assert np.array_equal(np.signbit(back), np.signbit(sent))


def test_csv_header_and_layout(tmp_path):
    g = Grid(half_width=1.0, n=33)
    k = identity_kernel(g)
    path = tmp_path / "kernel.csv"
    kernel_to_csv(k, path)
    lines = path.read_text().splitlines()
    assert lines[0].startswith("# c_diag_re,c_diag_im,")
    assert lines[1].startswith("# c_anti_re,c_anti_im,")
    assert lines[2].startswith("# half_width,n,")
    assert lines[3] == "x,y,re,im"
    assert len(lines) == 4 + 33 * 33
    # row-major: first data row is (x_0, y_0), second is (x_0, y_1)
    first = [float(v) for v in lines[4].split(",")]
    second = [float(v) for v in lines[5].split(",")]
    assert first[0] == -1.0 and first[1] == -1.0
    assert second[0] == -1.0 and second[1] == pytest.approx(g.nodes[1])


def test_csv_rejects_malformed(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("x,y,re,im\n0,0,1,0\n")
    with pytest.raises(ValueError, match="malformed"):
        kernel_from_csv(path)
    g = Grid(half_width=1.0, n=33)
    kernel_to_csv(identity_kernel(g), path)
    lines = path.read_text().splitlines()
    path.write_text("\n".join(lines[:100]) + "\n")
    with pytest.raises(ValueError):
        kernel_from_csv(path)


def _savetxt_reference(kernel, path):
    """The original writer: meshgrid x,y columns through np.savetxt."""
    g = kernel.grid
    X, Y = g.mesh()
    with open(path, "w") as f:
        f.write("# c_diag_re,c_diag_im," + FLOAT_FMT % kernel.c_diag.real + ","
                + FLOAT_FMT % kernel.c_diag.imag + "\n")
        f.write("# c_anti_re,c_anti_im," + FLOAT_FMT % kernel.c_anti.real + ","
                + FLOAT_FMT % kernel.c_anti.imag + "\n")
        f.write("# half_width,n," + FLOAT_FMT % g.half_width + ",%d\n" % g.n)
        f.write("x,y,re,im\n")
        cols = np.column_stack([X.ravel(), Y.ravel(),
                                kernel.smooth.real.ravel(), kernel.smooth.imag.ravel()])
        np.savetxt(f, cols, fmt=FLOAT_FMT, delimiter=",")


@pytest.mark.parametrize("layout", ["C", "transposed", "fortran"])
def test_csv_bytes_match_savetxt_reference(tmp_path, layout):
    g = Grid(half_width=1.3, n=35)
    rng = np.random.default_rng(11)
    s = rng.standard_normal((35, 35)) + 1j * rng.standard_normal((35, 35))
    s[0, :6] = [0.0, -0.0 - 0.0j, complex(5e-324, -2.5e-310),
                complex(1e300, -1e300), complex(1e-300, -1e-300), complex(np.nan, -np.inf)]
    s[1, :2] = [complex(np.inf, np.nan), complex(-0.0, 0.0)]
    smooth = {"C": s, "transposed": s.T, "fortran": np.asfortranarray(s)}[layout]
    k = Kernel(grid=g, c_diag=1.0, c_anti=complex(-0.0, 2.5e-7), smooth=smooth)
    assert k.smooth.flags.c_contiguous == (layout == "C")
    kernel_to_csv(k, tmp_path / "new.csv")
    _savetxt_reference(k, tmp_path / "ref.csv")
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()


def adversarial_values():
    """Values that stress FLOAT_FMT's correct rounding, ranges and special cases."""
    rng = np.random.default_rng(2718)
    sets = [
        # random bit patterns: subnormals, nan and inf included
        rng.integers(0, 2**64, 100_000, dtype=np.uint64).view(np.float64),
        # log-uniform magnitudes with random signs
        rng.choice([-1.0, 1.0], 60_000) * 10.0 ** rng.uniform(-300, 300, 60_000),
    ]
    # decimal 13-digit ties, as the nearest double, and both of its neighbours
    near = [float(f"{m}5e{k}") for m, k in zip(rng.integers(10**12, 10**13, 12_000),
                                               rng.integers(-250, 251, 12_000))]
    sets += [near, np.nextafter(near, np.inf), np.nextafter(near, -np.inf)]
    # exact ties: 14-digit integers ending in 5, scaled by powers of two
    odd = (rng.integers(10**12, 10**13, 4_000) * 10 + 5).astype(float)
    sets += [odd * s for s in (1.0, 0.5, 2.0**-20, -(2.0**3))]
    powers = np.array([float(f"1e{k}") for k in range(-300, 301)])
    sets += [powers, -powers, np.nextafter(powers, 0.0), np.nextafter(powers, np.inf)]
    # mantissas that carry into the next decade, and their neighbours
    carries = np.array([float(f"9.9999999999995e{k}") for k in range(-290, 291)]
                       + [float(f"9.99999999999949e{k}") for k in range(-290, 291)])
    sets += [carries, np.nextafter(carries, 0.0), np.nextafter(carries, np.inf)]
    sets.append([0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan, 5e-324, -5e-324,
                 2.2250738585072014e-308, 1.7976931348623157e308,
                 kernels._ARRAY_MIN, kernels._ARRAY_MAX,
                 np.nextafter(kernels._ARRAY_MIN, 0.0), np.nextafter(kernels._ARRAY_MAX, np.inf)])
    return np.concatenate([np.asarray(v, dtype=np.float64) for v in sets])


def test_array_formatter_matches_percent_format():
    values = adversarial_values()
    assert values.size >= 200_000
    chars = kernels._format_values(values)
    # one newline-terminated field per value, its NULs deleted, as one byte string
    lines = np.concatenate([chars, np.full((values.size, 1), ord("\n"), np.uint8)], axis=1)
    got = lines.tobytes().translate(None, b"\0").decode().splitlines()
    want = [FLOAT_FMT % float(v) for v in values]
    bad = [(v, g, w) for v, g, w in zip(values, got, want) if g != w]
    assert len(got) == len(want) and not bad, bad[:5]


@pytest.mark.parametrize("n", [3, kernels._BLOCK - 1, kernels._BLOCK,
                               kernels._BLOCK + 1],
                         ids=["n3", "below_block", "block", "above_block"])
def test_row_blocks_match_savetxt(n):
    rng = np.random.default_rng(n)
    nodes = np.linspace(-1.3, 1.3, n)
    values = rng.standard_normal((n, 2 * n)) * 10.0 ** rng.integers(-120, 120, (n, 1))
    values[0, :4] = [0.0, -0.0, np.nan, -np.inf]
    X, Y = np.meshgrid(nodes, nodes, indexing="ij")
    pairs = values.reshape(n, n, 2)
    ref = io.BytesIO()
    np.savetxt(ref, np.column_stack([X.ravel(), Y.ravel(), pairs[..., 0].ravel(),
                                     pairs[..., 1].ravel()]), fmt=FLOAT_FMT, delimiter=",")
    out = io.BytesIO()
    kernels._write_rows(out, nodes, values)
    assert out.getvalue() == ref.getvalue()


def one_component_kernels():
    """Kernels with a column that is zero in all, some or none of their 32-row blocks."""
    g = Grid(half_width=1.3, n=65)
    rng = np.random.default_rng(13)
    a, b = rng.standard_normal((2, g.n, g.n))
    negative_zero = np.zeros((g.n, g.n), dtype=complex)
    negative_zero[40, 7] = complex(0.0, -0.0)
    one_block = a + 1j * b
    one_block[kernels._BLOCK:2 * kernels._BLOCK].imag = 0.0
    # zero, then nonzero in the middle block only, then zero again
    outside_one_block = a + 0j
    outside_one_block[kernels._BLOCK:2 * kernels._BLOCK].imag = \
        b[kernels._BLOCK:2 * kernels._BLOCK]
    zero_re = np.zeros((g.n, g.n), dtype=complex)
    zero_re.imag = b  # 1j * b would give -0.0 real parts where b < 0
    return g, {
        "zero_re": zero_re,
        "zero_im": a + 0j,
        "all_zero": np.zeros((g.n, g.n), dtype=complex),
        "negative_zero": negative_zero,
        "zero_in_one_block": one_block,
        "zero_outside_one_block": outside_one_block,
    }


@pytest.mark.parametrize("case", ["zero_re", "zero_im", "all_zero", "negative_zero",
                                  "zero_in_one_block", "zero_outside_one_block"])
def test_csv_zero_columns_match_savetxt(tmp_path, case):
    g, smooth = one_component_kernels()
    k = Kernel(grid=g, c_diag=1.0, smooth=smooth[case])
    kernel_to_csv(k, tmp_path / "new.csv")
    _savetxt_reference(k, tmp_path / "ref.csv")
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()


def test_csv_formats_only_nonzero_columns(tmp_path, monkeypatch):
    # n = 65 is three blocks; the nodes take one call
    g, smooth = one_component_kernels()
    sizes = []
    format_values = kernels._format_values

    def recording(values):
        sizes.append(np.size(values))
        return format_values(values)

    monkeypatch.setattr(kernels, "_format_values", recording)
    expected = {"zero_re": 3, "all_zero": 0, "negative_zero": 1, "zero_in_one_block": 5,
                "zero_outside_one_block": 4}
    for case, calls in expected.items():
        sizes.clear()
        kernel_to_csv(Kernel(grid=g, smooth=smooth[case]), tmp_path / "k.csv")
        assert len(sizes) == 1 + calls, case
        assert sizes[0] == g.n


def _rewrite_rows(path, rows):
    lines = path.read_text().splitlines(keepends=True)
    path.write_text("".join(lines[:4]) + "".join(rows(lines[4:])))


def test_csv_rejects_y_outer_file(tmp_path):
    g = Grid(half_width=1.5, n=33)
    rng = np.random.default_rng(8)
    s = rng.standard_normal((g.n, g.n)) + 1j * rng.standard_normal((g.n, g.n))
    path = tmp_path / "kernel.csv"
    kernel_to_csv(Kernel(grid=g, smooth=s), path)
    # every row keeps its own x,y; only the loop order changes
    _rewrite_rows(path, lambda rows: [rows[i * g.n + j] for j in range(g.n) for i in range(g.n)])
    with pytest.raises(ValueError, match="malformed kernel CSV: .*x-outer"):
        kernel_from_csv(path)


@pytest.mark.parametrize("edit, row", [("swap", 41), ("swap", 33 * 33 - 1), ("nan", 41)],
                         ids=["swapped_pair", "swapped_pair_last_block", "nan_node"])
def test_csv_rejects_misplaced_row(tmp_path, edit, row):
    # n = 33 spans two blocks of grid rows; the last pair sits in the second
    g = Grid(half_width=1.5, n=33)
    path = tmp_path / "kernel.csv"
    kernel_to_csv(identity_kernel(g), path)

    def misplace(rows):
        if edit == "swap":
            rows[row - 1], rows[row] = rows[row], rows[row - 1]
        else:
            rows[row - 1] = "nan," + rows[row - 1].split(",", 1)[1]
        return rows

    _rewrite_rows(path, misplace)
    with pytest.raises(ValueError, match=f"malformed kernel CSV: row {row} "):
        kernel_from_csv(path)


def test_csv_misplaced_row_message_prints_plain_floats(tmp_path):
    g = Grid(half_width=1.0, n=33)
    path = tmp_path / "kernel.csv"
    kernel_to_csv(identity_kernel(g), path)

    def nan_x(rows):
        rows[40] = "nan," + rows[40].split(",", 1)[1]
        return rows

    _rewrite_rows(path, nan_x)
    x, y = float(g.nodes[1]), float(g.nodes[7])
    with pytest.raises(ValueError) as exc:
        kernel_from_csv(path)
    assert str(exc.value) == (f"malformed kernel CSV: row 41 has x,y = nan,{y!r}, "
                              f"expected the x-outer node {x!r},{y!r}")

def test_csv_accepts_rounded_nodes(tmp_path):
    g = Grid.for_box(np.pi, 33)  # nodes that six decimals do not spell exactly
    rng = np.random.default_rng(9)
    s = rng.standard_normal((g.n, g.n)) + 1j * rng.standard_normal((g.n, g.n))
    path = tmp_path / "kernel.csv"
    kernel_to_csv(Kernel(grid=g, smooth=s), path)
    exact = kernel_from_csv(path)

    def six_decimals(rows):
        out = []
        for row in rows:
            x, y, re, im = row.split(",")
            out.append("%.6f,%.6f,%s,%s" % (float(x), float(y), re, im))
        return out

    _rewrite_rows(path, six_decimals)
    assert kernel_from_csv(path).smooth.tobytes() == exact.smooth.tobytes()


@pytest.mark.parametrize("columns", [3, 5], ids=["three_columns", "five_columns"])
def test_csv_rejects_ragged_row(tmp_path, columns):
    path = tmp_path / "ragged.csv"
    kernel_to_csv(identity_kernel(Grid(half_width=1.0, n=33)), path)
    lines = path.read_text().splitlines()
    lines[10] = ",".join((lines[10].split(",") + ["0.0"])[:columns])
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError, match="malformed"):
        kernel_from_csv(path)


# The row-range read of kernel_from_csv, forced on 33 x 33 files through a
# lower _MIN_WORKER_ROWS and patched CPU counts.


def _serial_kernel(path):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(os, "sched_getaffinity", lambda pid: {0})
        return kernel_from_csv(path)


def _assert_no_children():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.fixture
def split(monkeypatch):
    """Split every read of 33 x 33 rows into three ranges; record the forks
    and the outcome of each split read (None when it fell back)."""
    record = {"forks": 0, "results": []}
    fork, parse_split = os.fork, kernels._parse_split

    def counting_fork():
        record["forks"] += 1
        return fork()

    def recording_split(*args):
        data = parse_split(*args)
        record["results"].append(data)
        return data

    monkeypatch.setattr(kernels, "_MIN_WORKER_ROWS", 300)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2})
    monkeypatch.setattr(os, "fork", counting_fork)
    monkeypatch.setattr(kernels, "_parse_split", recording_split)
    return record


def _split_file(tmp_path):
    g = Grid(half_width=1.5, n=33)
    rng = np.random.default_rng(11)
    s = rng.standard_normal((g.n, g.n)) + 1j * rng.standard_normal((g.n, g.n))
    path = tmp_path / "kernel.csv"
    kernel_to_csv(Kernel(grid=g, c_diag=0.5, smooth=s), path)
    return path, g.n * g.n, kernels._row_starts(g.n * g.n, 3)


def test_row_starts_balance_the_skip_cost():
    for rows, parts in [(1089, 2), (1089, 3), (591361, 2), (263169, 5)]:
        starts = kernels._row_starts(rows, parts)
        assert starts[0] == 0 and starts[-1] == rows
        sizes = np.diff(starts)
        assert np.all(sizes > 0)
        # each range costs its rows plus _SKIP_COST of the rows before it
        cost = sizes + kernels._SKIP_COST * np.array(starts[:-1])
        assert cost.max() - cost.min() <= 2
    assert kernels._row_starts(1000, 2)[1] == 549


@pytest.mark.parametrize("parts", [2, 3])
def test_split_read_is_bit_identical(tmp_path, split, monkeypatch, parts):
    path, rows, _ = _split_file(tmp_path)
    starts = kernels._row_starts(rows, parts)
    special = [0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, -2.5e-320, 2.2250738585072e-308]
    lines = path.read_text().splitlines(keepends=True)
    for b in starts[1:-1]:
        for i, v in zip(range(b - 4, b + 4), special):  # around every range boundary
            x, y, _, _ = lines[4 + i].split(",")
            lines[4 + i] = f"{x},{y},{FLOAT_FMT % v},{FLOAT_FMT % -v}\n"
    path.write_text("".join(lines))
    serial = np.loadtxt(path, delimiter=",", skiprows=4, ndmin=2)
    data = kernels._parse_split(path, rows, parts)
    assert data is not None and split["forks"] == parts - 1
    assert data.tobytes() == serial.tobytes()
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(parts)))
    back = kernel_from_csv(path)
    assert split["forks"] == 2 * (parts - 1) and split["results"][1] is not None
    assert back.smooth.tobytes() == _serial_kernel(path).smooth.tobytes()
    _assert_no_children()


@pytest.mark.parametrize("edit", ["three_columns", "non_numeric"])
@pytest.mark.parametrize("where", ["first", "middle", "last"])
def test_split_read_raises_the_serial_error(tmp_path, split, edit, where):
    path, rows, starts = _split_file(tmp_path)
    row = {"first": 7, "middle": starts[1] + 5, "last": rows - 3}[where]
    lines = path.read_text().splitlines(keepends=True)
    fields = lines[4 + row].rstrip("\n").split(",")
    fields = fields[:3] if edit == "three_columns" else fields[:2] + ["0x1p3"] + fields[3:]
    lines[4 + row] = ",".join(fields) + "\n"
    path.write_text("".join(lines))
    with pytest.raises(ValueError) as serial:
        np.loadtxt(path, delimiter=",", skiprows=4, ndmin=2)
    with pytest.raises(ValueError) as split_read:
        kernel_from_csv(path)
    assert str(split_read.value) == f"malformed kernel CSV: {serial.value}"
    assert split["results"] == [None]
    _assert_no_children()


def _one_column(rows):
    return [row.split(",")[2] + "\n" for row in rows]


@pytest.mark.parametrize("body, error, cpus", [
    (lambda rows: rows + rows[-1:], "has 1090 rows, expected 1089", 3),
    (lambda rows: rows[:-1], "has 1088 rows, expected 1089", 3),
    # a (rows, 1) part would broadcast into its (rows, 4) slot unchecked
    (_one_column, "^malformed kernel CSV: 1 columns per row, expected 4$", 3),
    (_one_column, "^malformed kernel CSV: 1 columns per row, expected 4$", 1),
], ids=["extra_row", "missing_row", "one_column", "one_column_one_cpu"])
def test_split_read_rejects_a_wrong_body(tmp_path, split, monkeypatch, body, error, cpus):
    path, rows, _ = _split_file(tmp_path)
    _rewrite_rows(path, body)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
    with pytest.raises(ValueError, match=error):
        kernel_from_csv(path)
    assert split["results"] == ([None] if cpus > 1 else [])
    _assert_no_children()


@pytest.mark.parametrize("line", ["\n", "# a comment\n"], ids=["blank", "comment"])
@pytest.mark.parametrize("where", ["first", "middle", "last"])
def test_split_read_skips_non_data_lines_as_serial(tmp_path, split, line, where):
    path, rows, starts = _split_file(tmp_path)
    at = {"first": 100, "middle": starts[1] + 100, "last": starts[2] + 100}[where]
    lines = path.read_text().splitlines(keepends=True)
    path.write_text("".join(lines[:4 + at] + [line] + lines[4 + at:]))
    assert kernel_from_csv(path).smooth.tobytes() == _serial_kernel(path).smooth.tobytes()
    # with a row short as well, each range could still hold its row count
    path.write_text("".join(lines[:4 + at] + [line] + lines[4 + at:-1]))
    with pytest.raises(ValueError, match=f"has {rows - 1} rows, expected {rows}"):
        kernel_from_csv(path)
    _assert_no_children()


def test_one_cpu_never_forks(tmp_path, split, monkeypatch):
    path, _, _ = _split_file(tmp_path)

    def no_fork():
        raise AssertionError("forked on one CPU")

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    monkeypatch.setattr(os, "fork", no_fork)
    assert kernel_from_csv(path).grid.n == 33
    assert split["results"] == []


def test_small_file_never_forks(tmp_path, split, monkeypatch):
    path, rows, _ = _split_file(tmp_path)
    monkeypatch.setattr(kernels, "_MIN_WORKER_ROWS", rows // 2 + 1)
    kernel_from_csv(path)
    assert split["forks"] == 0 and split["results"] == []


def test_failed_worker_falls_back_to_serial(tmp_path, split, monkeypatch):
    path, rows, starts = _split_file(tmp_path)
    parent, parse_rows = os.getpid(), kernels._parse_rows

    def exit_in_worker(path, start, stop, to_end):
        if os.getpid() != parent and start == starts[2]:
            os._exit(1)
        return parse_rows(path, start, stop, to_end)

    monkeypatch.setattr(kernels, "_parse_rows", exit_in_worker)
    assert kernel_from_csv(path).smooth.tobytes() == _serial_kernel(path).smooth.tobytes()
    assert split["forks"] == 2 and split["results"] == [None]
    _assert_no_children()


def test_raising_worker_falls_back_to_serial(tmp_path, split, monkeypatch):
    # the child sends its exception back through its pipe; the read falls back
    path, rows, starts = _split_file(tmp_path)
    parent, parse_rows = os.getpid(), kernels._parse_rows

    def raise_in_worker(path, start, stop, to_end):
        if os.getpid() != parent and start == starts[1]:
            raise RuntimeError("a range failed")
        return parse_rows(path, start, stop, to_end)

    monkeypatch.setattr(kernels, "_parse_rows", raise_in_worker)
    assert kernel_from_csv(path).smooth.tobytes() == _serial_kernel(path).smooth.tobytes()
    assert split["forks"] == 2 and split["results"] == [None]
    _assert_no_children()


def test_failed_fork_falls_back_and_reaps(tmp_path, split, monkeypatch):
    path, _, _ = _split_file(tmp_path)
    fork = os.fork  # the fixture's counting fork

    def second_fork_fails():
        if split["forks"] == 1:
            raise BlockingIOError("Resource temporarily unavailable")
        return fork()

    monkeypatch.setattr(os, "fork", second_fork_fails)
    assert kernel_from_csv(path).smooth.tobytes() == _serial_kernel(path).smooth.tobytes()
    assert split["results"] == [None]
    _assert_no_children()

def test_failed_first_range_reaps_its_workers(tmp_path, split, monkeypatch):
    path, rows, _ = _split_file(tmp_path)
    parse_rows = kernels._parse_rows

    def fail_first(path, start, stop, to_end):
        if start == 0:
            raise KeyboardInterrupt
        return parse_rows(path, start, stop, to_end)

    monkeypatch.setattr(kernels, "_parse_rows", fail_first)
    with pytest.raises(KeyboardInterrupt):
        kernel_from_csv(path)
    assert split["forks"] == 2
    _assert_no_children()


def test_forked_writer_raises_the_first_failure_after_every_file(tmp_path):
    # a child that raises sends its exception; one that ends without a
    # report is named by its path; either way the other files are written
    def raising(kernel, path):
        raise ValueError(f"cannot write {path}")

    def silent(kernel, path):
        os._exit(7)

    k = identity_kernel(Grid.for_box(np.pi, 33))
    kernel_to_csv(k, tmp_path / "serial.csv")
    for first, error, message in ((raising, ValueError, "cannot write .*a.csv"),
                                  (silent, OSError, "writer of .*a.csv ended with wait status")):
        with pytest.raises(error, match=message):
            with ForkedWriter() as files:
                files.write(first, k, tmp_path / "a.csv")
                files.write(raising, k, tmp_path / "b.csv")
                files.write(kernel_to_csv, k, tmp_path / "c.csv")
        assert (tmp_path / "c.csv").read_bytes() == (tmp_path / "serial.csv").read_bytes()
        (tmp_path / "c.csv").unlink()


def test_pgm_output(tmp_path):
    g = Grid(half_width=1.0, n=33)
    rng = np.random.default_rng(9)
    k = smooth_kernel(g, rng.standard_normal((33, 33)) + 0j)
    path = tmp_path / "kernel.pgm"
    kernel_to_pgm(k, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "P2"
    assert lines[1].startswith("# |smooth| min=") and "max=" in lines[1]
    assert lines[2] == "33 33"
    assert lines[3] == "255"
    vals = np.array([int(v) for row in lines[4:] for v in row.split()])
    assert vals.shape == (33 * 33,)
    assert vals.min() == 0 and vals.max() == 255
    # constant magnitude maps to a black image
    kernel_to_pgm(identity_kernel(g), path)
    lines = path.read_text().splitlines()
    vals = np.array([int(v) for row in lines[4:] for v in row.split()])
    assert np.all(vals == 0)


def _str_join_pgm(kernel, path):
    """The per-pixel str() writer that kernel_to_pgm replaced."""
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


def test_pgm_peak_memory(tmp_path, traced_peak):
    # |smooth|, its scaled levels and text for one block of rows: 0.13 of the
    # kernel's bytes at n = 513; 1.5 with them over the whole kernel
    g = Grid(half_width=1.0, n=513)
    rng = np.random.default_rng(12)
    k = smooth_kernel(g, rng.standard_normal((513, 513)) + 1j * rng.standard_normal((513, 513)))
    assert traced_peak(lambda: kernel_to_pgm(k, tmp_path / "k.pgm")) / k.smooth.nbytes < 0.3


@pytest.mark.parametrize("case", ["random", "constant", "infinite"])
def test_pgm_bytes_match_str_join_writer(tmp_path, case):
    # n - 1 a multiple of the writer's block of rows, one block, and a ragged last block
    for n in (65, kernels._BLOCK + 1, 2 * kernels._BLOCK + 19):
        g = Grid(half_width=1.0, n=n)
        rng = np.random.default_rng(41)
        smooth = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        if case == "constant":  # hi == lo: a black image
            smooth = np.full((n, n), 0.5 - 2.0j)
        elif case == "infinite":  # inf pixels cast nan to an int outside 0..255
            smooth[rng.random((n, n)) < 0.02] = np.inf
        k = smooth_kernel(g, smooth)
        with np.errstate(invalid="ignore"):
            kernel_to_pgm(k, tmp_path / "new.pgm")
            _str_join_pgm(k, tmp_path / "old.pgm")
        assert (tmp_path / "new.pgm").read_bytes() == (tmp_path / "old.pgm").read_bytes(), n
