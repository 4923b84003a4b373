"""End-to-end command tests driven through the in-process entry point."""

import argparse
import dataclasses
import json
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import qmetric.cli as cli
import qmetric.commands as commands
from qmetric.closed_forms import delta_second_iterate, square_well_eta1
from qmetric.kernels import (
    FLOAT_FMT,
    Grid,
    Kernel,
    identity_kernel,
    kernel_from_csv,
    kernel_to_csv,
    kernel_to_pgm,
    parity_kernel,
)
from qmetric import series
from qmetric.potentials import (
    DOCUMENT_KEYS,
    Domain,
    PotentialSpec,
    constants_preset,
    potential_from_dict,
    potential_to_dict,
)
from qmetric.series import neumann_series
from qmetric.spectral import ExceptionalPointError
from qmetric.verify import kg_residual

BT = constants_preset("bender-tan")


def run(*argv):
    return cli.main(list(argv))


def write_real_well_doc(path, depth=1.0):
    doc = {
        "constants": {"hbar": 1.0, "mass": 0.5},
        "domain": {"type": "box", "L": float(np.pi)},
        "segments": [
            {"from": -np.pi / 2, "to": 0.0, "re": depth, "im": 0.0},
            {"from": 0.0, "to": np.pi / 2, "re": depth, "im": 0.0},
        ],
        "deltas": [],
    }
    path.write_text(json.dumps(doc))


class TestCompute:
    def test_square_well_artifacts(self, tmp_path):
        out = tmp_path / "run"
        code = run("compute", "--model", "square-well", "--zeta", "0.1",
                   "--gauge", "bender-tan", "--order", "1", "--n", "65",
                   "--out", str(out))
        assert code == 0
        assert sorted(p.name for p in out.iterdir()) == [
            "iter_0.csv", "iter_1.csv", "kernel.csv", "kernel.pgm", "manifest.json"]
        # zero-gauge first order equals the closed form up to CSV rounding
        stored = kernel_from_csv(out / "kernel.csv")
        expected = square_well_eta1(0.1, Grid.for_box(np.pi, 65), BT)
        assert stored.c_diag == 1.0
        np.testing.assert_allclose(stored.smooth, expected.smooth, atol=1e-11)
        assert (out / "kernel.pgm").read_text().startswith("P2\n")
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["diverged"] is False
        assert len(manifest["config_sha256"]) == 64
        assert len(manifest["sup_norms"]) == 2
        # the wave-operator budget is the kg record's own, taken from the stored kernel
        assert run("verify", "--checks", "kg", "--out", str(out)) == 0
        assert json.loads((out / "checks.jsonl").read_text())["meta"]["tolerance"] > 1e-8

    @pytest.mark.parametrize("extent", ["inf", "1e308"], ids=["infinite", "overflowing_box"])
    def test_non_finite_extent_exits_2(self, tmp_path, capsys, extent):
        out = tmp_path / "run"
        assert run("compute", "--model", "scattering", "--extent", extent, "--n", "33",
                   "--order", "1", "--out", str(out)) == 2
        assert "half_width must be positive and finite" in capsys.readouterr().err
        assert not out.exists()

    def test_gauged_seed_iterates_are_consistent(self, tmp_path):
        from qmetric.closed_forms import preset_seed
        from qmetric.kernels import seed_to_kernel
        out = tmp_path / "run"
        assert run("compute", "--model", "square-well", "--zeta", "0.1",
                   "--gauge", "bender-tan", "--order", "1", "--n", "65",
                   "--preset-seed", "bender-tan", "--out", str(out)) == 0
        it0 = kernel_from_csv(out / "iter_0.csv")
        it1 = kernel_from_csv(out / "iter_1.csv")
        total = kernel_from_csv(out / "kernel.csv")
        grid = Grid.for_box(np.pi, 65)
        seed_kernel = seed_to_kernel(preset_seed("bender-tan", 0.1, np.pi, BT), grid)
        np.testing.assert_allclose(it0.smooth, seed_kernel.smooth, atol=1e-11)
        np.testing.assert_allclose(total.smooth, it0.smooth + it1.smooth, atol=1e-11)

    def test_byte_identical_reruns(self, tmp_path):
        args = ("compute", "--model", "square-well", "--zeta", "0.1",
                "--gauge", "bender-tan", "--order", "1", "--n", "65",
                "--preset-seed", "bender-tan")
        assert run(*args, "--out", str(tmp_path / "a")) == 0
        assert run(*args, "--out", str(tmp_path / "b")) == 0
        for name in ("kernel.csv", "iter_1.csv", "kernel.pgm", "manifest.json"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    def test_rerun_leaves_no_iterates_of_an_earlier_run(self, tmp_path):
        # the n 33 iter_3.csv to iter_6.csv used to stay beside an order-2 manifest
        out = tmp_path / "run"
        assert run("compute", "--n", "33", "--order", "6", "--out", str(out)) == 0
        run("verify", "--checks", "kg", "--out", str(out))
        checks = (out / "checks.jsonl").read_bytes()
        assert run("compute", "--n", "65", "--order", "2", "--out", str(out)) == 0
        assert sorted(p.name for p in out.glob("iter_*.csv")) == [
            "iter_0.csv", "iter_1.csv", "iter_2.csv"]
        assert all(kernel_from_csv(p).grid.n == 65 for p in out.glob("iter_*.csv"))
        # each of its records carries the config_sha256 it was checked against
        assert (out / "checks.jsonl").read_bytes() == checks

    def test_delta_second_iterate_table(self, tmp_path):
        out = tmp_path / "dl"
        assert run("compute", "--model", "deltas", "--deltas", "1:0",
                   "--order", "2", "--n", "65", "--out", str(out)) == 0
        sup = json.loads((out / "manifest.json").read_text())["sup_norms"]
        assert sup[1] == 0.5
        k2 = kernel_from_csv(out / "iter_2.csv")
        g = k2.grid
        X, Y = g.mesh()
        inside = ((np.abs(X + Y) <= g.half_width - 1e-9)
                  & (np.abs(X - Y) <= g.half_width - 1e-9))
        closed = delta_second_iterate(X, Y, 1.0, 0.0)
        assert np.max(np.abs(k2.smooth - closed)[inside]) < 1e-12

    def test_custom_doc_with_embedded_sections(self, tmp_path):
        # a document holds the potential alone; the grid and order come from flags
        doc = {
            "constants": {"hbar": 1.0, "mass": 1.0},
            "domain": {"type": "line"},
            "segments": [],
            "deltas": [{"a": 0.5, "zeta": 0.25}],
        }
        (tmp_path / "custom.json").write_text(json.dumps(doc))
        (tmp_path / "seed.csv").write_text(
            "x,up_re,up_im,um_re,um_im\n"
            "-4.0,0.0,-0.1,0.0,0.0\n"
            "0.0,0.0,0.0,0.0,0.0\n"
            "4.0,0.0,0.1,0.0,0.0\n")
        out = tmp_path / "cust"
        assert run("compute", "--potential", str(tmp_path / "custom.json"),
                   "--extent", "2", "--n", "65", "--order", "2",
                   "--seed", str(tmp_path / "seed.csv"), "--out", str(out)) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["config"]["potential"] == doc
        assert manifest["config"]["series"]["max_order"] == 2
        assert manifest["config"]["grid"] == {"extent": 2.0, "n": 65}
        assert manifest["config"]["seed"] == "seed.csv"

    def test_removed_series_key_rejected(self, tmp_path, capsys):
        # a document no longer has a "series" section at all
        doc = {
            "constants": {"hbar": 1.0, "mass": 1.0},
            "domain": {"type": "line"},
            "segments": [{"from": -0.5, "to": 0.5, "re": 0.0, "im": 0.2}],
            "deltas": [],
            "series": {"simpson_per_h": 8},
        }
        (tmp_path / "old.json").write_text(json.dumps(doc))
        assert run("compute", "--potential", str(tmp_path / "old.json"), "--n", "33",
                   "--out", str(tmp_path / "x")) == 2
        assert "unknown potential keys ['series']" in capsys.readouterr().err
        assert not (tmp_path / "x").exists()

    def test_divergent_series_still_exits_zero(self, tmp_path):
        out = tmp_path / "div"
        assert run("compute", "--model", "deltas", "--deltas", "12:0",
                   "--order", "4", "--n", "65", "--out", str(out)) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["diverged"] is True
        assert any("diverge" in w for w in manifest["warnings"])

    def test_flags_and_document_share_the_default_order(self, tmp_path):
        # the flags used to run order 1 and the same potential as a document order 4
        flags = tmp_path / "flags"
        assert run("compute", "--model", "square-well", "--n", "33", "--out", str(flags)) == 0
        manifest = json.loads((flags / "manifest.json").read_text())
        (tmp_path / "well.json").write_text(json.dumps(manifest["config"]["potential"]))
        doc = tmp_path / "doc"
        assert run("compute", "--potential", str(tmp_path / "well.json"), "--n", "33",
                   "--out", str(doc)) == 0
        recorded = json.loads((doc / "manifest.json").read_text())
        assert recorded["config"]["series"] == manifest["config"]["series"]
        assert manifest["config"]["series"]["max_order"] == series.KConfig().max_order
        assert len(manifest["sup_norms"]) == len(recorded["sup_norms"]) == 5

    def test_seed_preset_conflict(self, tmp_path):
        assert run("compute", "--model", "square-well", "--seed", "nope.csv",
                   "--preset-seed", "zero", "--out", str(tmp_path / "x")) == 2

    def test_bad_coupling_list(self, tmp_path):
        assert run("compute", "--model", "deltas", "--deltas", "nope",
                   "--out", str(tmp_path / "x")) == 2

    def test_bad_order(self, tmp_path):
        assert run("compute", "--model", "square-well", "--order", "0",
                   "--out", str(tmp_path / "x")) == 2


# compute arguments at n=65 for the well and for three point couplings
ARTIFACT_MODELS = {
    "well": ("--model", "square-well", "--zeta", "0.1", "--order", "4", "--n", "65"),
    "deltas": ("--model", "deltas", "--deltas", "0.4:-0.5,0.6:0.25,0.9:0.75",
               "--extent", "2", "--order", "6", "--n", "65"),
}


def serial_artifacts(model_args, out):
    """Write the kernel artifacts of `compute model_args` one after another in
    this process; return their file names."""
    args = cli.build_parser().parse_args(["compute", *model_args, "--out", str(out)])
    pot = commands._build_potential(args)
    grid = commands._build_grid(args, pot)
    state = neumann_series(commands._build_seed(args, pot), pot,
                           series.KConfig(max_order=args.order), grid)
    out.mkdir()
    kernel_to_csv(state.partial_sum, out / "kernel.csv")
    for k, it in enumerate(state.iterates):
        kernel_to_csv(it, out / f"iter_{k}.csv")
    kernel_to_pgm(state.partial_sum, out / "kernel.pgm")
    return ["kernel.csv", "kernel.pgm"] + [f"iter_{k}.csv" for k in range(len(state.iterates))]


@pytest.mark.parametrize("model", sorted(ARTIFACT_MODELS))
class TestParallelArtifacts:
    @pytest.mark.parametrize("cpus", [None, 1], ids=["all_cpus", "one_cpu"])
    def test_same_bytes_as_serial_writes(self, tmp_path, monkeypatch, model, cpus):
        # one forked child per file, at most one alive per available CPU
        alive, counts = set(), []
        fork, waitpid = os.fork, os.waitpid

        def counting_fork():
            pid = fork()
            if pid:
                alive.add(pid)
                counts.append(len(alive))
            return pid

        def counting_waitpid(pid, options):
            alive.discard(pid)
            return waitpid(pid, options)

        names = serial_artifacts(ARTIFACT_MODELS[model], tmp_path / "serial")
        slots = cpus or len(os.sched_getaffinity(0))
        if cpus:
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
        monkeypatch.setattr(os, "fork", counting_fork)
        monkeypatch.setattr(os, "waitpid", counting_waitpid)
        assert run("compute", *ARTIFACT_MODELS[model], "--out", str(tmp_path / "forked")) == 0
        assert len(counts) == len(names) and max(counts) <= slots and not alive
        for name in names:
            assert (tmp_path / "forked" / name).read_bytes() == \
                (tmp_path / "serial" / name).read_bytes(), name

    def test_unwritable_iterate_exits_2(self, tmp_path, capfd, model):
        out = tmp_path / "run"
        (out / "iter_2.csv").mkdir(parents=True)
        assert run("compute", *ARTIFACT_MODELS[model], "--out", str(out)) == 2
        err = capfd.readouterr().err
        assert err.startswith("error: ") and str(out / "iter_2.csv") in err
        assert "Is a directory" in err and "Traceback" not in err
        # the series goes on past the failed write: every other file is written
        names = serial_artifacts(ARTIFACT_MODELS[model], tmp_path / "serial")
        for name in names:
            if name != "iter_2.csv":
                assert (out / name).read_bytes() == \
                    (tmp_path / "serial" / name).read_bytes(), name
        # the run record is written as a good run writes it
        assert run("compute", *ARTIFACT_MODELS[model], "--out", str(tmp_path / "good")) == 0
        assert (out / "manifest.json").read_bytes() == \
            (tmp_path / "good" / "manifest.json").read_bytes()

    def test_failed_series_leaves_no_run_record(self, tmp_path, capfd, monkeypatch, model):
        # over an earlier run and in a fresh directory: the iterates written
        # before K fails at order 2 stay, and no run record describes others
        old, fresh = tmp_path / "old", tmp_path / "fresh"
        assert run("compute", *ARTIFACT_MODELS[model], "--out", str(old)) == 0
        good = {p.name: p.read_bytes() for p in old.iterdir()}
        apply_K, calls = series.apply_K, []

        def failing_apply_K(*args, **kwargs):
            calls.append(1)
            if len(calls) == 2:
                raise FloatingPointError("non-finite value in characteristic quadrature")
            return apply_K(*args, **kwargs)

        monkeypatch.setattr(series, "apply_K", failing_apply_K)
        for out in (old, fresh):
            calls.clear()
            capfd.readouterr()
            assert run("compute", *ARTIFACT_MODELS[model], "--out", str(out)) == 3
            assert capfd.readouterr().err.startswith("numerical failure: non-finite")
            assert not (out / "manifest.json").exists()
            for name in ("iter_0.csv", "iter_1.csv"):
                assert (out / name).read_bytes() == good[name], name
        assert sorted(p.name for p in fresh.iterdir()) == ["iter_0.csv", "iter_1.csv"]


def test_non_finite_iterate_leaves_no_run_record(tmp_path, capfd):
    # the second iterate overflows: the run used to exit 0 with inf and NaN
    # in iter_2.csv, iter_3.csv, kernel.csv, the PGM and a manifest
    out = tmp_path / "run"
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # numpy's overflow warning
        assert run("compute", "--model", "deltas", "--deltas", "1e200:0", "--n", "33",
                   "--order", "3", "--out", str(out)) == 3
    err = capfd.readouterr().err
    assert "numerical failure: iterate 2 of the series is not finite (sup norm inf)" in err
    assert sorted(p.name for p in out.iterdir()) == ["iter_0.csv", "iter_1.csv"]


# One fresh interpreter per start-up path.  Each snippet may set rc (main's
# exit code), tables (the CSV formatter's cached tables) and star (the
# names `from qmetric import *` binds, and whether an unknown name raises).
FOOTPRINT_RUNS = {
    "import_package": "import qmetric",
    "import_cli": "import qmetric.cli",
    "help": "import qmetric.cli; rc = qmetric.cli.main(['--help'])",
    "usage_error": "import qmetric.cli; rc = qmetric.cli.main(['compute', '--bogus'])",
    "import_kernels": ("import qmetric.kernels as k; "
                       "tables = k._format_tables.cache_info().currsize"),
    "star_import": ("import qmetric; names = {}; exec('from qmetric import *', names)\n"
                    "try:\n    qmetric.no_such_name\nexcept AttributeError:\n"
                    "    star = [sorted(set(names) - {'__builtins__'}) == sorted(qmetric.__all__),"
                    " True]"),
    "compute": ("import qmetric.cli; rc = qmetric.cli.main(['compute', '--model', 'square-well', "
                "'--n', '65', '--order', '2', '--out', OUT])"),
}


@pytest.mark.parametrize("case", list(FOOTPRINT_RUNS))
def test_import_footprint(tmp_path, monkeypatch, case):
    code = FOOTPRINT_RUNS[case].replace("OUT", repr(str(tmp_path / "run"))) + (
        "\nimport json, sys\nprint(json.dumps({key: globals().get(key) for key in "
        "('rc', 'tables', 'star')} | {'modules': sorted(sys.modules)}))")
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, COLUMNS="80", PYTHONPATH=os.pathsep.join(
        [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=60, check=True)
    *printed, last = done.stdout.splitlines(keepends=True)
    report = json.loads(last)
    modules = report["modules"]
    # the pool modules cost every `qmetric` start, and the forked writes and
    # reads need none of them; np.unique imports numpy.ma
    assert [m for m in modules if m in ("multiprocessing", "numpy.ma") or m.startswith(
        ("multiprocessing.", "concurrent.futures.process"))] == []
    # the CSV formatter's tables are built on the first write, not at import
    assert "fractions" not in modules or case == "compute"
    if case == "compute":
        assert report["rc"] == 0
    elif case == "import_kernels":
        assert report["tables"] == 0
    elif case == "star_import":
        assert report["star"] == [True, True]
    else:
        # the parser answers before numpy or a numerical module loads
        assert [m for m in modules if m.split(".")[0] == "numpy"
                or m.startswith("qmetric.") and m != "qmetric.cli"] == []
        if case == "help":
            monkeypatch.setenv("COLUMNS", "80")
            assert report["rc"] == 0
            assert "".join(printed) == cli.build_parser().format_help()
        elif case == "usage_error":
            assert report["rc"] == 2
            assert "unrecognized arguments: --bogus" in done.stderr


def no_call(*args, **kwargs):
    raise AssertionError("called after the input failed")


# a value made non-finite in a kernel CSV: its node (i, j) and the re,im put there
NON_FINITE = {"nan": (16, 10, "nan", "0.0"), "inf": (1, 0, "0.0", "-inf")}


def write_non_finite_kernel(tmp_path, bad):
    """The order-1 kernel of the default well at n 33 with one value or c_diag
    made non-finite; returns its path and the error that reading it gives."""
    run_dir = tmp_path / "series"
    assert run("compute", "--n", "33", "--order", "1", "--out", str(run_dir)) == 0
    lines = (run_dir / "kernel.csv").read_text().splitlines(keepends=True)
    path = tmp_path / "bad.csv"
    if bad == "c_diag":
        lines[0] = lines[0].replace("1.000000000000e+00", "inf", 1)
        error = "holds a non-finite c_diag, (inf+0j)"
    else:
        i, j, re_, im = NON_FINITE[bad]
        x, y = lines[4 + 33 * i + j].split(",")[:2]
        lines[4 + 33 * i + j] = f"{x},{y},{re_},{im}\n"
        nodes = kernel_from_csv(run_dir / "kernel.csv").grid.nodes
        error = (f"holds a non-finite value in data row {33 * i + j + 1}, at the node x,y = "
                 f"{float(nodes[i])!r},{float(nodes[j])!r}: re,im = {float(re_)!r},"
                 f"{float(im)!r}")
    path.write_text("".join(lines))
    return path, f"numerical failure: kernel {str(path)!r} {error}\n"


class TestVerify:
    @pytest.mark.parametrize("case", ["nan_value", "svd_fails"])
    def test_linear_algebra_failure_exits_3(self, tmp_path, monkeypatch, capsys, case):
        # LinAlgError is a ValueError: it used to exit 2 as a configuration error
        grid = Grid.for_box(np.pi, 33)
        smooth = np.random.default_rng(7).standard_normal((33, 33))  # not Hermitian
        if case == "nan_value":
            smooth[16, 10] = np.nan
        else:
            def no_svd(*args, **kwargs):
                raise np.linalg.LinAlgError("SVD did not converge")
            monkeypatch.setattr(np.linalg, "svd", no_svd)
        kernel = tmp_path / "kernel.csv"
        kernel_to_csv(Kernel(grid=grid, smooth=smooth), kernel)
        out = tmp_path / "checks"
        capsys.readouterr()
        assert run("verify", "--model", "square-well", "--kernel", str(kernel),
                   "--checks", "invertibility", "--out", str(out)) == 3
        captured = capsys.readouterr()
        if case == "nan_value":  # refused on reading, before any check
            assert captured.err.startswith(f"numerical failure: kernel {str(kernel)!r} holds "
                                           "a non-finite value in data row 539, at the node")
        else:
            assert captured.err == "numerical failure: SVD did not converge\n"
        assert captured.out == ""
        assert not out.exists()

    @pytest.mark.parametrize("checks", ["kg", "pseudo-hermiticity", "positivity",
                                        "invertibility"])
    @pytest.mark.parametrize("bad", ["nan", "inf", "c_diag"])
    def test_non_finite_kernel_exits_3_before_any_check(self, tmp_path, monkeypatch, capsys,
                                                        checks, bad):
        # kg and pseudo-hermiticity used to exit 1 with a bare NaN token in their
        # records, positivity and invertibility to exit 3 from LAPACK
        kernel, error = write_non_finite_kernel(tmp_path, bad)
        monkeypatch.setattr(commands, "_run_checks", no_call)
        out = tmp_path / "checks"
        capsys.readouterr()
        assert run("verify", "--kernel", str(kernel), "--checks", checks,
                   "--out", str(out)) == 3
        captured = capsys.readouterr()
        assert captured.err == error
        assert captured.out == ""
        assert not out.exists()

    def test_two_run_records_of_different_potentials_exit_2(self, tmp_path, monkeypatch,
                                                            capsys):
        # the zeta 0.3 metric used to be checked against the zeta 0.1 manifest
        # and fail pseudo_hermiticity, and --zeta 0.3 to exit 2 on the flags
        out = tmp_path / "run"
        assert run("compute", "--zeta", "0.1", "--n", "65", "--order", "1",
                   "--out", str(out)) == 0
        assert run("oracle", "--zeta", "0.3", "--n", "65", "--out", str(out)) == 0
        before = sorted(p.name for p in out.iterdir())
        monkeypatch.setattr(commands, "kernel_from_csv", no_call)
        for flags in ((), ("--zeta", "0.3"), ("--zeta", "0.1")):
            capsys.readouterr()
            assert run("verify", "--kernel", str(out / "metric.csv"), *flags,
                       "--out", str(out)) == 2
            captured = capsys.readouterr()
            assert captured.err == (
                f"error: the run records {str(out / 'manifest.json')!r} and "
                f"{str(out / 'oracle.json')!r} give different potentials; verify the kernel "
                "where only the record of its own run lies\n")
            assert captured.out == ""
            assert sorted(p.name for p in out.iterdir()) == before

    def test_oracle_of_the_same_model_in_the_compute_directory_verifies(self, tmp_path):
        # README's example: oracle writes beside the series it cross-checks
        out = tmp_path / "run"
        model = ("--model", "square-well", "--zeta", "0.1", "--n", "65")
        assert run("compute", *model, "--order", "2", "--out", str(out)) == 0
        assert run("oracle", *model, "--order", "40", "--out", str(out),
                   "--cross-check", str(out / "kernel.csv")) == 0
        assert run("verify", "--out", str(out), "--checks", "kg,positivity,invertibility") == 0
        assert run("verify", "--kernel", str(out / "metric.csv"), "--out", str(out),
                   "--checks", "kg,pseudo-hermiticity") == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert json.loads((out / "checks.jsonl").read_text().splitlines()[0])[
            "config_sha256"] == manifest["config_sha256"]

    def test_identity_kernel_real_well_all_pass(self, tmp_path):
        write_real_well_doc(tmp_path / "well.json")
        out = tmp_path / "v"
        out.mkdir()
        kernel_to_csv(identity_kernel(Grid.for_box(np.pi, 65)), out / "kernel.csv")
        code = run("verify", "--potential", str(tmp_path / "well.json"), "--out", str(out))
        assert code == 0
        lines = [json.loads(s) for s in (out / "checks.jsonl").read_text().splitlines()]
        assert len(lines) == 4
        assert all(rec["pass"] for rec in lines)

    def test_parity_kernel_pt_well_positivity_fails(self, tmp_path):
        out = tmp_path / "v"
        out.mkdir()
        kernel_to_csv(parity_kernel(Grid.for_box(np.pi, 65)), out / "kernel.csv")
        base = ("verify", "--model", "square-well", "--zeta", "0.3",
                "--out", str(out))
        assert run(*base, "--checks", "kg") == 0
        assert run(*base, "--checks", "kg,positivity") == 1
        recs = [json.loads(s) for s in (out / "checks.jsonl").read_text().splitlines()]
        assert recs[0]["check"] == "kg_residual" and recs[0]["pass"]
        assert recs[1]["check"] == "positivity" and not recs[1]["pass"]

    def test_first_order_kernel_kg_within_budget(self, tmp_path):
        out = tmp_path / "run"
        assert run("compute", "--model", "square-well", "--zeta", "0.1",
                   "--gauge", "bender-tan", "--order", "1", "--n", "65",
                   "--preset-seed", "bender-tan", "--out", str(out)) == 0
        assert run("verify", "--model", "square-well", "--zeta", "0.1",
                   "--gauge", "bender-tan", "--checks", "kg", "--out", str(out)) == 0

    def test_malformed_kernel_csv(self, tmp_path):
        out = tmp_path / "v"
        out.mkdir()
        (out / "kernel.csv").write_text("this is not a kernel\n")
        assert run("verify", "--model", "square-well", "--out", str(out)) == 2

    def test_missing_kernel_csv(self, tmp_path):
        assert run("verify", "--model", "square-well",
                   "--out", str(tmp_path / "nowhere")) == 2

    def test_kernel_option_checks_oracle_metric(self, tmp_path):
        orc = tmp_path / "orc"
        assert run("oracle", "--model", "square-well", "--n", "65", "--out", str(orc)) == 0
        out = tmp_path / "checks"
        assert run("verify", "--model", "square-well", "--kernel", str(orc / "metric.csv"),
                   "--out", str(out)) == 0
        recs = [json.loads(s) for s in (out / "checks.jsonl").read_text().splitlines()]
        assert len(recs) == 4 and all(rec["pass"] for rec in recs)
        assert not (orc / "checks.jsonl").exists()
        assert run("verify", "--model", "square-well", "--kernel", str(orc / "kernel.csv"),
                   "--out", str(out)) == 2

    def test_grid_flag_mismatch(self, tmp_path, capsys):
        # the grid is the kernel file's own: verify takes no grid flags
        out = tmp_path / "v"
        out.mkdir()
        kernel_to_csv(identity_kernel(Grid.for_box(np.pi, 65)), out / "kernel.csv")
        namespace = vars(cli.build_parser().parse_args(["verify"]))
        assert "n" not in namespace and "extent" not in namespace
        for flag in ("--n", "--extent"):
            capsys.readouterr()
            assert run("verify", "--model", "square-well", flag, "33", "--out", str(out)) == 2
            assert f"unrecognized arguments: {flag} 33" in capsys.readouterr().err
        assert not (out / "checks.jsonl").exists()

    def test_extent_matches_its_own_stored_half_width(self, tmp_path, capsys):
        # the header keeps 13 digits of the half-width, 1.234567890123e+01
        out = tmp_path / "run"
        model = ("--model", "deltas", "--deltas", "0.5:0", "--extent", "12.345678901234567")
        assert run("compute", *model, "--n", "65", "--order", "1", "--out", str(out)) == 0
        capsys.readouterr()
        assert run("verify", *model[:4], "--checks", "invertibility", "--out", str(out)) == 0
        assert "does not match" not in capsys.readouterr().err

    def test_y_outer_kernel_csv_exits_2(self, tmp_path, capsys):
        out = tmp_path / "v"
        out.mkdir()
        grid = Grid.for_box(np.pi, 33)
        kernel_to_csv(square_well_eta1(0.3, grid, BT), out / "kernel.csv")
        lines = (out / "kernel.csv").read_text().splitlines(keepends=True)
        rows = lines[4:]
        (out / "kernel.csv").write_text("".join(lines[:4]) + "".join(
            rows[i * grid.n + j] for j in range(grid.n) for i in range(grid.n)))
        capsys.readouterr()
        assert run("verify", "--model", "square-well", "--zeta", "0.3", "--checks", "kg",
                   "--out", str(out)) == 2
        assert "malformed kernel CSV" in capsys.readouterr().err

    def test_unknown_check_name(self, tmp_path):
        out = tmp_path / "v"
        out.mkdir()
        kernel_to_csv(identity_kernel(Grid.for_box(np.pi, 65)), out / "kernel.csv")
        assert run("verify", "--model", "square-well", "--checks", "bogus",
                   "--out", str(out)) == 2

    def test_run_is_checked_against_its_own_potential(self, tmp_path, capsys):
        # with no flags the checks used to rebuild the zeta 0.1 default
        run_dir, foreign = tmp_path / "run", tmp_path / "foreign"
        assert run("compute", "--model", "square-well", "--zeta", "3", "--n", "65",
                   "--order", "1", "--out", str(run_dir)) == 0
        manifest = json.loads((run_dir / "manifest.json").read_text())
        assert run("verify", "--checks", "kg", "--out", str(run_dir)) == 0
        own = json.loads((run_dir / "checks.jsonl").read_text())
        assert own["config_sha256"] == manifest["config_sha256"]
        assert run("verify", "--model", "square-well", "--zeta", "3", "--checks", "kg",
                   "--out", str(run_dir)) == 0
        assert json.loads((run_dir / "checks.jsonl").read_text()) == own
        # the same kernel with no run record beside it is checked at the flags' model
        foreign.mkdir()
        (foreign / "kernel.csv").write_bytes((run_dir / "kernel.csv").read_bytes())
        run("verify", "--checks", "kg", "--out", str(foreign))
        default = json.loads((foreign / "checks.jsonl").read_text())
        assert default["residual"] != own["residual"]
        assert len(default["config_sha256"]) == 64 != manifest["config_sha256"]
        capsys.readouterr()

    @pytest.mark.parametrize("flags", [("--zeta", "0.1"), ("--model", "scattering", "--zeta", "3"),
                                       ("--model", "square-well", "--zeta", "3",
                                        "--gauge", "natural")],
                             ids=["zeta", "model", "gauge"])
    def test_disagreeing_model_flags_exit_2_and_write_nothing(self, tmp_path, capsys, flags):
        out = tmp_path / "run"
        assert run("compute", "--model", "square-well", "--zeta", "3", "--n", "65",
                   "--order", "1", "--out", str(out)) == 0
        before = sorted(p.name for p in out.iterdir())
        capsys.readouterr()
        assert run("verify", *flags, "--checks", "kg", "--out", str(out)) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: the model flags do not match the potential")
        assert sorted(p.name for p in out.iterdir()) == before

    def test_deltas_flags_agree_with_their_run(self, tmp_path):
        # the recorded couplings are lists in JSON and tuples in the spec
        out = tmp_path / "run"
        model = ("--model", "deltas", "--deltas", "0.5:0,0.25:0.5", "--extent", "2")
        assert run("compute", *model, "--n", "65", "--order", "1", "--out", str(out)) == 0
        assert run("verify", *model[:4], "--checks", "invertibility", "--out", str(out)) == 0
        assert run("verify", "--checks", "invertibility", "--out", str(out)) == 0

    def test_oracle_metric_is_checked_against_the_oracle_potential(self, tmp_path):
        orc = tmp_path / "orc"
        assert run("oracle", "--model", "square-well", "--zeta", "0.3", "--n", "65",
                   "--out", str(orc)) == 0
        summary = json.loads((orc / "oracle.json").read_text())
        assert summary["config"]["potential"]["segments"][0]["im"] == 0.3
        assert run("verify", "--kernel", str(orc / "metric.csv"), "--out", str(orc)) == 0
        recs = [json.loads(s) for s in (orc / "checks.jsonl").read_text().splitlines()]
        assert len(recs) == 4
        assert all(rec["config_sha256"] == summary["config_sha256"] for rec in recs)
        assert run("verify", "--kernel", str(orc / "metric.csv"), "--zeta", "0.1",
                   "--out", str(orc)) == 2

    def test_kernel_on_another_grid_than_the_run_record_exits_2(self, tmp_path, capsys):
        out = tmp_path / "run"
        assert run("compute", "--model", "square-well", "--n", "65", "--order", "1",
                   "--out", str(out)) == 0
        other = tmp_path / "other.csv"
        kernel_to_csv(identity_kernel(Grid.for_box(np.pi, 33)), other)
        capsys.readouterr()
        assert run("verify", "--kernel", str(other), "--out", str(out)) == 2
        assert "does not match the grid recorded in" in capsys.readouterr().err
        assert not (out / "checks.jsonl").exists()

    def test_kernel_is_checked_against_the_record_of_its_own_grid(self, tmp_path, capsys):
        # an oracle run at another n into a compute directory: verify of its
        # metric used to exit 2 on the manifest's grid, though oracle.json records n 65
        out = tmp_path / "d"
        assert run("compute", "--n", "33", "--order", "1", "--out", str(out)) == 0
        assert run("oracle", "--n", "65", "--out", str(out)) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        summary = json.loads((out / "oracle.json").read_text())
        assert manifest["config_sha256"] != summary["config_sha256"]
        for name, record in (("metric.csv", summary), ("kernel.csv", manifest)):
            assert run("verify", "--kernel", str(out / name), "--out", str(out)) in (0, 1)
            recs = [json.loads(s) for s in (out / "checks.jsonl").read_text().splitlines()]
            assert len(recs) == 4
            assert all(rec["config_sha256"] == record["config_sha256"] for rec in recs)
        # a kernel on a third grid matches neither record
        (out / "checks.jsonl").unlink()
        third = tmp_path / "third.csv"
        kernel_to_csv(identity_kernel(Grid.for_box(np.pi, 129)), third)
        capsys.readouterr()
        assert run("verify", "--kernel", str(third), "--out", str(out)) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: the kernel grid (n=129, half-width ")
        assert f"does not match the grid recorded in {out} (manifest.json: n=33, " in err
        assert "; oracle.json: n=65, half-width " in err
        assert not (out / "checks.jsonl").exists()

    @pytest.mark.parametrize("checks", ["positivity,bogus", "", " , "])
    def test_check_names_are_validated_before_the_kernel_is_read(self, tmp_path, monkeypatch,
                                                                 capsys, checks):
        def no_read(path):
            raise AssertionError(f"kernel read from {path}")

        monkeypatch.setattr(commands, "kernel_from_csv", no_read)
        out = tmp_path / "missing"  # no kernel here: the check list must fail first
        capsys.readouterr()
        assert run("verify", "--model", "square-well", "--checks", checks,
                   "--out", str(out)) == 2
        err = capsys.readouterr().err
        assert ("unknown check 'bogus'" if "bogus" in checks else "empty --checks list") in err
        assert not out.exists()


class TestOracle:
    def test_square_well_spectrum_and_metric(self, tmp_path):
        out = tmp_path / "orc"
        code = run("oracle", "--model", "square-well", "--zeta", "0.1",
                   "--gauge", "bender-tan", "--n", "65", "--order", "40",
                   "--out", str(out))
        assert code == 0
        summary = json.loads((out / "oracle.json").read_text())
        assert summary["all_real"] is True
        assert summary["pt_real"] is True
        assert summary["n_modes"] == 40
        assert abs(summary["ground_energy_re"] - 1.0) < 5e-2
        spectrum = (out / "spectrum.csv").read_text().splitlines()
        assert spectrum[0] == "n,Re_E,Im_E"
        assert len(spectrum) == 64
        metric = kernel_from_csv(out / "metric.csv")
        assert metric.grid.n == 65

    @pytest.mark.parametrize("cells, pt_real", [(0.5, False), (1.5, False), (1.0, True)],
                             ids=["half_cell", "three_half_cells", "on_node"])
    def test_midpoint_tie_breaks_pt_pair(self, tmp_path, cells, pt_real):
        # a PT pair at +-a midway between two nodes: nearest-node placement
        # breaks the exact tie toward the lower node on both sides, so the
        # discretised pair is not mirrored and the general solve runs, without
        # a placement warning; on a node the pair stays mirrored
        a = cells * 4.0 / 128
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run("oracle", "--model", "deltas", "--deltas", f"1:{a!r},-1:{-a!r}",
                       "--extent", "2", "--n", "129", "--out", str(tmp_path / "orc")) == 0
        assert json.loads((tmp_path / "orc" / "oracle.json").read_text())["pt_real"] is pt_real

    def test_cross_check_report(self, tmp_path):
        run_dir = tmp_path / "run"
        assert run("compute", "--model", "square-well", "--zeta", "0.1",
                   "--gauge", "bender-tan", "--order", "1", "--n", "65",
                   "--preset-seed", "bender-tan", "--out", str(run_dir)) == 0
        out = tmp_path / "orc"
        code = run("oracle", "--model", "square-well", "--zeta", "0.1",
                   "--gauge", "bender-tan", "--n", "65",
                   "--cross-check", str(run_dir / "kernel.csv"), "--out", str(out))
        assert code == 0
        summary = json.loads((out / "oracle.json").read_text())
        rec = summary["cross_check"]
        assert rec["check"] == "difference-kg"
        assert rec["pass"] is True and summary["cross_check_pass"] is True

    def test_cross_check_difference_in_place_matches_a_copy(self, tmp_path, capsys):
        # oracle forms series - metric in the cross-check kernel's own array,
        # after reading the tolerance from it: the report is the one a copied
        # difference gives, byte for byte
        model = ["--model", "square-well", "--zeta", "0.1", "--gauge", "bender-tan", "--n", "65"]
        run_dir, out = tmp_path / "run", tmp_path / "orc"
        assert run("compute", *model, "--order", "1", "--preset-seed", "bender-tan",
                   "--out", str(run_dir)) == 0
        capsys.readouterr()
        assert run("oracle", *model, "--cross-check", str(run_dir / "kernel.csv"),
                   "--out", str(out)) == 0
        printed = capsys.readouterr().out.splitlines()[0]
        args = cli.build_parser().parse_args(["oracle", *model, "--out", str(out)])
        pot = commands._build_potential(args)
        grid = commands._build_grid(args, pot)
        series = kernel_from_csv(run_dir / "kernel.csv")
        metric, _ = commands._spectral_artifacts(pot, grid, None, tmp_path)
        diff = Kernel(grid=grid, c_diag=series.c_diag - metric.c_diag,
                      c_anti=series.c_anti - metric.c_anti, smooth=series.smooth - metric.smooth)
        rep = kg_residual(diff, pot, grid, tolerance=commands._kg_tolerance(pot, grid, series))
        rep = dataclasses.replace(rep, check="difference-kg")
        assert printed == rep.to_json_line()
        assert json.loads((out / "oracle.json").read_text())["cross_check"] == json.loads(printed)

    def test_plain_run_leaves_no_earlier_cross_check(self, tmp_path):
        # an earlier cross-check's report used to stay beside the new oracle.json
        model = ["--model", "square-well", "--n", "33"]
        run_dir, out = tmp_path / "run", tmp_path / "orc"
        assert run("compute", *model, "--order", "1", "--out", str(run_dir)) == 0
        assert run("oracle", *model, "--cross-check", str(run_dir / "kernel.csv"),
                   "--out", str(out)) == 0
        assert "cross_check" in json.loads((out / "oracle.json").read_text())
        assert run("oracle", *model, "--out", str(out)) == 0
        summary = json.loads((out / "oracle.json").read_text())
        assert "cross_check" not in summary and "cross_check_pass" not in summary
        assert sorted(p.name for p in out.iterdir()) == ["metric.csv", "oracle.json",
                                                        "spectrum.csv"]

    def test_cross_check_grid_mismatch(self, tmp_path):
        run_dir = tmp_path / "run"
        assert run("compute", "--model", "square-well", "--n", "65",
                   "--out", str(run_dir)) == 0
        assert run("oracle", "--model", "square-well", "--n", "129",
                   "--cross-check", str(run_dir / "kernel.csv"),
                   "--out", str(tmp_path / "orc")) == 2

    def test_exceptional_point_exit_code(self, tmp_path, monkeypatch):
        def boom(ham):
            raise ExceptionalPointError("coalescing pair")
        monkeypatch.setattr(commands, "biorthonormalize", boom)
        assert run("oracle", "--model", "square-well", "--n", "65",
                   "--out", str(tmp_path / "orc")) == 3

    def test_bad_mode_count(self, tmp_path):
        assert run("oracle", "--model", "square-well", "--n", "65",
                   "--order", "100", "--out", str(tmp_path / "orc")) == 2

    @pytest.mark.parametrize("order", ["0", "128"])
    def test_bad_mode_count_fails_before_the_solve(self, tmp_path, monkeypatch, capsys, order):
        def no_eig(*args, **kwargs):
            raise AssertionError("eigen-solve ran before --order was checked")

        monkeypatch.setattr(np.linalg, "eig", no_eig)
        out = tmp_path / "orc"
        assert run("oracle", "--model", "square-well", "--n", "129",
                   "--order", order, "--out", str(out)) == 2
        assert not out.exists()
        err = capsys.readouterr().err
        assert err == f"error: --order must lie in [1, 127] for n=129, got {order}\n"


@pytest.mark.parametrize("case", ["missing", "grid_mismatch", "half_width_off"])
def test_bad_cross_check_writes_nothing(tmp_path, monkeypatch, capsys, case):
    # the cross-check kernel is read and its grid checked before the solve
    series = tmp_path / "series"
    n = "65" if case == "half_width_off" else "67"
    assert run("compute", "--model", "square-well", "--n", n, "--order", "1",
               "--out", str(series)) == 0
    kernel = series / ("absent.csv" if case == "missing" else "kernel.csv")
    if case == "half_width_off":  # 1e-10 relative: outside the 1e-12 rule that verify applies
        lines = kernel.read_text().splitlines(keepends=True)
        head = lines[2].split(",")
        head[2] = FLOAT_FMT % (float(head[2]) * (1 + 1e-10))
        kernel.write_text("".join(lines[:2] + [",".join(head)] + lines[3:]))
    capsys.readouterr()

    def no_solve(pot, grid):
        raise AssertionError("discretized before the cross-check kernel was read")

    monkeypatch.setattr(commands, "discretize", no_solve)
    out = tmp_path / "orc"
    assert run("oracle", "--model", "square-well", "--n", "65",
               "--cross-check", str(kernel), "--out", str(out)) == 2
    assert not out.exists()
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")


@pytest.mark.parametrize("bad", ["nan", "c_diag"])
def test_non_finite_cross_check_kernel_exits_3_before_the_solve(tmp_path, monkeypatch,
                                                                 capsys, bad):
    # oracle used to run the whole eigen-solve, then exit 1 and write two bare
    # NaN tokens into oracle.json
    kernel, error = write_non_finite_kernel(tmp_path, bad)
    monkeypatch.setattr(commands, "discretize", no_call)
    out = tmp_path / "orc"
    capsys.readouterr()
    assert run("oracle", "--n", "33", "--cross-check", str(kernel), "--out", str(out)) == 3
    captured = capsys.readouterr()
    assert captured.err == error
    assert captured.out == ""
    assert not out.exists()


def test_each_command_writes_exactly_its_files(tmp_path):
    model = ["--model", "square-well", "--n", "33"]
    run_dir, orc = tmp_path / "run", tmp_path / "orc"
    assert run("compute", *model, "--order", "2", "--out", str(run_dir)) == 0
    compute_files = ["iter_0.csv", "iter_1.csv", "iter_2.csv", "kernel.csv", "kernel.pgm",
                     "manifest.json"]
    assert sorted(p.name for p in run_dir.iterdir()) == compute_files
    assert run("oracle", *model, "--cross-check", str(run_dir / "kernel.csv"),
               "--out", str(orc)) == 0
    oracle_files = ["metric.csv", "oracle.json", "spectrum.csv"]
    assert sorted(p.name for p in orc.iterdir()) == oracle_files
    assert run("verify", "--checks", "kg", "--out", str(run_dir)) == 0
    assert run("verify", "--kernel", str(orc / "metric.csv"), "--out", str(orc)) == 0
    assert sorted(p.name for p in run_dir.iterdir()) == sorted(compute_files + ["checks.jsonl"])
    assert sorted(p.name for p in orc.iterdir()) == sorted(oracle_files + ["checks.jsonl"])


class TestParser:
    def test_unknown_model_flag_value(self, tmp_path):
        assert run("compute", "--model", "harmonic", "--out", str(tmp_path / "x")) == 2

    def test_model_and_potential_conflict(self, tmp_path):
        assert run("compute", "--model", "square-well",
                   "--potential", "x.json", "--out", str(tmp_path / "x")) == 2

    def test_missing_subcommand(self):
        assert run() == 2

    def test_readme_command_line_section_names_every_long_option(self):
        parser = cli.build_parser()
        subparsers = next(a for a in parser._actions
                          if isinstance(a, argparse._SubParsersAction))
        defined = {opt for p in (parser, *subparsers.choices.values()) for a in p._actions
                   for opt in a.option_strings if opt.startswith("--")}
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        section = readme.split("\n## Command line\n", 1)[1].split("\n## ", 1)[0]
        named = set(re.findall(r"(?<![\w-])--[a-z][a-z0-9-]*", section))
        assert sorted(defined - named) == [], "options the section does not name"
        assert sorted(named - defined) == [], "flags the section names that the parser lacks"

    def test_readme_document_format_names_every_key(self):
        entry = readme_file_format("Potential document")
        # `"key"` for each part, then `field` for the fields of that part
        parts = re.split(r'`"([a-z_]+)"`', entry)[1:]
        named = {key: set(re.findall(r"`([A-Za-z_]+)`", text))
                 for key, text in zip(parts[::2], parts[1::2])}
        named["domain"] -= {"box", "line"}  # the values of its type
        assert sorted(set(DOCUMENT_KEYS) - set(named)) == [], "keys the entry does not name"
        assert sorted(set(named) - set(DOCUMENT_KEYS)) == [], "keys it names that are rejected"
        for key, fields in DOCUMENT_KEYS.items():
            assert sorted(set(fields) - named[key]) == [], f"fields of {key} it does not name"
            assert sorted(named[key] - set(fields)) == [], f"fields of {key} that are rejected"
        # a run record's potential holds these fields and reads back
        doc = potential_to_dict(PotentialSpec(BT, Domain.box(2.0), segments=(((-1, 1), 0.2j),),
                                              deltas=((0.5, 1.0),)))
        assert {key: tuple(part if key in ("constants", "domain") else part[0])
                for key, part in doc.items()} == DOCUMENT_KEYS
        potential_from_dict(doc)

    def test_readme_manifest_entry_names_every_key(self, tmp_path):
        # the keys compute writes; the potential has its own entry
        assert run("compute", "--n", "33", "--order", "1", "--out", str(tmp_path)) == 0
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        config = manifest["config"]
        written = set(manifest) | set(config) | set(config["grid"]) | set(config["series"])
        named = set(re.findall(r"`([A-Za-z_0-9]+)`", readme_file_format("`manifest.json`")))
        assert sorted(written - named) == [], "keys the entry does not name"
        assert sorted(named - written) == [], "keys it names that compute does not write"


def readme_file_format(name):
    """The text of README's File formats entry that starts with `name`."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    formats = readme.split("\n## File formats\n", 1)[1].split("\n## ", 1)[0]
    return formats.split(f"\n* {name}", 1)[1].split("\n* ", 1)[0]


@pytest.mark.parametrize("exc, code, prefix", [
    (ExceptionalPointError("coalescing pair"), 3, "numerical failure: "),
    (FloatingPointError("non-finite value"), 3, "numerical failure: "),
    (np.linalg.LinAlgError("SVD did not converge"), 3, "numerical failure: "),
    (ValueError("bad input"), 2, "error: "),
    (OSError("no space left"), 2, "error: "),
], ids=lambda v: type(v).__name__ if isinstance(v, Exception) else None)
def test_exit_code_of_each_exception(tmp_path, monkeypatch, capsys, exc, code, prefix):
    def failing_verify(args):
        raise exc

    monkeypatch.setattr(commands, "cmd_verify", failing_verify)
    capsys.readouterr()
    assert run("verify", "--out", str(tmp_path)) == code
    assert capsys.readouterr().err == f"{prefix}{exc}\n"


SEED_HEADER = "x,up_re,up_im,um_re,um_im\n"


def seed_rows(um_im_at_zero=0.0):
    """Seed rows on x = -4, -2, 0, 2, 4 with u+ = x^2, u- = 0 (+ i um_im_at_zero at x = 0)."""
    return "".join(f"{x},{x * x},0.0,0.0,{um_im_at_zero if x == 0.0 else 0.0}\n"
                   for x in (-4.0, -2.0, 0.0, 2.0, 4.0))


# one point coupling on the line, as a potential document
COUPLING_DOC = {"constants": {"hbar": 1.0, "mass": 1.0}, "domain": {"type": "line"},
                "segments": [], "deltas": [{"a": 0.25, "zeta": 0.5}]}


class TestInputErrors:
    """Each malformed input exits 2 with its own message and writes nothing."""

    CASES = {
        "non_numeric_coupling": (("--model", "deltas", "--deltas", "0.5:x"), {},
                                 "bad coupling entry '0.5:x'"),
        "comma_alone": (("--model", "deltas", "--deltas", ","), {}, "empty --deltas list"),
        "deltas_without_list": (("--model", "deltas"), {},
                                "the deltas model needs a --deltas list"),
        "missing_potential": (("--potential", "{dir}/absent.json"), {},
                              "cannot read potential file"),
        "invalid_json": (("--potential", "{dir}/doc.json"), {"doc.json": "{\"segments\": ["},
                         "invalid JSON in"),
        "json_array": (("--potential", "{dir}/doc.json"), {"doc.json": "[1, 2]"},
                       "must be a JSON object"),
        "missing_seed": (("--seed", "{dir}/absent.csv"), {}, "cannot read seed file"),
        "wrong_seed_header": (("--seed", "{dir}/seed.csv"),
                              {"seed.csv": "x,u_plus,u_minus\n" + seed_rows()},
                              "must start with x,up_re,up_im,um_re,um_im"),
        "non_numeric_seed_row": (("--seed", "{dir}/seed.csv"),
                                 {"seed.csv": SEED_HEADER + "0.0,one,0.0,0.0,0.0\n"},
                                 "malformed seed file"),
        "four_column_seed": (("--seed", "{dir}/seed.csv"),
                             {"seed.csv": SEED_HEADER + "-1.0,1.0,0.0,0.0\n1.0,1.0,0.0,0.0\n"},
                             "has 4 columns, expected 5"),
        "header_only_seed": (("--seed", "{dir}/seed.csv"), {"seed.csv": SEED_HEADER},
                             "has no data rows"),
        # np.interp needs increasing x: this table interpolated to 0 everywhere
        "descending_seed": (("--seed", "{dir}/seed.csv"),
                            {"seed.csv": SEED_HEADER + "".join(f"{x},{x * x},0.0,0.0,0.0\n"
                                                               for x in (1, 0.5, 0, -0.5, -1))},
                            "tabulated seed x must be strictly increasing"),
        # defect 2 * 5e-11 = 1e-10 at t = 0: beyond the 1e-12 rule of seed_to_kernel
        "seed_defect_1e-10": (("--seed", "{dir}/seed.csv"),
                              {"seed.csv": SEED_HEADER + seed_rows(5e-11)},
                              "seed violates reality constraints"),
        # a NaN defect fails the rule: the series used to run it as the zero seed
        "nan_seed_row": (("--seed", "{dir}/seed.csv"),
                         {"seed.csv": SEED_HEADER + seed_rows().replace(
                             "0.0,0.0,0.0,0.0,0.0", "0.0,nan,nan,nan,nan")},
                         "max violation nan"),
        # checked with the grid, before compute makes --out or iter_0.csv
        "extent_off_the_box": (("--model", "square-well", "--extent", "2"), {},
                               "does not match the box half-width"),
        # compute used to exit 2 only after writing iter_0.csv
        "coupling_off_the_grid": (("--model", "deltas", "--deltas", "0.5:3", "--extent", "2"),
                                  {}, "delta location 3.0 lies outside the grid"),
        # a document is the potential alone: r0 has no source on the command line
        "r0_with_point_couplings_only": (
            ("--potential", "{dir}/doc.json"),
            {"doc.json": json.dumps({**COUPLING_DOC, "grid": {"extent": 2.0},
                                     "series": {"r0": 0.5}})},
            "unknown potential keys ['grid', 'series']"),
        # each section used to set a value that a flag also sets
        "grid_section": (("--potential", "{dir}/doc.json"),
                         {"doc.json": json.dumps({**COUPLING_DOC, "grid": {"n": 65}})},
                         "unknown potential keys ['grid']: a potential holds only "
                         "constants, domain, segments, deltas; the grid comes from --n and "
                         "--extent, the series order from --order"),
        "series_section": (("--potential", "{dir}/doc.json"),
                           {"doc.json": json.dumps({**COUPLING_DOC,
                                                    "series": {"max_order": 2}})},
                           "unknown potential keys ['series']"),
        # "delta" for "deltas" used to run the free particle and exit 0
        "misspelled_deltas": (("--potential", "{dir}/doc.json"),
                              {"doc.json": json.dumps({
                                  "constants": {"hbar": 1.0, "mass": 1.0},
                                  "domain": {"type": "line"},
                                  "delta": [{"a": 0.25, "zeta": 0.5}]})},
                              "unknown potential keys ['delta']"),
    }
    DOCUMENT_CASES = ("grid_section", "series_section", "misspelled_deltas")

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_compute_exits_2_and_writes_nothing(self, tmp_path, capsys, case):
        argv, files, message = self.CASES[case]
        for name, text in files.items():
            (tmp_path / name).write_text(text)
        out = tmp_path / "run"
        capsys.readouterr()
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # e.g. numpy's "input contained no data"
            code = run("compute", *(a.format(dir=tmp_path) for a in argv),
                       "--n", "33", "--order", "1", "--out", str(out))
        assert code == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ") and message in captured.err
        assert captured.out == ""
        assert not out.exists()

    @pytest.mark.parametrize("command", ["oracle", "verify"])
    @pytest.mark.parametrize("case", DOCUMENT_CASES)
    def test_document_key_exits_2_and_writes_nothing(self, tmp_path, capsys, command, case):
        # verify is tried on a run of the document's potential, with its run
        # record and then without one
        argv, files, message = self.CASES[case]
        for name, text in files.items():
            (tmp_path / name).write_text(text)
        out = tmp_path / "run"
        argv = [command, *(a.format(dir=tmp_path) for a in argv), "--out", str(out)]
        if command == "verify":
            assert run("compute", "--model", "deltas", "--deltas", "1:0.25", "--extent", "2",
                       "--n", "33", "--order", "1", "--out", str(out)) == 0
        else:
            argv += ["--n", "33"]
        for _ in range(2 if command == "verify" else 1):
            before = sorted(p.name for p in out.iterdir()) if out.exists() else None
            capsys.readouterr()
            assert run(*argv) == 2
            captured = capsys.readouterr()
            assert captured.err.startswith("error: ") and message in captured.err
            assert captured.out == ""
            assert (sorted(p.name for p in out.iterdir()) if out.exists() else None) == before
            (out / "manifest.json").unlink(missing_ok=True)

    @pytest.mark.parametrize("command", ["compute", "oracle", "verify"])
    @pytest.mark.parametrize("part, key, where", [
        ("constants", "c0", "constants"), ("domain", "L", "domain (type line)"),
        ("segments", "v", "segments[0]"), ("deltas", "z", "deltas[0]")])
    def test_nested_document_key_exits_2_and_writes_nothing(self, tmp_path, capsys, command,
                                                            part, key, where):
        # each of these keys used to be dropped without a word
        doc = {**COUPLING_DOC, "segments": [{"from": -1, "to": 1, "re": 0, "im": 0.2}]}
        doc = json.loads(json.dumps(doc))
        (doc[part] if part in ("constants", "domain") else doc[part][0])[key] = 3
        (tmp_path / "doc.json").write_text(json.dumps(doc))
        out = tmp_path / "run"
        capsys.readouterr()
        assert run(command, "--potential", str(tmp_path / "doc.json"), "--out", str(out)) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith(f"error: unknown potential keys ['{key}'] in {where}, ")
        assert captured.out == ""
        assert not out.exists()

    def test_oracle_extent_off_the_box_exits_2_and_writes_nothing(self, tmp_path, capsys):
        # checked with the grid, before oracle makes --out
        argv, _, message = self.CASES["extent_off_the_box"]
        out = tmp_path / "run"
        capsys.readouterr()
        assert run("oracle", *argv, "--n", "33", "--out", str(out)) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ") and message in captured.err
        assert captured.out == ""
        assert not out.exists()

    @pytest.mark.parametrize("command", ["oracle", "verify"])
    def test_coupling_off_the_grid_exits_2_and_writes_nothing(self, tmp_path, capsys, command):
        # oracle used to move the coupling to the nearest interior node and exit 0,
        # and verify to exit 1 with a report
        argv, _, message = self.CASES["coupling_off_the_grid"]
        out = tmp_path / "run"
        if command == "oracle":
            argv = (*argv, "--n", "33")
        else:  # a kernel with no run record beside it, on the flags' grid
            kernel = tmp_path / "kernel.csv"
            kernel_to_csv(identity_kernel(Grid(2.0, 33)), kernel)
            argv = (*argv[:4], "--kernel", str(kernel),
                    "--checks", "invertibility,pseudo-hermiticity")
        capsys.readouterr()
        assert run(command, *argv, "--out", str(out)) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ") and message in captured.err
        assert captured.out == ""
        assert not out.exists()

    IGNORED_FLAGS = [
        ("deltas_default_model", ("--deltas", "1:0"), "--deltas needs --model deltas",
         ("compute", "verify", "oracle")),
        ("deltas_scattering", ("--model", "scattering", "--deltas", "1:0"),
         "--deltas needs --model deltas", ("compute", "verify", "oracle")),
        ("gauge_potential", ("--potential", "{dir}/doc.json", "--gauge", "natural"),
         "--gauge does not apply to a --potential file", ("compute", "verify", "oracle")),
        # compute keeps --zeta with these: it sets the preset seed's zeta
        ("zeta_potential", ("--potential", "{dir}/doc.json", "--zeta", "0.3"),
         "--zeta does not apply to a --potential file", ("verify", "oracle")),
        ("zeta_deltas", ("--model", "deltas", "--deltas", "1:0", "--zeta", "5"),
         "--zeta does not apply to --model deltas", ("verify", "oracle")),
    ]

    @pytest.mark.parametrize("command, flags, message", [
        pytest.param(command, flags, message, id=f"{name}-{command}")
        for name, flags, message, commands in IGNORED_FLAGS for command in commands])
    def test_ignored_model_flag_exits_2_before_writing(self, tmp_path, capsys, command, flags,
                                                       message):
        # each flag used to be dropped silently, with exit 0
        write_real_well_doc(tmp_path / "doc.json")
        out = tmp_path / "run"
        argv = [command, *(a.format(dir=tmp_path) for a in flags), "--out", str(out)]
        if command == "verify":  # a run to check, first with its record, then without
            assert run("compute", "--model", "square-well", "--n", "33", "--order", "1",
                       "--out", str(out)) == 0
        else:
            argv += ["--n", "33"]
        for _ in range(2 if command == "verify" else 1):
            before = sorted(p.name for p in out.iterdir()) if out.exists() else None
            capsys.readouterr()
            assert run(*argv) == 2
            captured = capsys.readouterr()
            assert captured.err.startswith(f"error: {message}")
            assert captured.out == ""
            assert (sorted(p.name for p in out.iterdir()) if out.exists() else None) == before
            (out / "manifest.json").unlink(missing_ok=True)

    def test_trailing_comma_in_deltas_is_accepted(self, tmp_path):
        model = ("compute", "--model", "deltas", "--n", "33", "--order", "1")
        assert run(*model, "--deltas", "0.5:0,", "--out", str(tmp_path / "comma")) == 0
        assert run(*model, "--deltas", "0.5:0", "--out", str(tmp_path / "plain")) == 0
        for name in ("kernel.csv", "manifest.json"):
            assert (tmp_path / "comma" / name).read_bytes() \
                == (tmp_path / "plain" / name).read_bytes()

    def test_seed_within_the_reality_rule_runs_without_a_seed_warning(self, tmp_path):
        # defect 2 * 4e-13 = 8e-13 <= 1e-12
        (tmp_path / "seed.csv").write_text(SEED_HEADER + seed_rows(4e-13))
        out = tmp_path / "run"
        assert run("compute", "--model", "square-well", "--seed", str(tmp_path / "seed.csv"),
                   "--n", "33", "--order", "1", "--out", str(out)) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert not any("seed" in w for w in manifest["warnings"])

    def test_verify_rejects_a_wrong_column_header(self, tmp_path, capsys):
        kernel = tmp_path / "kernel.csv"
        kernel_to_csv(identity_kernel(Grid.for_box(np.pi, 33)), kernel)
        lines = kernel.read_text().splitlines(keepends=True)
        assert lines[3] == "x,y,re,im\n"
        kernel.write_text("".join(lines[:3] + ["x,y,real,imag\n"] + lines[4:]))
        out = tmp_path / "checks"
        capsys.readouterr()
        assert run("verify", "--model", "square-well", "--kernel", str(kernel),
                   "--out", str(out)) == 2
        captured = capsys.readouterr()
        assert "unexpected column header 'x,y,real,imag'" in captured.err
        assert captured.out == ""
        assert not out.exists()
