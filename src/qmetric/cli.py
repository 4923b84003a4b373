"""Batch front-end: compute kernels, verify them, run the spectral oracle.

Exit codes: 0 success, 1 requested check failed, 2 configuration error,
3 numerical failure (divergent linear algebra, exceptional point, NaN).
"""

import argparse
import dataclasses
import hashlib
import json
import sys
from pathlib import Path

import numpy as np

from .closed_forms import preset_seed
from .kernels import (
    FLOAT_FMT,
    Grid,
    Kernel,
    SeedPair,
    kernel_from_csv,
    kernel_to_csv,
    kernel_to_pgm,
    write_kernel_files,
)
from .potentials import (
    constants_preset,
    delta_potential,
    potential_from_dict,
    potential_to_dict,
    scattering_potential,
    square_well,
)
from .series import KConfig, neumann_series
from .spectral import (
    ExceptionalPointError,
    _is_pt_symmetric,
    biorthonormalize,
    discretize,
    spectral_metric,
    spectrum_to_csv,
)
from .verify import (
    INVERTIBILITY_TOL,
    KG_TOL,
    PSEUDO_HERMITICITY_TOL,
    _grids_match,
    hermitian_eigenvalues,
    invertibility_check,
    kg_residual,
    mass_term_sup,
    positivity_check,
    pseudo_hermiticity_residual,
)

SQUARE_WELL_LENGTH = float(np.pi)
SCATTERING_LENGTH = 1.0
DEFAULT_N = 129
DEFAULT_ZETA = 0.1

# Headroom factor over sup|mu^2| * sup|kernel| in the residual budget for
# the wave-equation check; measured once over the shipped model family.
KG_HEADROOM = 1.25

CHECK_NAMES = ("kg", "positivity", "invertibility", "pseudo-hermiticity")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qmetric",
        description="pseudo-metric kernel computation for 1-d non-Hermitian models")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_shared(p, with_order=True):
        group = p.add_mutually_exclusive_group()
        group.add_argument("--model", choices=["square-well", "scattering", "deltas"],
                           help="built-in potential family")
        group.add_argument("--potential", metavar="FILE",
                           help="JSON potential document (may embed grid and series sections)")
        p.add_argument("--zeta", type=float, default=None,
                       help="coupling strength for the built-in models (default 0.1)")
        p.add_argument("--deltas", metavar="Z:A[,Z:A...]", default=None,
                       help="point couplings as scaled-strength:location pairs")
        p.add_argument("--gauge", choices=["natural", "bender-tan"], default=None,
                       help="constants preset (default bender-tan for square-well, else natural)")
        if with_order:
            p.add_argument("--order", type=int, default=None)
        p.add_argument("--n", type=int, default=None, help="grid nodes per axis (odd)")
        p.add_argument("--extent", type=float, default=None, help="grid half-width")
        p.add_argument("--out", default="out", help="artifact directory")

    pc = sub.add_parser("compute", help="iterate the series and write kernel artifacts")
    add_shared(pc)
    pc.add_argument("--seed", metavar="FILE", default=None,
                    help="tabulated seed CSV with columns x,up_re,up_im,um_re,um_im")
    pc.add_argument("--preset-seed", choices=["zero", "bender-tan", "jmp-2005"],
                    default=None, help="named seed profile (default zero)")
    pc.set_defaults(func=cmd_compute)

    pv = sub.add_parser("verify", help="run residual checks on a stored kernel")
    add_shared(pv, with_order=False)
    pv.add_argument("--checks", default=",".join(CHECK_NAMES),
                    help="comma list out of: " + ", ".join(CHECK_NAMES))
    pv.add_argument("--kernel", metavar="FILE", default=None,
                    help="kernel CSV to check, e.g. an oracle metric.csv "
                         "(default <out>/kernel.csv)")
    pv.set_defaults(func=cmd_verify)

    po = sub.add_parser("oracle", help="biorthonormal spectrum and spectral metric")
    add_shared(po)
    po.add_argument("--cross-check", metavar="KERNEL_CSV", default=None,
                    help="series kernel to difference against the spectral metric")
    po.set_defaults(func=cmd_oracle)
    return parser


def _parse_delta_terms(text: str, constants) -> list:
    terms = []
    for piece in text.split(","):
        piece = piece.strip()
        if not piece:
            continue
        parts = piece.split(":")
        if len(parts) != 2:
            raise ValueError(f"bad coupling entry {piece!r}, expected Z:A")
        try:
            z, a = float(parts[0]), float(parts[1])
        except ValueError as exc:
            raise ValueError(f"bad coupling entry {piece!r}: {exc}") from exc
        terms.append((a, z / constants.c0))
    if not terms:
        raise ValueError("empty --deltas list")
    return terms


def _load_doc(path: str) -> dict:
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ValueError(f"cannot read potential file {path!r}: {exc}") from exc
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"invalid JSON in {path!r}: {exc}") from exc
    if not isinstance(doc, dict):
        raise ValueError(f"potential document {path!r} must be a JSON object")
    return doc


def _build_potential(args):
    """Return (potential, doc) where doc is the parsed JSON file, if any."""
    if getattr(args, "potential", None):
        doc = _load_doc(args.potential)
        return potential_from_dict(doc), doc
    model = args.model or "square-well"
    gauge = args.gauge or ("bender-tan" if model == "square-well" else "natural")
    const = constants_preset(gauge)
    zeta = DEFAULT_ZETA if args.zeta is None else args.zeta
    if model == "square-well":
        return square_well(zeta, SQUARE_WELL_LENGTH, const), None
    if model == "scattering":
        return scattering_potential(zeta, SCATTERING_LENGTH, const), None
    if not args.deltas:  # argparse admits only the deltas model here
        raise ValueError("the deltas model needs a --deltas list")
    return delta_potential(_parse_delta_terms(args.deltas, const), const), None


def _build_grid(args, pot, doc) -> Grid:
    grid_doc = (doc or {}).get("grid", {})
    n = args.n if args.n is not None else int(grid_doc.get("n", DEFAULT_N))
    if args.extent is not None:
        extent = args.extent
    elif "extent" in grid_doc:
        extent = float(grid_doc["extent"])
    elif pot.domain.is_box:
        extent = pot.domain.L / 2.0
    else:
        extent = 2.0
    return Grid(half_width=extent, n=n)


def _build_series_config(args, doc) -> KConfig:
    cfg = KConfig.from_dict((doc or {}).get("series", {})) if doc else KConfig()
    order = getattr(args, "order", None)
    if order is not None:
        cfg = dataclasses.replace(cfg, max_order=order)
    elif doc is None:
        cfg = dataclasses.replace(cfg, max_order=1)
    return cfg


def _read_seed_table(path: str) -> SeedPair:
    try:
        lines = Path(path).read_text().splitlines()
    except OSError as exc:
        raise ValueError(f"cannot read seed file {path!r}: {exc}") from exc
    if not lines or lines[0].strip() != "x,up_re,up_im,um_re,um_im":
        raise ValueError(f"seed file {path!r} must start with x,up_re,up_im,um_re,um_im")
    if not any(line.strip() for line in lines[1:]):
        raise ValueError(f"seed file {path!r} has no data rows")
    try:
        data = np.loadtxt(lines[1:], delimiter=",", ndmin=2)
    except ValueError as exc:
        raise ValueError(f"malformed seed file {path!r}: {exc}") from exc
    if data.shape[1] != 5:
        raise ValueError(f"seed file {path!r} has {data.shape[1]} columns, expected 5")
    return SeedPair.from_table(data[:, 0],
                               data[:, 1] + 1j * data[:, 2],
                               data[:, 3] + 1j * data[:, 4],
                               label=Path(path).name)


def _build_seed(args, pot) -> SeedPair:
    if args.seed and args.preset_seed:
        raise ValueError("--seed and --preset-seed are mutually exclusive")
    if args.seed:
        return _read_seed_table(args.seed)
    name = args.preset_seed or "zero"
    zeta = DEFAULT_ZETA if args.zeta is None else args.zeta
    length = pot.domain.L if pot.domain.is_box else SCATTERING_LENGTH
    return preset_seed(name, zeta, length, pot.constants)


def _kg_tolerance(pot, grid: Grid, kernel: Kernel) -> float:
    return max(KG_TOL, KG_HEADROOM * mass_term_sup(pot, grid) * kernel.sup_smooth)


def _tolerances(pot, grid: Grid, kernel: Kernel) -> dict:
    return {
        "kg": _kg_tolerance(pot, grid, kernel),
        "kg_headroom": KG_HEADROOM,
        "pseudo_hermiticity": PSEUDO_HERMITICITY_TOL,
        "invertibility": INVERTIBILITY_TOL,
    }


def _config_dict(pot, grid: Grid, cfg: KConfig, seed_label: str) -> dict:
    return {
        "potential": potential_to_dict(pot),
        "grid": {"extent": grid.half_width, "n": grid.n},
        "series": cfg.to_dict(),
        "seed": seed_label,
    }


def _write_manifest(out: Path, config: dict, tolerances: dict, extra: dict) -> None:
    canonical = json.dumps(config, sort_keys=True, separators=(",", ":"))
    manifest = {
        "config": config,
        "config_sha256": hashlib.sha256(canonical.encode()).hexdigest(),
        "tolerances": tolerances,
    }
    manifest.update(extra)
    (out / "manifest.json").write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")


def cmd_compute(args) -> int:
    pot, doc = _build_potential(args)
    grid = _build_grid(args, pot, doc)
    cfg = _build_series_config(args, doc)
    seed = _build_seed(args, pot)

    state = neumann_series(seed, pot, cfg, grid)
    warnings: list = []
    if state.diverged:
        warnings.append("series sup norms are increasing; the expansion may diverge")
    if state.truncated_evals:
        warnings.append(f"{state.truncated_evals} characteristic evaluations were "
                        "clamped to the grid square")

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    # the run record first: it does not depend on the kernel files, and it
    # stays when one of them cannot be written
    with open(out / "supnorms.csv", "w") as f:
        f.write("order,sup_norm\n")
        for k, s in enumerate(state.sup_norms):
            f.write(("%d," + FLOAT_FMT) % (k, s) + "\n")
    _write_manifest(out, _config_dict(pot, grid, cfg, seed.label),
                    _tolerances(pot, grid, state.partial_sum),
                    {"sup_norms": [float(s) for s in state.sup_norms],
                     "diverged": bool(state.diverged),
                     "truncated_evals": int(state.truncated_evals),
                     "warnings": warnings})
    write_kernel_files([(kernel_to_csv, state.partial_sum, out / "kernel.csv")]
                       + [(kernel_to_csv, it, out / f"iter_{k}.csv")
                          for k, it in enumerate(state.iterates)]
                       + [(kernel_to_pgm, state.partial_sum, out / "kernel.pgm")])
    for w in warnings:
        print(f"warning: {w}", file=sys.stderr)
    print(f"wrote kernel artifacts for {len(state.iterates)} orders to {out}")
    return 0


def _check_names(text: str) -> list:
    """The --checks list, validated before any kernel is read."""
    names = [p.strip() for p in text.split(",") if p.strip()]
    if not names:
        raise ValueError("empty --checks list")
    for name in names:
        if name not in CHECK_NAMES:
            raise ValueError(f"unknown check {name!r}; choose from {', '.join(CHECK_NAMES)}")
    return names


def _run_checks(names, kernel: Kernel, pot, grid: Grid):
    # one eigvalsh serves positivity and invertibility on an exactly Hermitian kernel
    eigenvalues = (hermitian_eigenvalues(kernel)
                   if {"positivity", "invertibility"} & set(names) else None)
    # _check_names admits only these names
    run = {
        "kg": lambda: kg_residual(kernel, pot, grid,
                                  tolerance=_kg_tolerance(pot, grid, kernel)),
        "positivity": lambda: positivity_check(kernel, grid, eigenvalues=eigenvalues),
        "invertibility": lambda: invertibility_check(kernel, grid, eigenvalues=eigenvalues),
        "pseudo-hermiticity": lambda: pseudo_hermiticity_residual(kernel,
                                                                  discretize(pot, grid)),
    }
    return [run[name]() for name in names]


def cmd_verify(args) -> int:
    names = _check_names(args.checks)
    pot, doc = _build_potential(args)
    out = Path(args.out)
    kernel = kernel_from_csv(out / "kernel.csv" if args.kernel is None else Path(args.kernel))
    grid = kernel.grid
    if args.n is not None and args.n != grid.n:
        raise ValueError(f"--n {args.n} does not match the stored kernel grid n={grid.n}")
    if args.extent is not None and not _grids_match(grid, Grid(args.extent, grid.n)):
        raise ValueError(f"--extent {args.extent} does not match the stored kernel "
                         f"half-width {grid.half_width}")
    reports = _run_checks(names, kernel, pot, grid)
    out.mkdir(parents=True, exist_ok=True)
    with open(out / "checks.jsonl", "w") as f:
        for rep in reports:
            line = rep.to_json_line()
            print(line)
            f.write(line + "\n")
    return 0 if all(rep.passed for rep in reports) else 1


def _spectral_artifacts(pot, grid: Grid, order, out: Path):
    """Write spectrum.csv and metric.csv to out; return (metric, summary).

    The cross-check kernel, when given, is read before this runs and
    stays alive throughout.  The dense Hamiltonian is freed inside the
    eigen-solve once its diagonals are read (once folded, or on the
    complex branch once solved).  On an exactly PT-symmetric H with real
    levels no m x m complex eigenvector array exists: the solve peaks at
    the inverse, with the right eigenvectors, the inverse and LAPACK's
    two m x m work arrays alive, all real, and the system keeps the left
    vectors as one m x m real array X.  spectral_metric then holds X, its
    real Gram matrix X X^T and the metric on the full grid, the peak of
    the run; the system is dropped before metric.csv is written.  A
    PT-broken or non-PT H keeps complex eigenvectors, about three m x m
    complex arrays at the solve's peak.  The cross-check's residual after
    this runs over row blocks on the difference, formed in place in the
    cross-check kernel, and adds only O(block n).
    """
    ham = discretize(pot, grid)
    system = biorthonormalize(ham)
    n_modes = order if order is not None else system.energies.size
    metric = spectral_metric(system, n_modes)

    spectrum_to_csv(system, out / "spectrum.csv")
    e, defect = system.energies, system.defect
    del system  # its left vectors are summed into the metric
    kernel_to_csv(metric, out / "metric.csv")

    all_real = bool(np.all(np.abs(e.imag) <= 1e-6 * np.maximum(np.abs(e.real), 1e-30)))
    summary = {
        "all_real": all_real,
        "n_modes": int(n_modes),
        "pairing_defect": float(defect),
        "pt_real": _is_pt_symmetric(ham.diag) and _is_pt_symmetric(ham.off),
        "ground_energy_re": float(e[0].real),
        "ground_energy_im": float(e[0].imag),
    }
    return metric, summary


def cmd_oracle(args) -> int:
    pot, doc = _build_potential(args)
    grid = _build_grid(args, pot, doc)
    if args.order is not None and not 1 <= args.order <= grid.n - 2:
        raise ValueError(f"--order must lie in [1, {grid.n - 2}] for n={grid.n}, "
                         f"got {args.order}")
    series_kernel = None
    if args.cross_check:  # read first: a bad kernel fails before anything is written
        series_kernel = kernel_from_csv(args.cross_check)
        if not _grids_match(series_kernel.grid, grid):
            raise ValueError("cross-check kernel grid does not match the oracle grid")
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    metric, summary = _spectral_artifacts(pot, grid, args.order, out)

    failed = False
    if series_kernel is not None:
        # the tolerance scales with the series kernel, so it is taken before
        # the difference overwrites that kernel's smooth part in place
        tolerance = _kg_tolerance(pot, grid, series_kernel)
        series_kernel.smooth -= metric.smooth
        diff = Kernel(grid=grid,
                      c_diag=series_kernel.c_diag - metric.c_diag,
                      c_anti=series_kernel.c_anti - metric.c_anti,
                      smooth=series_kernel.smooth)
        del metric  # kg_residual reads the difference alone
        rep = kg_residual(diff, pot, grid, tolerance=tolerance)
        rep = dataclasses.replace(rep, check="difference-kg")
        line = rep.to_json_line()
        print(line)
        (out / "cross_check.json").write_text(line + "\n")
        summary["cross_check_pass"] = rep.passed
        failed = not rep.passed

    (out / "oracle.json").write_text(json.dumps(summary, indent=2, sort_keys=True) + "\n")
    print(f"wrote spectrum and {summary['n_modes']}-mode metric to {out}"
          + ("" if summary["all_real"] else " (complex energies present)"))
    return 1 if failed else 0


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ExceptionalPointError, FloatingPointError, np.linalg.LinAlgError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
