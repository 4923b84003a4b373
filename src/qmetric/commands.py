"""The three subcommands behind the command line: compute, verify, oracle.

`qmetric.cli` parses the arguments and imports this module only then, so
numpy and the numerical modules load once a command runs.
"""

import dataclasses
import hashlib
import json
import sys
from pathlib import Path

import numpy as np

from .cli import (
    CHECK_NAMES,
    DEFAULT_N,
    DEFAULT_ZETA,
    SCATTERING_LENGTH,
    SQUARE_WELL_LENGTH,
)
from .closed_forms import preset_seed
from .kernels import (
    ForkedWriter,
    Grid,
    Kernel,
    SeedPair,
    _grids_match,
    kernel_from_csv,
    kernel_to_csv,
    kernel_to_pgm,
)
from .potentials import (
    check_grid,
    constants_preset,
    delta_potential,
    potential_from_dict,
    potential_to_dict,
    scattering_potential,
    square_well,
)
from .series import KConfig, neumann_series
from .spectral import (
    _is_pt_symmetric,
    biorthonormalize,
    discretize,
    spectral_metric,
    spectrum_to_csv,
)
from .verify import (
    _kg_budget_of,
    hermitian_eigenvalues,
    invertibility_check,
    kg_residual,
    positivity_check,
    pseudo_hermiticity_residual,
)


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
    if args.deltas is not None and args.model != "deltas":
        raise ValueError("--deltas needs --model deltas")
    if args.gauge is not None and args.potential:
        raise ValueError("--gauge does not apply to a --potential file, "
                         "whose constants section sets hbar and m")
    # with --potential or --model deltas, --zeta can set only a non-zero preset seed's zeta
    if args.zeta is not None and getattr(args, "preset_seed", None) in (None, "zero"):
        seeded = ("; compute takes it with a non-zero --preset-seed"
                  if args.command == "compute" else "")
        if args.potential:
            raise ValueError("--zeta does not apply to a --potential file, "
                             f"whose segments and deltas set the strengths{seeded}")
        if args.model == "deltas":
            raise ValueError("--zeta does not apply to --model deltas, "
                             f"whose --deltas list sets the strengths{seeded}")
    if args.potential:
        return potential_from_dict(_load_doc(args.potential))
    model = args.model or "square-well"
    gauge = args.gauge or ("bender-tan" if model == "square-well" else "natural")
    const = constants_preset(gauge)
    zeta = DEFAULT_ZETA if args.zeta is None else args.zeta
    if model == "square-well":
        return square_well(zeta, SQUARE_WELL_LENGTH, const)
    if model == "scattering":
        return scattering_potential(zeta, SCATTERING_LENGTH, const)
    if not args.deltas:  # argparse admits only the deltas model here
        raise ValueError("the deltas model needs a --deltas list")
    return delta_potential(_parse_delta_terms(args.deltas, const), const)


def _build_grid(args, pot) -> Grid:
    if args.extent is not None:
        extent = args.extent
    else:
        extent = pot.domain.L / 2.0 if pot.domain.is_box else 2.0
    grid = Grid(half_width=extent, n=DEFAULT_N if args.n is None else args.n)
    check_grid(pot, grid)  # before compute or oracle writes anything
    return grid


def _read_seed_table(path: str) -> SeedPair:
    try:
        raw = Path(path).read_bytes()
    except OSError as exc:
        raise ValueError(f"cannot read seed file {path!r}: {exc}") from exc
    lines = raw.decode().splitlines()
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
                               label=f"{Path(path).name} sha256:{hashlib.sha256(raw).hexdigest()}")


def _build_seed(args, pot) -> SeedPair:
    if args.seed and args.preset_seed:
        raise ValueError("--seed and --preset-seed are mutually exclusive")
    if args.seed:
        return _read_seed_table(args.seed)
    name = args.preset_seed or "zero"
    zeta = DEFAULT_ZETA if args.zeta is None else args.zeta
    length = pot.domain.L if pot.domain.is_box else SCATTERING_LENGTH
    return preset_seed(name, zeta, length, pot.constants)


def _model_config(pot, grid: Grid) -> dict:
    return {"potential": potential_to_dict(pot),
            "grid": {"extent": grid.half_width, "n": grid.n}}


def _config_dict(pot, grid: Grid, cfg: KConfig, seed_label: str) -> dict:
    return {**_model_config(pot, grid), "series": cfg.to_dict(), "seed": seed_label}


def _canonical(value) -> str:
    """The JSON text config_sha256 hashes: tuples and lists compare equal."""
    return json.dumps(value, sort_keys=True, separators=(",", ":"))


def _config_sha256(config: dict) -> str:
    return hashlib.sha256(_canonical(config).encode()).hexdigest()


def _write_manifest(out: Path, config: dict, extra: dict) -> None:
    manifest = {"config": config, "config_sha256": _config_sha256(config), **extra}
    (out / "manifest.json").write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")


def cmd_compute(args) -> int:
    pot = _build_potential(args)
    grid = _build_grid(args, pot)
    cfg = KConfig() if args.order is None else KConfig(max_order=args.order)
    seed = _build_seed(args, pot)
    out = Path(args.out)

    with ForkedWriter() as files:
        def write_iterate(order, kernel):
            if order == 0:  # the seed has passed seed_to_kernel's checks
                out.mkdir(parents=True, exist_ok=True)
                # an earlier run's record and iterates would describe another run
                (out / "manifest.json").unlink(missing_ok=True)
                for old in out.glob("iter_*.csv"):
                    if not old.is_dir():  # that order's write fails on a directory
                        old.unlink()
            files.write(kernel_to_csv, kernel, out / f"iter_{order}.csv")

        state = neumann_series(seed, pot, cfg, grid, sink=write_iterate)
        warnings: list = []
        if state.converged is False:
            warnings.append(f"the series has not converged: its truncation residual "
                            f"{state.truncation_residuals[-1]:.3g} exceeds the discretization "
                            f"residual {state.discretization_residual:.3g}; raise --order")
        if state.truncated_evals:
            warnings.append(f"{state.truncated_evals} characteristic evaluations were "
                            "clamped to the grid square")
        _write_manifest(out, _config_dict(pot, grid, cfg, seed.label),
                        {"sup_norms": [float(s) for s in state.sup_norms],
                         "truncation_residuals": state.truncation_residuals,
                         "discretization_residual": state.discretization_residual,
                         "converged": state.converged,
                         "truncated_evals": int(state.truncated_evals),
                         "warnings": warnings})
        files.write(kernel_to_csv, state.partial_sum, out / "kernel.csv")
        files.write(kernel_to_pgm, state.partial_sum, out / "kernel.pgm")
    for w in warnings:
        print(f"warning: {w}", file=sys.stderr)
    print(f"wrote kernel artifacts for {len(state.sup_norms)} orders to {out}")
    return 0


def _check_names(text: str) -> list:
    """The --checks list, validated before any kernel is read."""
    names = [p.strip() for p in text.split(",") if p.strip()]
    if not names:
        raise ValueError("empty --checks list")
    for i, name in enumerate(names):
        if name not in CHECK_NAMES:
            raise ValueError(f"unknown check {name!r}; choose from {', '.join(CHECK_NAMES)}")
        if name in names[:i]:
            raise ValueError(f"check {name!r} is named twice in --checks")
    return names


def _run_checks(names, kernel: Kernel, pot, grid: Grid):
    # one eigvalsh serves positivity and invertibility on an exactly Hermitian kernel
    eigenvalues = (hermitian_eigenvalues(kernel)
                   if {"positivity", "invertibility"} & set(names) else None)
    # _check_names admits only these names
    run = {
        "kg": lambda: kg_residual(kernel, pot, grid),
        "positivity": lambda: positivity_check(kernel, grid, eigenvalues=eigenvalues),
        "invertibility": lambda: invertibility_check(kernel, grid, eigenvalues=eigenvalues),
        "pseudo-hermiticity": lambda: pseudo_hermiticity_residual(kernel,
                                                                  discretize(pot, grid)),
    }
    return [run[name]() for name in names]


MODEL_FLAGS = ("model", "potential", "zeta", "deltas", "gauge")


def _run_records(out: Path) -> dict:
    """{path: (potential dict, grid, config_sha256)} for out/manifest.json
    (from compute) and out/oracle.json, in that order, as far as they exist.
    When out holds both, they must record the same potential."""
    records = {}
    for path in (out / "manifest.json", out / "oracle.json"):
        if path.exists():
            try:
                record = json.loads(path.read_text())
                config = record["config"]
                grid = Grid(float(config["grid"]["extent"]), int(config["grid"]["n"]))
                records[path] = config["potential"], grid, record["config_sha256"]
            except (ValueError, KeyError, TypeError) as exc:
                raise ValueError(f"run record {str(path)!r} holds no usable config: "
                                 f"{exc!r}") from exc
    if len({_canonical(potential) for potential, _, _ in records.values()}) > 1:
        raise ValueError(f"the run records {' and '.join(repr(str(p)) for p in records)} "
                         "give different potentials; verify the kernel where only the "
                         "record of its own run lies")
    return records


def _read_kernel(path) -> Kernel:
    """kernel_from_csv, with FloatingPointError for a value that is not finite,
    so that no check or solve runs on one."""
    kernel = kernel_from_csv(path)
    for name in ("c_diag", "c_anti"):
        if not np.isfinite(getattr(kernel, name)):
            raise FloatingPointError(f"kernel {str(path)!r} holds a non-finite {name}, "
                                     f"{getattr(kernel, name)}")
    finite = np.isfinite(kernel.smooth)
    if not finite.all():
        k = int(np.argmin(finite, axis=None))
        i, j = divmod(k, kernel.grid.n)
        x, y, value = kernel.grid.nodes[i], kernel.grid.nodes[j], kernel.smooth[i, j]
        raise FloatingPointError(f"kernel {str(path)!r} holds a non-finite value in data row "
                                 f"{k + 1}, at the node x,y = {float(x)!r},{float(y)!r}: "
                                 f"re,im = {float(value.real)!r},{float(value.imag)!r}")
    return kernel


def cmd_verify(args) -> int:
    names = _check_names(args.checks)
    out = Path(args.out)
    # a run is checked against the potential it was made with; model flags
    # are needed only for a kernel with no run record in --out
    records = _run_records(out)
    if not records:
        pot = _build_potential(args)
    else:
        recorded, _, first_sha256 = next(iter(records.values()))
        if any(getattr(args, flag) is not None for flag in MODEL_FLAGS):
            flagged = _build_potential(args)
            if _canonical(potential_to_dict(flagged)) != _canonical(recorded):
                raise ValueError(f"the model flags do not match the potential recorded "
                                 f"in {out} (config_sha256 {first_sha256})")
        pot = potential_from_dict(recorded)
    kernel = _read_kernel(out / "kernel.csv" if args.kernel is None else Path(args.kernel))
    grid = kernel.grid
    if not records:
        config_sha256 = _config_sha256(_model_config(pot, grid))
    else:  # the record of the kernel's own run is the first whose grid it matches
        config_sha256 = next((sha256 for _, recorded_grid, sha256 in records.values()
                              if _grids_match(grid, recorded_grid)), None)
        if config_sha256 is None:
            recorded_grids = "; ".join(f"{path.name}: n={g.n}, half-width {g.half_width}"
                                       for path, (_, g, _) in records.items())
            raise ValueError(f"the kernel grid (n={grid.n}, half-width {grid.half_width}) "
                             f"does not match the grid recorded in {out} ({recorded_grids})")
    check_grid(pot, grid)
    reports = _run_checks(names, kernel, pot, grid)
    out.mkdir(parents=True, exist_ok=True)
    with open(out / "checks.jsonl", "w") as f:
        for rep in reports:
            line = rep.to_json_line(config_sha256=config_sha256)
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
    pot = _build_potential(args)
    grid = _build_grid(args, pot)
    if args.order is not None and not 1 <= args.order <= grid.n - 2:
        raise ValueError(f"--order must lie in [1, {grid.n - 2}] for n={grid.n}, "
                         f"got {args.order}")
    series_kernel = None
    if args.cross_check:  # read first: a bad kernel fails before anything is written
        series_kernel = _read_kernel(args.cross_check)
        if not _grids_match(series_kernel.grid, grid):
            raise ValueError("cross-check kernel grid does not match the oracle grid")
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    metric, summary = _spectral_artifacts(pot, grid, args.order, out)

    failed = False
    if series_kernel is not None:
        # the budget reads the series kernel's sup before the difference overwrites it in place
        tolerance = _kg_budget_of(series_kernel, pot, grid)
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
        summary.update(cross_check=json.loads(line), cross_check_pass=rep.passed)
        failed = not rep.passed

    n_modes = summary.pop("n_modes")  # it shapes the metric, so the hashed config holds it
    config = {**_model_config(pot, grid), "n_modes": n_modes}
    summary.update(config=config, config_sha256=_config_sha256(config))
    (out / "oracle.json").write_text(json.dumps(summary, indent=2, sort_keys=True) + "\n")
    print(f"wrote spectrum and {n_modes}-mode metric to {out}"
          + ("" if summary["all_real"] else " (complex energies present)"))
    return 1 if failed else 0
