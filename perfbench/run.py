#!/usr/bin/env python3
"""qmetric benchmark: three CLI workloads timed end to end, and a traced run per layer.

Run from the repository root:

    python3 perfbench/run.py --workload well-series --seed 1 --seconds 30 --trace 0

Workloads.  Inputs are drawn from --seed; the program receives only the
generated command-line arguments, which are printed with the results.

  well-series        imaginary square well on the pi box (bender-tan gauge),
                     zeta in [0.05, 0.2]: `compute --n 513 --order 4`, then
                     `verify --checks kg,positivity,invertibility`.  The
                     characteristic quadrature (series.apply_K_smooth) and the
                     CSV writes do almost all the work.
  deltas-series      three point couplings on half-width 2, at grid nodes in
                     [-1, 1] with scaled strengths in [0.3, 1.0]:
                     `compute --n 513 --order 6`, then
                     `verify --checks invertibility`.  apply_K_smooth never runs;
                     the slice rule and artifact I/O do the work.  Positivity
                     genuinely fails for these couplings and kg straddles their
                     jump lines, so only invertibility is verified; it is
                     verified at all so that verify_s exists on every workload.
  oracle-crosscheck  the well at n=769: `oracle --cross-check` against an
                     order-1 series kernel made once in set-up (untimed), then
                     `verify` with all four checks on the spectral metric.
                     Dense eig (spectral.pair_eigensystem) and the verify linear
                     algebra do the work; the series does nothing.

Load is a closed loop with one client: each subcommand starts after the
previous one has ended.  The program keeps its default BLAS thread pool.
With --trace 0 the timed passes follow one untimed run of the build step at
the workload's own grid size, so that no timed build is the first full-size
run of the benchmark run.  Each timed subcommand is a fresh process, so it
pays LAPACK's first call as a user does.

--trace 0  Every subcommand runs as its own process, which calls
           `qmetric.cli:main` as the console script does.  Timed passes
           repeat for about --seconds; the end-to-end metrics are medians of
           the children's wall times, read with wait4, over the passes.
           build_s is the compute (or oracle) step, verify_s the verify step,
           setup_s `qmetric --help`.
--trace 1  The passes run in this process through qmetric.cli.main(argv),
           alternating traced and untraced passes.  Spans are recorded around
           the public functions of the series, spectral, verify, kernels and
           potentials modules; the per-layer metrics are warm medians from
           the traced passes after the first, whose first calls give the
           `.cold_s` figures.  `trace.overhead_pct` compares traced and
           untraced passes.  Each per-layer line names the end-to-end metric
           and the workloads it should move (LAYER_TARGETS).  The spans are
           written to .perfbench_work/spans-<workload>-seed<seed>.json.

Every invocation is checked (exit code and artifact gates, see Recorder).  The
last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics; the metric names and units are those of
BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import importlib
import inspect
import json
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import threading
import time
import traceback
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

FULL_N = {"well-series": 513, "deltas-series": 513, "oracle-crosscheck": 769}
SETUP_SAMPLES = 5
# verify runs per timed pass; verify takes about 0.6 s after a series
# compute and 2 s on the spectral metric
VERIFY_SAMPLES = {"well-series": 3, "deltas-series": 3, "oracle-crosscheck": 2}
MIN_PASSES = 2
CHILD_TIMEOUT_S = 150.0

# CSV artifacts keep 13 significant digits (FLOAT_FMT = %.12e), so a stored
# value can sit 5e-13 of its magnitude from the computed one.
CSV_REL_TOL = 1e-12

TRACED_MODULES = ("series", "spectral", "verify", "kernels", "potentials")

# The console script `qmetric`, run from the sources.
QMETRIC = [sys.executable, "-c", "import sys; from qmetric.cli import main; sys.exit(main())"]

GATES = ("exit_code", "help_text", "iter1_closed_form", "kernel_hermitian",
         "manifest_identical", "checks_pass", "oracle_summary")


# --------------------------------------------------------------------------
# Workload plans


@dataclass
class Step:
    """One qmetric invocation and the gates that check its output."""

    role: str                  # "build" or "verify": the end-to-end metric it feeds
    argv: list
    out: Path                  # directory the invocation writes into
    gates: list = field(default_factory=list)   # (gate name, callable -> problems)
    link: tuple | None = None  # (existing, new) hard link made before the step


@dataclass
class Plan:
    inputs: dict
    setup: list                # steps run once per benchmark run, untimed
    steps: list                # steps of one pass
    pass_dir: Path             # cleared before every pass
    verify_samples: int = 1    # verify runs per timed pass


def _draw(workload: str, seed: int) -> dict:
    rng = random.Random(f"{workload}:{seed}")
    if workload == "deltas-series":
        # multiples of 1/16 are nodes of every grid 2^k + 1 wide on half-width 2
        locations = rng.sample(range(-16, 17), 3)
        return {"deltas": ",".join(f"{round(rng.uniform(0.3, 1.0), 6)!r}:{j / 16!r}"
                                   for j in sorted(locations))}
    return {"zeta": round(rng.uniform(0.05, 0.2), 6)}


def make_plan(workload: str, seed: int, base: Path, n: int | None = None) -> Plan:
    """Steps of one pass of `workload` writing under `base`, at grid size n."""
    from qmetric.closed_forms import delta_first_iterate, square_well_k_delta
    from qmetric.potentials import constants_preset

    n = FULL_N[workload] if n is None else n
    inputs = _draw(workload, seed)
    run_dir = base / "run"
    memo: dict = {}

    if workload == "deltas-series":
        model = ["--model", "deltas", "--deltas", inputs["deltas"]]
        terms = [tuple(float(v) for v in p.split(":")) for p in inputs["deltas"].split(",")]

        def reference(X, Y):
            return sum(delta_first_iterate(X, Y, z, a) for z, a in terms)

        compute = Step("build", ["compute", *model, "--extent", "2", "--n", str(n),
                                 "--order", "6", "--out", str(run_dir)], run_dir)
        verify = Step("verify", ["verify", *model, "--checks", "invertibility",
                                 "--out", str(run_dir)], run_dir)
        _compute_gates(compute, reference, memo)
        verify.gates.append(("checks_pass", functools.partial(gate_checks, run_dir, 1)))
        return Plan(inputs, [], [compute, verify], run_dir, VERIFY_SAMPLES[workload])

    model = ["--model", "square-well", "--zeta", repr(inputs["zeta"])]
    constants = constants_preset("bender-tan")

    def reference(X, Y):
        return square_well_k_delta(X, Y, inputs["zeta"], constants)

    if workload == "well-series":
        compute = Step("build", ["compute", *model, "--n", str(n), "--order", "4",
                                 "--out", str(run_dir)], run_dir)
        verify = Step("verify", ["verify", *model, "--checks", "kg,positivity,invertibility",
                                 "--out", str(run_dir)], run_dir)
        _compute_gates(compute, reference, memo)
        verify.gates.append(("checks_pass", functools.partial(gate_checks, run_dir, 3)))
        return Plan(inputs, [], [compute, verify], run_dir, VERIFY_SAMPLES[workload])

    if workload != "oracle-crosscheck":
        raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(FULL_N)}")
    series_dir = base / "series"
    series = Step("setup", ["compute", *model, "--n", str(n), "--order", "1",
                            "--out", str(series_dir)], series_dir)
    _compute_gates(series, reference, memo)
    oracle = Step("build", ["oracle", *model, "--n", str(n), "--cross-check",
                            str(series_dir / "kernel.csv"), "--out", str(run_dir)], run_dir)
    oracle.gates += [("oracle_summary", functools.partial(gate_oracle, run_dir)),
                     ("kernel_hermitian",
                      functools.partial(gate_hermitian, run_dir / "metric.csv"))]
    verify = Step("verify", ["verify", *model, "--out", str(run_dir)], run_dir,
                  link=(run_dir / "metric.csv", run_dir / "kernel.csv"))
    verify.gates.append(("checks_pass", functools.partial(gate_checks, run_dir, 4)))
    return Plan(inputs, [series], [oracle, verify], run_dir, VERIFY_SAMPLES[workload])


def _compute_gates(step: Step, reference, memo: dict) -> None:
    step.gates += [
        ("iter1_closed_form", functools.partial(gate_iter1, step.out, reference)),
        ("kernel_hermitian", functools.partial(gate_hermitian, step.out / "kernel.csv")),
        ("manifest_identical", functools.partial(gate_manifest, step.out, memo)),
    ]


# --------------------------------------------------------------------------
# Correctness gates: each returns a list of problems, empty when the output is right.


def gate_iter1(run_dir: Path, reference) -> list:
    """iter_1.csv equals the closed-form first iterate to CSV precision."""
    from qmetric.kernels import kernel_from_csv
    import numpy as np

    k = kernel_from_csv(run_dir / "iter_1.csv")
    X, Y = k.grid.mesh()
    ref = np.asarray(reference(X, Y), dtype=complex)
    dev = float(np.max(np.abs(k.smooth - ref))) / max(float(np.max(np.abs(ref))), 1e-300)
    problems = []
    if not dev <= CSV_REL_TOL:
        problems.append(f"iter_1.csv is {dev:.3e} (relative) from the closed form")
    if k.c_diag != 0 or k.c_anti != 0:
        problems.append("iter_1.csv has singular parts")
    return problems


def gate_hermitian(path: Path) -> list:
    """The stored kernel is Hermitian to CSV precision."""
    from qmetric.kernels import hermiticity_defect, kernel_from_csv

    k = kernel_from_csv(path)
    defect = hermiticity_defect(k)
    if not defect <= CSV_REL_TOL * max(1.0, k.sup_smooth):
        return [f"{path.name} Hermiticity defect {defect:.3e}"]
    return []


def gate_manifest(run_dir: Path, memo: dict) -> list:
    """manifest.json is byte-identical to the one of the first pass."""
    data = (run_dir / "manifest.json").read_bytes()
    if memo.setdefault("manifest", data) != data:
        return ["manifest.json differs from the first pass"]
    return []


def gate_checks(run_dir: Path, expected: int) -> list:
    """checks.jsonl holds one passing record per requested check."""
    records = [json.loads(line) for line in
               (run_dir / "checks.jsonl").read_text().splitlines() if line.strip()]
    if len(records) != expected:
        return [f"checks.jsonl has {len(records)} records, expected {expected}"]
    return [f"check {r.get('check')} failed" for r in records if r.get("pass") is not True]


def gate_oracle(run_dir: Path) -> list:
    """oracle.json reports a real spectrum and a passing cross-check."""
    summary = json.loads((run_dir / "oracle.json").read_text())
    return [f"oracle.json {key} is not true" for key in ("all_real", "cross_check_pass")
            if summary.get(key) is not True]


def gate_help(output: str) -> list:
    """--help printed the usage line."""
    return [] if "usage: qmetric" in output else ["--help printed no usage line"]


class Recorder:
    """Counts invocations and gate failures; failed_frac = failed / attempted."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list = []
        self.gates_run: Counter = Counter()

    @property
    def failed_frac(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0

    def check(self, label: str, rc, gates) -> None:
        """Count one invocation; gates (name, zero-argument callable) run when rc is 0."""
        self.attempted += 1
        self.gates_run["exit_code"] += 1
        problems = [] if rc == 0 else [f"exit code {rc}"]
        if not problems:
            for name, gate in gates:
                self.gates_run[name] += 1
                try:
                    problems += gate()
                except (OSError, ValueError, KeyError) as exc:
                    problems.append(f"{name}: {exc}")
        if problems:
            self.failed += 1
            self.problems.append(f"{label}: {'; '.join(problems)}")


# --------------------------------------------------------------------------
# Running qmetric


@dataclass
class Outcome:
    rc: int | None
    wall_s: float
    rss_mb: float
    written: int
    output: str


def _child_env(extra: dict | None = None) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    env.update(extra or {})
    return env


def spawn(argv: list, log: Path) -> Outcome:
    """Run `qmetric argv` as a child process; wall time and peak RSS from wait4."""
    with open(log, "w+") as out:
        t0 = time.perf_counter()
        proc = subprocess.Popen([*QMETRIC, *argv], stdout=out, stderr=subprocess.STDOUT,
                                cwd=ROOT, env=_child_env())
        watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            watchdog.cancel()
        wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        return Outcome(proc.returncode, wall, usage.ru_maxrss / 1024.0, 0, out.read())


def _snapshot(d: Path) -> dict:
    if not d.is_dir():
        return {}
    return {p.name: (st.st_size, st.st_mtime_ns, st.st_ino)
            for p in d.iterdir() if p.is_file() for st in [p.stat()]}


def execute(steps: list, invoke, logs: Path) -> list:
    """Run steps back to back; each Outcome counts the bytes its step wrote."""
    outcomes = []
    for i, step in enumerate(steps):
        if step.link:
            step.link[1].unlink(missing_ok=True)
            if step.link[0].exists():
                os.link(*step.link)
        before = _snapshot(step.out)
        outcome = invoke(step.argv, logs / f"step{i}.log")
        after = _snapshot(step.out)
        outcome.written = sum(sig[0] for name, sig in after.items() if before.get(name) != sig)
        outcomes.append(outcome)
    return outcomes


def check_all(rec: Recorder, steps: list, outcomes: list) -> None:
    for step, outcome in zip(steps, outcomes):
        rec.check(step.argv[0], outcome.rc, step.gates)


def run_steps(rec: Recorder, steps: list, invoke, logs: Path) -> list:
    outcomes = execute(steps, invoke, logs)
    check_all(rec, steps, outcomes)
    return outcomes


# --------------------------------------------------------------------------
# Tracing


class Tracer:
    """Spans around the public functions of the traced qmetric modules.

    Functions are wrapped under every name they are looked up by (`cli`
    imports by name), so `qmetric.cli.neumann_series` and
    `qmetric.series.neumann_series` both record.  A span is recorded only
    inside a cli span, i.e. while qmetric.cli.main runs.  Each span is
    [name, start, end, parent index, repetition, extra].
    """

    # extra data per span: bytes moved through CSV files, values they hold
    EXTRA = {
        "kernels.kernel_to_csv": lambda args, res: {"bytes": os.path.getsize(args[1]),
                                                    "values": args[0].smooth.size},
        "kernels.kernel_from_csv": lambda args, res: {"bytes": os.path.getsize(args[0]),
                                                      "values": res.smooth.size},
    }
    CAPTURE = ("spectral.pair_eigensystem",)

    def __init__(self):
        self.spans: list = []
        self.rep = 0
        self.captured: dict = {}
        self._stack: list = []
        self._saved: list = []

    def span(self, name: str, func, args, kwargs=None):
        rec = [name, time.perf_counter(), 0.0, self._stack[-1] if self._stack else -1,
               self.rep, None]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        try:
            result = func(*args, **(kwargs or {}))
        finally:
            rec[2] = time.perf_counter()
            self._stack.pop()
        if name in self.EXTRA:
            try:
                rec[5] = self.EXTRA[name](args, result)
            except (IndexError, AttributeError, OSError, TypeError):
                pass
        if name in self.CAPTURE:
            self.captured.setdefault(name, args)
        return result

    def _wrap(self, func, name):
        @functools.wraps(func)
        def traced(*args, **kwargs):
            if not self._stack:
                return func(*args, **kwargs)
            return self.span(name, func, args, kwargs)
        return traced

    def install(self) -> None:
        names = {}
        for short in TRACED_MODULES:
            mod = importlib.import_module(f"qmetric.{short}")
            for attr in getattr(mod, "__all__", ()):
                obj = getattr(mod, attr, None)
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                    names[id(obj)] = (obj, f"{short}.{attr}")
        wrappers = {key: self._wrap(obj, name) for key, (obj, name) in names.items()}
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "qmetric" or mod_name.startswith("qmetric.")):
                continue
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and id(obj) in wrappers:
                    self._saved.append((mod, attr, obj))
                    setattr(mod, attr, wrappers[id(obj)])

    def uninstall(self) -> None:
        for mod, attr, obj in reversed(self._saved):
            setattr(mod, attr, obj)
        self._saved.clear()


def in_process(main, tracer: Tracer | None):
    """An invoke function calling qmetric.cli.main(argv) in this process."""
    def invoke(argv: list, log: Path) -> Outcome:
        with open(log, "w") as out, contextlib.redirect_stdout(out), \
                contextlib.redirect_stderr(out):
            t0 = time.perf_counter()
            try:
                if tracer is None:
                    rc = main(list(argv))
                else:
                    rc = tracer.span(f"cli.{argv[0]}", main, (list(argv),))
            except Exception:  # a crash is a failed invocation, recorded in its log
                traceback.print_exc()
                rc = None
            wall = time.perf_counter() - t0
        return Outcome(rc, wall, 0.0, 0, log.read_text())
    return invoke


def layer_metrics(spans: list, names: list, warm_reps: list) -> dict:
    """Per-layer figures from spans: `<span>.<stat>` for stat in s, calls,
    per_call_s, self_s, cold_s and bytes.  s, calls, self_s and bytes are
    medians over the warm repetitions of per-repetition totals; cold_s is the
    first call in repetition 0, the process's first."""
    child = [0.0] * len(spans)
    for name, start, end, parent, rep, extra in spans:
        if parent >= 0:
            child[parent] += end - start
    per_rep: dict = {}
    durations: dict = {}
    cold: dict = {}
    for i, (name, start, end, parent, rep, extra) in enumerate(spans):
        if rep == 0:
            cold.setdefault(name, end - start)
        if rep not in warm_reps:
            continue
        tot = per_rep.setdefault((name, rep), {"s": 0.0, "calls": 0, "self_s": 0.0, "bytes": 0,
                                               "values": 0})
        tot["s"] += end - start
        tot["calls"] += 1
        tot["self_s"] += end - start - child[i]
        tot["bytes"] += (extra or {}).get("bytes", 0)
        tot["values"] += (extra or {}).get("values", 0)
        durations.setdefault(name, []).append(end - start)

    def median_total(span: str, stat: str):
        return statistics.median(per_rep[span, r][stat] if (span, r) in per_rep else
                                 (0 if stat in ("calls", "bytes", "values") else 0.0)
                                 for r in warm_reps)

    out = {}
    for metric in names:
        span, _, stat = metric.rpartition(".")
        if stat == "cold_s":
            out[metric] = cold.get(span, 0.0)
        elif stat == "per_call_s":
            out[metric] = statistics.median(durations[span]) if span in durations else 0.0
        elif stat in ("s", "calls", "self_s", "bytes"):
            out[metric] = median_total(span, stat)
    if "kernels.csv_bytes_per_value" in names:
        values = median_total("kernels.kernel_to_csv", "values")
        out["kernels.csv_bytes_per_value"] = (
            median_total("kernels.kernel_to_csv", "bytes") / values if values else 0.0)
    return out


# The end-to-end metric each per-layer metric should move, and on which
# workloads; the first matching name prefix applies.
LAYER_TARGETS = (
    ("series.apply_K_smooth.", "build_s on well-series"),
    ("potentials.eval_potential.", "build_s on well-series"),
    ("series.apply_K_delta_rule.", "build_s on deltas-series"),
    ("series.", "build_s on well-series and deltas-series"),
    ("kernels.kernel_from_csv.", "verify_s on every workload; build_s on oracle-crosscheck"),
    ("kernels.seed_to_kernel.", "build_s on well-series and deltas-series"),
    ("kernels.", "build_s and artifact_mb on every workload"),
    ("spectral.", "build_s on oracle-crosscheck"),
    ("verify.kg_residual.", "verify_s on well-series"),
    ("verify.positivity_check.", "verify_s on oracle-crosscheck and well-series"),
    ("verify.invertibility_check.", "verify_s on every workload"),
    ("verify.", "verify_s on oracle-crosscheck"),
    ("cli.compute.", "build_s, peak_rss_mb and artifact_mb on well-series and deltas-series"),
    ("cli.oracle.", "build_s, peak_rss_mb and artifact_mb on oracle-crosscheck"),
    ("cli.verify.", "verify_s on every workload"),
    ("trace.", "none: the cost of tracing itself"),
)


def layer_target(metric: str) -> str:
    return next(target for prefix, target in LAYER_TARGETS if metric.startswith(prefix))


def threads1_eig(matrix, h: float, base: Path) -> float:
    """Wall seconds of one warm pair_eigensystem call with a one-thread BLAS pool,
    in a child process of its own."""
    import numpy as np

    path = base / "eig_matrix.npy"
    np.save(path, matrix)
    one = {k: "1" for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
    done = subprocess.run([sys.executable, str(Path(__file__).with_name("eig1.py")),
                           str(path), repr(float(h))], env=_child_env(one), cwd=ROOT,
                          capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    path.unlink()
    if done.returncode != 0:
        raise RuntimeError(f"single-thread eig child failed: {done.stderr.strip()}")
    return float(done.stdout.split()[-1])


# --------------------------------------------------------------------------
# One benchmark run


def environment() -> dict:
    import numpy as np

    env = {"python": platform.python_version(), "numpy": np.__version__,
           "nproc": os.cpu_count(), "blas": None, "blas_threads": None, "git_sha": None}
    try:
        from importlib.metadata import PackageNotFoundError, version
        env["scipy"] = version("scipy")
    except PackageNotFoundError:
        env["scipy"] = None
    with contextlib.suppress(AttributeError, KeyError, TypeError, ValueError):
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        env["blas"] = f"{blas['name']} {blas.get('version', '')}".strip()
    env["blas_threads"] = _blas_threads(np)
    if (ROOT / ".git").exists():
        with contextlib.suppress(OSError, subprocess.SubprocessError):
            env["git_sha"] = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                                            capture_output=True, timeout=10).stdout.strip()
    return env


def _blas_threads(np):
    """Thread count of numpy's bundled OpenBLAS, or the variable that sets it."""
    import ctypes
    import glob

    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in glob.glob(str(libs / "libscipy_openblas*")) + glob.glob(str(libs / "libopenblas*")):
        with contextlib.suppress(OSError):
            handle = ctypes.CDLL(lib)
            for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                           "openblas_get_num_threads"):
                if hasattr(handle, symbol):
                    func = getattr(handle, symbol)
                    func.restype = ctypes.c_int
                    return int(func())
    return os.environ.get("OPENBLAS_NUM_THREADS")


def tail(samples: list):
    """(percentile, value) for the highest of p99/p90 with ten samples beyond it."""
    for p in (99, 90):
        if len(samples) * (100 - p) / 100 >= 10:
            return p, statistics.quantiles(samples, n=100)[p - 1]
    return None


@dataclass
class RunResult:
    result: dict               # the JSON object printed last
    lines: list                # human-readable report printed before it
    recorder: Recorder
    spans: list


def declared_metrics(trace: bool) -> dict:
    """Metric name -> unit, as BENCHMARK.json declares them for the mode."""
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in bench["per_layer" if trace else "end_to_end"]}


def run(workload: str, seed: int, seconds: float, trace: bool, n: int | None = None,
        work: Path = WORK) -> RunResult:
    """One benchmark run; n overrides the grid size of every step."""
    if workload not in FULL_N:
        raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(FULL_N)}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    base = work / workload
    shutil.rmtree(base, ignore_errors=True)
    logs = base / "logs"
    logs.mkdir(parents=True)
    rec = Recorder()
    units = declared_metrics(trace)
    lines = [f"# qmetric benchmark: workload={workload} seed={seed} seconds={seconds} "
             f"trace={int(trace)}",
             "# load: closed loop, one client; subcommands run back to back",
             f"# env: {json.dumps(environment(), sort_keys=True)}"]
    try:
        plan = make_plan(workload, seed, base / "timed", n=n)
        lines.append(f"# inputs: {json.dumps(plan.inputs)}")
        lines += [f"# {step.role}: qmetric {' '.join(step.argv)}"
                  for step in plan.setup + plan.steps]
        run_steps(rec, plan.setup, spawn, logs)
        spans = []
        if trace:
            metrics, spans = _traced(plan, rec, seconds, base, logs)
            (work / f"spans-{workload}-seed{seed}.json").write_text(json.dumps(
                {"workload": workload, "seed": seed, "inputs": plan.inputs,
                 "fields": ["name", "start", "end", "parent", "rep", "extra"],
                 "spans": spans}))
            lines += [f"{name:44s} {metrics[name]:>14.6g} {unit:11s} -> {layer_target(name)}"
                      for name, unit in units.items()]
        else:
            samples = _timed(plan, rec, seconds, logs)
            metrics = {name: statistics.median(xs) for name, xs in samples.items()}
            for name, unit in units.items():
                lines.append(f"{name:44s} {metrics[name]:>14.6g} {unit}  "
                             f"(median of n={len(samples[name])}: "
                             f"{' '.join(f'{x:.4g}' for x in samples[name])})")
                pct = tail(samples[name])
                if pct:
                    lines.append(f"{name:44s} {pct[1]:>14.6g} {unit}  (p{pct[0]})")
        lines.append(f"{'failed_frac':44s} {rec.failed_frac:>14.6g}   "
                     f"({rec.failed} of {rec.attempted} invocations)")
        lines += [f"# FAILED {p}" for p in rec.problems]
        result = {"correct": rec.failed == 0, "attempted": rec.attempted, "failed": rec.failed,
                  "metrics": {name: {"value": metrics[name], "unit": unit}
                              for name, unit in units.items()}}
        return RunResult(result, lines, rec, spans)
    finally:
        shutil.rmtree(base, ignore_errors=True)


def _timed(plan: Plan, rec: Recorder, seconds: float, logs: Path) -> dict:
    """End-to-end samples from MIN_PASSES passes, then more while the next
    one is expected to end within `seconds`, after an untimed warm-up build.

    Single runs of a step spread by 15-45% on a shared machine, so the short
    steps are sampled more often than once a pass and spread over it: the
    verify step runs plan.verify_samples times on the pass's kernel, and --help
    runs SETUP_SAMPLES times before the passes and once after every
    invocation.

    Returns the samples of every end-to-end metric.
    """
    samples = {"setup_s": [], "build_s": [], "verify_s": [], "peak_rss_mb": [],
               "artifact_mb": []}

    def add(name: str, outcome: Outcome) -> None:
        samples[name].append(outcome.wall_s)

    def sample_setup(count: int = 1) -> None:
        for _ in range(count):
            o = spawn(["--help"], logs / "help.log")
            rec.check("--help", o.rc, [("help_text", functools.partial(gate_help, o.output))])
            add("setup_s", o)

    def timed_steps(steps: list) -> list:
        outcomes = []
        for step in steps:
            outcomes += run_steps(rec, [step], spawn, logs)
            add(f"{step.role}_s", outcomes[-1])
            sample_setup()
        return outcomes

    verify = [step for step in plan.steps if step.role == "verify"]
    run_steps(rec, plan.steps[:1], spawn, logs)   # untimed warm-up of the build step
    sample_setup(SETUP_SAMPLES)
    start = time.perf_counter()
    pass_s: list = []
    while (len(pass_s) < MIN_PASSES
           or time.perf_counter() + statistics.median(pass_s) < start + seconds):
        t0 = time.perf_counter()
        shutil.rmtree(plan.pass_dir, ignore_errors=True)
        outcomes = timed_steps(plan.steps)
        samples["peak_rss_mb"].append(max(o.rss_mb for o in outcomes))
        samples["artifact_mb"].append(sum(o.written for o in outcomes) / 1e6)
        for _ in range(plan.verify_samples - 1):
            timed_steps(verify)
        pass_s.append(time.perf_counter() - t0)
    return samples


def _traced(plan: Plan, rec: Recorder, seconds: float, base: Path, logs: Path):
    """Per-layer metrics: traced and untraced in-process passes, alternating,
    until `seconds` have passed, with at least two traced passes."""
    from qmetric import cli

    tracer = Tracer()
    traced_walls, plain_walls = [], []
    deadline = time.perf_counter() + seconds
    while len(traced_walls) < 2 or not plain_walls or time.perf_counter() < deadline:
        traced = len(plain_walls) >= len(traced_walls)
        shutil.rmtree(plan.pass_dir, ignore_errors=True)
        if traced:
            tracer.install()
        try:
            outcomes = execute(plan.steps, in_process(cli.main, tracer if traced else None),
                               logs)
        finally:
            tracer.uninstall()
        check_all(rec, plan.steps, outcomes)
        (traced_walls if traced else plain_walls).append(sum(o.wall_s for o in outcomes))
        tracer.rep += traced
    metrics = layer_metrics(tracer.spans, list(declared_metrics(True)),
                            warm_reps=list(range(1, tracer.rep)))
    metrics["trace.overhead_pct"] = 100.0 * (statistics.median(traced_walls[1:])
                                             / statistics.median(plain_walls) - 1.0)
    metrics["series.truncated_evals"] = _truncated_evals(plan)
    captured = tracer.captured.get("spectral.pair_eigensystem")
    metrics["spectral.pair_eigensystem.threads1_s"] = (
        threads1_eig(captured[0], captured[1], base) if captured else 0.0)
    return metrics, tracer.spans


def _truncated_evals(plan: Plan) -> int:
    """Clamped characteristic evaluations, as the last compute's manifest records them."""
    for step in plan.steps:
        manifest = step.out / "manifest.json"
        if step.argv[0] == "compute" and manifest.exists():
            return int(json.loads(manifest.read_text()).get("truncated_evals", 0))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(FULL_N))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "qmetric" / "cli.py").is_file():
        print(f"error: no qmetric sources under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    out = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print("\n".join(out.lines))
    print(json.dumps(out.result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
