"""
End-to-end command line pipeline
================================

Runs the three subcommands the way a shell user would:

    qmetric compute --model square-well ...   kernel + iterates + manifest
    qmetric verify  --out DIR --checks ...    residual reports, exit code
    qmetric oracle  --model square-well ...   spectrum + spectral metric

and prints the artifacts each stage leaves behind.  Each command runs as
`python -m qmetric.cli` under this interpreter, so the demo works from a
source checkout (PYTHONPATH=src) as well as from an install.  Everything
lands in a temporary directory that is removed on exit; rerunning a
stage reproduces its files byte for byte (the manifest records the
config hash that guarantees it).
"""

import json
import pathlib
import subprocess
import sys
import tempfile


def run(*args):
    print("$ qmetric", " ".join(args))
    proc = subprocess.run([sys.executable, "-m", "qmetric.cli", *args],
                          capture_output=True, text=True)
    for line in proc.stdout.splitlines():
        print("  ", line)
    for line in proc.stderr.splitlines():
        print("  !", line)
    if proc.returncode != 0:
        print("   exit code", proc.returncode)
    return proc


with tempfile.TemporaryDirectory(prefix="qmetric_demo_") as workdir:
    out = pathlib.Path(workdir) / "run"

    # Stage 1: iterate the series for the imaginary square well.  The model
    # fixes the box, so the grid extent defaults to the right half-width.
    run("compute", "--model", "square-well", "--zeta", "0.1",
        "--n", "129", "--order", "1", "--out", str(out))
    print("artifacts:", sorted(p.name for p in out.iterdir()))

    # The manifest judges the ladder by residuals: an order-1 kernel misses
    # the wave equation by mu^2 K u (the truncation residual), far above
    # what the grid contributes, so it has not converged.
    manifest = json.loads((out / "manifest.json").read_text())
    print("manifest: truncation residuals =",
          ["%.3g" % r for r in manifest["truncation_residuals"]],
          " discretization residual = %.3g" % manifest["discretization_residual"],
          " converged =", manifest["converged"],
          " config sha =", manifest["config_sha256"][:12], "...")

    # Stage 2: residual checks on the stored kernel.  The kg record's budget
    # (its meta.tolerance) is second order in the coupling, so the check
    # passes; the full default suite also runs the intertwining estimator,
    # which a first-order kernel cannot satisfy at its default tolerance.
    run("verify", "--out", str(out), "--checks", "kg,positivity,invertibility")
    for line in (out / "checks.jsonl").read_text().splitlines():
        rec = json.loads(line)
        print(f"   stored report: {rec['check']}: pass = {rec['pass']}")

    # Stage 3: the independent spectral route, cross-checked against the
    # kernel from stage 1.
    run("oracle", "--model", "square-well", "--zeta", "0.1",
        "--n", "129", "--order", "40",
        "--out", str(out), "--cross-check", str(out / "kernel.csv"))
    summary = json.loads((out / "oracle.json").read_text())
    print("oracle summary:", summary)
