"""Byte identity of the benchmark plans' command-line runs at n 65.

Every command that `perfbench/run.py`'s make_plan issues for the three
workloads, seeds 1 and 2, runs in-process at n 65, with the hard link
its plan makes before a step.  The SHA-256 of each file the commands
leave, and of each command's stdout and stderr, and each exit code, must
equal the committed table plan_digests.json.  Each plan's base directory
reads as <base> before hashing.  Warnings count as stderr lines
`Category: message`.  The oracle's solve runs through LAPACK, so another
numpy build or CPU may need its own table.  A change that alters an
artifact on purpose rewrites the table in the same commit, with

    PYTHONPATH=src python3 tests/test_plan_digests.py

which prints each entry it adds, removes or changes before it writes,
and names each changed file and why.
"""

import contextlib
import hashlib
import importlib.util
import io
import json
import os
import sys
import tempfile
import warnings
from pathlib import Path

from qmetric import cli

ROOT = Path(__file__).resolve().parents[1]
TABLE = Path(__file__).with_name("plan_digests.json")
N = 65
SEEDS = (1, 2)


def _load_bench():
    """perfbench/run.py as a module, read and not changed."""
    spec = importlib.util.spec_from_file_location("perfbench_plan", ROOT / "perfbench" / "run.py")
    bench = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = bench  # its dataclasses look their module up there
    spec.loader.exec_module(bench)
    return bench


def _invoke(argv: list):
    """(exit code, stdout, stderr) of `qmetric argv`, run in this process."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
            warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rc = cli.main(list(argv))
    for w in caught:
        err.write(f"{w.category.__name__}: {w.message}\n")
    return rc, out.getvalue(), err.getvalue()


def plan_digests(base: Path) -> dict:
    """{entry: SHA-256 or exit code} for every plan, run under base."""
    bench = _load_bench()
    table = {}
    for workload in bench.FULL_N:
        for seed in SEEDS:
            root = base / f"{workload}-seed{seed}"
            label = f"{workload} seed {seed}"

            def digest(data: bytes) -> str:
                return hashlib.sha256(data.replace(str(root).encode(), b"<base>")).hexdigest()

            plan = bench.make_plan(workload, seed, root, n=N)
            for i, step in enumerate(plan.setup + plan.steps):
                if step.link:
                    step.link[1].unlink(missing_ok=True)
                    os.link(*step.link)
                rc, out, err = _invoke(step.argv)
                step_label = f"{label} step {i} {step.argv[0]}"
                table[f"{step_label} exit code"] = rc
                table[f"{step_label} stdout"] = digest(out.encode())
                table[f"{step_label} stderr"] = digest(err.encode())
            for path in sorted(p for p in root.rglob("*") if p.is_file()):
                table[f"{label} {path.relative_to(root)}"] = digest(path.read_bytes())
    return table


def test_plan_artifacts_equal_the_committed_digests(tmp_path):
    want = json.loads(TABLE.read_text())
    got = plan_digests(tmp_path)
    differing = sorted(key for key in want.keys() | got.keys() if want.get(key) != got.get(key))
    assert not differing, f"entries differing from {TABLE.name}: " + ", ".join(differing)


if __name__ == "__main__":
    old = json.loads(TABLE.read_text()) if TABLE.exists() else {}
    with tempfile.TemporaryDirectory() as base:
        new = plan_digests(Path(base))
    for key in sorted(old.keys() | new.keys()):
        if old.get(key) != new.get(key):
            print("added" if key not in old else "removed" if key not in new else "changed", key)
    TABLE.write_text(json.dumps(new, indent=1, sort_keys=True) + "\n")
    print(f"wrote {TABLE}")
