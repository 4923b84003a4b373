"""Batch front-end: compute kernels, verify them, run the spectral oracle.

Exit codes: 0 success, 1 requested check failed, 2 configuration error,
3 numerical failure (divergent linear algebra, exceptional point, NaN).

This module imports the standard library only: `--help` and usage errors
answer before numpy loads.  The commands live in `qmetric.commands`, which
`main` imports once the arguments parse.
"""

import argparse
import math
import sys

SQUARE_WELL_LENGTH = math.pi
SCATTERING_LENGTH = 1.0
DEFAULT_N = 129
DEFAULT_ZETA = 0.1

CHECK_NAMES = ("kg", "positivity", "invertibility", "pseudo-hermiticity")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qmetric",
        description="pseudo-metric kernel computation for 1-d non-Hermitian models")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_shared(p, with_grid=True):
        group = p.add_mutually_exclusive_group()
        group.add_argument("--model", choices=["square-well", "scattering", "deltas"],
                           help="built-in potential family")
        group.add_argument("--potential", metavar="FILE",
                           help="JSON potential document")
        p.add_argument("--zeta", type=float, default=None,
                       help="coupling strength for the built-in models (default 0.1)")
        p.add_argument("--deltas", metavar="Z:A[,Z:A...]", default=None,
                       help="point couplings as scaled-strength:location pairs")
        p.add_argument("--gauge", choices=["natural", "bender-tan"], default=None,
                       help="constants preset (default bender-tan for square-well, else natural)")
        if with_grid:  # verify reads its grid from the kernel file
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

    pv = sub.add_parser("verify", help="run residual checks on a stored kernel")
    add_shared(pv, with_grid=False)
    pv.add_argument("--checks", default=",".join(CHECK_NAMES),
                    help="comma list out of: " + ", ".join(CHECK_NAMES))
    pv.add_argument("--kernel", metavar="FILE", default=None,
                    help="kernel CSV to check, e.g. an oracle metric.csv "
                         "(default <out>/kernel.csv)")

    po = sub.add_parser("oracle", help="biorthonormal spectrum and spectral metric")
    add_shared(po)
    po.add_argument("--cross-check", metavar="KERNEL_CSV", default=None,
                    help="series kernel to difference against the spectral metric")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    from numpy.linalg import LinAlgError

    from . import commands
    from .spectral import ExceptionalPointError

    run = {"compute": commands.cmd_compute, "verify": commands.cmd_verify,
           "oracle": commands.cmd_oracle}[args.command]
    try:
        return run(args)
    except (ExceptionalPointError, FloatingPointError, LinAlgError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except (ValueError, OSError) as exc:  # after LinAlgError, a ValueError subclass
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
