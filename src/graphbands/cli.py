"""Command line interface.

Subcommands: validate, scattering, bands, density, torus, reference.
``bands`` and ``density`` run on the graph with its degree-2 vertices
merged away (:func:`merge_series`), which keeps the band set; ``torus``
runs on its core shape (:func:`core_shape`), which also cuts each
flux-free part that meets the rest at one vertex back to self-loops and
at most one pendant edge, and keeps only the torus volume.  Lengths are
bound first, so ``--lengths`` takes one value per edge of the file.
``scattering`` dumps the graph as given.
All numeric output is CSV with 17 significant digits, so runs are
byte-reproducible given the same arguments, input file and seeds.
Exit codes: 0 success, 1 invalid input or computation failure, 2 usage.
"""

from __future__ import annotations

import argparse
import functools
import sys

import numpy as np

from .bond_system import bond_matrices
from .graph_model import (FundamentalCell, GraphError, bind_lengths,
                          bloch_reduce, core_shape, load_graph, merge_series,
                          validate_cell, with_random_lengths)
from .reference_models import (DIHEDRAL_GRIDS, dihedral_density,
                               lasso_reference_density)
from .spectrum import band_intervals, density
from .torus import mc_volume

FAILURE_EXIT = 1


def _fmt(x) -> str:
    return "%.17g" % x


def _positive_float(text):
    try:
        v = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError("%r is not a number" % text)
    if not np.isfinite(v) or v <= 0:
        raise argparse.ArgumentTypeError("value must be positive and finite, "
                                         "got %r" % text)
    return v


def _int_at_least(low):
    def parse(text):
        try:
            v = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError("%r is not an integer" % text)
        if v < low:
            raise argparse.ArgumentTypeError("value must be at least %d, got %r"
                                             % (low, text))
        return v
    return parse


_positive_int = _int_at_least(1)
_seed = _int_at_least(0)                # numpy refuses negative seeds


def _length_list(text):
    try:
        values = [float(t) for t in text.split(",") if t.strip() != ""]
    except ValueError:
        raise argparse.ArgumentTypeError("lengths must be comma-separated numbers")
    if not values:
        raise argparse.ArgumentTypeError("empty length list")
    return values


def _add_length_options(p):
    p.add_argument("--lengths", type=_length_list, default=None,
                   help="override edge lengths, comma separated, one per "
                        "edge of the file, in file order")
    p.add_argument("--random-lengths", action="store_true",
                   help="bind uniform [1, 2] lengths drawn with --seed")


def _add_common(p, seed_help="seed for random draws"):
    p.add_argument("--seed", type=_seed, default=0, help=seed_help)
    p.add_argument("-o", "--output", default=None,
                   help="write CSV here instead of stdout")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command line parser, built once per process: building it costs
    about thirty times as much as a parse."""
    parser = argparse.ArgumentParser(
        prog="graphbands",
        description="Band structure and band density of periodic metric graphs.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check a graph file and report violations")
    p.add_argument("file")

    p = sub.add_parser("scattering",
                       help="dump the bond scattering matrix, lengths and flux")
    p.add_argument("file")
    _add_length_options(p)
    _add_common(p)

    p = sub.add_parser("bands", help="band intervals in [0, kmax], with "
                       "degree-2 vertices merged first")
    p.add_argument("file")
    p.add_argument("--kmax", type=_positive_float, required=True)
    p.add_argument("--grid-step", type=_positive_float, default=None,
                   help="membership scan step (default pi / (8 total length))")
    p.add_argument("--bisect-tol", type=_positive_float, default=None,
                   help="band edge tolerance (default 1e-10 max(1, kmax))")
    _add_length_options(p)
    _add_common(p)

    p = sub.add_parser("density",
                       help="band density with geometric convergence "
                            "checkpoints, with degree-2 vertices merged first")
    p.add_argument("file")
    p.add_argument("--kmax", type=_positive_float, required=True)
    p.add_argument("--checkpoints", type=_positive_int, default=16)
    p.add_argument("--grid-step", type=_positive_float, default=None)
    p.add_argument("--bisect-tol", type=_positive_float, default=None)
    _add_length_options(p)
    _add_common(p)

    p = sub.add_parser("torus",
                       help="Monte Carlo torus volume of the band set, on the "
                            "core shape: degree-2 vertices merged, flux-free "
                            "one-vertex parts cut to self-loops and a pendant")
    p.add_argument("file")
    p.add_argument("--samples", type=_positive_int, required=True)
    _add_length_options(p)
    _add_common(p, seed_help="seed for sampling (and random lengths if asked)")

    about = ("reference band densities: lasso in closed form, "
             "dihedral by tanh-sinh quadrature")
    p = sub.add_parser("reference", help=about, description=about)
    ref = p.add_subparsers(dest="model", required=True)
    q = ref.add_parser("lasso", help="loop-with-pendant density in closed form")
    q.add_argument("-o", "--output", default=None)
    q = ref.add_parser("dihedral", help="theta graph density by quadrature")
    q.add_argument("--samples", type=_int_at_least(DIHEDRAL_GRIDS[0] ** 2),
                   default=10_000_000, help="cap on integrand evaluations")
    q.add_argument("--seed", type=_seed, default=0,
                   help="ignored: the quadrature is deterministic")
    q.add_argument("-o", "--output", default=None)

    return parser


def _load_magnetic(args):
    obj = load_graph(args.file)
    if isinstance(obj, FundamentalCell):
        obj = bloch_reduce(obj)
    if getattr(args, "lengths", None) is not None:
        obj = bind_lengths(obj, args.lengths)
    elif getattr(args, "random_lengths", False):
        obj = with_random_lengths(obj, args.seed)
    elif not obj.is_bound:
        raise GraphError("graph has unbound length slots; "
                         "pass --lengths or --random-lengths")
    return obj


def _emit(args, lines):
    text = "\n".join(lines) + "\n"
    out = getattr(args, "output", None)
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _cmd_validate(args) -> int:
    obj = load_graph(args.file)
    if isinstance(obj, FundamentalCell):
        violations = validate_cell(obj)
        for line in violations:
            print("violation: %s" % line, file=sys.stderr)
        if violations:
            return FAILURE_EXIT
        # bloch_reduce keeps every cell edge as one edge
        report = ("OK: cell with %d vertices, %d edges, %d generators; "
                  "reduces to %d edges"
                  % (len(obj.vertices), len(obj.edges), obj.generators,
                     len(obj.edges)))
    else:
        report = ("OK: magnetic graph with %d vertices, %d edges, "
                  "%d generators" % (len(obj.vertices), obj.edge_count,
                                     obj.generators))
    if not obj.edges:           # refused by bond_matrices, so by every command
        raise GraphError("graph has no edges")
    print(report)
    return 0


def _cmd_scattering(args) -> int:
    g = _load_magnetic(args)
    bs = bond_matrices(g)
    lines = ["# scattering matrix (%d x %d)" % bs.scattering.shape]
    lines += [",".join(_fmt(x) for x in row) for row in bs.scattering]
    lines.append("# bond lengths")
    lines.append(",".join(_fmt(x) for x in bs.bond_lengths))
    lines.append("# bond flux (%d x %d)" % bs.bond_flux.shape)
    lines += [",".join("%d" % f for f in row) for row in bs.bond_flux]
    _emit(args, lines)
    return 0


def _cmd_bands(args) -> int:
    bs = bond_matrices(merge_series(_load_magnetic(args)))
    result = band_intervals(bs, args.kmax, grid_step=args.grid_step,
                            bisect_tol=args.bisect_tol)
    _emit(args, ["%s,%s" % (_fmt(lo), _fmt(hi))
                 for lo, hi in zip(result.lo, result.hi)])
    return 0


def _cmd_density(args) -> int:
    bs = bond_matrices(merge_series(_load_magnetic(args)))
    series = density(bs, args.kmax, checkpoints=args.checkpoints,
                     grid_step=args.grid_step, bisect_tol=args.bisect_tol)
    _emit(args, ["%s,%s" % (_fmt(k), _fmt(v))
                 for k, v in zip(series.cutoffs, series.values)])
    return 0


def _cmd_torus(args) -> int:
    bs = bond_matrices(core_shape(_load_magnetic(args)))
    est = mc_volume(bs, args.samples, args.seed)
    _emit(args, ["%s,%s,%d,%d" % (_fmt(est.value), _fmt(est.std_error),
                                  est.samples, est.seed)])
    return 0


def _cmd_reference(args) -> int:
    if args.model == "lasso":
        ref = lasso_reference_density()
    else:
        ref = dihedral_density(args.samples)
    _emit(args, ["%s,%s" % (_fmt(ref.value), _fmt(ref.error_bound))])
    return 0


_COMMANDS = {
    "validate": _cmd_validate,
    "scattering": _cmd_scattering,
    "bands": _cmd_bands,
    "density": _cmd_density,
    "torus": _cmd_torus,
    "reference": _cmd_reference,
}


def run(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except GraphError as exc:
        for line in exc.violations:
            print("error: %s" % line, file=sys.stderr)
        return FAILURE_EXIT
    except (OSError, ValueError) as exc:      # GraphError is caught above
        print("error: %s" % exc, file=sys.stderr)
        return FAILURE_EXIT


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
