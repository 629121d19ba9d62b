"""Command-line front end: limbsys <verb> with stable JSON/CSV formats.

Exit codes: 0 success, 1 usage or input error, 2 infeasible transportation
instance, 3 non-extremal coupling (or cyclic support where acyclicity is
required), 4 infeasible reconstruction.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys

from . import __version__
from .circle import DemoConfig, run_demo, support_rows
from .errors import (
    CyclicSupportError,
    InfeasibleError,
    LimbsysError,
)
from .extremality import is_extremal, split_witness, support_graph
from .io import (
    coupling_payload,
    duals_payload,
    load_coupling,
    load_problem,
    load_system,
    system_payload,
    witness_payload,
    write_json,
)
from .limbs import decompose, limb_count, reconstruct
from .measures import float_range
from .transport import solve


def _cmd_solve(args):
    mu, nu, cost = load_problem(args.problem, args.rational)
    if cost is None:
        print("problem file has no cost matrix", file=sys.stderr)
        return 1, None, {}
    report = solve(mu, nu, cost)
    with float_range((report.primal_value,)):
        summary = f"optimum {float(report.primal_value):.17g} in {report.iterations} pivots"
    return 0, summary, {
        args.out: coupling_payload(report.coupling),
        args.duals: duals_payload(report.potentials, report.primal_value),
    }


def _cmd_check_extremal(args):
    gamma = load_coupling(args.coupling, args.rational)
    certificate = is_extremal(gamma)
    if certificate.extremal:
        return 0, certificate.verdict, {}
    if not args.witness:
        return 3, certificate.verdict, {}
    split = split_witness(gamma, certificate.cycle)
    return 3, certificate.verdict, {args.witness: witness_payload(certificate.cycle, *split)}


def _cmd_decompose(args):
    gamma = load_coupling(args.coupling, args.rational)
    system = decompose(support_graph(gamma))
    return 0, f"{limb_count(system)} limbs", {args.out: system_payload(system)}


def _cmd_reconstruct(args):
    system = load_system(args.system, args.rational)
    mu, nu, _ = load_problem(args.problem, args.rational)
    report = reconstruct(system, mu, nu)
    if not report.feasible:
        print(f"infeasible: {report.message}", file=sys.stderr)
        return 4, None, {}
    summary = f"coupling with {len(report.coupling.entries)} cells"
    return 0, summary, {args.out: coupling_payload(report.coupling)}


def _cmd_demo_circle(args):
    cfg = DemoConfig(**{f.name: getattr(args, f.name) for f in dataclasses.fields(DemoConfig)})
    # run_demo returns only optima whose support decomposed, so the verdict
    # is always "extremal".
    report = run_demo(cfg)
    summary = (
        f"value {float(report.solve_report.primal_value):.17g}, "
        f"extremal, {limb_count(report.system)} limbs"
    )
    outputs = {}
    if args.out:
        outputs[args.out] = dataclasses.asdict(cfg) | {
            "value": report.solve_report.primal_value,
            "iterations": report.solve_report.iterations,
            "degenerate_pivots": report.solve_report.degenerate_pivots,
            "verdict": "extremal",
            "system": system_payload(report.system),
            "limb_mass": list(report.limb_mass),
            "coupling": coupling_payload(report.solve_report.coupling),
        }
    if args.plot:
        outputs[args.plot] = "theta,phi,mass,limb\n" + "".join(
            f"{theta:.17g},{phi:.17g},{float(mass):.17g},{k}\n"
            for theta, phi, mass, k in support_rows(report)
        )
    return 0, summary, outputs


def build_parser() -> argparse.ArgumentParser:
    reads_files = argparse.ArgumentParser(add_help=False)
    reads_files.add_argument(
        "--rational", action="store_true", help="parse input numbers as exact fractions"
    )

    parser = argparse.ArgumentParser(
        prog="limbsys",
        description="Finite transportation problems, extremal couplings, and limb systems.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="verb", required=True)

    p = sub.add_parser("solve", parents=[reads_files], help="minimize transport cost")
    p.add_argument("problem")
    p.add_argument("--out", help="write the optimal coupling here")
    p.add_argument("--duals", help="write the dual potentials here")
    p.set_defaults(fn=_cmd_solve)

    p = sub.add_parser("check-extremal", parents=[reads_files], help="decide extremality")
    p.add_argument("coupling")
    p.add_argument("--witness", help="write cycle and convex split when non-extremal")
    p.set_defaults(fn=_cmd_check_extremal)

    p = sub.add_parser("decompose", parents=[reads_files], help="split an acyclic support into limbs")
    p.add_argument("coupling")
    p.add_argument("--out", required=True)
    p.set_defaults(fn=_cmd_decompose)

    p = sub.add_parser("reconstruct", parents=[reads_files], help="rebuild the coupling of a system")
    p.add_argument("system")
    p.add_argument("problem")
    p.add_argument("--out", required=True)
    p.set_defaults(fn=_cmd_reconstruct)

    p = sub.add_parser("demo-circle", help="run the circular town example")
    for field in dataclasses.fields(DemoConfig):
        flag = "--" + field.name.replace("_", "-")
        p.add_argument(flag, type=type(field.default), default=field.default)
    p.add_argument("--out", help="write the demo report here")
    p.add_argument("--plot", help="write plot-ready support rows here")
    p.set_defaults(fn=_cmd_demo_circle)

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on a usage error, but 2 means an infeasible
        # instance here; --help and --version exit 0.
        return 1 if exc.code else 0
    try:
        # A verb returns its exit code, its stdout summary and its outputs by
        # path; the outputs are written together, before the summary.
        code, summary, outputs = args.fn(args)
        write_json({path: payload for path, payload in outputs.items() if path})
        if summary:
            print(summary)
        return code
    except CyclicSupportError as exc:
        print(f"cyclic support: {exc}", file=sys.stderr)
        return 3
    except InfeasibleError as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return 2
    except (LimbsysError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
