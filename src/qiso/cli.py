"""Command line for the verification suites.

Exit codes:
  0  every check passed (or was deliberately skipped)
  1  at least one check failed
  2  no failures, but at least one check was undecided at its cap
  3  usage error or malformed input
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from .catalog import BUILDERS, build, build_all
from .cqg import FAIL, PASS, SKIPPED, UNDECIDED
from .rewrite import DegreeOverflow


class _Parser(argparse.ArgumentParser):
    """argparse with usage errors on exit code 3 (argparse itself uses 2)."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(3, f"{self.prog}: error: {message}\n")


def _parse_theta(text: str) -> Fraction | None:
    if text == "generic":
        return None
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise argparse.ArgumentTypeError(
            f"theta must be a rational like 1/3, or 'generic': {exc}"
        )


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="qiso",
        description="Exact symbolic verification of quantum-symmetry computations.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    scenarios = sorted(BUILDERS)

    p_verify = sub.add_parser("verify", help="run a scenario's verification suite")
    p_verify.add_argument("scenario", choices=scenarios + ["all"])
    p_verify.add_argument("--theta", type=_parse_theta, default=None,
                          help="deformation parameter, a rational like 1/3 (default: generic)")
    p_verify.add_argument("--json", metavar="FILE",
                          help="write the full report as JSON (- for stdout)")
    p_verify.add_argument("--quiet", action="store_true",
                          help="print only the per-suite summaries")

    p_nf = sub.add_parser("nf", help="normal form of an expression in a scenario's algebra")
    p_nf.add_argument("scenario", choices=scenarios)
    p_nf.add_argument("expression")
    p_nf.add_argument("--theta", type=_parse_theta, default=None)

    p_member = sub.add_parser("member",
                              help="certified ideal membership of an expression")
    p_member.add_argument("scenario", choices=scenarios)
    p_member.add_argument("expression")
    p_member.add_argument("--theta", type=_parse_theta, default=None)

    return parser


def _exit_code(statuses) -> int:
    if FAIL in statuses:
        return 1
    if UNDECIDED in statuses:
        return 2
    return 0


def _run_verify(args) -> int:
    names = sorted(BUILDERS) if args.scenario == "all" else [args.scenario]
    statuses = []
    payload = []
    # keep stdout clean when the JSON report goes there
    out = sys.stderr if args.json == "-" else sys.stdout
    for name, sc in zip(names, build_all(names, args.theta)):
        report = sc.suite()
        counts = {s: 0 for s in (PASS, FAIL, UNDECIDED, SKIPPED)}
        for r in report.results:
            counts[r.status] += 1
            statuses.append(r.status)
            if not args.quiet:
                line = f"{r.status:9s} {name}:{r.name}"
                if r.detail:
                    line += f"  ({r.detail})"
                print(line, file=out)
        print(
            f"== {name}: {counts[PASS]} passed, {counts[FAIL]} failed, "
            f"{counts[UNDECIDED]} undecided, {counts[SKIPPED]} skipped "
            f"[theta={sc.constants['theta']}]",
            file=out,
        )
        constants = dict(sc.constants)
        constants["membership_cap"] = sc.member_cap
        payload.append(
            {
                "scenario": name,
                "constants": constants,
                "counts": counts,
                "checks": report.to_dict()["checks"],
            }
        )
    if args.json:
        text = json.dumps(payload, indent=2)
        if args.json == "-":
            print(text)
        else:
            with open(args.json, "w") as fh:
                fh.write(text + "\n")
    return _exit_code(statuses)


def _run_nf(args) -> int:
    sc = build(args.scenario, args.theta)
    print(sc.normal_form(args.expression))
    return 0


def _run_member(args) -> int:
    sc = build(args.scenario, args.theta)
    try:
        status, cert = sc.membership(args.expression)
    except DegreeOverflow as exc:
        # a cap that is too small leaves membership undecided, never failed
        print(UNDECIDED)
        print(f"note: {exc}", file=sys.stderr)
        return 2
    print(status)
    if cert is not None:
        print(f"certificate: {cert}")
    return 0 if status == "YES" else 2


def _glue_theta(argv):
    """``--theta VALUE`` as ``--theta=VALUE``, so that a negative value such
    as -1/3 is not read as an option."""
    out = []
    it = iter(argv)
    for arg in it:
        value = next(it, None) if arg == "--theta" else None
        out.append(arg if value is None else f"--theta={value}")
    return out


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(_glue_theta(sys.argv[1:] if argv is None else argv))
    try:
        if args.command == "verify":
            return _run_verify(args)
        if args.command == "nf":
            return _run_nf(args)
        return _run_member(args)
    except (ValueError, KeyError, DegreeOverflow) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
