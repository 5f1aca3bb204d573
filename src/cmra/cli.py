"""Command-line entry points.

Subcommands::

    cmra run <scenario.json or bundled name> [--out DIR]
    cmra verify <claim> [--theta-grid N] [--grid-n N] [--eps E] [--tol T]
                        [--seed S] [--out DIR]
    cmra audit <record.json or bundled name> [--out DIR]
    cmra export-fig <scenario.json> --prices P [P ...] [--out DIR]

``verify`` forwards each option it is given to the claim under its own
name: ``--theta-grid`` sets the type-grid points per bidder of the
deviation searches (``expost-battery``, ``strategy-matrix``) and
``--grid-n`` the quantity-grid size (``truthful-decreasing``, which
prints a ``[NOTE]`` line when the grid rounds the size up).  A claim
ignores options it does not take.

The output directory defaults to $CMRA_OUTPUT_DIR, then the working
directory.  Exit status is 0 on success and nonzero on validation or
verification failure.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

from .audit import AuditError
from .scenarios import (ScenarioError, bundled_scenario_path,
                        export_figure_data, run_scenario, write_verify_report)
from .verify import CLAIMS, run_claim

__all__ = ["main"]


def _checked(kind, holds, what: str):
    """An argparse type: ``kind(text)``, rejected unless ``holds`` it."""
    def parse(text: str):
        value = kind(text)
        if not holds(value):
            raise argparse.ArgumentTypeError(f"{text} is not {what}")
        return value
    parse.__name__ = kind.__name__  # argparse names the type on a ValueError
    return parse


_positive_int = _checked(int, lambda v: v >= 1, "a positive integer")


def _outdir(args) -> str:
    return args.out or os.environ.get("CMRA_OUTPUT_DIR", ".")


def _resolve_scenario(path: str):
    if os.path.exists(path):
        return path
    try:
        return bundled_scenario_path(path)
    except ScenarioError:
        raise ScenarioError(f"no scenario file or bundled scenario {path!r}")


def cmd_run(args) -> int:
    result = run_scenario(_resolve_scenario(args.scenario),
                          outdir=_outdir(args))
    for label, path in result["outputs"].items():
        print(f"{label}: {path}")
    if hasattr(result["result"], "lines"):
        for line in result["result"].lines:
            print(line)
    return 0 if result["ok"] else 1


_VERIFY_OPTIONS = ("theta_grid", "grid_n", "eps", "tol", "seed")


def cmd_verify(args) -> int:
    options = {name: getattr(args, name) for name in _VERIFY_OPTIONS
               if getattr(args, name) is not None}
    result = run_claim(args.claim, **options)
    for line in result.lines:
        print(line)
    print(f"{result.claim}: {'PASS' if result.passed else 'FAIL'} "
          f"({result.elapsed:.1f}s)")
    outdir = Path(_outdir(args))
    outdir.mkdir(parents=True, exist_ok=True)
    report = outdir / f"{result.claim}_report.json"
    write_verify_report(report, result)
    print(f"report: {report}")
    return 0 if result.passed else 1


def cmd_audit(args) -> int:
    scenario = {"name": Path(args.record).stem, "mode": "audit",
                "audit": {"record": args.record}}
    result = run_scenario(scenario, outdir=_outdir(args))
    audit = result["result"]
    print(f"status: {audit.status}")
    if audit.prices:
        for cat, price in sorted(audit.prices.items()):
            print(f"  {cat}: {price}")
    if audit.certificate:
        print(f"  certificate: {audit.certificate}")
    for ident in audit.difference_identities:
        terms = " + ".join(f"{v}*p[{c}]" for c, v in ident["coefficients"].items())
        print(f"  identity {ident['bidders'][0]}-{ident['bidders'][1]}: "
              f"{terms} = {ident['difference']}")
    for flag in audit.flags:
        print(f"  flag: {flag['kind']} ({flag.get('category', '')})")
    print(f"audit: {result['outputs']['audit']}")
    return 0


def cmd_export_fig(args) -> int:
    result = export_figure_data(_resolve_scenario(args.scenario),
                                args.prices, outdir=_outdir(args))
    for label, path in result["outputs"].items():
        print(f"{label}: {path}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cmra",
        description="Combinatorial multi-round ascending auction toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute a scenario file")
    p_run.add_argument("scenario", help="scenario JSON path or bundled name")
    p_run.add_argument("--out", default=None, help="output directory")
    p_run.set_defaults(func=cmd_run)

    # No prefix matching, so the retired ``--grid`` is rejected rather
    # than taken as ``--grid-n``.
    p_ver = sub.add_parser("verify", help="run a named verification claim",
                           allow_abbrev=False)
    p_ver.add_argument("claim", choices=sorted(CLAIMS))
    p_ver.add_argument("--theta-grid", type=_positive_int, default=None,
                       help="type-grid points per bidder of a deviation "
                            "search (expost-battery, strategy-matrix)")
    p_ver.add_argument("--grid-n", type=_positive_int, default=None,
                       help="quantity-grid size (truthful-decreasing)")
    p_ver.add_argument("--eps", default=None, help="clock increment",
                       type=_checked(float, lambda v: 0 < v < float("inf"),
                                     "a positive finite number"))
    p_ver.add_argument("--tol", default=None, help="no-gain tolerance",
                       type=_checked(float, lambda v: 0 <= v < float("inf"),
                                     "a finite number >= 0"))
    p_ver.add_argument("--seed", type=int, default=None)
    p_ver.add_argument("--out", default=None)
    p_ver.set_defaults(func=cmd_verify)

    p_aud = sub.add_parser("audit", help="linear-price audit of a record")
    p_aud.add_argument("record", help="record JSON path or bundled name")
    p_aud.add_argument("--out", default=None)
    p_aud.set_defaults(func=cmd_audit)

    p_fig = sub.add_parser("export-fig",
                           help="bid-function and revenue-curve CSV export")
    p_fig.add_argument("scenario", help="single-run scenario JSON or name")
    p_fig.add_argument("--prices", type=float, nargs="+", required=True)
    p_fig.add_argument("--out", default=None)
    p_fig.set_defaults(func=cmd_export_fig)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ScenarioError, AuditError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
