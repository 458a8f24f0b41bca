"""Command-line front end: region surface data, formula evaluation,
verification suites, and membership tests.

Exit codes: 0 success (member: inside), 1 check failure / outside /
search value above its closed form, 2 bad arguments, 3 I/O failure.
"""

from __future__ import annotations

import argparse
import inspect
import json
import os
import sys

from .channels import load_channel, make_cloning, make_dephasing, make_erasure
from .regions import (
    cloning_family,
    dephasing_family,
    eb_family,
    erasure_family,
    membership,
    pareto_point,
    sample_boundary,
)
from .tradeoff import SearchConfig, TradeoffWeights, maximize_p
from .verify import SUITE_NAMES, SUITES, run_suite

# --channel selector -> (parameter flag, channel constructor, closed-form boundary family)
_CHANNELS = {
    "dephasing": ("p", make_dephasing, dephasing_family),
    "erasure": ("eps", make_erasure, erasure_family),
    "cloning": ("n", make_cloning, cloning_family),
    # canonical entanglement-breaking instance: the completely
    # dephasing channel, which carries exactly one classical bit
    "eb": (None, lambda _: make_dephasing(1.0), lambda _: eb_family(1.0)),
}
# a search value above the closed-form maximum by more than this is a bug
_ABOVE_CLOSED_FORM_TOL = 1e-6
_SUITE_FLAGS = ("p", "eps")


def _fmt(x: float) -> str:
    """Shortest decimal that round-trips the double exactly."""
    return repr(float(x))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="privcap",
        description="Trade-off capacity regions for public/private/secret-key "
        "resources over small quantum channels.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_channel_flags(p, with_custom=True, searches=True):
        choices = list(_CHANNELS) + (["custom-file"] if with_custom else [])
        p.add_argument("--channel", required=True, choices=choices)
        p.add_argument("--p", type=float, help="dephasing probability")
        p.add_argument("--eps", type=float, help="erasure probability")
        p.add_argument("--n", type=int, help="number of clones")
        if with_custom:
            p.add_argument("--file", help="channel JSON document (custom-file)")
        p.add_argument("--seed", type=int, default=None,
                       help="search seed (default: $TRADEOFF_SEED or 0)" if searches else
                       "kept for compatibility; has no effect, since no closed-form "
                       "region depends on a seed")

    region = sub.add_parser("region", help="sample the boundary surface to CSV")
    add_channel_flags(region, with_custom=False, searches=False)
    region.add_argument("--grid", type=int, default=101)
    region.add_argument("--out", default="region.csv")
    region.add_argument("--format", choices=("csv", "json"), default="csv")
    region.add_argument("--plot", action="store_true",
                        help="also emit a gnuplot script next to the CSV")

    formula = sub.add_parser(
        "formula", help="evaluate the trade-off formula",
        description="Print one JSON record.  numeric_value is a lower bound from a "
        "seeded local search; closed_form_value is the exact maximum where one is "
        "known, and a numeric_value above it is reported as an internal error (exit 1).")
    add_channel_flags(formula)
    formula.add_argument("--lambda", dest="lam", type=float, default=0.0)
    formula.add_argument("--mu", type=float, default=0.0)
    formula.add_argument("--restarts", type=int, default=None,
                         help=f"search restarts (default {SearchConfig.restarts})")
    formula.add_argument("--iters", type=int, default=None,
                         help="per-restart budget: one evaluation of the start, then "
                         f"at most 2*ITERS coordinate probes (default {SearchConfig.iters})")

    verify = sub.add_parser("verify", help="run a named verification suite")
    verify.add_argument("--suite", required=True, choices=SUITE_NAMES)
    verify.add_argument("--p", type=float, default=None)
    verify.add_argument("--eps", type=float, default=None)
    verify.add_argument("--seed", type=int, default=None)

    member = sub.add_parser("member", help="test a rate triple for membership")
    add_channel_flags(member, with_custom=False, searches=False)
    member.add_argument("-R", type=float, required=True, dest="rate_r")
    member.add_argument("-P", type=float, required=True, dest="rate_p")
    member.add_argument("-S", type=float, required=True, dest="rate_s")
    member.add_argument("--grid", type=int, default=1001)
    return parser


def _seed_of(args) -> int:
    if getattr(args, "seed", None) is not None:
        return args.seed
    return int(os.environ.get("TRADEOFF_SEED", "0"))


def _require(args, flag: str):
    val = getattr(args, flag)
    if val is None:
        raise ValueError(f"--channel {args.channel} requires --{flag}")
    return val


def _param(args):
    """The value of the channel's parameter flag (None for eb)."""
    flag = _CHANNELS[args.channel][0]
    return _require(args, flag) if flag else None


def _family_of(args):
    """Boundary family (closed-form channels only)."""
    return _CHANNELS[args.channel][2](_param(args))


def _channel_of(args):
    if args.channel == "custom-file":
        with open(_require(args, "file"), "r", encoding="utf-8") as fh:
            return load_channel(json.load(fh))
    return _CHANNELS[args.channel][1](_param(args))


_PLOT_TEMPLATE = """# gnuplot script: trade-off surface for {label}
# Corner curve coordinates from the CSV bounds:
#   R = b_rps - b_ps, P = b_rp + b_ps - b_rps, S = b_rps - b_rp
set datafile separator ','
set xlabel 'R (public)'
set ylabel 'P (private)'
set zlabel 'S (secret key)'
set ticslevel 0
csv = '{csv}'
len = 0.5
splot \\
  csv every ::1 using ($4-$3):($2+$3-$4):($4-$2) with lines lw 3 title 'corner curve', \\
  csv every ::1 using ($4-$3):($2+$3-$4):($4-$2):(0):(-len):(len) with vectors nohead title 'SKD', \\
  csv every ::1 using ($4-$3):($2+$3-$4):($4-$2):(-len):(len):(-len) with vectors nohead title 'OTP', \\
  csv every ::1 using ($4-$3):($2+$3-$4):($4-$2):(len):(-len):(0) with vectors nohead title 'P2P'
pause -1
"""


def cmd_region(args) -> int:
    family = _family_of(args)
    if args.grid < 2:
        raise ValueError("--grid must be at least 2")
    triples = sample_boundary(family, args.grid)
    if args.format == "csv":
        lines = ["param,b_rp,b_ps,b_rps"]
        lines += [
            f"{_fmt(b.param)},{_fmt(b.b_rp)},{_fmt(b.b_ps)},{_fmt(b.b_rps)}"
            for b in triples
        ]
        payload = "\n".join(lines) + "\n"
    else:
        payload = json.dumps(
            [
                {"param": b.param, "b_rp": b.b_rp, "b_ps": b.b_ps, "b_rps": b.b_rps}
                for b in triples
            ],
            indent=1,
            allow_nan=False,
        ) + "\n"
    try:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(payload)
        if args.plot:
            stem, _, _ = args.out.rpartition(".")
            plot_path = (stem or args.out) + ".gp"
            with open(plot_path, "w", encoding="utf-8") as fh:
                fh.write(_PLOT_TEMPLATE.format(label=args.channel, csv=args.out))
            print(f"wrote {plot_path}", file=sys.stderr)
    except OSError as exc:
        print(f"I/O failure: {exc}", file=sys.stderr)
        return 3
    print(f"wrote {args.out}", file=sys.stderr)
    return 0


def cmd_formula(args) -> int:
    defaults = SearchConfig()
    cfg = SearchConfig(
        seed=_seed_of(args),
        restarts=args.restarts if args.restarts is not None else defaults.restarts,
        iters=args.iters if args.iters is not None else defaults.iters,
    )
    w = TradeoffWeights(args.lam, args.mu)
    ch = _channel_of(args)
    numeric, _ = maximize_p(ch, w, cfg)
    record = {
        "closed_form_value": None,
        "numeric_value": numeric,
        "param": None,
        "gap": None,
    }
    if args.channel in _CHANNELS:
        pp = pareto_point(_family_of(args), w)
        record["closed_form_value"] = pp.value
        record["param"] = pp.param
        record["gap"] = pp.value - numeric
    print(json.dumps(record, allow_nan=False))
    closed = record["closed_form_value"]
    if closed is not None and numeric > closed + _ABOVE_CLOSED_FORM_TOL:
        print(f"internal error: search value {_fmt(numeric)} exceeds the closed form "
              f"{_fmt(closed)}; one of them is wrong", file=sys.stderr)
        return 1
    return 0


def cmd_verify(args) -> int:
    accepted = inspect.signature(SUITES[args.suite]).parameters
    kwargs = {flag: getattr(args, flag) for flag in _SUITE_FLAGS
              if getattr(args, flag) is not None}
    for flag in kwargs:
        if flag not in accepted:
            raise ValueError(f"suite {args.suite} takes no --{flag}")
    checks = run_suite(args.suite, seed=_seed_of(args), **kwargs)
    all_ok = True
    for name, ok, residual in checks:
        status = "PASS" if ok else "FAIL"
        print(f"{status} {name} residual={_fmt(residual)}")
        all_ok = all_ok and ok
    return 0 if all_ok else 1


def cmd_member(args) -> int:
    family = _family_of(args)
    point = (args.rate_r, args.rate_p, args.rate_s)
    result = membership(family, point, grid_size=args.grid)
    if result.inside:
        print(f"inside witness {family.param_name}={_fmt(result.witness)}")
        return 0
    print(
        f"outside violated {result.blocking_constraint} "
        f"by {_fmt(result.violation)} at best parameter"
    )
    return 1


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "region": cmd_region,
        "formula": cmd_formula,
        "verify": cmd_verify,
        "member": cmd_member,
    }
    try:
        return handlers[args.command](args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"I/O failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
