"""Command-line front end.

Exit codes: 0 when the requested analysis ran (verdicts, including "no" and
"indeterminate", never drive the exit status), 2 for malformed specs or
invalid usage (a ``--directions`` or ``--points`` count over the size budget
included), 3 when a spec without ``allow_non_cptp`` fails the CPTP check.
``classify``, ``entropy``, ``additivity``, ``image-additivity`` and
``fixed-points`` need a channel and exit 3 on any map that is not CPTP, the
``allow_non_cptp`` ones included; ``decompose``, ``image`` and ``report``
(which skips its analysis stages) accept them.

The default seed comes from ``CHAN_ATLAS_SEED`` and is overridden by
``--seed``; both must be integers in ``[0, 2**64)``, and a bad value of
either exits 2 naming it.  The sampled analyses (entropies and image
additivity) derive their randomness from the seed, while ``decompose``,
``classify`` and ``fixed-points`` draw no random number and do not depend
on it.

:func:`main` may be called many times in one process (the tests and the
benchmark do): the argument parser is built on its first call and reused,
and each call looks its subcommand's ``cmd_*`` handler up by name, so a
handler replaced on this module is the one that runs.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys

from .channels import NotCptpError, identity_channel
from .entropy import entropy_additivity_gap, image_additivity_gap, min_output_entropy
from .formats import load_channel
from .geometry import image_boundary_2d
from .pipeline import (
    check_joint_budget,
    check_stack_budget,
    classification_stage,
    fixed_point_stage,
    image_stage,
    jsonable,
    probe_fields,
    report_json,
    run_pipeline,
    validate_report,
)
from .plotdata import write_boundary_csv, write_boundary_svg

ENV_SEED = "CHAN_ATLAS_SEED"


def _u64(text):
    try:
        v = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"seed must be an integer, got {text!r}")
    if not 0 <= v < 2 ** 64:
        raise argparse.ArgumentTypeError(
            f"seed must fit in an unsigned 64-bit integer, got {text!r}")
    return v


@functools.cache
def _build_parser():
    p = argparse.ArgumentParser(
        prog="chan-atlas",
        description="Analyze finite-dimensional quantum channels: image geometry, "
                    "classification, entropies, fixed points.")
    p.add_argument("--seed", type=_u64, default=None,
                   help=f"RNG seed (default: ${ENV_SEED} or 0)")
    p.add_argument("--format", choices=("json", "text"), default="text",
                   help="output rendering (default text)")
    p.add_argument("--bits", action="store_true",
                   help="render floats bit-exactly (C99 hex) in text output")
    sub = p.add_subparsers(dest="command", required=True, metavar="COMMAND")

    sc = sub.add_parser("classify", help="CQ / eCQ / EB / image-additivity verdicts")
    sc.add_argument("spec")

    si = sub.add_parser("image", help="planar boundary samples (CSV, optional SVG)")
    si.add_argument("spec")
    si.add_argument("--out", required=True, help="CSV output path")
    si.add_argument("--svg", help="also render a cosmetic SVG here")
    si.add_argument("--points", type=int, default=256)

    sd = sub.add_parser("decompose", help="image vertices and polytopic decomposition")
    sd.add_argument("spec")

    se = sub.add_parser("entropy", help="minimal output entropies")
    se.add_argument("spec")
    se.add_argument("--p", type=float, action="append",
                    help="Renyi order, repeatable (default 1 and 2)")

    sa = sub.add_parser("additivity", help="minimal output entropy additivity gap")
    sa.add_argument("spec")
    sa.add_argument("--pair", required=True, help="spec of the partner channel")
    sa.add_argument("--p", type=float, action="append")

    sg = sub.add_parser("image-additivity", help="joint versus product support gap")
    sg.add_argument("spec")
    sg.add_argument("--pair", help="partner spec (default: identity on d_in)")
    sg.add_argument("--directions", type=int, default=40)

    sf = sub.add_parser("fixed-points", help="Cesaro projection and fixed-point blocks")
    sf.add_argument("spec")

    sr = sub.add_parser("report", help="full pipeline report (canonical JSON)")
    sr.add_argument("spec")
    sr.add_argument("--out", help="write the report here instead of stdout")
    sr.add_argument("--timings", action="store_true",
                    help="attach wall-clock timings (breaks byte reproducibility)")
    return p


def main(argv=None):
    args = _build_parser().parse_args(argv)
    if args.seed is None:
        env = os.environ.get(ENV_SEED, "")
        try:
            args.seed = _u64(env) if env else 0
        except argparse.ArgumentTypeError as e:
            print(f"error: {ENV_SEED}: {e}", file=sys.stderr)
            return 2
    # by name, so that a handler replaced on this module after the build runs
    handler = globals()["cmd_" + args.command.replace("-", "_")]
    try:
        handler(args)
    except NotCptpError as e:
        print(f"error: {e}", file=sys.stderr)
        return 3
    except (ValueError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    return 0


# -- rendering ----------------------------------------------------------


def _fmt_float(x, bits=False):
    if bits:
        return float(x).hex()
    return f"{float(x):.12g}"


def _text_lines(payload, prefix="", bits=False):
    lines = []
    for key, val in payload.items():
        name = f"{prefix}{key}"
        if isinstance(val, dict):
            lines.extend(_text_lines(val, prefix=f"{name}.", bits=bits))
        elif isinstance(val, float):
            lines.append(f"{name}: {_fmt_float(val, bits)}")
        elif isinstance(val, list) and val and all(isinstance(v, (int, float)) for v in val):
            lines.append(f"{name}: [" + ", ".join(
                _fmt_float(v, bits) if isinstance(v, float) else str(v) for v in val) + "]")
        elif isinstance(val, list) and val and all(isinstance(v, dict) for v in val):
            for i, v in enumerate(val):
                lines.extend(_text_lines(v, prefix=f"{name}[{i}].", bits=bits))
        elif isinstance(val, list):
            lines.append(f"{name}: {len(val)} item(s)")
        else:
            lines.append(f"{name}: {val}")
    return lines


def _emit(args, payload):
    payload = jsonable(payload)
    if args.format == "json":
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        print("\n".join(_text_lines(payload, bits=args.bits)))


# -- subcommands --------------------------------------------------------


def cmd_classify(args):
    t = load_channel(args.spec)
    _emit(args, classification_stage(t))


def cmd_image(args):
    t = load_channel(args.spec)
    check_stack_budget("--points", args.points, max(t.d_in, t.d_out))
    rows = image_boundary_2d(t, n_points=args.points)
    write_boundary_csv(args.out, rows)
    written = {"csv": args.out, "points": int(rows.shape[0])}
    if args.svg:
        write_boundary_svg(args.svg, rows)
        written["svg"] = args.svg
    _emit(args, written)


def cmd_decompose(args):
    t = load_channel(args.spec)
    _emit(args, image_stage(t))


def cmd_entropy(args):
    t = load_channel(args.spec)
    ps = args.p or [1.0, 2.0]
    rows = []
    for p in ps:
        r = min_output_entropy(t, p=p, seed=args.seed)
        rows.append({"p": float(p), "value": r.value, "converged": r.converged,
                     "bound": r.bound})
    _emit(args, {"min_output": rows})


def cmd_additivity(args):
    t1 = load_channel(args.spec)
    t2 = load_channel(args.pair)
    check_joint_budget(t1, t2)
    ps = args.p or [1.0, 2.0]
    rows = []
    for p in ps:
        g = entropy_additivity_gap(t1, t2, p=p, seed=args.seed)
        rows.append({"p": float(p), "gap": g.gap,
                     "single_first": g.single_first.value,
                     "single_second": g.single_second.value,
                     "joint": g.joint.value, "bound": g.joint.bound})
    _emit(args, {"additivity": rows})


def cmd_image_additivity(args):
    t1 = load_channel(args.spec)
    t2 = load_channel(args.pair) if args.pair else identity_channel(t1.d_in)
    check_joint_budget(t1, t2)
    check_stack_budget("--directions", args.directions, max(t1.d_in * t2.d_in, t1.d_out * t2.d_out))
    t1.require_cptp()
    t2.require_cptp()
    rep = image_additivity_gap(t1, t2, n_directions=args.directions, seed=args.seed)
    _emit(args, probe_fields(rep))


def cmd_fixed_points(args):
    t = load_channel(args.spec)
    _emit(args, fixed_point_stage(t))


def cmd_report(args):
    t = load_channel(args.spec)
    report = run_pipeline(t, seed=args.seed, include_timings=args.timings)
    try:
        validate_report(report)
    except ImportError:
        pass
    text = report_json(report)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as f:
            f.write(text)
        print(f"wrote report to {args.out}")
    else:
        sys.stdout.write(text)


if __name__ == "__main__":
    sys.exit(main())
