"""Command-line front end: load an instance, run an analysis, emit a report.

The JSON report is the contract; the text format is a rendering of the
same data.  Exit codes: 0 for a positive verdict or plain success, 1 for
a negative verdict or failed checks, 2 when a bound was hit before an
answer, 3 for input errors.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from . import io as dio
from .dynamics import (
    HORIZON_DEFAULT,
    MAX_PERIOD_DEFAULT,
    _eventual_cycle,
    decide_pointwise_recurrent,
    periodic_structure,
)
from .errors import (
    PreconditionError,
    ResourceLimitError,
    StructureError,
    UndecidedError,
)
from .fixtures import FIXTURE_KINDS, build_fixture
from .odometer import (
    address_of,
    classify_adding_machine,
    detect_cycles_of_sets,
    verify_semiconjugacy,
)
from .plmap import DEFAULT_PIECE_CAP
from .verify import run_checks

DEPTH_DEFAULT = 4
# `--depth` composes and reports one power per level, so it is bounded like
# an input: 1,000 levels already write a report of about half a megabyte.
MAX_DEPTH = 1_000
# `analyze` writes two whole subtrees per level, so its report grows as depth
# times tree size; this bound keeps the default depth on every file that loads.
MAX_ANALYZE_SIZE = DEPTH_DEFAULT * 2 * dio.MAX_VERTICES


class _Parser(argparse.ArgumentParser):
    """Argument errors are input errors, so they exit with code 3."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(3, f"{self.prog}: error: {message}\n")


# -- report assembly ----------------------------------------------------------


def _witness_json(w):
    if w is None:
        return None
    return {
        "kind": w.kind,
        "points": [dio.point_to_json(p) for p in w.points],
        "detail": w.detail,
    }


def _check_json(name, result, undecided=False):
    out = {
        "name": name,
        "status": result.status,
        "detail": result.detail,
        "witness": _witness_json(result.witness),
    }
    if undecided:
        out["undecided"] = True
    return out


def _run_recurrence(tree, f, args):
    verdict = decide_pointwise_recurrent(f)
    report = {
        "command": "recurrence",
        "verdict": {
            "pointwise_recurrent": verdict.pointwise_recurrent,
            "identity_power": verdict.identity_power,
            "reason": verdict.reason,
            "witness": _witness_json(verdict.witness),
        },
    }
    return report, 0 if verdict.pointwise_recurrent else 1


def _run_analyze(tree, f, args):
    size = len(tree.vertex_ids) + len(tree.edge_ids)
    if args.depth * size > MAX_ANALYZE_SIZE:
        raise PreconditionError(
            f"analyze reports two subtrees per level: --depth {args.depth} times "
            f"{size} vertices and edges passes {MAX_ANALYZE_SIZE}"
        )
    ps = periodic_structure(f, args.depth, args.max_period, args.piece_cap)
    vertices = []
    for v in tree.vertex_ids:
        order, cls = tree.order_of(tree.vertex_point(v))
        vertices.append(
            {
                "id": v,
                "degree": tree.degree(v),
                "order": order,
                "class": cls,
                "period": ps.vertex_periods[v],
            }
        )
    report = {
        "command": "analyze",
        "depth": args.depth,
        "fixed_sets": {str(n): dio.subtree_to_json(s) for n, s in ps.fixed_sets.items()},
        "cumulative": {str(n): dio.subtree_to_json(s) for n, s in ps.cumulative.items()},
        "vertices": vertices,
    }
    return report, 0


def _run_odometer(tree, f, args):
    cycles = detect_cycles_of_sets(f, args.depth, piece_cap=args.piece_cap)
    cycle_reports = []
    for c in cycles:
        cycle_reports.append(
            {
                "level": c.level,
                "period": c.period,
                "attachments": [dio.point_to_json(s.attachment) for s in c.sets],
                "sets": [
                    {
                        "repr": dio.point_to_json(s.repr_point),
                        "attachment": dio.point_to_json(s.attachment),
                        "closure": dio.subtree_to_json(s.closure),
                    }
                    for s in c.sets
                ],
            }
        )
    addresses = []
    if cycles:
        for s in cycles[-1].sets:
            a = address_of(cycles, s.repr_point)
            addresses.append(
                {"point": dio.point_to_json(s.repr_point), "digits": list(a.digits)}
            )
    semi = verify_semiconjugacy(f, cycles) if cycles else None
    report = {
        "command": "odometer",
        "depth": args.depth,
        "cycles": cycle_reports,
        "addresses": addresses,
        "semiconjugacy": _check_json("semiconjugacy", semi) if semi else None,
    }
    if cycles:
        cls = classify_adding_machine(cycles)
        report["classification"] = {
            "label": cls.label,
            "openness_ok": cls.openness_ok,
            "chains_ok": cls.chains_ok,
            "disjoint_ok": cls.disjoint_ok,
            "full_ok": cls.full_ok,
            "periods": list(cls.detected_periods),
        }
    else:
        report["classification"] = None
    code = 0 if (semi is None or semi.status == "pass") else 1
    return report, code


def _parse_point(text, tree):
    try:
        obj = json.loads(text)
    except json.JSONDecodeError:
        obj = text
    except (ValueError, RecursionError) as exc:  # past the digit limit or the stack
        raise StructureError(f"the point is not valid JSON: {exc}") from None
    if isinstance(obj, str):
        obj = {"vertex": obj}
    return dio.point_from_json(obj, tree)


def _run_classify(tree, f, args):
    x = _parse_point(args.point, tree)
    order, cls = tree.order_of(x)
    report = {
        "command": "classify",
        "point": dio.point_to_json(x),
        "order": order,
        "class": cls,
        "period": None,
        "preperiod": None,
        "eventual_period": None,
    }
    if f is not None:
        shape = _eventual_cycle(f, x, args.max_period)
        if shape is not None:
            preperiod, period = shape
            report["preperiod"] = preperiod
            report["eventual_period"] = period
            if preperiod == 0:
                report["period"] = period
    return report, 0


def _run_verify(tree, f, args):
    records = run_checks(
        f,
        horizon=args.horizon,
        depth=args.depth,
        piece_cap=args.piece_cap,
    )
    checks = [_check_json(r.name, r.result, r.undecided) for r in records]
    tally = {"pass": 0, "fail": 0, "skipped": 0, "undecided": 0}
    for r in records:
        tally[r.result.status] += 1
        if r.undecided:
            tally["undecided"] += 1
    report = {"command": "verify", "checks": checks, "summary": tally}
    if tally["fail"]:
        code = 1
    elif tally["undecided"]:
        code = 2
    else:
        code = 0
    return report, code


def _run_fixture(args):
    params = {}
    for item in args.param or []:
        if "=" not in item:
            raise PreconditionError(f"parameters take the form key=value, got {item!r}")
        key, _, value = item.partition("=")
        if key in params:
            raise PreconditionError(f"fixture parameter {key!r} is given twice")
        params[key] = value
    tree, f = build_fixture(args.kind, params)
    return dio.dump_instance(tree, f), 0


# -- text rendering -----------------------------------------------------------


def _point_text(p) -> str:
    if "vertex" in p:
        return f"vertex {p['vertex']}"
    return f"edge {p['edge']} @ {p['t']}"


def _witness_text(w) -> list:
    if w is None:
        return []
    pts = ", ".join(_point_text(p) for p in w["points"])
    lines = [f"witness ({w['kind']}): {pts}"]
    if w["detail"]:
        lines.append(f"  {w['detail']}")
    return lines


def _subtree_text(s) -> str:
    n_seg = sum(len(v) for v in s["segments"].values())
    return f"{len(s['vertices'])} vertices, {n_seg} segments"


def _render_text(report) -> str:
    cmd = report.get("command")
    lines = []
    if report.get("outcome") == "inconclusive":
        lines.append(f"inconclusive: {report['error']}")
    elif cmd == "recurrence":
        v = report["verdict"]
        if v["pointwise_recurrent"]:
            lines.append(f"pointwise recurrent: yes (identity power {v['identity_power']})")
        else:
            lines.append(f"pointwise recurrent: no ({v['reason']})")
            lines.extend(_witness_text(v["witness"]))
    elif cmd == "analyze":
        lines.append(f"fixed sets up to power {report['depth']}:")
        for n, s in report["fixed_sets"].items():
            lines.append(f"  power {n}: {_subtree_text(s)}")
        lines.append("vertices:")
        for row in report["vertices"]:
            period = row["period"] if row["period"] is not None else "none found"
            lines.append(f"  {row['id']}: {row['class']}, period {period}")
    elif cmd == "odometer":
        if not report["cycles"]:
            lines.append("no nested cycles of sets")
        for c in report["cycles"]:
            at = ", ".join(_point_text(p) for p in c["attachments"][:4])
            more = "" if c["period"] <= 4 else ", ..."
            lines.append(f"level {c['level']}: period {c['period']} ({at}{more})")
        for a in report["addresses"]:
            digits = ", ".join(str(d) for d in a["digits"])
            lines.append(f"address of {_point_text(a['point'])}: ({digits})")
        if report["semiconjugacy"]:
            lines.append(f"semiconjugacy: {report['semiconjugacy']['status']}")
        if report["classification"]:
            lines.append(f"classification: {report['classification']['label']}")
    elif cmd == "classify":
        lines.append(f"{_point_text(report['point'])}: {report['class']} (order {report['order']})")
        if report["period"] is not None:
            lines.append(f"periodic with period {report['period']}")
        elif report["eventual_period"] is not None:
            lines.append(
                f"preperiodic: enters a period-{report['eventual_period']} cycle "
                f"after {report['preperiod']} steps"
            )
        else:
            lines.append("no periodicity found within the bound")
    elif cmd == "verify":
        for c in report["checks"]:
            suffix = f" ({c['detail']})" if c["detail"] else ""
            lines.append(f"{c['name']}: {c['status']}{suffix}")
            lines.extend("  " + t for t in _witness_text(c["witness"]))
        t = report["summary"]
        lines.append(
            f"{t['pass']} passed, {t['fail']} failed, {t['skipped']} skipped"
        )
    return "\n".join(lines) + "\n"


# -- entry point --------------------------------------------------------------


def _bound(text: str) -> int:
    """A bound flag's value: an integer of at least 1."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _depth(text: str) -> int:
    """`--depth`: a bound of at least 1 and at most `MAX_DEPTH`."""
    value = _bound(text)
    if value > MAX_DEPTH:
        raise argparse.ArgumentTypeError(f"must be at most {MAX_DEPTH}, got {value}")
    return value


# each analysis command: its runner, and the bound flags that runner reads
_COMMANDS = {
    "recurrence": (_run_recurrence, ()),
    "analyze": (_run_analyze, ("--max-period", "--depth", "--piece-cap")),
    "odometer": (_run_odometer, ("--depth", "--piece-cap")),
    "classify": (_run_classify, ("--max-period",)),
    "verify": (_run_verify, ("--horizon", "--depth", "--piece-cap")),
}
_BOUNDS = {
    "--max-period": (_bound, MAX_PERIOD_DEFAULT),
    "--horizon": (_bound, HORIZON_DEFAULT),
    "--depth": (_depth, DEPTH_DEFAULT),
    "--piece-cap": (_bound, DEFAULT_PIECE_CAP),
}


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process: parsing keeps no
    state on it, and each call gets a fresh namespace with its defaults."""
    output = _Parser(add_help=False)
    output.add_argument("-o", "--output", default=None)
    report = _Parser(add_help=False, parents=[output])
    report.add_argument("--format", choices=("text", "json"), default="text")
    parser = _Parser(
        prog="dendrodyn",
        description="Exact dynamics of piecewise-linear tree self-maps.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, flags) in _COMMANDS.items():
        p = sub.add_parser(name, parents=[report])
        for flag in flags:
            kind, default = _BOUNDS[flag]
            p.add_argument(flag, type=kind, default=default)
        p.add_argument("input", help="instance file (tree plus map)")
        if name == "classify":
            p.add_argument(
                "--point",
                required=True,
                help="a vertex id or a point object such as "
                '\'{"edge": "e", "t": "1/3"}\'',
            )
    p = sub.add_parser("fixture", parents=[output])
    p.add_argument("kind", choices=FIXTURE_KINDS)
    p.add_argument("--param", action="append", metavar="KEY=VALUE")
    return parser


def _emit(text: str, path) -> None:
    if path:
        try:
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise PreconditionError(f"cannot write {path}: {exc}") from None
    else:
        sys.stdout.write(text)


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)

    try:
        if args.command == "fixture":
            text, code = _run_fixture(args)
            _emit(text, args.output)
            return code

        try:
            tree, f = dio.load_instance_file(args.input)
        except OSError as exc:
            raise PreconditionError(f"cannot read {args.input}: {exc}") from None
        if f is None and args.command != "classify":
            raise PreconditionError("the instance file carries no map")

        runner, _ = _COMMANDS[args.command]
        try:
            report, code = runner(tree, f, args)
        except (UndecidedError, ResourceLimitError) as exc:
            report = {
                "command": args.command,
                "outcome": "inconclusive",
                "error": str(exc),
            }
            code = 2

        rendered = dio.dump_json(report) if args.format == "json" else _render_text(report)
        _emit(rendered, args.output)
    except (StructureError, PreconditionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    return code


if __name__ == "__main__":
    raise SystemExit(main())
