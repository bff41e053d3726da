"""Named behavioral checks that exercise a map end to end.

Each check either confirms a property, fails with a witness, or reports
that its hypothesis does not apply.  A separate "undecided" flag marks
checks that ran into an iteration or piece budget; those are neither
confirmations nor refutations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .dynamics import (
    CheckResult,
    Witness,
    check_escape,
    check_full_invariance,
    check_no_preperiodic,
    check_no_radial_stretch,
    decide_pointwise_recurrent,
    fixed_set,
    periodic_union,
    returns_to_components,
    vertex_period,
    HORIZON_DEFAULT,
    MAX_PERIOD_DEFAULT,
)
from .errors import PreconditionError, ResourceLimitError, UndecidedError
from .odometer import (
    classify_adding_machine,
    detect_cycles_of_sets,
    verify_semiconjugacy,
)
from .plmap import DEFAULT_PIECE_CAP, PLTreeMap


@dataclass(frozen=True, slots=True)
class CheckRecord:
    name: str
    result: CheckResult
    undecided: bool = False


CHECK_NAMES = (
    "recurrence-verdict-consistency",
    "fixed-sets-connected",
    "periodic-union-monotone",
    "power-recurrence-consistency",
    "surjectivity-and-orbit-invariance",
    "no-preperiodic-samples",
    "periodic-points-totally-return",
    "no-radial-stretch",
    "escape-containment",
    "adding-machine-semiconjugacy",
)


def _recurrence_verdict_consistency(f, decided, max_period, piece_cap) -> CheckResult:
    verdict = decided()
    if verdict.pointwise_recurrent:
        n = verdict.identity_power
        if not n or n < 1:
            return CheckResult("fail", detail="positive verdict carries no power")
        if not f.iterate(n, piece_cap).is_identity():
            return CheckResult("fail", detail=f"claimed power {n} is not the identity")
        return CheckResult("pass", detail=f"identity power {n}")

    w = verdict.witness
    if w is None:
        return CheckResult("fail", detail="negative verdict carries no witness")
    if w.kind == "non-injective":
        a, b = w.points[0], w.points[1]
        ok = a != b and f.evaluate(a) == f.evaluate(b)
    elif w.kind == "escaping-orbit":
        ok = not f.image().contains(w.points[0])
    elif w.kind == "non-periodic-cutpoint":
        periods = []
        for v in f.domain.vertex_ids:
            if f.domain.degree(v) != 2:
                p = vertex_period(f, v, max_period)
                if p is None:
                    return CheckResult(
                        "fail", witness=w, detail=f"vertex {v!r} period did not recur"
                    )
                periods.append(p)
        n = math.lcm(*periods) if periods else 1
        x = w.points[0]
        ok = f.iterate(n, piece_cap).evaluate(x) != x
    else:
        return CheckResult("fail", witness=w, detail=f"unknown witness kind {w.kind!r}")
    if not ok:
        return CheckResult("fail", witness=w, detail="witness did not re-verify")
    return CheckResult("pass", detail=f"negative verdict re-verified ({w.kind})")


def _fixed_sets_connected(f, upto, piece_cap) -> CheckResult:
    for n in range(1, upto + 1):
        sub = fixed_set(f, n, piece_cap)
        if not sub.is_empty() and not sub.is_connected():
            return CheckResult("fail", detail=f"fixed set of power {n} is disconnected")
    return CheckResult("pass", detail=f"powers 1..{upto}")


def _periodic_union_monotone(f, upto, piece_cap) -> CheckResult:
    prev = periodic_union(f, 1, piece_cap)
    for n in range(2, upto + 1):
        cur = periodic_union(f, n, piece_cap)
        if not cur.contains_subtree(prev):
            return CheckResult("fail", detail=f"union shrank between {n - 1} and {n}")
        prev = cur
    return CheckResult("pass", detail=f"powers 1..{upto}")


def _power_recurrence_consistency(f, decided, max_period, piece_cap) -> CheckResult:
    base = decided().pointwise_recurrent
    for k in (2, 3):
        g = f.iterate(k, piece_cap)
        got = decide_pointwise_recurrent(g, max_period, piece_cap).pointwise_recurrent
        if got != base:
            return CheckResult(
                "fail", detail=f"power {k} verdict {got} disagrees with {base}"
            )
    return CheckResult("pass", detail=f"verdict {base} stable under powers 2 and 3")


def _periodic_points_totally_return(f, horizon, piece_cap) -> CheckResult:
    anchors = periodic_union(f, 3, piece_cap).corner_points()
    if not anchors:
        return CheckResult("skipped", detail="no low-period points found")
    others = f.domain.grid_points(1)
    for x in anchors:
        probes = [y for y in others if y != x][:4]
        for y in probes:
            if not returns_to_components(f, x, y, power=1, horizon=horizon):
                return CheckResult(
                    "fail",
                    witness=Witness("missing-return", (x, y)),
                    detail="periodic point never re-entered its side of a cut",
                )
    return CheckResult("pass", detail=f"{len(anchors)} periodic points probed")


def _adding_machine_semiconjugacy(f, depth, piece_cap) -> CheckResult:
    injective, _ = f.is_injective()
    if not injective:
        return CheckResult("skipped", detail="map is not injective")
    try:
        cycles = detect_cycles_of_sets(f, depth, piece_cap=piece_cap)
    except PreconditionError as exc:
        return CheckResult("skipped", detail=str(exc))
    if not cycles:
        return CheckResult("skipped", detail="no nested cycles of sets")
    result = verify_semiconjugacy(f, cycles)
    if result.status != "pass":
        return result
    report = classify_adding_machine(cycles)
    return CheckResult(
        "pass",
        detail=f"periods {list(report.detected_periods)}, class {report.label}",
    )


def run_checks(
    f: PLTreeMap,
    max_period: int = MAX_PERIOD_DEFAULT,
    horizon: int = HORIZON_DEFAULT,
    depth: int = 4,
    piece_cap: int = DEFAULT_PIECE_CAP,
) -> list[CheckRecord]:
    """Run every named check against a self-map of a tree.

    The verdict on f is decided once, on first use; a bound it hits marks
    every check that uses it.
    """
    upto = max(2, min(depth, 4))
    verdict = []  # the decision on f, or the bound error it raised

    def decided():
        if not verdict:
            try:
                verdict.append(decide_pointwise_recurrent(f, max_period, piece_cap))
            except (UndecidedError, ResourceLimitError) as exc:
                verdict.append(exc)
        if isinstance(verdict[0], Exception):
            raise verdict[0]
        return verdict[0]

    plan = (
        ("recurrence-verdict-consistency",
         lambda: _recurrence_verdict_consistency(f, decided, max_period, piece_cap)),
        ("fixed-sets-connected", lambda: _fixed_sets_connected(f, upto, piece_cap)),
        ("periodic-union-monotone",
         lambda: _periodic_union_monotone(f, upto, piece_cap)),
        ("power-recurrence-consistency",
         lambda: _power_recurrence_consistency(f, decided, max_period, piece_cap)),
        ("surjectivity-and-orbit-invariance",
         lambda: check_full_invariance(f, horizon=min(horizon, 200))),
        ("no-preperiodic-samples",
         lambda: check_no_preperiodic(f, max_period, horizon=min(horizon, 200))),
        ("periodic-points-totally-return",
         lambda: _periodic_points_totally_return(f, horizon, piece_cap)),
        ("no-radial-stretch",
         lambda: check_no_radial_stretch(f, piece_cap=piece_cap)),
        ("escape-containment",
         lambda: check_escape(f, horizon=min(horizon, 100), piece_cap=piece_cap)),
        ("adding-machine-semiconjugacy",
         lambda: _adding_machine_semiconjugacy(f, depth, piece_cap)),
    )
    records = []
    for name, runner in plan:
        try:
            records.append(CheckRecord(name, runner()))
        except (UndecidedError, ResourceLimitError) as exc:
            result = CheckResult("skipped", detail=f"bound reached: {exc}")
            records.append(CheckRecord(name, result, undecided=True))
    return records
