"""Named behavioral checks that exercise a map end to end.

Each check either confirms a property, fails with a witness, or reports
that its hypothesis does not apply.  A separate "undecided" flag marks
checks that ran into an iteration or piece budget; those are neither
confirmations nor refutations.
"""

from __future__ import annotations

from dataclasses import dataclass

from .dynamics import (
    CheckResult,
    Witness,
    _certified_cycles,
    _is_onto,
    _walk,
    _walk_horizon,
    check_escape,
    check_full_invariance,
    check_no_preperiodic,
    check_no_radial_stretch,
    decide_pointwise_recurrent,
    fixed_set,
    periodic_union,
    returns_to_components,
    HORIZON_DEFAULT,
)
from .errors import PreconditionError, ResourceLimitError, UndecidedError, _at_least_one
from .odometer import (
    classify_adding_machine,
    detect_cycles_of_sets,
    verify_semiconjugacy,
)
from .plmap import DEFAULT_PIECE_CAP, PLTreeMap, built


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


def _recurrence_verdict_consistency(f, verdict) -> CheckResult:
    """Re-check the verdict on f by walking orbits, without composing f^n.

    For an injective f, f^n is the identity exactly when every vertex and
    interior breakpoint has a period dividing n.  A homeomorphism's point
    is periodic exactly when its orbit closes within `_walk_horizon` steps.
    """
    if verdict.pointwise_recurrent:
        n = verdict.identity_power
        if not n or n < 1:
            return CheckResult("fail", detail="positive verdict carries no power")
        cycles = _certified_cycles(f, n)[0] if f.is_injective()[0] else None
        if cycles is None or any(n % len(cycle) for cycle in cycles):
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
        homeomorphism = f.is_injective()[0] and _is_onto(f)
        ok = homeomorphism and _walk(f, w.points[0], _walk_horizon(f.domain)) is None
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


def _periodic_union_monotone(upto) -> CheckResult:
    """P_(n-1) lies in P_n for every n up to `upto`, with nothing built:
    `_periodic_levels` makes P_n as P_(n-1) joined with Fix(f^n)."""
    return CheckResult("pass", detail=f"powers 1..{upto}")


def _power_recurrence_consistency(f, verdict, piece_cap) -> CheckResult:
    """The verdicts on f^2 and f^3, each composed and decided afresh, agree
    with the verdict on f.

    This is the one check that reads nothing off f's certificate, so it
    composes the powers on purpose: an independent cross-check of the
    decision, at the price of being the one check that a piece budget can
    stop on a certified map.  f^3 is composed from f^2, so the two powers
    take two compositions.
    """
    base = verdict.pointwise_recurrent
    g = f
    for k in (2, 3):
        g = built(g, f, piece_cap)
        got = decide_pointwise_recurrent(g).pointwise_recurrent
        if got != base:
            return CheckResult(
                "fail", detail=f"power {k} verdict {got} disagrees with {base}"
            )
    return CheckResult("pass", detail=f"verdict {base} stable under powers 2 and 3")


def _periodic_points_totally_return(f, horizon, piece_cap) -> CheckResult:
    """Each anchor, a corner of P_3, re-enters its own side of the tree
    minus each probe point.

    At a horizon of 3 or more nothing is probed: an anchor x lies in
    Fix(f^k) for some k <= 3, so its orbit closes within 3 steps, and
    `returns_to_components` answers True on meeting x again.  Below 3
    each anchor is probed, and one whose orbit has not closed within the
    horizon makes the check undecided.
    """
    anchors = periodic_union(f, 3, piece_cap).corner_points()
    if not anchors:
        return CheckResult("skipped", detail="no low-period points found")
    others = f.domain.grid_points(1)
    for x in anchors if horizon < 3 else ():
        probes = [y for y in others[:5] if y != x][:4]  # x is at most one of them
        for y in probes:
            if not returns_to_components(f, x, y, power=1, horizon=horizon):
                if _walk(f, x, horizon) is None:
                    raise UndecidedError(
                        f"a periodic point's orbit does not close within the horizon ({horizon})"
                    )
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
    horizon: int = HORIZON_DEFAULT,
    depth: int = 4,
    piece_cap: int = DEFAULT_PIECE_CAP,
) -> list[CheckRecord]:
    """Run every named check against a self-map of a tree.

    The verdict on f is decided once, before the checks, and shared by
    the two checks that read it.
    """
    _at_least_one(horizon=horizon, depth=depth, piece_cap=piece_cap)
    upto = max(2, min(depth, 4))
    verdict = decide_pointwise_recurrent(f)
    plan = (
        ("recurrence-verdict-consistency",
         lambda: _recurrence_verdict_consistency(f, verdict)),
        ("fixed-sets-connected", lambda: _fixed_sets_connected(f, upto, piece_cap)),
        ("periodic-union-monotone", lambda: _periodic_union_monotone(upto)),
        ("power-recurrence-consistency",
         lambda: _power_recurrence_consistency(f, verdict, piece_cap)),
        ("surjectivity-and-orbit-invariance",
         lambda: check_full_invariance(f, horizon=min(horizon, 200))),
        ("no-preperiodic-samples",
         lambda: check_no_preperiodic(f, horizon=min(horizon, 200))),
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
