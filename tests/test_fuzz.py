"""Seeded fuzzing of malformed instance files and flags through the CLI.

Each instance case is a fixture instance with one or two random
mutations: a value replaced by junk or by a value that fits the
instance, a key or list item deleted, or an item appended to a list.
Most cases are refused by the loader.  A file the loader refuses must
exit 3; any other file must end in one of the CLI's exit codes, and
nothing may escape `cli.main` or print a traceback.

Each flag case is an argv built from the real subcommands and flags,
with values drawn from junk and from values that fit.  It either exits
3 with `error: ` on standard error, or runs and exits 0, 1 or 2.
"""

import copy
import json
import random

from dendrodyn import FIXTURE_KINDS, StructureError, build_fixture, save_instance_file
from dendrodyn.cli import main
from dendrodyn.io import load_instance, map_to_json
from oracles import loaded_by_both, same_load

KINDS = ("tent", "rotation", "tower", "stem_collapse", "flip")
JUNK = (
    None, True, False, 0, -1, 2, 1.5, "", "zz", "1/0", "-1/2", "1e5", " 1/2", 10**1001,
    [], {}, [1], ["a", "b"], {"vertex": "zz"}, {"edge": "zz", "t": "1/2"},
)


def plausible(obj):
    """Values that fit the instance: rationals, ids, and points on its tree."""
    points = [{"vertex": v} for v in obj["vertices"]]
    points += [{"edge": e["id"], "t": t} for e in obj["edges"] for t in ("1/3", "1/2")]
    return ["1/3", "1/2", "2/3", "3/2", *obj["vertices"], *points]


def locations(node):
    """Every (container, key) pair in a JSON value, depth first."""
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, child in items:
        yield node, key
        if isinstance(child, (dict, list)) and child:
            yield from locations(child)


def mutate(rng, obj):
    """One or two mutations; a replacement often fits the instance."""
    fitting = plausible(obj)
    values = JUNK + tuple(fitting)
    obj = copy.deepcopy(obj)
    for _ in range(rng.randint(1, 2)):
        container, key = rng.choice(list(locations(obj)))
        kindred = [v for v in fitting if type(v) is type(container[key])]
        action = rng.randrange(4)
        if action == 0 and kindred:
            container[key] = copy.deepcopy(rng.choice(kindred))
        elif action == 1:
            del container[key]
        elif action == 2 and isinstance(container[key], list):
            container[key].append(copy.deepcopy(rng.choice(values)))
        else:
            container[key] = copy.deepcopy(rng.choice(values))
    return obj


def test_malformed_instances_never_escape_the_cli(tmp_path, capsys):
    rng = random.Random(20_000)
    bases = [map_to_json(build_fixture(kind)[1]) for kind in KINDS]
    path = tmp_path / "case.json"
    codes = set()
    refused = 0
    for _ in range(600):
        text = json.dumps(mutate(rng, rng.choice(bases)))
        path.write_text(text)
        try:
            load_instance(text)
            loads = True
        except StructureError:
            loads = False
        refused += not loads
        for command in ("recurrence", "analyze"):
            code = main([command, str(path), "--format", "json"])
            err = capsys.readouterr().err
            assert "Traceback" not in err, text
            assert code in (0, 1, 2, 3), text
            if not loads:
                assert code == 3 and err.startswith("error: "), text
            codes.add(code)
    assert refused > 500 and codes >= {0, 1, 3}


def test_loader_agrees_with_the_direct_loader_on_mutated_instances():
    """Reading each repeated value once changes no outcome: every mutated
    instance loads to the same map as the value-by-value oracle gives, or
    is refused by both with the same message."""
    rng = random.Random(20_021)
    bases = [map_to_json(build_fixture(kind)[1]) for kind in KINDS]
    refused = 0
    for _ in range(600):
        obj = mutate(rng, rng.choice(bases))
        got, want = loaded_by_both(obj)
        if isinstance(want, str):
            assert got == want, obj
            refused += 1
        else:
            assert same_load(got, want), obj
    assert 400 < refused < 600


BOUND_VALUES = ("0", "-1", "1", "2", "3", "12", "abc", "1e5", "1/2", "", " 3", "9" * 30)
POINTS = ("c", "l0", "zz", '{"edge": "a0", "t": "1/2"}', '{"edge": "a0", "t": "2"}',
          '{"vertex": 3}', "[]", "{}", "null", "1", "")
PARAMS = ("arms=3", "arms=5", "arms=-2", "arms=abc", "arms=", "arm_length=1/3", "arm_length=0",
          "arm_length=1/0", "k=3", "k=1", "k=x", "periods=2,4", "periods=2,x", "periods=4,2",
          "periods=", "depth=2", "depth=9", "seed=1", "seed=x", "order_seed=2", "x=1", "arms",
          "=", "")
REPORT = ("--format", "-o", "--output")
# the flags each command accepts, and one that only another command accepts
ACCEPTS = {
    "recurrence": REPORT,
    "analyze": ("--max-period", "--depth", "--piece-cap", *REPORT),
    "odometer": ("--depth", "--piece-cap", *REPORT),
    "classify": ("--max-period", "--point", *REPORT),
    "verify": ("--horizon", "--depth", "--piece-cap", *REPORT),
    "fixture": ("--param", "-o", "--output"),
}
FOREIGN = {
    "recurrence": "--max-period",
    "analyze": "--horizon",
    "odometer": "--max-period",
    "classify": "--depth",
    "verify": "--param",
    "fixture": "--format",
}


def flag_values(tmp_path):
    """The values each flag is tried with."""
    outputs = (str(tmp_path / "out.txt"), str(tmp_path / "no_dir" / "out.txt"), str(tmp_path), "")
    return {
        "--max-period": BOUND_VALUES,
        "--horizon": BOUND_VALUES,
        "--depth": BOUND_VALUES,
        "--piece-cap": BOUND_VALUES,
        "--format": ("json", "text", "xml", ""),
        "-o": outputs,
        "--output": outputs,
        "--point": POINTS,
        "--param": PARAMS,
    }


def flag_case(rng, instances, tmp_path):
    values = flag_values(tmp_path)
    command = rng.choice(("recurrence", "analyze", "odometer", "classify", "verify", "fixture"))
    if command == "fixture":
        argv = [command, rng.choice(FIXTURE_KINDS + ("zz", ""))]
    else:
        argv = [command, rng.choice(instances * 3 + (str(tmp_path / "missing.json"), ""))]
    flags = (*ACCEPTS[command], FOREIGN[command])
    for _ in range(rng.randint(0, 4)):
        flag = rng.choice(flags)
        argv.append(flag)
        if rng.random() < 0.95:  # sometimes the value is missing
            argv.append(rng.choice(values[flag]))
    if command == "classify" and "--point" not in argv and rng.random() < 0.8:
        argv += ["--point", rng.choice(POINTS)]
    rng.shuffle(argv[2:])
    return argv


def test_flags_never_escape_the_cli(tmp_path, capsys):
    """On the rotation, a certified map, no bound flag ends a run early, so
    the tent, which composes and fails its checks, stands next to it."""
    rng = random.Random(30_011)
    instances = ()
    for kind in ("rotation", "tent"):
        instances += (str(tmp_path / f"{kind}.json"),)
        save_instance_file(instances[-1], *build_fixture(kind))
    codes = {}
    for _ in range(400):
        argv = flag_case(rng, instances, tmp_path)
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse refuses the argv
            code = exc.code
        err = capsys.readouterr().err
        assert "Traceback" not in err, argv
        assert code in (0, 1, 2, 3), argv
        if code == 3:
            assert "error: " in err, argv
        codes[code] = codes.get(code, 0) + 1
    assert codes[3] > 100 and codes[0] > 50 and codes.get(1, 0) + codes.get(2, 0) > 0
