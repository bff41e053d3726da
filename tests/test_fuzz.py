"""Seeded fuzzing of malformed instance files through the CLI.

Each case is a fixture instance with one or two random mutations: a
value replaced by junk or by a value that fits the instance, a key or
list item deleted, or an item appended to a list.  Most cases are
refused by the loader.  A file the loader refuses must exit 3; any other
file must end
in one of the CLI's exit codes, and nothing may escape `cli.main` or
print a traceback.
"""

import copy
import json
import random

from dendrodyn import StructureError, build_fixture
from dendrodyn.cli import main
from dendrodyn.io import load_instance, map_to_json

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
