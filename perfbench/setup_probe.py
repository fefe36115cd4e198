"""Set-up probe: a fresh interpreter imports the program and parses and
builds one round's tower specs.  The caller times the whole process.

    python3 perfbench/setup_probe.py CHECKOUT SPECS.json
"""

import json
import sys

root, specs = sys.argv[1], sys.argv[2]
sys.path.insert(0, root + "/src")

import elltowers.cli  # noqa: E402  (imports the whole package, as the CLI does)
from elltowers.towerspec import build_assignment, parse_tower_spec  # noqa: E402

with open(specs, encoding="utf-8") as fh:
    for doc in json.load(fh):
        build_assignment(parse_tower_spec(doc))
