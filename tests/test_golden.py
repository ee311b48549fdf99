"""Byte-exact golden outputs for the CLI.

The generator values inside the goldens are independently pinned by the
unit and acceptance tests; these files additionally freeze formatting,
ordering, and note text so that any output drift shows up as a diff.
Each golden's arguments and task come from ``golden/cases.json``, which
``golden/check.py`` also runs in fresh processes under fixed hash seeds.
Every row of that file is one test here, named by its ``test`` key; its
``why``, if any, says what the golden covers that the others do not.
"""

import json
from pathlib import Path

from hodgeideals.cli import main

GOLDEN = Path(__file__).parent / "golden"
CASES = {case["golden"]: case for case in json.loads((GOLDEN / "cases.json").read_text())}


def test_every_golden_file_has_one_case():
    files = {path.name for path in GOLDEN.iterdir()
             if path.suffix in (".json", ".txt") and path.name != "cases.json"}
    assert set(CASES) == files
    assert len(CASES) == len(json.loads((GOLDEN / "cases.json").read_text()))
    assert len({case["test"] for case in CASES.values()}) == len(CASES)


def _golden_test(case):
    def test(tmp_path, capsys):
        argv = list(case["args"])
        if case["task"] is not None:
            path = tmp_path / "task.json"
            path.write_text(json.dumps(case["task"]))
            argv.append(str(path))
        assert main(argv) == 0
        assert capsys.readouterr().out == (GOLDEN / case["golden"]).read_text()

    test.__name__ = case["test"]
    test.__doc__ = case.get("why")
    return test


for _case in CASES.values():
    globals()[_case["test"]] = _golden_test(_case)
