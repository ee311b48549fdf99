"""Byte-exact golden outputs for the CLI.

The generator values inside the goldens are independently pinned by the
unit and acceptance tests; these files additionally freeze formatting,
ordering, and note text so that any output drift shows up as a diff.
Each golden's arguments and task come from ``golden/cases.json``, which
``golden/check.py`` also runs in fresh processes under fixed hash seeds.
"""

import json
from pathlib import Path

from hodgeideals.cli import main

GOLDEN = Path(__file__).parent / "golden"
CASES = {case["golden"]: case for case in json.loads((GOLDEN / "cases.json").read_text())}


def check(tmp_path, capsys, golden):
    case = CASES[golden]
    argv = list(case["args"])
    if case["task"] is not None:
        path = tmp_path / "task.json"
        path.write_text(json.dumps(case["task"]))
        argv.append(str(path))
    assert main(argv) == 0
    assert capsys.readouterr().out == (GOLDEN / golden).read_text()


def test_every_golden_file_has_one_case():
    files = {path.name for path in GOLDEN.iterdir()
             if path.suffix in (".json", ".txt") and path.name != "cases.json"}
    assert set(CASES) == files
    assert len(CASES) == len(json.loads((GOLDEN / "cases.json").read_text()))


def test_cusp_compute_json_golden(tmp_path, capsys):
    check(tmp_path, capsys, "cusp_compute.json")


def test_snc_compute_text_golden(tmp_path, capsys):
    check(tmp_path, capsys, "snc_compute.txt")


def test_snc_compute_lex_json_golden(tmp_path, capsys):
    # A monomial closed form, twisted, printed as JSON outside grevlex.
    check(tmp_path, capsys, "snc_compute_lex.json")


def test_cylinder_compute_lex_golden(tmp_path, capsys):
    # A twist, a cylinder (z unused) and the lex order in one output.
    check(tmp_path, capsys, "cylinder_compute_lex.txt")


def test_cubic_compute_grlex_json_golden(tmp_path, capsys):
    check(tmp_path, capsys, "cubic_compute_grlex.json")


def test_certify_text_golden(tmp_path, capsys):
    check(tmp_path, capsys, "certify_trivial.txt")


def test_verify_all_json_golden(tmp_path, capsys):
    check(tmp_path, capsys, "verify_all.json")


def test_snc_subset_compute_grlex_golden(tmp_path, capsys):
    # An SNC divisor on two of four variables, with scaled coordinates and
    # a twist: the restricted path, the extension back and grlex printing.
    check(tmp_path, capsys, "snc_subset_compute_grlex.txt")


def test_cone_compute_lex_json_golden(tmp_path, capsys):
    # A 4-variable ordinary cone whose last level is a maximal-ideal power.
    check(tmp_path, capsys, "cone_compute_lex.json")


# The restriction suite draws its hyperplanes from the seed, so each seed
# gets its own golden; it is the suite that runs `substitute` and
# `contains_ideal` on random hyperplanes.
def test_verify_restriction_seed1_json_golden(tmp_path, capsys):
    check(tmp_path, capsys, "verify_restriction_seed1.json")


def test_verify_restriction_seed2_json_golden(tmp_path, capsys):
    check(tmp_path, capsys, "verify_restriction_seed2.json")


def test_verify_restriction_seed3_json_golden(tmp_path, capsys):
    check(tmp_path, capsys, "verify_restriction_seed3.json")


# Long graded chains, where the graded engine's stop rule decides how
# many degrees each step runs: weights (7, 2) to k = 5, and weights
# (15, 10, 6) at two alpha samples to k = 3.
def test_a6_curve_compute_k5_json_golden(tmp_path, capsys):
    check(tmp_path, capsys, "a6_curve_compute_k5.json")


def test_e8_surface_samples_compute_k3_golden(tmp_path, capsys):
    check(tmp_path, capsys, "e8_surface_samples_compute_k3.txt")
