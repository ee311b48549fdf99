"""Command-line behaviour: formats, determinism, exit codes."""

import gc
import json
import re
import subprocess
import sys
import warnings
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hodgeideals import GREVLEX, Ideal, InputError, Polynomial, compute_chain, parse_divisor
from hodgeideals.cli import _ideal_lines, _json, main
from hodgeideals.parser import TaskSpec

CUSP_TASK = {
    "vars": ["x", "y"],
    "divisor": {"components": [{"f": "x^2+y^3", "alpha": "9/10"}]},
    "task": "compute",
    "k": 2,
    "method": "auto",
}


# (1/2)*div(x) + (1/2)*div(y), and (3/2)*div(x) + (1/2)*div(y), whose twist is x.
SNC_HALVES = {"components": [{"f": "x", "alpha": "1/2"}, {"f": "y", "alpha": "1/2"}]}
SNC_TWISTED = {"components": [{"f": "x", "alpha": "3/2"}, {"f": "y", "alpha": "1/2"}]}

# Stands for the written task file's path in an argv list.
TASK = "<task file>"


def write_task(tmp_path, doc, name="task.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# -- compute ----------------------------------------------------------------------

def test_compute_cusp_text(tmp_path, capsys):
    path = write_task(tmp_path, CUSP_TASK)
    code, out, _ = run_cli(capsys, "compute", path)
    assert code == 0
    assert "y^4 - 14/5*x^2*y" in out
    assert "k = 2 [exact]" in out


def test_compute_cusp_json(tmp_path, capsys):
    path = write_task(tmp_path, CUSP_TASK)
    code, out, _ = run_cli(capsys, "--format", "json", "compute", path)
    assert code == 0
    payload = json.loads(out)
    gens = payload["results"][2]["ideal"]
    assert "y^4 - 14/5*x^2*y" in gens
    assert payload["results"][2]["exact"] is True


def test_compute_snc(tmp_path, capsys):
    task = {"vars": ["x", "y"],
            "divisor": {"components": [{"f": "x", "alpha": "1/2"},
                                       {"f": "y", "alpha": "1/2"}]},
            "task": "compute", "k": 1}
    path = write_task(tmp_path, task)
    code, out, _ = run_cli(capsys, "--format", "json", "compute", path)
    assert code == 0
    payload = json.loads(out)
    assert payload["results"][1]["ideal"] == ["x", "y"]
    assert payload["results"][1]["method"] == "snc"


def test_compute_lower_bound_warns_but_exits_zero(tmp_path, capsys):
    task = {"vars": ["x", "y", "z"],
            "divisor": {"components": [{"f": "x^2+y^2+z^2", "alpha": "1/4"}]},
            "task": "compute", "k": 1, "method": "recursion"}
    path = write_task(tmp_path, task)
    code, out, _ = run_cli(capsys, "compute", path)
    assert code == 0
    assert "[lower-bound]" in out
    assert "warning: non-exact result" in out


def test_compute_alpha_samples(tmp_path, capsys):
    # Each sample is computed from its own I_0: (1) at 81/100, which is
    # below the log canonical threshold 5/6, and (x, y) above it.
    path = write_task(tmp_path, CUSP_TASK)
    code, out, _ = run_cli(capsys, "--format", "json", "compute", path,
                           "--alpha-samples", "81/100,9/10,1")
    assert code == 0
    payload = json.loads(out)
    alphas = [block["alpha"] for block in payload["samples"]]
    assert alphas == ["81/100", "9/10", "1"]
    want = {"81/100": (["1"], ["x^3", "x^2*y", "x*y^2", "y^3 - 131/50*x^2"]),
            "9/10": (["x", "y"], ["x^2*y^2", "x*y^3", "y^4 - 14/5*x^2*y", "x^3"]),
            "1": (["x", "y"], ["x^2*y^2", "x*y^3", "y^4 - 3*x^2*y", "x^3"])}
    for block in payload["samples"]:
        results = block["results"]
        assert (results[0]["ideal"], results[2]["ideal"]) == want[block["alpha"]]
        assert all(res["exact"] and res["method"] == "recursion" for res in results)


@pytest.mark.parametrize("variables, f, alpha, samples", [
    (["x", "y", "z"], "x^2+y^3+z^5", "1", ["--alpha-samples", "1/2,3/4,1/3"]),
    (["x", "y"], "x^2+y^3", "19/10", []),
], ids=["alpha-sweep", "twisted-recursion"])
def test_the_divisors_of_one_support_decide_its_grading_once(tmp_path, capsys, monkeypatch,
                                                              variables, f, alpha, samples):
    # Each sample, and the reduced divisor B of a twisted D, shares the
    # facts of its support, so one weight inference serves them all.
    from hodgeideals import divisor
    inferred = []
    real = divisor.infer_weights
    monkeypatch.setattr(divisor, "infer_weights", lambda g: inferred.append(g) or real(g))
    task = {"vars": variables, "k": 1,
            "divisor": {"components": [{"f": f, "alpha": alpha}]}}
    code, out, _ = run_cli(capsys, "compute", write_task(tmp_path, task), *samples)
    assert code == 0 and "method=recursion" in out
    assert len(inferred) == 1


@pytest.mark.parametrize("options", [{"i0": ["x", "y"]}, {"certificate": {"level": 0}}],
                         ids=["i0", "certificate"])
def test_a_caller_seed_or_certificate_with_alpha_samples_exits_2(tmp_path, capsys, options):
    # Both hold only at the task's alpha: (x, y) is I_0 at 9/10 but not at 1/2.
    path = write_task(tmp_path, dict(CUSP_TASK, options=options))
    code, out, err = run_cli(capsys, "compute", path, "--alpha-samples", "1/2,9/10")
    assert (code, out) == (2, "")
    [key] = options
    assert err.startswith(f"error: 'options.{key}' given with --alpha-samples")
    assert run_cli(capsys, "compute", path)[0] == 0


def test_empty_option_alpha_samples_exits_2(tmp_path, capsys):
    task = dict(CUSP_TASK, options={"alpha_samples": []})
    code, out, err = run_cli(capsys, "compute", write_task(tmp_path, task))
    assert (code, out) == (2, "")
    assert "unknown key 'alpha_samples' in 'options'" in err


@pytest.mark.parametrize("samples, named", [
    ("", "malformed rational '' at 0..0"),
    (",", "malformed rational '' at 0..0"),
    ("1/2,0.5", "malformed rational '0.5' at 4..7"),
    ("1/2,,3/4", "malformed rational '' at 4..4"),
    ("1/2, 3/0", "malformed rational: zero denominator at 4..8"),
    ("1/2,0", "alpha samples must be positive, got '0' at 4..5"),
])
def test_malformed_alpha_samples_exit_2_with_a_span_in_the_flags_text(tmp_path, capsys,
                                                                        samples, named):
    # Empty text is no sweep at all, so it is refused like an empty piece.
    code, out, err = run_cli(capsys, "compute", write_task(tmp_path, CUSP_TASK),
                             "--alpha-samples", samples)
    assert (code, out) == (2, "")
    assert err.startswith(f"error: {named}")


def test_compute_output_is_byte_identical_across_runs(tmp_path, capsys):
    path = write_task(tmp_path, CUSP_TASK)
    _, out1, _ = run_cli(capsys, "--format", "json", "compute", path)
    _, out2, _ = run_cli(capsys, "--format", "json", "compute", path)
    assert out1 == out2


def test_no_decimal_numbers_anywhere(tmp_path, capsys):
    path = write_task(tmp_path, CUSP_TASK)
    for fmt in ("json", "text"):
        _, out, _ = run_cli(capsys, "--format", fmt, "compute", path)
        assert not re.search(r"[0-9]\.[0-9]", out)


def test_compute_method_unavailable_exits_3(tmp_path, capsys):
    task = dict(CUSP_TASK)
    task["method"] = "snc"
    path = write_task(tmp_path, task)
    code, _, err = run_cli(capsys, "compute", path)
    assert code == 3
    assert "SNC" in err or "snc" in err


@pytest.mark.parametrize("f,variables,alpha,k,method", [
    ("x^2+y^3", ["x", "y"], "1/2", 1, "smooth"),
    ("x + y", ["x", "y"], "1/2", 1, "snc"),
    ("x^2+y^3", ["x", "y"], "1/2", 1, "ordinary"),  # not a cone
    ("x^2+y^2+z^2", ["x", "y", "z"], "1", 2, "ordinary"),  # a cone outside its region
])
def test_forced_closed_form_outside_its_regime_exits_3(tmp_path, capsys, f, variables, alpha,
                                                        k, method):
    task = {"vars": variables, "divisor": {"components": [{"f": f, "alpha": alpha}]},
            "task": "compute", "k": k, "method": method}
    code, out, err = run_cli(capsys, "compute", write_task(tmp_path, task))
    assert (code, out) == (3, "")
    assert err.startswith(f"error: {'SNC' if method == 'snc' else method} closed form wants")


def test_compute_no_seed_exits_3(tmp_path, capsys):
    task = {"vars": ["x", "y"],
            "divisor": {"components": [{"f": "x^2 + x y + y^2", "alpha": "1/2"}]},
            "task": "compute", "k": 1}
    path = write_task(tmp_path, task)
    code, _, err = run_cli(capsys, "compute", path)
    assert code == 3
    assert "seed" in err


def test_a_cusp_in_other_coordinates_has_no_computable_i0_and_exits_3(tmp_path, capsys):
    # (x+y)^2+y^3 is no diagonal equation, so no regime gives its I_0.
    task = {"vars": ["x", "y"], "k": 1,
            "divisor": {"components": [{"f": "(x+y)^2+y^3", "alpha": "1/2"}]}}
    code, out, err = run_cli(capsys, "compute", write_task(tmp_path, task))
    assert (code, out) == (3, "")
    assert err.startswith("error: no computable I_0 regime recognized")


def test_an_unknown_method_is_refused_by_compute_chain(tmp_path, capsys):
    # The parser passes the method on; the dispatch decides it and raises
    # an InputError, which exits 2.
    task = dict(CUSP_TASK, method="bogus")
    assert TaskSpec.from_document(task, "compute").method == "bogus"
    with pytest.raises(InputError, match="unknown method 'bogus'") as raised:
        compute_chain(parse_divisor(task), 1, method="bogus")
    assert raised.type is InputError
    code, out, err = run_cli(capsys, "compute", write_task(tmp_path, task))
    assert (code, out) == (2, "")
    assert err == ("error: unknown method 'bogus'; expected one of "
                   "('auto', 'smooth', 'snc', 'ordinary', 'recursion')\n")


def test_one_component_xyz_is_the_snc_divisor(tmp_path, capsys):
    task = {"vars": ["x", "y", "z"], "k": 2,
            "divisor": {"components": [{"f": "x*y*z", "alpha": "1/2"}]}}
    code, out, _ = run_cli(capsys, "compute", write_task(tmp_path, task))
    assert code == 0
    assert "k = 2 [exact] method=snc" in out


def test_linear_components_print_no_assumption(tmp_path, capsys):
    # Linear components are squarefree and pairwise coprime.
    task = {"vars": ["x", "y"], "k": 1, "options": {"i0": ["1"]},
            "divisor": {"components": [{"f": "x-y", "alpha": "1/2"},
                                       {"f": "x+y", "alpha": "1/2"}]}}
    code, out, _ = run_cli(capsys, "compute", write_task(tmp_path, task))
    assert code == 0
    assert "assumed" not in out


def test_a_graded_support_prints_no_assumption(tmp_path, capsys):
    # The cusp's grading makes its singular locus a point, so x^2 + y^3 is
    # squarefree.
    code, out, _ = run_cli(capsys, "compute", write_task(tmp_path, CUSP_TASK))
    assert code == 0
    assert "warning" not in out and "squarefree" not in out


def test_a_nodal_curve_prints_no_assumption(tmp_path, capsys):
    # A line through a circle has no grading, but its node test passes,
    # and that decides it squarefree.
    task = {"vars": ["x", "y"], "task": "compute", "k": 1, "options": {"i0": ["1"]},
            "divisor": {"components": [{"f": "x*(x^2+y^2-1)", "alpha": "1/2"}]}}
    code, out, _ = run_cli(capsys, "compute", write_task(tmp_path, task))
    assert code == 0
    assert "certificate node-example level 0" in out
    assert "warning" not in out


def test_compute_caller_seed_is_noted_on_every_result(tmp_path, capsys):
    task = {"vars": ["x", "y"],
            "divisor": {"components": [{"f": "x^2+x*y+y^2", "alpha": "1/2"}]},
            "task": "compute", "k": 2, "method": "recursion",
            "options": {"i0": ["x", "y^2"]}}
    path = write_task(tmp_path, task)
    code, out, _ = run_cli(capsys, "--format", "json", "compute", path)
    assert code == 0
    results = json.loads(out)["results"]
    assert [res["k"] for res in results] == [0, 1, 2]
    assert all("I_0 supplied by caller (trusted)" in res["notes"] for res in results)
    code, out, _ = run_cli(capsys, "compute", path)
    assert code == 0
    assert out.count("I_0 supplied by caller (trusted)") == 3


def test_compute_notes_a_caller_seed_and_certificate_a_closed_form_overrides(tmp_path, capsys):
    snc = {"vars": ["x", "y"], "k": 1,
           "divisor": {"components": [{"f": "x", "alpha": "1/2"}, {"f": "y", "alpha": "1/2"}]}}
    code, out, _ = run_cli(capsys, "--format", "json", "compute", write_task(tmp_path, snc))
    assert code == 0
    plain = json.loads(out)["results"]
    given = dict(snc, options={"i0": ["1"], "certificate": {"level": 1}})
    code, out, _ = run_cli(capsys, "--format", "json", "compute", write_task(tmp_path, given))
    assert code == 0
    results = json.loads(out)["results"]
    assert [res["ideal"] for res in results] == [res["ideal"] for res in plain]
    assert all(res["method"] == "snc" and res["exact"] for res in results)
    for res in results:
        assert "I_0 supplied by caller not used: the snc closed form is exact at every level" \
            in res["notes"]
        assert "certificate supplied by caller not used: the snc closed form is exact at " \
            "every level" in res["notes"]


@pytest.mark.parametrize("method", ["auto", "snc"])
@pytest.mark.parametrize("divisor, seed, contradicts", [
    (SNC_HALVES, ["1"], False),
    (SNC_HALVES, ["x", "y"], True),
    # I_0(D) = (x): the seed (1) of the reduced divisor agrees after the
    # twist, the seed (x) does not.
    (SNC_TWISTED, ["1"], False),
    (SNC_TWISTED, ["x"], True),
])
def test_compute_checks_a_caller_seed_against_the_closed_form(tmp_path, capsys, method,
                                                              divisor, seed, contradicts):
    task = dict(divisor_task(["x", "y"], divisor), k=1, method=method, options={"i0": seed})
    code, out, err = run_cli(capsys, "compute", write_task(tmp_path, task))
    if contradicts:
        assert (code, out) == (2, "")
        assert err.startswith("error: 'options.i0' contradicts the computed I_0 of the "
                              "reduced divisor: I_0 = ideal(1)")
    else:
        assert code == 0
        assert "I_0 supplied by caller not used" in out


@pytest.mark.parametrize("divisor, method, wrong, computed", [
    # The cusp at 9/10 has I_0 = (x, y) by the diagonal multiplier formula.
    ({"components": [{"f": "x^2+y^3", "alpha": "9/10"}]}, "auto", ["x^2", "y"], ["x", "y"]),
    # An SNC divisor under forced recursion has I_0 = (1).
    ({"components": [{"f": "x*y", "alpha": "1/2"}]}, "recursion", ["x"], ["1"]),
], ids=["cusp", "snc-under-recursion"])
def test_compute_checks_a_caller_seed_against_the_computed_i0(tmp_path, capsys, divisor,
                                                              method, wrong, computed):
    task = dict(divisor_task(["x", "y"], divisor), k=2, method=method)
    path = write_task(tmp_path, dict(task, options={"i0": wrong}))
    code, out, err = run_cli(capsys, "compute", path)
    assert (code, out) == (2, "")
    assert err == (f"error: 'options.i0' contradicts the computed I_0 of the reduced divisor: "
                   f"I_0 = ideal({', '.join(computed)}), "
                   f"but the given I_0 is ideal({', '.join(wrong)})\n")
    # The computed I_0 as a seed gives the unseeded chain, noted as the caller's.
    code, plain, _ = run_cli(capsys, "compute", write_task(tmp_path, task))
    assert code == 0
    code, seeded, _ = run_cli(capsys, "compute",
                              write_task(tmp_path, dict(task, options={"i0": computed})))
    assert code == 0
    note = "; I_0 supplied by caller (trusted)"
    assert seeded.count(note) == 3
    assert seeded.replace(note, "") == plain


LINE = {"components": [{"f": "x+y+1", "alpha": "1/2"}]}


@pytest.mark.parametrize("divisor, method", [
    (SNC_HALVES, "auto"), (SNC_HALVES, "snc"), (SNC_HALVES, "recursion"),
    (LINE, "auto"), (LINE, "smooth"), (LINE, "recursion"),
], ids=["snc-auto", "snc-snc", "snc-recursion", "line-auto", "line-smooth", "line-recursion"])
def test_a_wrong_seed_gets_one_message_under_every_method(tmp_path, capsys, divisor, method):
    # I_0 of a reduced SNC or hyperplane divisor is (1), whichever method runs.
    task = dict(divisor_task(["x", "y"], divisor), k=2, method=method, options={"i0": ["x"]})
    code, out, err = run_cli(capsys, "compute", write_task(tmp_path, task))
    assert (code, out) == (2, "")
    assert err == ("error: 'options.i0' contradicts the computed I_0 of the reduced divisor: "
                   "I_0 = ideal(1), but the given I_0 is ideal(x)\n")


def test_forced_recursion_on_a_line_starts_from_its_computed_i0(tmp_path, capsys):
    task = dict(divisor_task(["x", "y"], LINE), k=2, method="recursion")
    code, out, _ = run_cli(capsys, "--format", "json", "compute", write_task(tmp_path, task))
    assert code == 0
    results = json.loads(out)["results"]
    assert [(res["k"], res["exact"], res["method"], res["ideal"]) for res in results] == \
        [(k, True, "recursion", ["1"]) for k in range(3)]
    assert all("certificate node-example level 0" in res["notes"] for res in results)


def test_a_seeded_cylinder_is_computed_over_the_variables_it_uses(tmp_path, capsys):
    # The seed's generator x*z is not in its reduced basis (x, y): it moves
    # to x, y like the unseeded chain, which is exact at every level.
    plain = dict(CUSP_TASK, vars=["x", "y", "z"])
    seeded = dict(plain, options={"i0": ["x", "y", "x*z"]})
    code, out, _ = run_cli(capsys, "--format", "json", "compute", write_task(tmp_path, plain))
    assert code == 0
    want = json.loads(out)["results"]
    code, out, _ = run_cli(capsys, "--format", "json", "compute", write_task(tmp_path, seeded))
    assert code == 0
    got = json.loads(out)["results"]
    assert [(res["ideal"], res["exact"]) for res in got] == \
        [(res["ideal"], True) for res in want]
    for res in got:
        assert "I_0 supplied by caller (trusted)" in res["notes"]
        assert "actually used and extended back" in res["notes"]


D5_TASK = {"vars": ["x", "y"],
           "divisor": {"components": [{"f": "x^2*y+y^4", "alpha": "1/2"}]},
           "task": "compute", "k": 1}


@pytest.mark.parametrize("f, source, label", [
    # A node at the origin and a cusp at (1, 0).
    ("y^2+x^2*(1-x)^3", "universal-bound", "lower-bound"),
    # Two conics meeting in two tacnodes: the Hessian vanishes at each.
    ("(x^2+y^2-1)*(x^2+4*y^2-4)", "universal-bound", "lower-bound"),
    # The node at the origin is the only singular point.
    ("x^2-y^2+x^3", "node-example", "exact"),
    # A line through a circle: two nodes, neither at the origin.
    ("x*(x^2+y^2-1)", "node-example", "exact"),
    # A smooth conic has no singular point at all.
    ("x^2+y^2-1", "node-example", "exact"),
])
def test_node_certificate_needs_only_nodes(tmp_path, capsys, f, source, label):
    task = {"vars": ["x", "y"], "task": "compute", "k": 2,
            "divisor": {"components": [{"f": f, "alpha": "1/10"}]},
            "options": {"i0": ["1"]}}
    code, out, _ = run_cli(capsys, "compute", write_task(tmp_path, task))
    assert code == 0
    assert f"certificate {source} level" in out
    assert f"k = 1 [{label}]" in out and f"k = 2 [{label}]" in out


def test_chain_notes_name_the_level_the_chain_used(tmp_path, capsys):
    # Steps run against min(level, n - 1) = 1, so the notes say 1, not 5.
    task = {"task": "compute", "vars": ["x", "y"], "k": 2, "method": "recursion",
            "divisor": {"components": [{"f": "x*y", "alpha": "1/2"}]},
            "options": {"certificate": {"level": 5}}}
    code, out, _ = run_cli(capsys, "compute", write_task(tmp_path, task))
    assert code == 0
    assert "certificate user-asserted level 1" in out
    assert "below certificate level 1 (user-asserted)" in out
    assert "level 5" not in out


def test_a_lower_bound_chain_names_its_first_step_and_warns_once(tmp_path, capsys):
    # Level 5 is used as n - 1 = 1: the first step, at index 0, is below it,
    # so k = 2 and 3 are lower bounds too, though their steps ran at 1 and 2.
    task = {"task": "compute", "vars": ["x", "y"], "k": 3, "method": "recursion",
            "divisor": {"components": [{"f": "x*y", "alpha": "1/2"}]},
            "options": {"certificate": {"level": 5}}}
    path = write_task(tmp_path, task)
    note = ("lower bound only: the first step, at index 0, is below certificate level 1 "
            "(user-asserted); the true ideal contains this one")
    code, out, _ = run_cli(capsys, "--format", "json", "compute", path)
    assert code == 0
    results = json.loads(out)["results"]
    assert [res["exact"] for res in results] == [True, False, False, False]
    assert all(res["notes"] == note for res in results[1:])
    code, out, _ = run_cli(capsys, "compute", path)
    assert code == 0
    assert out.count(f"notes: {note}\n") == 3
    assert [line for line in out.splitlines() if line.startswith("warning:")] == \
        [f"warning: non-exact result: {note}"]


def test_task_file_certificate_is_user_asserted(tmp_path, capsys):
    asserted = dict(D5_TASK, options={"i0": ["1"], "certificate": {"level": 0}})
    code, out, _ = run_cli(capsys, "compute", write_task(tmp_path, asserted))
    assert code == 0
    assert "certificate user-asserted level 0" in out
    for source in ("user-asserted", "node-example", "quasihomogeneous-formula",
                   "universal-bound", "bogus"):
        borrowed = dict(D5_TASK, options={"i0": ["1"],
                                          "certificate": {"level": 0, "source": source}})
        code, out, err = run_cli(capsys, "compute", write_task(tmp_path, borrowed))
        assert (code, out) == (2, "")
        assert "unknown key 'source' in 'options.certificate' (expected level)" in err


@pytest.mark.parametrize("key", ["I0", "certficate", "alpha"])
def test_unknown_option_key_exits_2_and_names_it(tmp_path, capsys, key):
    task = dict(D5_TASK, options={key: ["1"]})
    code, out, err = run_cli(capsys, "compute", write_task(tmp_path, task))
    assert (code, out) == (2, "")
    assert repr(key) in err


COMPUTE_KEYS = "expected task, vars, divisor, k, method, options"
CERTIFY_KEYS = "expected task, vars, divisor, k, resolution, multiplicity, membership"


@pytest.mark.parametrize("command,task", [
    ("compute", dict(CUSP_TASK, K=2, methd="snc")),
    ("certify", {"vars": ["x", "y"], "task": "certify", "k": 1, "memebrship": {},
                 "membership": {"n": 3, "m": 2, "alpha": "1/2"}}),
    ("compute", {"task": "compute", "vars": ["x"], "bogus": 1,
                 "divisor": {"components": [{"f": "x", "alpha": "1"}]}}),
])
def test_unknown_task_key_exits_2_and_names_it(tmp_path, capsys, command, task):
    code, out, err = run_cli(capsys, command, write_task(tmp_path, task))
    assert (code, out) == (2, "")
    for key in set(task) - {"vars", "divisor", "task", "k", "method", "membership"}:
        assert repr(key) in err
    assert (COMPUTE_KEYS if command == "compute" else CERTIFY_KEYS) in err


@pytest.mark.parametrize("argv, doc, named", [
    (["--seed", "7", "verify", "restriction"], None, "argument --seed: only verify reads a seed"),
    (["compute", TASK], {"task": "compute", "vars": ["x", "y"], "k": 1,
                         "components": [{"f": "x^2+y^3", "alpha": "9/10"}]},
     "unknown key 'components' in a compute task document"),
    (["compute", TASK], dict(CUSP_TASK, options={"alpha_samples": ["9/10"]}),
     "unknown key 'alpha_samples' in 'options'"),
    (["compute", TASK], dict(D5_TASK, options={"i0": ["1"], "certificate": {
        "level": 0, "source": "user-asserted"}}),
     "unknown key 'source' in 'options.certificate'"),
], ids=["global-seed", "top-level-components", "options-alpha-samples", "certificate-source"])
def test_a_second_spelling_of_a_setting_exits_2_and_names_it(tmp_path, capsys, argv, doc,
                                                             named):
    # Each setting has one spelling: verify's --seed, divisor.components,
    # --alpha-samples, and a task-file certificate that is user-asserted.
    path = write_task(tmp_path, doc) if doc is not None else None
    try:
        code = main([path if arg == TASK else arg for arg in argv])
    except SystemExit as exc:  # argparse refuses a flag by exiting
        code = exc.code
    captured = capsys.readouterr()
    assert (code, captured.out) == (2, "")
    assert named in captured.err


@pytest.mark.parametrize("command,key,value", [
    ("compute", "resolution", {"exceptional": [{"a": [2], "b": 1}]}),
    ("compute", "multiplicity", {"n": 2, "r": 2, "a": 2, "b": "1"}),
    ("compute", "membership", {"n": 2, "m": 2, "alpha": "1/2"}),
    ("certify", "method", "auto"),
    ("certify", "options", {}),
])
def test_other_subcommands_key_exits_2_and_names_it(tmp_path, capsys, command, key, value):
    if command == "compute":
        task = dict(CUSP_TASK, **{key: value})
    else:
        task = {"vars": ["x", "y"], "task": "certify", "k": 1,
                "membership": {"n": 3, "m": 2, "alpha": "1/2"}, key: value}
    code, out, err = run_cli(capsys, command, write_task(tmp_path, task))
    assert (code, out) == (2, "")
    assert f"unknown key {key!r} in a {command} task document" in err
    assert (COMPUTE_KEYS if command == "compute" else CERTIFY_KEYS) in err


@pytest.mark.parametrize("command", ["compute", "certify"])
def test_divisor_and_top_level_components_exit_2_and_name_both(tmp_path, capsys, command):
    task = dict(CUSP_TASK, task=command, components=[{"f": "x", "alpha": "1/2"}])
    if command == "certify":
        del task["method"]
        task["membership"] = {"n": 3, "m": 2, "alpha": "1/2"}
    code, out, err = run_cli(capsys, command, write_task(tmp_path, task))
    assert (code, out) == (2, "")
    assert f"unknown key 'components' in a {command} task document" in err
    assert (COMPUTE_KEYS if command == "compute" else CERTIFY_KEYS) in err


def test_compute_formats_each_generator_once(tmp_path, capsys, monkeypatch):
    from collections import Counter
    from hodgeideals.poly import Polynomial
    real = Polynomial.to_str
    formatted = []

    def recording(self, *args, **kwargs):
        text = real(self, *args, **kwargs)
        formatted.append(text)
        return text

    monkeypatch.setattr(Polynomial, "to_str", recording)
    # No generator prints like a component (x, y or z), so every call that
    # yields a generator line formats a basis element.
    task = {"vars": ["x", "y", "z"],
            "divisor": {"components": [{"f": "x", "alpha": "5/2"}, {"f": "y", "alpha": "1/3"},
                                       {"f": "z", "alpha": "2"}]},
            "task": "compute", "k": 3}
    path = write_task(tmp_path, task)
    code, out, _ = run_cli(capsys, "--format", "json", "compute", path)
    assert code == 0
    gens = [g for res in json.loads(out)["results"] for g in res["ideal"]]
    assert len(gens) > 4 and not {"x", "y", "z"} & set(gens)
    for fmt in ("text", "json"):
        formatted.clear()
        code, out, _ = run_cli(capsys, "--format", fmt, "compute", path)
        assert code == 0
        assert Counter(t for t in formatted if t in gens) == Counter(gens)


def test_compute_lex_print_computes_each_basis_once(tmp_path, capsys, groebner_calls,
                                                    graded_calls):
    # Every level of the SNC chain keeps a monomial basis, which a lex
    # print re-sorts.  Of the cusp's levels only k = 2, whose basis holds
    # y^4 - 14/5*x^2*y, is computed for lex, once per print, by row
    # reduction of the integer rows its grevlex basis records.  A grevlex
    # print computes no basis, so the calls beyond a grevlex run's are the
    # lex print's: (groebner_basis, graded_basis) calls per print.
    snc = {"vars": ["x", "y", "z"],
           "divisor": {"components": [{"f": "x", "alpha": "3/2"}, {"f": "y", "alpha": "1/2"},
                                      {"f": "z", "alpha": "1/3"}]},
           "task": "compute", "k": 3}
    cusp = {"vars": ["x", "y"],
            "divisor": {"components": [{"f": "x^2+y^3", "alpha": "9/10"}]},
            "task": "compute", "k": 2}
    for task, calls in ((snc, (0, 0)), (cusp, (0, 1))):
        path = write_task(tmp_path, task)
        for fmt in ("text", "json"):
            counts = []
            for order in ("grevlex", "lex"):
                groebner_calls.clear()
                graded_calls.clear()
                code, _, _ = run_cli(capsys, "--order", order, "--format", fmt, "compute", path)
                assert code == 0
                counts.append((len(groebner_calls), len(graded_calls)))
            assert (counts[1][0] - counts[0][0], counts[1][1] - counts[0][1]) == calls


@pytest.mark.parametrize("variables,f,alpha,method", [
    (["x", "y"], "x^2+y^3", "9/10", "auto"),
    (["x", "y"], "x^2+y^3", "19/10", "auto"),     # twisted by x^2+y^3
    (["x", "y", "z"], "x^2+y^2+z^2", "3/4", "recursion"),
    (["x", "y"], "x^2+y^2", "3/2", "ordinary"),   # closed form, twisted
    (["x", "y", "z"], "x^2+y^3", "9/10", "auto"),  # a cylinder, extended back
])
def test_printing_a_computed_chain_in_grevlex_runs_no_groebner_basis(
        variables, f, alpha, method, groebner_calls):
    d = parse_divisor({"vars": variables, "components": [{"f": f, "alpha": alpha}]})
    chain = compute_chain(d, 3, method)
    groebner_calls.clear()
    lines = [_ideal_lines(res.ideal, GREVLEX) for res in chain]
    assert groebner_calls == []
    assert all(lines)


@pytest.mark.parametrize("variables,f,alpha,k", [
    (["x", "y"], "x^2+3*y^2", "1/2", 3),             # the plane node
    (["x", "y", "z"], "x^2+y^2+z^2", "3/4", 1),
    (["x", "y", "z", "w"], "x^3+y^3+z^3+2*w^3", "5/6", 1),
])
def test_an_ordinary_cone_decides_its_assumptions_without_groebner_basis(
        tmp_path, capsys, groebner_calls, variables, f, alpha, k):
    # A closed form reads ``assumptions``, which the cone's grading decides;
    # its Jacobian (x_i^(m-1)) is read off the support's exponents.
    path = write_task(tmp_path, {"vars": variables, "task": "compute", "k": k,
                                 "method": "ordinary",
                                 "divisor": {"components": [{"f": f, "alpha": alpha}]}})
    groebner_calls.clear()
    code, out, _ = run_cli(capsys, "compute", path)
    assert code == 0 and "method=ordinary" in out and "warning" not in out
    assert groebner_calls == []


def test_extend_that_reorders_the_variables_computes_a_new_basis(groebner_calls):
    d = parse_divisor({"vars": ["x", "y"],
                       "components": [{"f": "x^2+y^3", "alpha": "9/10"}]})
    ideal = compute_chain(d, 2)[2].ideal
    for variables in (("z", "x", "y"), ("y", "z", "x")):
        groebner_calls.clear()
        extended = ideal.extend(variables)
        lines = _ideal_lines(extended, GREVLEX)
        assert len(groebner_calls) == (0 if variables[1:] == ("x", "y") else 1)
        fresh = Ideal(variables, extended.generators)
        assert lines == _ideal_lines(fresh, GREVLEX)


def test_second_main_call_builds_no_parser(tmp_path, capsys, monkeypatch):
    import argparse
    path = write_task(tmp_path, CUSP_TASK)
    assert run_cli(capsys, "compute", path)[0] == 0
    built = []
    real_init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(self)
        real_init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    assert run_cli(capsys, "--format", "json", "compute", path)[0] == 0
    assert run_cli(capsys, "parse", "x+y", "--vars", "x,y")[0] == 0
    assert built == []


def test_compute_bad_alpha_exits_2(tmp_path, capsys):
    task = {"vars": ["x"], "divisor": {"components": [{"f": "x", "alpha": "0"}]},
            "task": "compute", "k": 0}
    path = write_task(tmp_path, task)
    code, _, err = run_cli(capsys, "compute", path)
    assert code == 2
    assert "alpha" in err


def test_compute_unknown_variable_exits_2(tmp_path, capsys):
    task = {"vars": ["x"], "divisor": {"components": [{"f": "x + w", "alpha": "1"}]},
            "task": "compute", "k": 0}
    path = write_task(tmp_path, task)
    code, _, err = run_cli(capsys, "compute", path)
    assert code == 2
    assert "unknown variable" in err


def test_compute_malformed_json_exits_2(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    code, _, err = run_cli(capsys, "compute", str(path))
    assert code == 2


# -- certify -----------------------------------------------------------------------

def certify_task(alpha):
    return {
        "vars": ["x", "y"],
        "divisor": {"components": [{"f": "x^2+y^3", "alpha": alpha}]},
        "task": "certify",
        "k": 0,
        "resolution": {"exceptional": [{"a": [2], "b": 1}, {"a": [3], "b": 2},
                                       {"a": [6], "b": 4}],
                       "strict_transform_smooth": True},
    }


def test_certify_trivial_shows_instantiated_inequalities(tmp_path, capsys):
    path = write_task(tmp_path, certify_task("4/5"))
    code, out, _ = run_cli(capsys, "certify", path)
    assert code == 0
    assert "(1+1)/2 = 1 >= 4/5" in out
    assert "(2+1)/3 = 1 >= 4/5" in out
    assert "(4+1)/6 = 5/6 >= 4/5" in out
    assert "decision: TRIVIAL" in out


def test_certify_reads_the_reduced_coefficients_without_a_twist(tmp_path, capsys, monkeypatch):
    # At alpha = 401/2 the twist would be (x^2+y^3+x*y)^200; the decision
    # reads only the reduced coefficient 1/2.
    powers = []
    real_pow = Polynomial.__pow__
    monkeypatch.setattr(Polynomial, "__pow__",
                        lambda f, e: powers.append(e) or real_pow(f, e))
    task = certify_task("401/2")
    task["divisor"]["components"][0]["f"] = "x^2+y^3+x*y"
    code, out, _ = run_cli(capsys, "certify", write_task(tmp_path, task))
    assert code == 0 and powers == []
    assert out == ("task: certify (triviality), k = 0\n"
                   "  coefficients periodically reduced into (0, 1]\n"
                   "  F1: (1+1)/2 = 1 >= 1/2 = k + alpha\n"
                   "  F2: (2+1)/3 = 1 >= 1/2 = k + alpha\n"
                   "  F3: (4+1)/6 = 5/6 >= 1/2 = k + alpha\n"
                   "decision: TRIVIAL\n")


def test_certify_inconclusive_above_threshold(tmp_path, capsys):
    path = write_task(tmp_path, certify_task("9/10"))
    code, out, _ = run_cli(capsys, "certify", path)
    assert code == 0
    assert "5/6 < 9/10" in out
    assert "decision: INCONCLUSIVE" in out


def test_certify_empty_data_trivial(tmp_path, capsys):
    task = certify_task("1")
    task["resolution"]["exceptional"] = []
    path = write_task(tmp_path, task)
    code, out, _ = run_cli(capsys, "certify", path)
    assert code == 0
    assert "decision: TRIVIAL" in out


def test_certify_membership(tmp_path, capsys):
    task = {"task": "certify", "k": 1, "membership": {"n": 3, "m": 2, "alpha": "3/4"}}
    path = write_task(tmp_path, task)
    code, out, _ = run_cli(capsys, "--format", "json", "certify", path)
    assert code == 0
    assert json.loads(out)["decision"] == "CONTAINED-IN-MAXIMAL-IDEAL"


def test_certify_membership_with_vars_reads_no_divisor(tmp_path, capsys):
    task = {"vars": ["x", "y"], "k": 1, "membership": {"n": 2, "m": 2, "alpha": "3/4"}}
    code, out, err = run_cli(capsys, "certify", write_task(tmp_path, task))
    assert (code, err) == (0, "")
    assert "decision: CONTAINED-IN-MAXIMAL-IDEAL" in out


def test_certify_multiplicity(tmp_path, capsys):
    task = {"task": "certify", "k": 1, "multiplicity": {"n": 3, "r": 3, "a": 4, "b": "4"}}
    path = write_task(tmp_path, task)
    code, out, _ = run_cli(capsys, "--format", "json", "certify", path)
    assert code == 0
    assert json.loads(out)["q"] == 3


@pytest.mark.parametrize("data", [
    {"multiplicity": {"n": 3.9, "r": 3, "a": 4, "b": "4"}},
    {"multiplicity": {"n": 3, "r": True, "a": 4, "b": "4"}},
    {"multiplicity": {"n": 3, "r": 3, "a": "4", "b": "4"}},
    {"multiplicity": {"n": 3, "r": 3, "a": 4, "b": "4", "q": 1.0}},
    {"membership": {"n": 2.7, "m": True, "alpha": "3/4"}},
    {"membership": {"n": 3, "m": -2, "alpha": "3/4"}},
    {"membership": {"n": 3, "m": 2, "alpha": "3/4", "proportional": "false"}},
    {"membership": {"n": 3, "m": 2, "alpha": "3/4", "proportional": 0}},
])
def test_certify_refuses_coerced_numbers_and_booleans(tmp_path, capsys, data):
    path = write_task(tmp_path, {"task": "certify", "k": 1, **data})
    code, out, err = run_cli(capsys, "certify", path)
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and "must be a" in err


def test_certify_membership_honours_proportional_false(tmp_path, capsys):
    task = {"task": "certify", "k": 1,
            "membership": {"n": 3, "m": 2, "alpha": "3/4", "proportional": False}}
    path = write_task(tmp_path, task)
    code, out, _ = run_cli(capsys, "--format", "json", "certify", path)
    assert code == 0
    assert json.loads(out)["decision"] == "CONTAINED-IN-MAXIMAL-IDEAL-CONJECTURAL"


@pytest.mark.parametrize("command,task,where,key", [
    ("compute", dict(CUSP_TASK, divisor={"components": [{"f": "x^2+y^3", "alpha": "1"}],
                                         "alphas": ["1"]}), "'divisor'", "alphas"),
    ("compute", dict(CUSP_TASK, divisor={"components": [{"f": "x^2+y^3", "alpha": "1",
                                                         "mult": 2}]}), "component 0", "mult"),
    ("compute", dict(D5_TASK, options={"i0": ["1"], "certificate": {"level": 0, "lvl": 1}}),
     "'options.certificate'", "lvl"),
    # A misspelled key must not fall back to its default (a smooth strict transform).
    ("certify", dict(certify_task("4/5"), resolution={"exceptional": [{"a": [2], "b": 1}],
                                                      "strict_transfrom_smooth": False}),
     "'resolution'", "strict_transfrom_smooth"),
    ("certify", dict(certify_task("4/5"), resolution={"exceptional": [{"a": [2], "b": 1,
                                                                       "c": 0}]}),
     "exceptional record 0", "c"),
    ("certify", {"task": "certify", "k": 1,
                 "multiplicity": {"n": 3, "r": 3, "a": 4, "b": "4", "qq": 2}},
     "'multiplicity'", "qq"),
    ("certify", {"task": "certify", "k": 1,
                 "membership": {"n": 3, "m": 2, "alpha": "3/4", "proportinal": False}},
     "'membership'", "proportinal"),
])
def test_unknown_nested_key_exits_2_and_names_it(tmp_path, capsys, command, task, where, key):
    code, out, err = run_cli(capsys, command, write_task(tmp_path, task))
    assert (code, out) == (2, "")
    assert f"unknown key {key!r} in {where}" in err


@pytest.mark.parametrize("f", [5, None, ["x"]])
def test_non_string_equation_exits_2(tmp_path, capsys, f):
    task = dict(CUSP_TASK, divisor={"components": [{"f": f, "alpha": "1"}]})
    code, out, err = run_cli(capsys, "compute", write_task(tmp_path, task))
    assert (code, out) == (2, "")
    assert "expected polynomial text" in err


def test_task_file_is_closed(tmp_path, capsys):
    path = write_task(tmp_path, {"task": "certify", "k": 1,
                                 "membership": {"n": 3, "m": 2, "alpha": "3/4"}})
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["certify", path]) == 0
        gc.collect()
    capsys.readouterr()
    assert not [w for w in caught if issubclass(w.category, ResourceWarning)]


def test_certify_resolution_notes_the_periodic_reduction(tmp_path, capsys):
    # alpha = 3/2 is read as its reduction 1/2, below the cusp threshold 5/6.
    code, out, _ = run_cli(capsys, "certify", write_task(tmp_path, certify_task("3/2")))
    assert code == 0
    assert out.splitlines()[1] == "  coefficients periodically reduced into (0, 1]"
    assert "(4+1)/6 = 5/6 >= 1/2" in out
    assert "decision: TRIVIAL" in out


X_DIVISOR = {"components": [{"f": "x", "alpha": "1"}]}


def divisor_task(variables, divisor):
    return {"task": "compute", "vars": variables, "divisor": divisor}



def resolution_task(resolution):
    return dict(certify_task("1/2"), resolution=resolution)


def membership_task(n, m, alpha):
    return {"task": "certify", "k": 3, "membership": {"n": n, "m": m, "alpha": alpha}}


@pytest.mark.parametrize("argv,doc,message", [
    (["compute", TASK], None, "cannot read task file"),
    (["compute", TASK], "[1, 2]", "task document must be a JSON object"),
    (["compute", TASK], dict(CUSP_TASK, task="certify"),
     "task field says 'certify' but the subcommand is 'compute'"),
    (["certify", TASK], dict(certify_task("1/2"), task="compute"),
     "task field says 'compute' but the subcommand is 'certify'"),
    (["compute", TASK], {"task": "compute", "divisor": X_DIVISOR},
     "task document needs a 'vars' list"),
    (["compute", TASK], dict(CUSP_TASK, method="magic"), "unknown method 'magic'"),
    (["compute", TASK], dict(CUSP_TASK, options=[1]), "'options' must be an object"),
    (["compute", TASK], dict(CUSP_TASK, options={"certificate": 3}),
     "'options.certificate' must be an object with a 'level'"),
    (["compute", TASK], dict(CUSP_TASK, options={"i0": "x"}),
     "'options.i0' must be a list of polynomial strings"),
    (["compute", TASK], dict(CUSP_TASK, options={"i0": [1]}),
     "'options.i0' must be a list of polynomial strings"),
    (["compute", TASK, "--alpha-samples", "1/2,0"], CUSP_TASK,
     "alpha samples must be positive, got '0'"),
    (["compute", TASK], {"task": "compute", "k": 1}, "compute needs a divisor"),
    (["certify", TASK], {"task": "certify", "k": 1}, "certify wants exactly one of"),
    (["certify", TASK], {"task": "certify", "k": 1, "resolution": {"exceptional": []}},
     "resolution certificates need the divisor"),
    (["certify", TASK], {"task": "certify", "k": 1, "multiplicity": [3]},
     "'multiplicity' must be an object"),
    (["certify", TASK], {"task": "certify", "k": 1, "membership": "n=3"},
     "'membership' must be an object"),
    (["certify", TASK], membership_task(3, 2, "-1/2"),
     "alpha must be positive, got -1/2"),
    (["certify", TASK], membership_task(3, 2, "0"),
     "alpha must be positive, got 0"),
    (["certify", TASK], membership_task(0, 2, "1/2"),
     "dimension and multiplicity must be >= 1, got n=0, m=2"),
    (["certify", TASK], membership_task(3, 0, "1/2"),
     "dimension and multiplicity must be >= 1, got n=3, m=0"),
    (["parse", "x", "--vars", ""], None, "ambient variable list must be nonempty"),
    (["parse", "x", "--vars", "1x"], None, "invalid variable name '1x'"),
    (["parse", "x", "--vars", "x,x"], None, "duplicate variable name 'x'"),
    # Divisor documents that parse_divisor refuses.
    (["compute", TASK], divisor_task("x", X_DIVISOR), "needs a nonempty 'vars' list"),
    (["compute", TASK], divisor_task([], X_DIVISOR), "needs a nonempty 'vars' list"),
    (["compute", TASK], divisor_task(["x"], {"components": []}),
     "needs a nonempty 'components' list"),
    (["compute", TASK], divisor_task(["x"], []), "needs a nonempty 'components' list"),
    (["compute", TASK], divisor_task(["x"], {"components": ["x"]}),
     "component 0 must be an object with 'f' and 'alpha'"),
    (["compute", TASK], divisor_task(["x"], {"components": [{"f": "x"}]}),
     "component 0 must be an object with 'f' and 'alpha'"),
    # Resolution data that parse_resolution_data refuses.
    (["certify", TASK], resolution_task([1]), "resolution data must be a JSON object"),
    (["certify", TASK], resolution_task({}), "resolution data needs an 'exceptional' list"),
    (["certify", TASK], resolution_task({"exceptional": 3}), "'exceptional' must be a list"),
    (["certify", TASK], resolution_task({"exceptional": [5]}),
     "exceptional record 0 must be an object with 'a' and 'b'"),
    (["certify", TASK], resolution_task({"exceptional": [{"a": [2]}]}),
     "exceptional record 0 must be an object with 'a' and 'b'"),
    (["certify", TASK], resolution_task({"exceptional": [{"a": [], "b": 1}]}),
     "'a' must be a nonempty list of integers"),
    (["certify", TASK], resolution_task({"exceptional": [{"a": [True], "b": 1}]}),
     "'a' must be a nonempty list of integers"),
    (["certify", TASK], resolution_task({"exceptional": [{"a": [-1, 2], "b": 1}]}),
     "exceptional record 0: pullback coefficients must be >= 0 with positive total, "
     "got (-1, 2)"),
    (["certify", TASK], resolution_task({"exceptional": [{"a": [0], "b": 1}]}),
     "exceptional record 0: pullback coefficients must be >= 0 with positive total, "
     "got (0,)"),
    (["certify", TASK], resolution_task({"exceptional": [{"a": [2], "b": -1}]}),
     "'b' must be a non-negative integer"),
    (["certify", TASK], resolution_task({"exceptional": [{"a": [2], "b": 1.0}]}),
     "'b' must be a non-negative integer"),
    (["certify", TASK], resolution_task({"exceptional": [], "strict_transform_smooth": "yes"}),
     "'strict_transform_smooth' must be a boolean"),
    (["certify", TASK], resolution_task({"exceptional": [{"a": [2, 1], "b": 1}]}),
     "exceptional record 0 lists 2 components, divisor has 1"),
    # An empty name in --vars is refused, not dropped.
    (["parse", "x+y", "--vars", "x,,y"], None, "invalid variable name ''"),
    (["parse", "x", "--vars", "x,"], None, "invalid variable name ''"),
    (["parse", "y", "--vars", ",y"], None, "invalid variable name ''"),
    (["certify", TASK], resolution_task({"exceptional": [], "strict_transform_smooth": False}),
     "the triviality criterion needs a smooth strict transform"),
    (["compute", TASK], divisor_task(["x"], {"components": [{"f": "3", "alpha": "1"}]}),
     "component equations must be nonconstant, got 3"),
    (["parse", "1" * 5000 + "*x", "--vars", "x"], None,
     "integer literal longer than 4300 digits at 0..5000"),
    # Every rational is exact text: a decimal, or in a task document a JSON
    # number or boolean, is refused.
    (["compute", TASK, "--alpha-samples", "0.5"], CUSP_TASK, "malformed rational '0.5'"),
    (["compute", TASK], divisor_task(["x"], {"components": [{"f": "x", "alpha": 1}]}),
     "component 0: 'alpha' must be exact rational text, got 1"),
    (["compute", TASK], divisor_task(["x"], {"components": [{"f": "x", "alpha": True}]}),
     "component 0: 'alpha' must be exact rational text, got True"),
    (["certify", TASK], membership_task(3, 1, 1),
     "bad membership data: 'membership.alpha' must be exact rational text, got 1"),
    (["certify", TASK], {"task": "certify", "k": 1,
                         "multiplicity": {"n": 3, "r": 1, "a": 2, "b": 4}},
     "bad multiplicity data: 'multiplicity.b' must be exact rational text, got 4"),
    (["certify", TASK], {"task": "certify", "k": 1,
                         "multiplicity": {"n": 3, "r": 1, "a": 2, "b": 0.5}},
     "bad multiplicity data: 'multiplicity.b' must be exact rational text, got 0.5"),
    # A caller's I_0 is trusted, but it is never the zero ideal.
    (["compute", TASK], dict(CUSP_TASK, options={"i0": []}), "'options.i0' spans the zero ideal"),
    (["compute", TASK], dict(CUSP_TASK, options={"i0": ["0"]}),
     "'options.i0' spans the zero ideal"),
    (["compute", TASK], dict(CUSP_TASK, options={"i0": ["x-x"]}),
     "'options.i0' spans the zero ideal"),
    # A support that QDivisor can tell is not reduced.
    (["compute", TASK], divisor_task(["x"], {"components": [{"f": "x^2", "alpha": "1/2"}]}),
     "the support is not reduced: the monomial components multiply to x^2"),
    (["compute", TASK], divisor_task(["x", "y"], {"components": [{"f": "x*y", "alpha": "1/2"},
                                                                {"f": "x", "alpha": "1/2"}]}),
     "the support is not reduced: the monomial components multiply to x^2*y"),
    (["compute", TASK], divisor_task(["x", "y"], {"components": [{"f": "x+y", "alpha": "1/2"},
                                                                {"f": "2*x+2*y", "alpha": "1/2"}]}),
     "the support is not reduced: components 0 and 1 are proportional"),
    # A caller's I_0 that the computed I_0 contradicts, where a closed form
    # covers the chain; the seed is I_0 of the reduced divisor, not I_0(D),
    # so the twist x of the second task plays no part.
    (["compute", TASK], dict(divisor_task(["x", "y"], SNC_HALVES), k=1,
                             options={"i0": ["x^5"]}),
     "'options.i0' contradicts the computed I_0 of the reduced divisor: I_0 = ideal(1), "
     "but the given I_0 is ideal(x^5)"),
    (["compute", TASK], dict(divisor_task(["x", "y"], SNC_TWISTED), k=1,
                             options={"i0": ["x"]}),
     "'options.i0' contradicts the computed I_0 of the reduced divisor: I_0 = ideal(1), "
     "but the given I_0 is ideal(x)"),
    # The seed is checked before a forced method is tried: the snc closed
    # form does not cover the cusp (exit 3 without a seed), but the seed
    # contradicts the cusp's computed I_0 (x, y), and that input error wins.
    (["compute", TASK], dict(CUSP_TASK, method="snc", options={"i0": ["x^2", "y"]}),
     "'options.i0' contradicts the computed I_0 of the reduced divisor: I_0 = ideal(x, y), "
     "but the given I_0 is ideal(x^2, y)"),
    # A cylinder's I_0 is extended from the variables it uses; this
    # seed's reduced basis uses z, which the cusp omits.
    (["compute", TASK], dict(CUSP_TASK, vars=["x", "y", "z"], options={"i0": ["x", "z"]}),
     "'options.i0' contradicts the cylinder: the divisor uses only x, y, but the reduced "
     "basis of the given I_0 is ideal(x, z)"),
    # MultiplicityData names the dimension, not an empty codimension range.
    (["certify", TASK], {"task": "certify", "k": 1,
                         "multiplicity": {"n": 0, "r": 0, "a": 2, "b": "3/2"}},
     "bad multiplicity data: dimension must be >= 1, got n=0"),
    # A 'vars' list alone is no divisor.
    (["compute", TASK], {"task": "compute", "vars": ["x"], "k": 1}, "compute needs a divisor"),
    (["certify", TASK], {"task": "certify", "vars": ["x", "y"], "k": 1,
                         "resolution": {"exceptional": []}},
     "resolution certificates need the divisor (for its alphas)"),
])
def test_input_errors_exit_2_with_their_message(tmp_path, capsys, argv, doc, message):
    path = tmp_path / "task.json"
    if doc is not None:
        path.write_text(doc if isinstance(doc, str) else json.dumps(doc))
    code, out, err = run_cli(capsys, *(str(path) if arg == TASK else arg for arg in argv))
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and message in err
    assert "0..0" not in err  # only polynomial and rational text errors carry a span


@pytest.mark.parametrize("raw,message", [
    (b"\xff{}", "cannot read task file"),
    (b'{"task": "compute", "k": ' + b"1" * 5000 + b"}", "is not valid JSON"),
    (b"[" * 100000 + b"]" * 100000, "is not valid JSON"),
], ids=["undecodable", "long-integer", "deep-nesting"])
def test_unreadable_task_text_exits_2(tmp_path, capsys, raw, message):
    path = tmp_path / "task.json"
    path.write_bytes(raw)
    code, out, err = run_cli(capsys, "compute", str(path))
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and message in err


@pytest.mark.parametrize("doc,message", [
    (membership_task(0, 2, "1/2"), "dimension and multiplicity must be >= 1, got n=0, m=2"),
    (resolution_task({"exceptional": [{"a": [2, 1], "b": 1}]}),
     "exceptional record 0 lists 2 components, divisor has 1"),
], ids=["membership-n-0", "record-of-two-components"])
def test_certify_data_is_refused_by_the_certificate_layer(tmp_path, capsys, doc, message):
    # The parser reads the document's shapes and types; the certificate
    # function decides the values, and its InputError exits 2.
    assert TaskSpec.from_document(doc, "certify").kind in doc
    code, out, err = run_cli(capsys, "certify", write_task(tmp_path, doc))
    assert (code, out, err) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize("error,exit_code", [(InputError, 2), (ValueError, 4)],
                         ids=["input-error", "value-error"])
def test_certificate_errors_exit_by_their_type(tmp_path, capsys, monkeypatch, error, exit_code):
    from hodgeideals import certificates

    def refusing(*args, **kwargs):
        raise error("refused here")

    monkeypatch.setattr(certificates, "alpha_multiple_membership", refusing)
    code, out, err = run_cli(capsys, "certify", write_task(tmp_path, membership_task(3, 2, "3/4")))
    assert (code, out) == (exit_code, "")
    if error is InputError:
        assert err == "error: refused here\n"
    else:
        assert err.startswith("error: internal error: refused here\nTraceback")
        assert err.rstrip().endswith("ValueError: refused here")


def test_unexpected_library_error_exits_4_as_internal(tmp_path, capsys, monkeypatch):
    from hodgeideals import cli

    def broken_chain(*args, **kwargs):
        raise ValueError("invariant broken")

    monkeypatch.setattr(cli, "compute_chain", broken_chain)
    code, out, err = run_cli(capsys, "compute", write_task(tmp_path, CUSP_TASK))
    assert (code, out) == (4, "")
    assert err.startswith("error: internal error: invariant broken\nTraceback")
    assert err.rstrip().endswith("ValueError: invariant broken")


# -- the JSON writer ------------------------------------------------------------------

def _reference_json(value):
    return json.dumps(value, indent=2, sort_keys=True)


# The values a report holds: None, booleans, ints and any text (control
# and non-ASCII characters included), in lists, tuples and string-keyed
# dicts, nested and empty.
REPORT_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.text(),
    lambda inner: st.lists(inner, max_size=4) | st.lists(inner, max_size=3).map(tuple)
    | st.dictionaries(st.text(max_size=4), inner, max_size=4),
    max_leaves=25)


@settings(deadline=None)
@example({"a": [True, 1, False, 0, None], "b": [[], {}, ()], "é\x00": " \x7f\ud800",
          "": {"k": ["x", "y"]}, "z": ["1", 1, "true", True]})
@given(REPORT_VALUES)
def test_json_writer_is_the_reference_dumps_on_report_values(value):
    assert _json(value) == _reference_json(value)


GOLDEN = Path(__file__).parent / "golden"
JSON_GOLDENS = sorted(case["golden"] for case in json.loads((GOLDEN / "cases.json").read_text())
                      if "json" in case["args"])


@pytest.mark.parametrize("golden", JSON_GOLDENS)
def test_json_writer_is_the_reference_dumps_on_every_json_golden(golden):
    text = (GOLDEN / golden).read_text()
    payload = json.loads(text)
    assert _json(payload) + "\n" == _reference_json(payload) + "\n" == text


@pytest.mark.parametrize("value", [1.5, {"a": [float("nan")]}, {1: "x"}, {"a": {"b": b"x"}},
                                   {"a": {"x"}}], ids=["float", "nan", "int-key", "bytes", "set"])
def test_json_writer_refuses_values_outside_the_report_types(value):
    with pytest.raises(TypeError):
        _json(value)


def test_a_report_outside_the_report_types_exits_4_as_internal(tmp_path, capsys, monkeypatch):
    from hodgeideals import cli

    monkeypatch.setattr(cli, "format_rational", float)
    code, out, err = run_cli(capsys, "--format", "json", "compute", write_task(tmp_path, CUSP_TASK))
    assert (code, out) == (4, "")
    assert err.startswith("error: internal error: a report cannot hold float values")
    assert err.rstrip().endswith("TypeError: a report cannot hold float values: 0.9")


# -- what each subcommand loads ----------------------------------------------------

# Run in a fresh interpreter, which has loaded nothing of the package yet.
LOADED_SCRIPT = """
import contextlib, io, sys
sys.path.insert(0, {src!r})
import hodgeideals.cli
with contextlib.redirect_stdout(io.StringIO()):
    code = 0 if {argv!r} is None else hodgeideals.cli.main({argv!r})
print(code, sorted(name for name in sys.modules
                   if name in ("hodgeideals.verify", "hodgeideals.certificates")))
"""

ROOT = Path(__file__).resolve().parent.parent
SRC = str(ROOT / "src")


def _fresh_python(script):
    # -B: write no bytecode into src; -I: no PYTHON* variables or user site.
    result = subprocess.run([sys.executable, "-B", "-I", "-c", script],
                            capture_output=True, text=True, timeout=60)
    assert result.returncode == 0, result.stderr
    return result.stdout


@pytest.mark.parametrize("argv, doc, loaded", [
    (None, None, []),
    (["compute", TASK], CUSP_TASK, []),
    (["parse", "x*y + 1", "--vars", "x,y"], None, []),
    (["certify", TASK], membership_task(3, 2, "1/2"), ["hodgeideals.certificates"]),
    (["certify", TASK], certify_task("1/2"), ["hodgeideals.certificates"]),
    (["verify", "periodicity"], None, ["hodgeideals.certificates", "hodgeideals.verify"]),
], ids=["import", "compute", "parse", "certify-membership", "certify-resolution", "verify"])
def test_only_certify_and_verify_load_their_layers(tmp_path, argv, doc, loaded):
    if doc is not None:
        argv = [write_task(tmp_path, doc) if arg == TASK else arg for arg in argv]
    out = _fresh_python(LOADED_SCRIPT.format(src=SRC, argv=argv))
    assert out.splitlines() == [f"0 {loaded}"]


def test_the_package_serves_the_certificate_names_on_first_use():
    script = f"""
import sys
sys.path.insert(0, {SRC!r})
import hodgeideals
try:
    hodgeideals.no_such_name
except AttributeError as exc:
    print("AttributeError:", exc)
print("hodgeideals.certificates" in sys.modules)
from hodgeideals import triviality_certificate
from hodgeideals.certificates import triviality_certificate as defined
print(triviality_certificate is defined)
namespace = {{}}
exec("from hodgeideals import *", namespace)
print(sorted(set(hodgeideals.__all__) - set(namespace)))
"""
    assert _fresh_python(script).splitlines() == [
        "AttributeError: module 'hodgeideals' has no attribute 'no_such_name'",
        "False", "True", "[]"]


def test_verify_seed_defaults_to_the_suites_default_seed(capsys):
    # The parser does not import verify, so its help states the default as text.
    from hodgeideals.verify import DEFAULT_SEED

    code, out, _ = run_cli(capsys, "verify", "periodicity")
    assert code == 0
    assert out.startswith(f"task: verify (periodicity), seed = {DEFAULT_SEED}\n")
    with pytest.raises(SystemExit):
        main(["verify", "--help"])
    assert f"(default: {DEFAULT_SEED})" in capsys.readouterr().out
    assert f"(default {DEFAULT_SEED};" in (ROOT / "README.md").read_text()


# -- verify -------------------------------------------------------------------------

def test_verify_all_passes(capsys):
    code, out, _ = run_cli(capsys, "--format", "json", "verify", "all")
    assert code == 0
    payload = json.loads(out)
    assert payload["ok"] is True
    assert all(v["status"] != "FAIL" for v in payload["verdicts"] if v["required"])


def test_verify_restriction_with_seed(capsys):
    code, out, _ = run_cli(capsys, "verify", "restriction", "--seed", "7")
    assert code == 0
    assert out.count("restriction-generic-equality") >= 3


def test_verify_unknown_suite_exits_2(capsys):
    code, _, err = run_cli(capsys, "verify", "unknown-suite")
    assert code == 2
    assert "unknown suite" in err


def test_verify_has_no_suite_aliases(capsys):
    code, out, err = run_cli(capsys, "verify", "certificates-consistency")
    assert (code, out) == (2, "")
    assert "unknown suite 'certificates-consistency'" in err


def test_verify_claim_failure_exits_1(capsys, monkeypatch):
    from hodgeideals import verify as verify_module
    from hodgeideals.verify import Verdict

    def broken_suite(seed):
        return [Verdict(claim="synthetic", instance="forced", status="FAIL")]

    monkeypatch.setitem(verify_module.SUITES, "chains", broken_suite)
    code, out, _ = run_cli(capsys, "verify", "chains")
    assert code == 1
    assert "[FAIL] synthetic" in out


# -- parse ----------------------------------------------------------------------------

def test_parse_echoes_canonical_form(capsys):
    code, out, _ = run_cli(capsys, "parse", "--vars", "x,y", "y^4 - 5/2 x^2 y")
    assert code == 0
    assert out.strip() == "y^4 - 5/2*x^2*y"


def test_parse_canonical_is_round_trip_stable(capsys):
    code, out1, _ = run_cli(capsys, "parse", "--vars", "x,y", "x^2 + y^3 - x^2")
    code2, out2, _ = run_cli(capsys, "parse", "--vars", "x,y", out1.strip())
    assert code == code2 == 0
    assert out1 == out2


def test_parse_reads_a_leading_minus_and_juxtaposed_factors(capsys):
    # "--" ends the flags, so the leading minus is not read as one.
    code, out, _ = run_cli(capsys, "parse", "--vars", "x,y", "--", "-(x+y)^2 2x + 1/2y")
    assert (code, out) == (0, "-2*x^3 - 4*x^2*y - 2*x*y^2 + 1/2*y\n")


def test_parse_vars_may_carry_spaces(capsys):
    code, out, _ = run_cli(capsys, "parse", "--vars", "x, y", "y + x")
    assert (code, out) == (0, "x + y\n")


def test_deep_parentheses_exit_2_at_the_offending_paren(capsys):
    ok = run_cli(capsys, "parse", "--vars", "x", "(" * 200 + "x" + ")" * 200)
    assert ok == (0, "x\n", "")
    code, out, err = run_cli(capsys, "parse", "--vars", "x", "(" * 400 + "x" + ")" * 400)
    assert (code, out) == (2, "")
    assert err == "error: parentheses nested deeper than 200 at 200..201\n"


def test_parse_error_exits_2(capsys):
    code, _, err = run_cli(capsys, "parse", "--vars", "x,y", "x + z")
    assert code == 2
    assert "unknown variable" in err


def test_parse_respects_order_flag(capsys):
    _, out_grevlex, _ = run_cli(capsys, "parse", "--vars", "x,y", "x^2 + y^3")
    _, out_lex, _ = run_cli(capsys, "--order", "lex", "parse", "--vars", "x,y", "x^2 + y^3")
    _, out_grlex, _ = run_cli(capsys, "--order", "grlex", "parse", "--vars", "x,y",
                              "x y^2 + x^2 y")
    assert out_grevlex.strip() == "y^3 + x^2"
    assert out_lex.strip() == "x^2 + y^3"
    assert out_grlex.strip() == "x^2*y + x*y^2"


def test_output_flag_writes_file(tmp_path, capsys):
    path = write_task(tmp_path, CUSP_TASK)
    target = tmp_path / "report.json"
    code, out, _ = run_cli(capsys, "--format", "json", "--output", str(target),
                           "compute", path)
    assert code == 0
    assert out == ""
    payload = json.loads(target.read_text())
    assert "y^4 - 14/5*x^2*y" in payload["results"][2]["ideal"]


@pytest.mark.parametrize("where", ["missing-directory", "a-directory"])
def test_unwritable_output_exits_2(tmp_path, capsys, where):
    target = tmp_path / "no" / "such" / "r.txt" if where == "missing-directory" else tmp_path
    code, out, err = run_cli(capsys, "--output", str(target), "parse", "--vars", "x", "x")
    assert (code, out) == (2, "")
    assert err.startswith(f"error: cannot write report to {str(target)!r}: ")
    assert "Traceback" not in err


# -- module entry point -----------------------------------------------------------------

def test_python_dash_m_entry_point(tmp_path):
    result = subprocess.run(
        [sys.executable, "-m", "hodgeideals", "parse", "--vars", "x,y", "1/2 x y"],
        capture_output=True, text=True, timeout=60)
    assert result.returncode == 0
    assert result.stdout.strip() == "1/2*x*y"


def test_output_identical_across_processes_and_hash_seeds(tmp_path):
    import os
    path = write_task(tmp_path, CUSP_TASK)
    outputs = []
    for hash_seed in ("1", "42"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed)
        result = subprocess.run(
            [sys.executable, "-m", "hodgeideals", "--format", "json", "compute", path],
            capture_output=True, text=True, timeout=120, env=env)
        assert result.returncode == 0
        outputs.append(result.stdout)
    assert outputs[0] == outputs[1]


def test_stdin_task(tmp_path, capsys, monkeypatch):
    import io
    monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps(CUSP_TASK)))
    code = main(["compute", "-"])
    out = capsys.readouterr().out
    assert code == 0
    assert "y^4 - 14/5*x^2*y" in out
