"""Command-line behaviour: formats, determinism, exit codes."""

import gc
import json
import re
import subprocess
import sys
import warnings

import pytest

from hodgeideals import GREVLEX, Ideal, compute_chain, parse_divisor
from hodgeideals.cli import _ideal_lines, main

CUSP_TASK = {
    "vars": ["x", "y"],
    "divisor": {"components": [{"f": "x^2+y^3", "alpha": "9/10"}]},
    "task": "compute",
    "k": 2,
    "method": "auto",
}


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
    task = dict(CUSP_TASK)
    task["options"] = {"i0": ["x", "y"], "certificate": {"level": 0}}
    path = write_task(tmp_path, task)
    code, out, _ = run_cli(capsys, "--format", "json", "compute", path,
                           "--alpha-samples", "81/100,9/10,1")
    assert code == 0
    payload = json.loads(out)
    alphas = [block["alpha"] for block in payload["samples"]]
    assert alphas == ["81/100", "9/10", "1"]
    coeffs = {"81/100": "131/50", "9/10": "14/5", "1": "3"}
    for block in payload["samples"]:
        gens = block["results"][2]["ideal"]
        coeff = coeffs[block["alpha"]]
        assert any(f"y^4 - {coeff}*x^2*y" in g for g in gens)


def test_option_alpha_samples_are_checked_like_the_flag(tmp_path, capsys):
    flag = run_cli(capsys, "compute", write_task(tmp_path, CUSP_TASK), "--alpha-samples", "0")
    task = dict(CUSP_TASK, options={"alpha_samples": ["0"]})
    option = run_cli(capsys, "compute", write_task(tmp_path, task, "option.json"))
    assert flag == option
    assert option[0] == 2
    assert "alpha samples must be positive" in option[2]


def test_empty_option_alpha_samples_exits_2(tmp_path, capsys):
    task = dict(CUSP_TASK, options={"alpha_samples": []})
    code, out, err = run_cli(capsys, "compute", write_task(tmp_path, task))
    assert (code, out) == (2, "")
    assert "alpha samples" in err


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


D5_TASK = {"vars": ["x", "y"],
           "divisor": {"components": [{"f": "x^2*y+y^4", "alpha": "1/2"}]},
           "task": "compute", "k": 1}


def test_task_file_certificate_is_user_asserted(tmp_path, capsys):
    asserted = dict(D5_TASK, options={"i0": ["1"], "certificate": {"level": 0}})
    code, out, _ = run_cli(capsys, "compute", write_task(tmp_path, asserted))
    assert code == 0
    assert "certificate user-asserted level 0" in out
    for source in ("node-example", "quasihomogeneous-formula", "universal-bound", "bogus"):
        borrowed = dict(D5_TASK, options={"i0": ["1"],
                                          "certificate": {"level": 0, "source": source}})
        code, out, err = run_cli(capsys, "compute", write_task(tmp_path, borrowed))
        assert (code, out) == (2, "")
        assert "user-asserted" in err and repr(source) in err


@pytest.mark.parametrize("key", ["I0", "certficate", "alpha"])
def test_unknown_option_key_exits_2_and_names_it(tmp_path, capsys, key):
    task = dict(D5_TASK, options={key: ["1"]})
    code, out, err = run_cli(capsys, "compute", write_task(tmp_path, task))
    assert (code, out) == (2, "")
    assert repr(key) in err


COMPUTE_KEYS = "expected task, vars, divisor, components, k, method, options"
CERTIFY_KEYS = "expected task, vars, divisor, components, k, resolution, multiplicity, membership"


@pytest.mark.parametrize("command,task", [
    ("compute", dict(CUSP_TASK, K=2, methd="snc")),
    ("certify", {"vars": ["x", "y"], "task": "certify", "k": 1, "memebrship": {},
                 "membership": {"n": 3, "m": 2, "alpha": "1/2"}}),
])
def test_unknown_task_key_exits_2_and_names_it(tmp_path, capsys, command, task):
    code, out, err = run_cli(capsys, command, write_task(tmp_path, task))
    assert (code, out) == (2, "")
    for key in set(task) - {"vars", "divisor", "task", "k", "method", "membership"}:
        assert repr(key) in err
    assert (COMPUTE_KEYS if command == "compute" else CERTIFY_KEYS) in err


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
    assert "both 'divisor' and 'components'" in err


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


def test_compute_lex_print_computes_each_basis_once(tmp_path, capsys, groebner_calls):
    k = 3
    task = {"vars": ["x", "y", "z"],
            "divisor": {"components": [{"f": "x", "alpha": "3/2"}, {"f": "y", "alpha": "1/2"},
                                       {"f": "z", "alpha": "1/3"}]},
            "task": "compute", "k": k}
    path = write_task(tmp_path, task)
    for fmt in ("text", "json"):
        groebner_calls.clear()
        code, _, _ = run_cli(capsys, "--order", "lex", "--format", fmt, "compute", path)
        assert code == 0
        assert len(groebner_calls) == k + 1


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


TASK = "<task file>"
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
    (["compute", TASK], dict(CUSP_TASK, options={"alpha_samples": "1/2"}),
     "'options.alpha_samples' must be a list"),
    (["compute", TASK], {"task": "compute", "k": 1}, "compute needs a divisor"),
    (["certify", TASK], {"task": "certify", "k": 1}, "certify wants exactly one of"),
    (["certify", TASK], {"task": "certify", "k": 1, "resolution": {"exceptional": []}},
     "resolution certificates need the divisor"),
    (["certify", TASK], {"task": "certify", "k": 1, "multiplicity": [3]},
     "'multiplicity' must be an object"),
    (["certify", TASK], {"task": "certify", "k": 1, "membership": "n=3"},
     "'membership' must be an object"),
    (["certify", TASK], membership_task(3, 2, "-1/2"),
     "bad membership data: alpha must be positive, got -1/2"),
    (["certify", TASK], membership_task(3, 2, "0"),
     "bad membership data: alpha must be positive, got 0"),
    (["certify", TASK], membership_task(0, 2, "1/2"),
     "bad membership data: dimension and multiplicity must be >= 1, got n=0, m=2"),
    (["certify", TASK], membership_task(3, 0, "1/2"),
     "bad membership data: dimension and multiplicity must be >= 1, got n=3, m=0"),
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
     "'a' entries must be non-negative"),
    (["certify", TASK], resolution_task({"exceptional": [{"a": [0], "b": 1}]}),
     "total pullback coefficient a must be >= 1"),
    (["certify", TASK], resolution_task({"exceptional": [{"a": [2], "b": -1}]}),
     "'b' must be a non-negative integer"),
    (["certify", TASK], resolution_task({"exceptional": [{"a": [2], "b": 1.0}]}),
     "'b' must be a non-negative integer"),
    (["certify", TASK], resolution_task({"exceptional": [], "strict_transform_smooth": "yes"}),
     "'strict_transform_smooth' must be a boolean"),
    (["certify", TASK], resolution_task({"exceptional": [{"a": [2, 1], "b": 1}]}),
     "exceptional record 0 lists 2 components, divisor has 1"),
])
def test_input_errors_exit_2_with_their_message(tmp_path, capsys, argv, doc, message):
    path = tmp_path / "task.json"
    if doc is not None:
        path.write_text(doc if isinstance(doc, str) else json.dumps(doc))
    code, out, err = run_cli(capsys, *(str(path) if arg == TASK else arg for arg in argv))
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and message in err


# -- verify -------------------------------------------------------------------------

def test_verify_all_passes(capsys):
    code, out, _ = run_cli(capsys, "--format", "json", "verify", "all")
    assert code == 0
    payload = json.loads(out)
    assert payload["ok"] is True
    assert all(v["status"] != "FAIL" for v in payload["verdicts"] if v["required"])


def test_verify_restriction_with_seed(capsys):
    code, out, _ = run_cli(capsys, "--seed", "7", "verify", "restriction")
    assert code == 0
    assert out.count("restriction-generic-equality") >= 3


def test_verify_unknown_suite_exits_2(capsys):
    code, _, err = run_cli(capsys, "verify", "unknown-suite")
    assert code == 2
    assert "unknown suite" in err


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


def test_verify_accepts_certificates_consistency_alias(capsys):
    code, out, _ = run_cli(capsys, "verify", "certificates-consistency")
    assert code == 0
    assert "certificate-cusp-threshold" in out


def test_output_flag_writes_file(tmp_path, capsys):
    path = write_task(tmp_path, CUSP_TASK)
    target = tmp_path / "report.json"
    code, out, _ = run_cli(capsys, "--format", "json", "--output", str(target),
                           "compute", path)
    assert code == 0
    assert out == ""
    payload = json.loads(target.read_text())
    assert "y^4 - 14/5*x^2*y" in payload["results"][2]["ideal"]


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
