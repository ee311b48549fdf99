"""Command-line behaviour: formats, determinism, exit codes."""

import json
import re
import subprocess
import sys

from hodgeideals.cli import main

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
