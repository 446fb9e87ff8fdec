import json
import subprocess
import sys

import pytest

from ilkit.cli import main
from ilkit.syntax import render


def run_cli(*argv):
    import contextlib
    import io

    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(list(argv))
    return code, out.getvalue()


def run_proc(*argv):
    proc = subprocess.run(
        [sys.executable, "-m", "ilkit.cli", *argv], capture_output=True, text=True
    )
    return proc.returncode, proc.stdout


def test_prove_positive():
    code, out = run_cli("prove", "--logic", "ilm", "p |> q -> (p & []r) |> (q & []r)")
    assert code == 0
    assert out.strip() == "derivable"


def test_prove_negative_writes_cert(tmp_path):
    cert = tmp_path / "out.json"
    code, _ = run_cli("prove", "--logic", "gl", "p -> []p", "--cert", str(cert))
    assert code == 1
    data = json.loads(cert.read_text())
    assert data["logic"] == "gl"
    assert set(data) >= {"model", "world", "holds", "query"}
    # certificate re-validates in a separate process
    code2, out2 = run_proc("modelcheck", str(cert), "--json")
    assert code2 == 0
    payload = json.loads(out2)
    assert payload["frame_valid"] is True
    assert payload["forces"] is True


def test_sat_exit_codes():
    assert run_cli("sat", "--logic", "gl", "p & ~p")[0] == 1
    assert run_cli("sat", "--logic", "gl", "p")[0] == 0


def test_unknown_exit_code():
    code, _ = run_cli(
        "sat",
        "--logic",
        "gl",
        "<>p & <>~p & <>(p & <>~p)",
        "--max-steps",
        "1",
        "--max-backtracks",
        "1",
    )
    assert code == 2


def test_every_unknown_json_verdict_carries_its_budget():
    # prove, countermodel and sat cut by the same step budget all report it
    budget = ("--json", "--logic", "il", "--max-steps", "60")
    f = "[](((r |> (r |> p)) |> ([]q -> r & p) -> ~<>p) | <>(r |> (r |> p)))"
    runs = {
        "prove": run_cli("prove", *budget, f),
        "countermodel": run_cli("countermodel", *budget, f),
        "sat": run_cli("sat", *budget, f"~{f}"),
    }
    expected = {
        "backtracks": 60,
        "limit": "max_steps",
        "max_backtracks": 8000,
        "max_steps": 60,
        "max_worlds": 16,
        "steps": 60,
    }
    for command, (code, out) in runs.items():
        assert code == 2, command
        assert json.loads(out)["budget"] == expected, command
    assert json.loads(runs["countermodel"][1]) == json.loads(runs["prove"][1])
    assert run_cli("countermodel", "--logic", "il", "--max-steps", "60", f) == (2, "unknown (budget)\n")
    assert run_cli("countermodel", "--json", "--logic", "il", "p -> p")[0] == 1


def test_huge_step_budget_is_accepted():
    # the search keeps its own stack, so no budget sizes an interpreter limit
    code, out = run_proc("prove", "--max-steps", "999999999", "p")
    assert code == 1
    assert out.strip() == "refuted"


def test_usage_errors():
    assert run_cli("prove", "p ->")[0] == 3
    assert run_cli("prove", "--logic", "gl", "p |> q")[0] == 3
    assert main(["nonsense-command"]) == 3


@pytest.mark.parametrize("flag", ["--max-worlds", "--max-steps", "--max-backtracks"])
@pytest.mark.parametrize("value", ["0", "-1"])
def test_non_positive_budget_is_a_usage_error(flag, value, capsys):
    code, out = run_cli("prove", "[]p -> p", flag, value)
    assert code == 3
    assert out == ""
    assert "must be a positive integer" in capsys.readouterr().err
    assert run_cli("rules", "i", "p", flag, value)[0] == 3


def test_too_deep_formula_exits_as_parse_error():
    # a fresh process keeps the default recursion limit, which the parser
    # would otherwise overflow and exit 1, the code of a negative answer
    proc = subprocess.run(
        [sys.executable, "-m", "ilkit.cli", "prove", "~" * 3000 + "p"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 3
    assert proc.stdout == ""
    assert "nested too deeply" in proc.stderr


def test_classify_tsg_cli():
    code, out = run_cli("classify", "tsg", "[][]p -> []p", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["answer"] == "yes"
    assert data["witness"] == "[]p"


def test_classify_negative_and_cert(tmp_path):
    cert = tmp_path / "sigma.json"
    code, out = run_cli("classify", "sigma1", "p & []p", "--json", "--cert", str(cert))
    assert code == 1
    code2, _ = run_proc("modelcheck", str(cert))
    assert code2 == 0


@pytest.mark.parametrize("kind, code", [("tsg", 1), ("selfprover", 1), ("delta1", 3), ("almostloeb", 3), ("dagger", 3)])
def test_classify_cert_is_written_or_refused(tmp_path, capsys, kind, code):
    # tsg writes its reduction query's countermodel as sigma1 does, and
    # selfprover its refutation as prove does; the other kinds answer from
    # several refutations, so --cert with them is a usage error
    cert = tmp_path / "cert.json"
    assert run_cli("classify", kind, "p", "--cert", str(cert))[0] == code
    if code == 3:
        assert not cert.exists()
        assert f"{kind} writes no --cert certificate" in capsys.readouterr().err
        return
    import ilkit.classify as cls
    from ilkit.syntax import parse

    data = json.loads(cert.read_text())
    want = render(cls.is_tsg(parse("p")).reduction_query) if kind == "tsg" else "p -> []p"
    assert (data["logic"], data["query"], data["holds"]) == ("ilm", want, f"~({want})")
    assert run_cli("modelcheck", str(cert))[0] == 0


@pytest.mark.parametrize(
    "kind, formula, want",
    [
        ("delta1", "top", 0),
        ("delta1", "p", 1),
        ("selfprover", "[]p", 0),
        ("selfprover", "p", 1),
        ("almostloeb", "[]p", 0),
        ("almostloeb", "p", 1),
        # every formula meets the dagger biconditional, so both exit 0
        ("dagger", "[]p", 0),
        ("dagger", "p", 0),
    ],
)
def test_classify_kinds_answer_as_the_library(kind, formula, want):
    import ilkit.classify as cls
    from ilkit.cli import _verdict_payload
    from ilkit.syntax import parse

    f = parse(formula)
    if kind == "selfprover":
        expected = _verdict_payload("ilm", f, cls.is_self_prover(f))
    else:
        run = {"delta1": cls.classify_delta1, "almostloeb": cls.almost_loeb, "dagger": cls.dagger_check}
        expected = run[kind](f).to_dict()
    code, out = run_cli("classify", kind, formula, "--json")
    assert (code, json.loads(out)) == (want, expected)


def test_rules_cli():
    code, out = run_cli("rules", "iii", "<>q", "q", "--json")
    assert code == 0
    assert json.loads(out)["agree"] is True


@pytest.mark.parametrize("argv", [("i", "p", "q"), ("ii", "p"), ("v", "p", "q"), ("v", "q"), ("viii", "p")])
def test_rules_of_the_wrong_size_are_usage_errors(argv, capsys):
    assert run_cli("rules", *argv) == (3, "")
    # check_rule names a rule given the wrong size; argparse rejects a name not in RULES
    expected = f"invalid choice: {argv[0]!r}" if argv[0] == "viii" else f"rule {argv[0]} takes"
    assert expected in capsys.readouterr().err


def test_rules_help_lists_every_rule():
    code, out = run_cli("rules", "--help")
    assert code == 0
    assert "one of i, ii, iii, iv, v, vi, vii" in out


_COLD_IMPORT = """
import sys
import ilkit.cli
print(sorted(m for m in ("dataclasses", "ilkit.classify") if m in sys.modules))
assert ilkit.cli.main(["prove", "--json", "p -> p"]) == 0
print("ilkit.classify" in sys.modules)
import ilkit
names = (
    "almost_loeb", "canonical_modal_dnf", "check_rule", "check_tsg_decomposition",
    "classify_delta1", "classify_sigma1", "dagger_check", "is_self_prover", "is_tsg",
    "sigma1_countermodel",
)
for name in names:
    assert getattr(ilkit, name) is getattr(sys.modules["ilkit.classify"], name), name
print(len(names))
"""


def test_cold_import_loads_only_what_prove_runs():
    # a fresh interpreter, since this one has long imported everything
    proc = subprocess.run([sys.executable, "-c", _COLD_IMPORT], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[0] == "[]"  # neither dataclasses nor classify after `import ilkit.cli`
    assert lines[-2] == "False"  # prove ran without classify
    assert lines[-1] == "10"  # and each classify name still resolves through ilkit


def test_close_cli(tmp_path):
    frame = tmp_path / "frame.json"
    frame.write_text(
        json.dumps({"worlds": ["a", "b", "c"], "R": [["a", "b"], ["b", "c"]], "S": [], "val": {}})
    )
    code, out = run_cli("close", str(frame), "--logic", "ilm")
    assert code == 0
    data = json.loads(out)
    assert ["a", "c"] in data["R"]
    assert ["a", "b", "c"] in data["S"]


@pytest.mark.parametrize("command", ["modelcheck", "close", "checkproof"])
@pytest.mark.parametrize("flag", ["--max-worlds", "--max-steps", "--max-backtracks"])
def test_budget_flags_belong_to_the_search_commands(tmp_path, capsys, command, flag):
    # modelcheck, close and checkproof run no search, so they take no budget
    path = tmp_path / "in.json"
    path.write_text(json.dumps({"worlds": ["a"]}))
    assert run_cli(command, str(path), flag, "5") == (3, "")
    assert f"unrecognized arguments: {flag} 5" in capsys.readouterr().err


@pytest.mark.parametrize(
    "model, argv",
    [
        ({"worlds": "ab"}, ["p", "--world", "a"]),
        ({"worlds": ["a", "b"], "R": ["ab"], "S": [["a", "b", "b"]], "val": {"b": ["p"]}}, ["<>p", "--world", "a"]),
        ({"worlds": ["a", "b"], "R": [["a", "b"]], "S": ["abb"], "val": {"b": ["p"]}}, ["<>p", "--world", "a"]),
        ({"worlds": ["a"], "val": {"a": "pq"}}, ["p", "--world", "a"]),
        ({"R": []}, ["p", "--world", "a"]),
        ([{"worlds": ["a"]}], ["p", "--world", "a"]),
        ({"model": 5}, ["p", "--world", "a"]),
        ({"worlds": ["a"]}, ["p", "--world", "z"]),
        ({"worlds": ["a"], "holds": 5, "world": "a"}, []),
        ({"worlds": ["a"], "holds": "p", "world": ["a"]}, []),
        # no ILM frame, so a world outside it must not read as forcing nothing
        ({"worlds": ["a", "b"], "R": [["a", "b"]]}, ["p", "--world", "zz"]),
    ],
)
def test_model_files_whose_lists_are_strings_are_rejected(tmp_path, capsys, model, argv):
    # a string is no list of worlds, edges, triples or atoms; a file that is
    # no model, or a world outside the model, is an input error too
    path = tmp_path / "model.json"
    path.write_text(json.dumps(model))
    assert run_cli("modelcheck", str(path), *argv) == (3, "")
    err = capsys.readouterr().err
    assert err.startswith("error: model ")
    assert "Error" not in err


@pytest.mark.parametrize("argv", [("prove", "--logic", "gl", "p -> []p"), ("classify", "sigma1", "p & []p")])
def test_unwritable_cert_prints_no_answer(tmp_path, capsys, argv):
    # the certificate is written before the answer is printed, so a path
    # that cannot be written leaves no answer on stdout
    cert = tmp_path / "missing" / "cert.json"
    assert run_cli(*argv, "--cert", str(cert)) == (3, "")
    assert "No such file or directory" in capsys.readouterr().err


def test_close_cli_rejects_a_cyclic_r(tmp_path, capsys):
    frame = tmp_path / "frame.json"
    frame.write_text(json.dumps({"worlds": ["a", "b"], "R": [["a", "b"], ["b", "a"]]}))
    code, out = run_cli("close", str(frame))
    assert code == 3
    assert out == ""
    assert "R has a cycle: a -> b -> a" in capsys.readouterr().err


def test_close_cli_rejects_an_edge_outside_worlds(tmp_path, capsys):
    frame = tmp_path / "frame.json"
    frame.write_text(json.dumps({"worlds": ["a"], "R": [["a", "b"]]}))
    code, out = run_cli("close", str(frame))
    assert code == 3
    assert out == ""
    assert "R edge ('a', 'b') names a world outside worlds" in capsys.readouterr().err


def test_close_cli_reads_a_certificate(tmp_path):
    cert = tmp_path / "out.json"
    assert run_cli("prove", "--logic", "gl", "p -> []p", "--cert", str(cert))[0] == 1
    bare = tmp_path / "model.json"
    bare.write_text(json.dumps(json.loads(cert.read_text())["model"]))
    code, out = run_cli("close", str(cert), "--logic", "gl")
    assert code == 0
    # the certificate's model closes as the bare model does
    assert out == run_cli("close", str(bare), "--logic", "gl")[1]
    assert json.loads(out)["worlds"]


@pytest.mark.parametrize(
    "command, argv, exc",
    [
        ("cmd_prove", ["prove", "p"], RuntimeError("boom")),
        ("cmd_sat", ["sat", "p"], RecursionError("maximum recursion depth exceeded")),
    ],
)
def test_unexpected_failure_is_no_answer(monkeypatch, capsys, command, argv, exc):
    # exit 1 would read as a negative answer; any failure exits 3
    import ilkit.cli

    def fail(args):
        raise exc

    monkeypatch.setattr(ilkit.cli, command, fail)
    code, out = run_cli(*argv)
    assert code == 3
    assert out == ""
    assert capsys.readouterr().err == f"error: {type(exc).__name__}: {exc}\n"


def test_checkproof_cli(tmp_path):
    proof = tmp_path / "proof.txt"
    proof.write_text(
        "1. p -> p ; Taut\n"
        "2. [](p -> p) ; Nec 1\n"
    )
    code, out = run_cli("checkproof", str(proof), "--logic", "gl")
    assert code == 0
    bad = tmp_path / "bad.txt"
    bad.write_text("1. p ; Taut\n")
    assert run_cli("checkproof", str(bad), "--logic", "gl")[0] == 1


@pytest.mark.parametrize("text", ["", "# a comment\n\n   \n"])
def test_checkproof_without_lines_is_an_error(tmp_path, capsys, text):
    # a file with no proof line proves no formula: no answer, exit 3
    proof = tmp_path / "empty.txt"
    proof.write_text(text)
    assert run_cli("checkproof", str(proof), "--logic", "gl") == (3, "")
    assert capsys.readouterr().err == "error: proof has no lines\n"


def test_export_dot_cli(tmp_path):
    model = tmp_path / "m.json"
    model.write_text(
        json.dumps(
            {
                "worlds": ["a", "b"],
                "R": [["a", "b"]],
                "S": [["a", "b", "b"]],
                "val": {"b": ["p"]},
            }
        )
    )
    code, out = run_cli("export-dot", str(model))
    assert code == 0
    assert out.startswith("digraph")
    assert '"a" -> "b";' in out
    assert "style=dashed" in out


def test_byte_determinism_subprocess():
    a = run_proc("countermodel", "--logic", "ilm", "p |> q", "--json")
    b = run_proc("countermodel", "--logic", "ilm", "p |> q", "--json")
    assert a == b
    c = run_proc("classify", "sigma1", "<>p", "--json")
    d = run_proc("classify", "sigma1", "<>p", "--json")
    assert c == d


def test_failed_certificate_exits_3(monkeypatch, capsys):
    # a model that fails certification is an internal error, not an answer
    import ilkit.decide as decide

    monkeypatch.setattr(decide, "forces", lambda *args: False)
    monkeypatch.setattr(decide, "_sat_cache", {})
    assert run_cli("prove", "--logic", "ilm", "p")[0] == 3
    err = capsys.readouterr().err
    assert "CertificationError" in err and "does not force it" in err
    # and a model whose frame fails validation
    from ilkit.semantics import ValidationReport, Violation

    broken = ValidationReport((Violation("r_transitive", ("w0", "w1", "w2")),))
    monkeypatch.setattr(decide, "validate", lambda frame, logic: broken)
    monkeypatch.setattr(decide, "_sat_cache", {})
    assert run_cli("prove", "--logic", "ilm", "p")[0] == 3
    err = capsys.readouterr().err
    assert "CertificationError" in err and "is no ilm frame" in err
