"""A transcript of fixed CLI invocations: stdout, exit code and --cert bytes.

Each invocation runs in text and in --json. The expected output lives in
cli_transcript.json beside this file; after an intended output change,
rewrite it with

    PYTHONPATH=src python tests/test_cli_transcript.py --write
"""

import contextlib
import io
import json
import os
import sys

import pytest

from ilkit.cli import main

TRANSCRIPT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "cli_transcript.json")

# the files the invocations read, written into a fresh directory
INPUTS = {
    "model.json": json.dumps(
        {
            "worlds": ["a", "b", "c"],
            "R": [["a", "b"], ["a", "c"]],
            "S": [["a", "b", "b"], ["a", "b", "c"], ["a", "c", "c"]],
            "val": {"c": ["p"]},
        }
    ),
    "cert_in.json": json.dumps(
        {
            "logic": "gl",
            "query": "p -> []p",
            "holds": "~(p -> []p)",
            "world": "w0",
            "model": {"worlds": ["w0", "w1"], "R": [["w0", "w1"]], "S": [["w0", "w1", "w1"]], "val": {"w0": ["p"]}},
        }
    ),
    # R is not transitive, so no IL frame
    "invalid.json": json.dumps({"worlds": ["a", "b", "c"], "R": [["a", "b"], ["b", "c"]], "S": [], "val": {}}),
    "proof.txt": "1. p -> p ; Taut\n2. [](p -> p) ; Nec 1\n",
    "bad_proof.txt": "1. p ; Taut\n",
}

CUT = ("--max-steps", "60")
HARD = "[](((r |> (r |> p)) |> ([]q -> r & p) -> ~<>p) | <>(r |> (r |> p)))"
# one step decides none of the classify kinds' queries on these
STEP = ("--max-steps", "1")
TWO = "<>p & <>~p"

# every command, every classify kind, derived, refuted and budget-cut answers, --cert
CASES = [
    ("prove", "--logic", "ilm", "p |> q -> (p & []r) |> (q & []r)"),
    ("prove", "--logic", "gl", "p -> []p", "--cert", "cert.json"),
    ("prove", "--logic", "il", *CUT, HARD),
    ("sat", "--logic", "gl", "p & <>~p", "--cert", "cert.json"),
    ("sat", "--logic", "gl", "p & ~p", "--cert", "cert.json"),
    ("sat", "--logic", "il", *CUT, f"~{HARD}"),
    ("countermodel", "--logic", "ilm", "p |> q", "--cert", "cert.json"),
    ("countermodel", "--logic", "il", "p -> p", "--cert", "cert.json"),
    ("countermodel", "--logic", "il", *CUT, HARD),
    ("modelcheck", "model.json", "<>p", "--world", "a"),
    ("modelcheck", "model.json", "[]p", "--world", "a", "--logic", "gl"),
    ("modelcheck", "cert_in.json", "--logic", "gl"),
    ("modelcheck", "invalid.json", "<>p", "--world", "a"),
    ("close", "invalid.json", "--logic", "ilm"),
    ("checkproof", "proof.txt", "--logic", "gl"),
    ("checkproof", "bad_proof.txt", "--logic", "gl"),
    ("classify", "sigma1", "p & []p", "--cert", "cert.json"),
    ("classify", "sigma1", "[]p | []q", "--cert", "cert.json"),
    ("classify", "sigma1", "<>p"),
    ("classify", "sigma1", *STEP, TWO),
    ("classify", "delta1", "top"),
    ("classify", "delta1", "p"),
    ("classify", "delta1", *STEP, TWO),
    ("classify", "delta1", "p", "--cert", "cert.json"),
    ("classify", "tsg", "[][]p -> []p"),
    ("classify", "tsg", "p", "--cert", "cert.json"),
    ("classify", "tsg", *STEP, "p |> q"),
    ("classify", "selfprover", "[]p", "--cert", "cert.json"),
    ("classify", "selfprover", "p", "--cert", "cert.json"),
    ("classify", "selfprover", *STEP, TWO),
    ("classify", "almostloeb", "[]p"),
    ("classify", "almostloeb", "p"),
    ("classify", "almostloeb", *STEP, TWO),
    ("classify", "dagger", "[]p"),
    ("classify", "dagger", *STEP, TWO),
    ("rules", "iii", "<>q", "q"),
    ("rules", "i", "p"),
    ("rules", "v", "p", "q", "r"),
    ("rules", "i", *CUT, HARD),
    ("export-dot", "model.json"),
]

INVOCATIONS = [list(case) + extra for case in CASES for extra in ([], ["--json"])]


def run(argv, directory) -> dict:
    """One invocation in directory: its exit code, stdout and certificate."""
    for name, text in INPUTS.items():
        with open(os.path.join(directory, name), "w") as fh:
            fh.write(text)
    cert = os.path.join(directory, "cert.json")
    if os.path.exists(cert):
        os.remove(cert)
    out = io.StringIO()
    cwd = os.getcwd()
    os.chdir(directory)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = main(list(argv))
    finally:
        os.chdir(cwd)
    cert_text = None
    if os.path.exists(cert):
        with open(cert) as fh:
            cert_text = fh.read()
    return {"argv": list(argv), "exit": code, "stdout": out.getvalue(), "cert": cert_text}


def _recorded() -> dict:
    with open(TRANSCRIPT) as fh:
        return {tuple(entry["argv"]): entry for entry in json.load(fh)}


def test_transcript_lists_every_invocation():
    assert list(_recorded()) == [tuple(argv) for argv in INVOCATIONS]


def _id(argv) -> str:
    n = INVOCATIONS.index(argv)
    return f"{n:02d}-{argv[0]}" + ("-json" if argv[-1] == "--json" else "")


@pytest.mark.parametrize("argv", INVOCATIONS, ids=_id)
def test_cli_transcript(argv, tmp_path):
    assert run(argv, str(tmp_path)) == _recorded()[tuple(argv)]


if __name__ == "__main__":
    import tempfile

    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: PYTHONPATH=src python tests/test_cli_transcript.py --write")
    with tempfile.TemporaryDirectory() as directory:
        entries = [run(argv, directory) for argv in INVOCATIONS]
    with open(TRANSCRIPT, "w") as fh:
        json.dump(entries, fh, indent=1)
        fh.write("\n")
    print(f"wrote {len(entries)} invocations to {TRANSCRIPT}")
