"""Self-tests of the benchmark. Run from the repository root:

    PYTHONPATH=src python3 -m pytest perfbench -q
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

import corpora
import run

# sha256 of the inputs' structure; a change here changes a workload
PINNED = {
    "rules": "ff4bfb0673708e04c9e9301a3e43eb01ac88331ef5496e71a6c1ccf78353aa04",
    "tsg": "d1b03ce17bb70214ad4dc8dd6a1f5f20b6509d2c715598812d611727e41f31cb",
    "large": "e7227a6d319324e8c94bc1ab49acf8a6d15e9324735441630d20b3e9ff80c4f3",
    "frames": "eecd1825dc661f7d71d900af53be7f870491a0c58011c9096e23f8909dc706e1",
}


def digests():
    return {
        "rules": corpora.corpus_digest(corpora.rules_corpus()),
        "tsg": corpora.corpus_digest(corpora.tsg_corpus()),
        "large": corpora.corpus_digest(corpora.large_queries()),
        "frames": corpora.corpus_digest(corpora.frames_corpus()),
    }


def test_corpora_are_pinned():
    assert digests() == PINNED


def test_corpora_match_the_acceptance_suite():
    sys.path.insert(0, os.path.join(run.ROOT, "tests"))
    try:
        acceptance = pytest.importorskip("test_acceptance")
    finally:
        sys.path.pop(0)
    import random

    rules = [(rule, inst) for rule, ts in acceptance._rule_corpus(random.Random(31)) for inst in ts]
    assert corpora.corpus_digest(rules) == corpora.corpus_digest(corpora.rules_corpus(31))
    tsg = acceptance._tsg_corpus(random.Random(53))
    assert corpora.corpus_digest(tsg) == corpora.corpus_digest(corpora.tsg_corpus(53))


def test_golden_covers_every_op():
    import worker

    golden = run.load_golden()
    for name, (build, _, _) in worker.WORKLOADS.items():
        items = build(worker.DEFAULT_CORPUS_SEED[name], 0)
        assert sorted(golden[name]) == sorted(worker.op_ids(name, items)), name
    assert all(len(op["extra"]["table"]) == corpora.FORMULAS_PER_FRAME for op in golden["frames"].values())
    unknown = [op for op in golden["large"].values() if op["rows"][0][3] == "unknown"]
    assert len(unknown) == sum(1 for q in corpora.large_queries() if q[2])


def _worker(*args):
    proc = subprocess.run(
        [sys.executable, os.path.join(run.HERE, "worker.py"), *args],
        cwd=run.ROOT,
        env=run.child_env(),
        capture_output=True,
        text=True,
        timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.mark.parametrize(
    "workload, args",
    [
        ("rules", ["--corpus-seed", "7", "--limit", "5"]),
        ("tsg", ["--corpus-seed", "9", "--limit", "13"]),
        ("large", ["--limit", "4"]),
        ("frames", ["--corpus-seed", "5", "--limit", "22"]),
    ],
)
def test_smoke_run_passes_its_checks_off_the_default_seed(workload, args):
    rec = _worker("--workload", workload, "--order-seed", "3", *args)
    assert rec["ops"]
    assert [op["problems"] for op in rec["ops"] if op["problems"]] == []


def test_traced_smoke_run_counts_every_layer():
    rec = _worker("--workload", "tsg", "--corpus-seed", "9", "--limit", "3", "--trace", "counts")
    counts = rec["trace"]["counts"]
    for name in ("theory.solve_theories", "decide.satisfiable", "classify.derivable", "syntax.adequate_closure"):
        assert counts[f"{name}.calls"] > 0, name
    assert counts["theory.solve_theories.yielded"] > 0
    metrics = run.layer_metrics(rec["trace"])
    assert 0 < metrics["decide.satisfiable.cache_hit_ratio"] < 1


def _final_line(stdout):
    final = json.loads(stdout.strip().splitlines()[-1])
    assert sorted(final) == ["attempted", "correct", "failed", "metrics"]
    return final


@pytest.mark.parametrize("trace", [0, 1])
def test_output_names_every_contract_metric_with_its_unit(trace):
    proc = subprocess.run(
        [sys.executable, os.path.join(run.HERE, "run.py"), "--workload", "frames", "--seed", "2",
         "--seconds", "1", "--trace", str(trace)],
        cwd=run.ROOT, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode == 0, proc.stderr
    final = _final_line(proc.stdout)
    contract = run.load_contract()
    wanted = contract["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in wanted} == {k: v["unit"] for k, v in final["metrics"].items()}
    assert final["correct"] is True and final["failed"] == 0 and final["attempted"] >= 220
    printed = {tuple(line.split(" = ", 1)) for line in proc.stdout.splitlines() if " = " in line}
    for name, unit in (run.LAYER_METRICS if trace else run.E2E_METRICS).items():
        assert any(k == f"frames {name}" and v.endswith(f" {unit}") for k, v in printed), name


def test_contract_shape():
    contract = run.load_contract()
    assert contract["command"] == ["python3", "perfbench/run.py"]
    assert [w["name"] for w in contract["workloads"]] == list(run.WORKLOADS)
    setup = [m for m in contract["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["bound"] == max(m["bound"] for m in contract["end_to_end"])


def test_runner_refuses_a_tree_without_sources(tmp_path):
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(run.HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "rules", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_tail_leaves_ten_ops_above():
    for n in (20, 50, 210, 220):
        assert n - 1 - run.tail_index(n) == 10


def _op(verdict, sha=None, **extra):
    return {"rows": [["lhs0", "ilm", "p", verdict, sha]], "extra": extra}


def test_golden_comparison_rules():
    cmp = run.compare_golden
    assert cmp(_op("refuted", "a"), _op("derivable"))["problems"]
    assert cmp(_op("derivable"), _op("unknown"))["problems"]
    assert cmp(_op("unknown"), _op("derivable")) == {"problems": [], "drift": 0, "newly_decided": 1}
    assert cmp(_op("refuted", "a"), _op("refuted", "b")) == {"problems": [], "drift": 1, "newly_decided": 0}
    assert cmp(_op("derivable", agree=None), _op("derivable", agree=True))["newly_decided"] == 1
    assert cmp(_op("derivable", agree=True), _op("derivable", agree=None))["problems"]
    assert cmp(_op("derivable", table=["01"]), _op("derivable", table=["00"]))["problems"]


def test_op_times_scale_by_the_kernel_samples_near_each_op():
    ref = run.REFERENCE_KERNEL_S
    rec = {
        # the host ran at half speed for the first 10 s, then at full speed
        "speed_at": [0.1 * k for k in range(200)],
        "speed": [2 * ref] * 100 + [ref] * 100,
        "ops": [
            {"id": "slow", "start": 2.0, "ms": 500.0, "cut": False},
            {"id": "fast", "start": 15.0, "ms": 250.0, "cut": False},
            {"id": "killed", "start": 3.0, "ms": 10000.0, "cut": True},
        ],
    }
    assert run.scaled_ms(rec) == {"slow": 250.0, "fast": 250.0, "killed": 10000.0}
    assert run.speed_factor(rec) == ref / (1.5 * ref)
