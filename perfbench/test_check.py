"""The output checker accepts real CLI output and flags corrupted output.

    python3 -m pytest perfbench/test_check.py

Runs the real CLI on shrunken versions of the four workloads, so it takes
a few seconds. pytest's configured testpaths do not include it, so a plain
`pytest` run skips it.
"""

import json
import os
import subprocess
import sys

import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import check  # noqa: E402
import gen  # noqa: E402
import run  # noqa: E402

SEED = 7
SMALL = {
    "audit-text": dict(gen.WORKLOADS["audit-text"], rows=3000, synsets=40, oov_planted=4, too_small=3),
    "compare-binary": dict(
        gen.WORKLOADS["compare-binary"], rows=3000, topics=40, synsets=40, oov_planted=4, too_small=3
    ),
    "analyze-large": dict(gen.WORKLOADS["analyze-large"], sizes=(5, 6, 7)),
    "partitions-drilldown": dict(gen.WORKLOADS["partitions-drilldown"], sizes=(5, 6, 7)),
}


@pytest.fixture(scope="module")
def oracle():
    return check.load_oracle()


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    """workload -> (inputs, CLI stdout) on the shrunken shapes."""
    env = dict(os.environ, PYTHONPATH=os.path.join(check.ROOT, "src"))
    result = {}
    for workload, spec in SMALL.items():
        inputs = gen.generate(workload, SEED, str(tmp_path_factory.mktemp(workload)), spec=spec)
        proc = subprocess.run(
            [sys.executable, "-m", "synsetgeom.cli", *inputs.argv],
            env=env, capture_output=True, check=True, timeout=120,
        )
        result[workload] = (inputs, proc.stdout)
    return result


def _check(inputs, out, oracle):
    if isinstance(out, (dict, list)):
        out = json.dumps(out, ensure_ascii=False).encode("utf-8")
    return check.check(inputs, out, oracle, SEED)


@pytest.mark.parametrize("workload", sorted(SMALL))
def test_real_output_passes(outputs, oracle, workload):
    inputs, out = outputs[workload]
    report = _check(inputs, out, oracle)
    assert report.failed == set(), report.notes


@pytest.mark.parametrize("workload", sorted(SMALL))
def test_truncated_output_fails_every_operation(outputs, oracle, workload):
    inputs, out = outputs[workload]
    report = _check(inputs, out[: len(out) // 2], oracle)
    assert report.failed == set(check.operations(inputs))


def test_audit_wrong_skip_status_is_flagged(outputs, oracle):
    inputs, out = outputs["audit-text"]
    victim = next(s for s in inputs.synsets if s.status != "resolved")
    bad = out.decode().replace(f"  {victim.id}: {victim.status}:", f"  {victim.id}: skipped:")
    assert _check(inputs, bad.encode(), oracle).failed == {victim.id}


def test_compare_wrong_differs_flag_is_flagged(outputs, oracle):
    inputs, out = outputs["compare-binary"]
    doc = json.loads(out)
    row = next(r for r in doc["synsets"] if r["differs"] is not None)
    row["differs"] = not row["differs"]
    assert _check(inputs, doc, oracle).failed == {row["id"]}


def test_compare_interiors_disagreeing_with_oracle_are_flagged(outputs, oracle):
    inputs, out = outputs["compare-binary"]
    doc = json.loads(out)
    for row in doc["synsets"]:
        for side in row["models"]:
            if side["status"] == "analyzed":
                side["interior"] = sorted(set(side["words"]) - set(side["interior"]))
                side["interior_size"] = len(side["interior"])
    assert _check(inputs, doc, oracle).failed


def test_analyze_rank_interior_mismatch_is_flagged(outputs, oracle):
    inputs, out = outputs["analyze-large"]
    doc = json.loads(out)
    synset = doc["synsets"][1]
    word = next(w for w in synset["words"] if not w["in_interior"])
    word["rank"] = synset["partition_count"]
    assert _check(inputs, doc, oracle).failed == {synset["id"]}


def test_analyze_centrality_disagreeing_with_oracle_is_flagged(outputs, oracle):
    inputs, out = outputs["analyze-large"]
    doc = json.loads(out)
    smallest = min(doc["synsets"], key=lambda s: s["n"])
    for w in smallest["words"]:
        w["centrality"] = round(w["centrality"] + 1e-3, 4)
    assert _check(inputs, doc, oracle).failed == {smallest["id"]}


def test_analyze_missing_words_are_flagged(outputs, oracle):
    inputs, out = outputs["analyze-large"]
    doc = json.loads(out)
    smallest = min(doc["synsets"], key=lambda s: s["n"])
    smallest["words"] = []
    assert _check(inputs, doc, oracle).failed == {smallest["id"]}


def test_partitions_swapped_blocks_are_flagged(outputs, oracle):
    inputs, out = outputs["partitions-drilldown"]
    doc = json.loads(out)
    row = doc["partitions"][2]
    row["s1"], row["s2"] = row["s2"], row["s1"]
    assert _check(inputs, doc, oracle).failed == {3}


def test_partitions_similarities_disagreeing_with_oracle_are_flagged(outputs, oracle):
    inputs, out = outputs["partitions-drilldown"]
    doc = json.loads(out)
    for row in doc["partitions"]:
        row["sim"] = round(row["sim"] + 1e-5, 6)
        row["sim1"] = round(row["sim1"] + 1e-5, 6)
        row["sim2"] = round(row["sim2"] + 1e-5, 6)
    assert _check(inputs, doc, oracle).failed


def test_output_differing_between_invocations_fails_that_invocation(outputs, oracle):
    inputs, out = outputs["analyze-large"]
    ops = len(check.operations(inputs))
    same = run.Child(1.0, 1.0, 1.0, 0, out, b"")
    other = run.Child(1.0, 1.0, 1.0, 0, out.replace(b'"n": 5', b'"n":  5'), b"")
    crashed = run.Child(1.0, 1.0, 1.0, 1, b"", b"boom")
    assert run.judge(inputs, [same, same], oracle, SEED)[:2] == (2 * ops, 0)
    assert run.judge(inputs, [same, other, crashed], oracle, SEED)[:2] == (3 * ops, 2 * ops)


def test_partitions_row_inconsistent_with_its_similarities_is_flagged(outputs, oracle):
    inputs, out = outputs["partitions-drilldown"]
    doc = json.loads(out)
    doc["partitions"][4]["delta_centrality"] = round(doc["partitions"][4]["delta_centrality"] + 1e-3, 4)
    assert _check(inputs, doc, oracle).failed == {5}
