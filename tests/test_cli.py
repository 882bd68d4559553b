"""End-to-end CLI behavior: golden output, exit codes, renderings."""

import csv
import io
import json
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

from synsetgeom import cli, geometry, load_text_model
from synsetgeom.cli import main

import renderings
from synth import save_binary_model, write_model_file

DATA = pathlib.Path(__file__).parent / "data"
FIXTURE_MODEL = str(DATA / "fixture_model.txt")
FIXTURE_SYNSETS = str(DATA / "fixture_synsets.tsv")
GOLDEN = DATA / "golden_analyze.json"


def run(capsys, *args):
    code = main(list(args))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def analyze_json(capsys, *extra):
    code, out, err = run(
        capsys,
        "analyze",
        "--model", FIXTURE_MODEL,
        "--synsets", FIXTURE_SYNSETS,
        "--output", "json",
        *extra,
    )
    if code == 0:
        assert err == ""
    return code, out


class TestGolden:
    def test_analyze_json_is_byte_identical_to_golden(self, capsys):
        code, out = analyze_json(capsys)
        assert code == 0
        assert out == GOLDEN.read_text(encoding="utf-8")

    def test_analyze_json_is_stable_across_runs(self, capsys):
        _, first = analyze_json(capsys)
        _, second = analyze_json(capsys)
        assert first == second

    def test_out_flag_writes_the_same_bytes(self, capsys, tmp_path):
        target = tmp_path / "report.json"
        code, out, _ = run(
            capsys,
            "analyze",
            "--model", FIXTURE_MODEL,
            "--synsets", FIXTURE_SYNSETS,
            "--output", "json",
            "--out", str(target),
        )
        assert code == 0
        assert out == ""
        assert target.read_text(encoding="utf-8") == GOLDEN.read_text(encoding="utf-8")

    @pytest.mark.parametrize("output", ["table", "json"])
    def test_stdout_gets_the_out_bytes_whatever_the_locale(self, capsys, tmp_path, output):
        args = ["analyze", "--model", FIXTURE_MODEL, "--synsets", FIXTURE_SYNSETS,
                "--output", output]
        target = tmp_path / "report"
        assert run(capsys, *args, "--out", str(target))[0] == 0
        env = dict(os.environ, PYTHONIOENCODING="ascii", LC_ALL="C", PYTHONUTF8="0",
                   PYTHONPATH=str(pathlib.Path(cli.__file__).parents[1]))
        child = subprocess.run([sys.executable, "-m", "synsetgeom.cli", *args],
                               capture_output=True, env=env, timeout=60)
        assert child.returncode == 0, child.stderr.decode("utf-8", "replace")
        assert child.stderr == b""
        assert child.stdout == target.read_bytes()

    def test_csv_values_match_json(self, capsys):
        _, json_out = analyze_json(capsys)
        doc = json.loads(json_out)
        code, csv_out, _ = run(
            capsys,
            "analyze",
            "--model", FIXTURE_MODEL,
            "--synsets", FIXTURE_SYNSETS,
            "--output", "csv",
        )
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(csv_out)))
        expected = [
            (s["id"], w) for s in doc["synsets"] for w in s["words"]
        ]
        assert len(rows) == len(expected)
        for row, (sid, w) in zip(rows, expected):
            assert row["synset_id"] == sid
            assert row["token"] == w["token"]
            assert row["model_key"] == w["model_key"]
            assert float(row["rank"]) == float(w["rank"])
            assert float(row["centrality"]) == w["centrality"]
            assert (row["in_interior"] == "true") == w["in_interior"]

    def test_table_contains_the_same_values(self, capsys):
        _, json_out = analyze_json(capsys)
        doc = json.loads(json_out)
        code, table_out, _ = run(
            capsys,
            "analyze",
            "--model", FIXTURE_MODEL,
            "--synsets", FIXTURE_SYNSETS,
            "--output", "table",
        )
        assert code == 0
        for s in doc["synsets"]:
            for w in s["words"]:
                line = next(
                    l for l in table_out.splitlines()
                    if l.strip().startswith(w["token"] + " ")
                    or l.strip().startswith(w["token"] + " ")
                    or l.split()[:1] == [w["token"]]
                )
                assert str(w["rank"]) in line.split()
                assert f"{w['centrality']:.4f}" in line.split()


class TestExitCodes:
    def test_nothing_analyzed_is_exit_2(self, capsys, tmp_path):
        empty = tmp_path / "empty.tsv"
        empty.write_text("", encoding="utf-8")
        code, out, err = run(
            capsys,
            "analyze",
            "--model", FIXTURE_MODEL,
            "--synsets", str(empty),
            "--output", "json",
        )
        assert code == 2
        assert "no synsets analyzed" in err
        doc = json.loads(out)
        assert doc["summary"] == {"total": 0, "analyzed": 0, "skipped": 0}

    def test_missing_model_is_exit_1(self, capsys):
        code, _, err = run(
            capsys,
            "analyze",
            "--model", "/nonexistent/model.txt",
            "--synsets", FIXTURE_SYNSETS,
        )
        assert code == 1
        assert "error" in err

    def test_malformed_model_is_exit_1(self, capsys, tmp_path):
        bad = tmp_path / "bad.txt"
        bad.write_text("not a header\n", encoding="utf-8")
        code, _, err = run(
            capsys, "analyze", "--model", str(bad), "--synsets", FIXTURE_SYNSETS
        )
        assert code == 1
        assert "header" in err

    def test_invalid_utf8_synsets_is_exit_1(self, capsys, tmp_path):
        bad = tmp_path / "bad.tsv"
        bad.write_bytes(b"a\tb\t\xff\xfe|x|y\n")
        code, _, err = run(capsys, "analyze", "--model", FIXTURE_MODEL, "--synsets", str(bad))
        assert code == 1
        assert err.startswith("error: line 1: not valid UTF-8")

    def test_a_bad_synset_file_is_reported_before_a_missing_model(self, capsys, tmp_path):
        # the synsets are parsed first, since the model is loaded with their keys
        bad = tmp_path / "bad.tsv"
        bad.write_text("battle\tбой\n", encoding="utf-8")
        missing = str(tmp_path / "missing.txt")
        code, out, err = run(capsys, "analyze", "--model", missing, "--synsets", str(bad))
        assert (code, out) == (1, "")
        assert err == "error: line 1: expected 3 tab-separated fields (id, headword, words), got 2\n"

    def test_damage_only_in_rows_no_synset_can_use_is_not_an_error(self, capsys, tmp_path):
        lines = pathlib.Path(FIXTURE_MODEL).read_text(encoding="utf-8").splitlines(keepends=True)
        lines.append("unused_NOUN nan 0 zebra 0\n")
        lines[0] = f"{len(lines) - 1} 4\n"
        damaged = tmp_path / "damaged.txt"
        damaged.write_text("".join(lines), encoding="utf-8")
        code, out, _ = run(capsys, "analyze", "--model", str(damaged), "--synsets",
                           FIXTURE_SYNSETS, "--output", "json")
        assert code == 0
        assert out == GOLDEN.read_text(encoding="utf-8")
        synsets = tmp_path / "s.tsv"
        synsets.write_text("s\t\tбой|битва|unused\n", encoding="utf-8")
        code, _, err = run(capsys, "analyze", "--model", str(damaged), "--synsets", str(synsets))
        assert code == 1
        assert err.endswith(": line 14: unparseable component\n")

    def test_usage_error_is_exit_1(self, capsys):
        code, _, err = run(capsys, "analyze", "--synsets", FIXTURE_SYNSETS)
        assert code == 1
        assert "usage error" in err

    def test_bad_eps_is_exit_1(self, capsys):
        code, _, err = run(
            capsys,
            "analyze",
            "--model", FIXTURE_MODEL,
            "--synsets", FIXTURE_SYNSETS,
            "--eps", "0",
        )
        assert code == 1
        assert "--eps" in err

    def test_two_models_for_analyze_is_exit_1(self, capsys):
        code, _, err = run(
            capsys,
            "analyze",
            "--model", FIXTURE_MODEL,
            "--model", FIXTURE_MODEL,
            "--synsets", FIXTURE_SYNSETS,
        )
        assert code == 1
        assert "exactly 1" in err

    def test_out_of_memory_is_exit_1(self, capsys, monkeypatch):
        def exhausted(*args, **kwargs):
            raise MemoryError("Unable to allocate 8.00 TiB")

        monkeypatch.setattr(cli, "analyze_synset", exhausted)
        code, _, err = run(
            capsys, "analyze", "--model", FIXTURE_MODEL, "--synsets", FIXTURE_SYNSETS
        )
        assert code == 1
        assert err == "error: out of memory: Unable to allocate 8.00 TiB\n"

    def test_synset_over_the_memory_budget_is_refused(self, capsys, tmp_path):
        # a raised cap admits 40 words, whose tables would need terabytes
        words = [f"w{i}" for i in range(40)]
        model = tmp_path / "m.txt"
        write_model_file(model, words, np.random.default_rng(5).standard_normal((40, 2)))
        synsets = tmp_path / "s.tsv"
        synsets.write_text("big\t\t" + "|".join(words) + "\n", encoding="utf-8")
        common = ("--model", str(model), "--synsets", str(synsets),
                  "--max-synset-size", "64", "--output", "json")
        code, out, _ = run(capsys, "analyze", *common)
        assert code == 2
        (skip,) = json.loads(out)["skipped"]
        assert skip["status"] == "error" and "budget" in skip["reason"]
        code, _, err = run(capsys, "partitions", "big", "w0", *common)
        assert code == 1
        assert err.startswith("error: ") and "budget" in err


class TestPartitionsCommand:
    def run_partitions(self, capsys, synset_id, token, *extra):
        return run(
            capsys,
            "partitions",
            synset_id,
            token,
            "--model", FIXTURE_MODEL,
            "--synsets", FIXTURE_SYNSETS,
            "--output", "json",
            *extra,
        )

    def test_four_word_synset_has_three_rows(self, capsys):
        code, out, _ = self.run_partitions(capsys, "battle", "бой")
        assert code == 0
        doc = json.loads(out)
        assert len(doc["partitions"]) == 3
        assert doc["partition_count"] == 3
        for p in doc["partitions"]:
            assert set(p["s1"]) | set(p["s2"]) == {"баталия", "битва", "сражение"}
            assert not set(p["s1"]) & set(p["s2"])

    def test_three_word_synset_totals_equal_single_row(self, capsys, tmp_path):
        synsets = tmp_path / "s.tsv"
        synsets.write_text("three\t\thappy|glad|joyful\n", encoding="utf-8")
        code, out, _ = run(
            capsys,
            "partitions", "three", "happy",
            "--model", FIXTURE_MODEL,
            "--synsets", str(synsets),
            "--output", "json",
        )
        assert code == 0
        doc = json.loads(out)
        assert len(doc["partitions"]) == 1
        row = doc["partitions"][0]
        assert doc["totals"]["rank"] == row["delta_rank"]
        assert doc["totals"]["centrality"] == row["delta_centrality"]

    def test_totals_match_analyze_for_every_word(self, capsys):
        _, json_out = analyze_json(capsys)
        analyze_doc = json.loads(json_out)
        for s in analyze_doc["synsets"]:
            for w in s["words"]:
                code, out, _ = self.run_partitions(capsys, s["id"], w["token"])
                assert code == 0
                doc = json.loads(out)
                assert doc["totals"]["rank"] == w["rank"]
                assert doc["totals"]["centrality"] == w["centrality"]
                assert doc["totals"]["in_interior"] == w["in_interior"]

    def test_rows_and_totals_come_from_one_table(self, capsys, monkeypatch):
        built = []
        word_table = geometry._word_table
        monkeypatch.setattr(
            geometry, "_word_table", lambda *args: built.append(args) or word_table(*args)
        )
        code, _, _ = self.run_partitions(capsys, "battle", "бой")
        assert code == 0
        assert len(built) == 1

    def test_unknown_synset_id(self, capsys):
        code, _, err = self.run_partitions(capsys, "nope", "бой")
        assert code == 1
        assert "'nope' not found" in err

    def test_unknown_token(self, capsys):
        code, _, err = self.run_partitions(capsys, "battle", "nope")
        assert code == 1
        assert "not in synset" in err


@pytest.fixture
def contrast_models(tmp_path):
    """Two models over one vocabulary: under A the synset has a central word,
    under B it splits into two clusters (empty interior)."""
    renderings.write_inputs(tmp_path)
    return str(tmp_path / "a.txt"), str(tmp_path / "b.txt"), str(tmp_path / "quad.tsv")


class TestCompareCommand:
    def test_self_comparison_is_identical(self, capsys):
        code, out, _ = run(
            capsys,
            "compare",
            "--model", FIXTURE_MODEL,
            "--model", FIXTURE_MODEL,
            "--synsets", FIXTURE_SYNSETS,
            "--output", "json",
        )
        assert code == 0
        doc = json.loads(out)
        for row in doc["synsets"]:
            assert row["models"][0] == row["models"][1]
            assert row["differs"] in (False, None)
        assert doc["summary"]["differing"] == 0
        assert doc["summary"]["compared"] == 3

    def test_interior_size_difference_is_flagged(self, capsys, contrast_models):
        model_a, model_b, synsets = contrast_models
        code, out, _ = run(
            capsys,
            "compare",
            "--model", model_a,
            "--model", model_b,
            "--synsets", synsets,
            "--output", "json",
        )
        assert code == 0
        doc = json.loads(out)
        (row,) = doc["synsets"]
        assert row["models"][0]["interior"] == ["w"]
        assert row["models"][1]["interior"] == []
        assert row["differs"] is True
        assert doc["summary"] == {
            "total": 1, "compared": 1, "skipped": 0, "differing": 1,
        }

    def test_unresolvable_side_is_not_comparable(self, capsys, tmp_path, contrast_models):
        model_a, _, _ = contrast_models
        # model missing one word entirely
        words = ["w", "a", "b"]
        small = tmp_path / "small.txt"
        write_model_file(small, words, np.eye(3))
        synsets = tmp_path / "s2.tsv"
        synsets.write_text("quad\tw\tw|a|b|c\n", encoding="utf-8")
        code, out, _ = run(
            capsys,
            "compare",
            "--model", model_a,
            "--model", str(small),
            "--synsets", str(synsets),
            "--output", "json",
        )
        assert code == 0 or code == 2
        doc = json.loads(out)
        (row,) = doc["synsets"]
        assert row["models"][0]["status"] == "analyzed"
        assert row["models"][1]["status"] == "analyzed"  # 3 of 4 survive drop-word
        # now under skip-synset the OOV side drops out
        code, out, _ = run(
            capsys,
            "compare",
            "--model", model_a,
            "--model", str(small),
            "--synsets", str(synsets),
            "--output", "json",
            "--oov", "skip-synset",
        )
        assert code == 2
        doc = json.loads(out)
        (row,) = doc["synsets"]
        assert row["models"][1]["status"] == "skipped"
        assert row["differs"] is None
        assert doc["summary"]["compared"] == 0


class TestAuditCommand:
    def test_weak_and_strong_fixture(self, capsys, tmp_path):
        words = ["w", "a", "b", "c", "n1", "n2", "s1", "s2"]
        rest = np.array([[1, 0.5, 0], [1, 0, 0.5], [1, -0.5, 0]], float)
        rest /= np.linalg.norm(rest, axis=1, keepdims=True)
        rows = np.vstack([
            rest.sum(axis=0), rest,                      # central word synset
            [[1, 0, 0], [1, 0.01, 0], [0, 1, 0], [0, 1, 0.01]],  # two clusters
        ])
        model = tmp_path / "m.txt"
        write_model_file(model, words, rows)
        synsets = tmp_path / "s.tsv"
        synsets.write_text(
            "strong\tw\tw|a|b|c\nweak\tn1\tn1|n2|s1|s2\n", encoding="utf-8"
        )
        code, out, _ = run(
            capsys,
            "audit",
            "--model", str(model),
            "--synsets", str(synsets),
            "--output", "json",
        )
        assert code == 0
        doc = json.loads(out)
        assert [w["id"] for w in doc["weak"]] == ["weak"]
        assert doc["summary"] == {"total": 2, "analyzed": 2, "skipped": 0, "weak": 1}

    def test_empty_collection_is_all_zeros_and_exit_0(self, capsys, tmp_path):
        empty = tmp_path / "empty.tsv"
        empty.write_text("", encoding="utf-8")
        code, out, _ = run(
            capsys,
            "audit",
            "--model", FIXTURE_MODEL,
            "--synsets", str(empty),
            "--output", "json",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["weak"] == []
        assert doc["summary"] == {"total": 0, "analyzed": 0, "skipped": 0, "weak": 0}


class TestFlags:
    def test_binary_model_gives_equal_report(self, capsys, tmp_path):
        model = load_text_model(FIXTURE_MODEL)
        bpath = tmp_path / "fixture.bin"
        save_binary_model(model, bpath)
        code, out, _ = run(
            capsys,
            "analyze",
            "--model", str(bpath),
            "--synsets", FIXTURE_SYNSETS,
            "--output", "json",
        )
        assert code == 0
        assert out == GOLDEN.read_text(encoding="utf-8")

    def test_jsonl_format_is_inferred(self, capsys, tmp_path):
        synsets = tmp_path / "s.jsonl"
        synsets.write_text(
            json.dumps({"id": "mood", "words": ["happy", "glad", "joyful", "cheerful"]})
            + "\n",
            encoding="utf-8",
        )
        code, out, _ = run(
            capsys,
            "analyze",
            "--model", FIXTURE_MODEL,
            "--synsets", str(synsets),
            "--output", "json",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["synsets"][0]["id"] == "mood"
        # same values as the TSV fixture's mood synset
        golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
        golden_mood = next(s for s in golden["synsets"] if s["id"] == "mood")
        assert doc["synsets"][0]["words"] == golden_mood["words"]

    def test_huge_eps_flattens_all_ranks(self, capsys):
        code, out = analyze_json(capsys, "--eps", "10")
        assert code == 0
        doc = json.loads(out)
        for s in doc["synsets"]:
            assert s["interior"] == []
            for w in s["words"]:
                assert w["rank"] == 0

    def test_size_cap_skips_with_error_status(self, capsys):
        code, out = analyze_json(capsys, "--max-synset-size", "3")
        assert code == 2  # every fixture synset has n=4 post-filter
        doc = json.loads(out)
        assert doc["summary"]["analyzed"] == 0
        assert all(sk["status"] in ("error", "too-small-after-filter")
                   for sk in doc["skipped"])
        assert any("size cap" in sk["reason"] for sk in doc["skipped"])

    def test_skip_synset_mode(self, capsys):
        code, out = analyze_json(capsys, "--oov", "skip-synset")
        assert code == 0
        doc = json.loads(out)
        skipped_ids = {sk["id"]: sk["status"] for sk in doc["skipped"]}
        assert skipped_ids["waters"] == "skipped"  # has the OOV word "beck"
        assert {s["id"] for s in doc["synsets"]} == {"battle", "mood"}

    def test_fail_mode_is_fatal(self, capsys):
        code, out, err = run(
            capsys,
            "analyze",
            "--model", FIXTURE_MODEL,
            "--synsets", FIXTURE_SYNSETS,
            "--oov", "fail",
        )
        assert code == 1
        assert "beck" in err

    def test_empty_tag_suffixes(self, capsys):
        # without suffixes the Russian words cannot resolve
        code, out = analyze_json(capsys, "--tag-suffixes", "")
        assert code == 0
        doc = json.loads(out)
        assert {s["id"] for s in doc["synsets"]} == {"waters", "mood"}
        battle = next(sk for sk in doc["skipped"] if sk["id"] == "battle")
        assert battle["status"] == "too-small-after-filter"


@pytest.fixture(scope="module")
def rendering_inputs(tmp_path_factory):
    workdir = tmp_path_factory.mktemp("renderings")
    renderings.write_inputs(workdir)
    return workdir


@pytest.fixture(scope="module")
def golden_renderings():
    return json.loads(renderings.GOLDEN.read_text(encoding="utf-8"))


@pytest.mark.parametrize("case", sorted(renderings.CASES))
def test_rendering_is_byte_identical_to_golden(case, rendering_inputs, golden_renderings,
                                               monkeypatch):
    monkeypatch.chdir(rendering_inputs)
    monkeypatch.setenv("COLUMNS", "80")
    assert renderings.run_case(renderings.CASES[case]) == golden_renderings[case]


def test_golden_renderings_hold_exactly_the_cases(golden_renderings):
    assert sorted(golden_renderings) == sorted(renderings.CASES)


# perfbench/spans.py times each layer by wrapping these names in cli's namespace
TRACE_POINTS = ("load_text_model", "load_binary_model", "parse_synsets", "resolve",
                "analyze_synset", "partition_outcomes")


@pytest.mark.parametrize("name", TRACE_POINTS)
def test_cli_binds_the_benchmark_trace_points(name):
    assert callable(getattr(cli, name, None)), f"synsetgeom.cli no longer binds {name}"


def test_cli_calls_the_trace_points_through_its_namespace(capsys, monkeypatch, tmp_path):
    called = set()
    for name in TRACE_POINTS:
        fn = getattr(cli, name)
        monkeypatch.setattr(
            cli, name, lambda *a, _fn=fn, _name=name, **k: called.add(_name) or _fn(*a, **k)
        )
    binary = tmp_path / "fixture.bin"
    save_binary_model(load_text_model(FIXTURE_MODEL), binary)
    synsets = ("--synsets", FIXTURE_SYNSETS)
    assert run(capsys, "analyze", "--model", str(binary), *synsets)[0] == 0
    code, _, _ = run(capsys, "partitions", "battle", "бой", "--model", FIXTURE_MODEL, *synsets)
    assert code == 0
    assert called == set(TRACE_POINTS)
