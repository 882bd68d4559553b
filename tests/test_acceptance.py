"""Acceptance suite: one test per criterion, each printing a verdict line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the verdicts.
Criterion 8 needs real pretrained models and is skipped unless the
SYNSETGEOM_RNC_MODEL (and friends) environment variables point at local
files; see the README for the recipe.
"""

import json
import os
import pathlib
import time

import numpy as np
import pytest

from synsetgeom import (
    DEFAULT_MAX_SYNSET_SIZE,
    ModelFormatError,
    OovPolicy,
    RawSynset,
    analyze_synset,
    enumerate_partitions,
    load_binary_model,
    load_text_model,
    partition_outcomes,
    resolve,
)
from synsetgeom.cli import main

import oracle
from synth import (
    make_model,
    make_synset,
    random_synset,
    save_binary_model,
    save_text_model,
    synset_rows,
    unit_rows,
)

DATA = pathlib.Path(__file__).parent / "data"

EQUIVALENCE_SEED = 361_871
ORACLE_SEED = 52_003
ROUNDTRIP_SEED = 771


def verdict(num, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    suffix = f"  [{detail}]" if detail else ""
    print(f"criterion {num} ({name}): {status}{suffix}")
    assert ok, f"criterion {num} ({name}): {detail}"


def test_criterion_1_partition_count_identity():
    start = time.perf_counter()
    violations = []
    for m in range(2, 13):
        masks = list(enumerate_partitions(m))
        brute = [
            mask for mask in range(1, (1 << m) - 1) if mask & 1
        ]  # proper nonempty subsets containing element 0
        if len(masks) != 2 ** (m - 1) - 1 or sorted(masks) != brute:
            violations.append(m)
    elapsed = time.perf_counter() - start
    verdict(
        1,
        "partition-count identity",
        not violations and elapsed < 1.0,
        f"m=2..12, {elapsed:.3f}s" + (f", violations at m={violations}" if violations else ""),
    )


def _corpus(seed, count):
    rng = np.random.default_rng(seed)
    return [random_synset(rng, synset_id=f"syn{i}") for i in range(count)]


def test_criterion_2_interior_maximal_rank_equivalence():
    start = time.perf_counter()
    synsets = _corpus(EQUIVALENCE_SEED, 1000)
    violations = 0
    for syn in synsets:
        count = 2 ** (syn.n - 2) - 1
        for attrs in analyze_synset(syn).words:
            if attrs.in_interior != (attrs.rank_doubled == 2 * count):
                violations += 1
    elapsed = time.perf_counter() - start
    verdict(
        2,
        "interior/maximal-rank equivalence",
        violations == 0 and elapsed < 10.0,
        f"1000 synsets, {violations} violations, {elapsed:.2f}s",
    )


def test_criterion_3_oracle_equivalence():
    start = time.perf_counter()
    synsets = _corpus(ORACLE_SEED, 200)
    worst = 0.0
    r_mismatches = 0
    for syn in synsets:
        rows = synset_rows(syn)
        for focus in range(syn.n):
            table = partition_outcomes(syn, focus)
            for mask, *got in zip(*(column.tolist() for column in table)):
                sim, sim1, sim2, r_doubled, delta = oracle.partition_outcome(
                    rows, focus, mask
                )
                if got[3] != r_doubled:
                    r_mismatches += 1
                worst = max(
                    worst,
                    abs(got[0] - sim),
                    abs(got[1] - sim1),
                    abs(got[2] - sim2),
                    abs(got[4] - delta),
                )
    elapsed = time.perf_counter() - start
    verdict(
        3,
        "oracle equivalence",
        r_mismatches == 0 and worst <= 1e-9 and elapsed < 10.0,
        f"200 synsets, r mismatches={r_mismatches}, "
        f"max |delta|={worst:.2e}, {elapsed:.2f}s",
    )


def test_criterion_4_identical_vectors_are_neutral():
    ok = True
    details = []
    for n in range(3, DEFAULT_MAX_SYNSET_SIZE + 1):
        syn = make_synset([f"w{i}" for i in range(n)], [[0.6, 0.8, 0.0]] * n)
        report = analyze_synset(syn)
        if report.interior:
            ok = False
            details.append(f"n={n}: interior nonempty")
        for w in report.words:
            if w.rank_doubled != 0 or w.centrality != 0.0 or w.in_interior:
                ok = False
                details.append(f"n={n}: {w.token} not neutral")
    verdict(
        4,
        "identical-vector synsets neutral",
        ok,
        "; ".join(details) or f"n=3..{DEFAULT_MAX_SYNSET_SIZE} exact",
    )


def test_criterion_5_bounds():
    synsets = _corpus(EQUIVALENCE_SEED, 1000) + _corpus(ORACLE_SEED, 200)
    violations = 0
    for syn in synsets:
        count = 2 ** (syn.n - 2) - 1
        for attrs in analyze_synset(syn).words:
            if abs(attrs.rank_doubled) > 2 * count:
                violations += 1
            if abs(attrs.centrality) > 4 * count:
                violations += 1
        for focus in range(syn.n):
            table = partition_outcomes(syn, focus)
            violations += int(np.sum(np.abs(table.centrality_delta) > 4.0))
    verdict(
        5,
        "rank/centrality bounds",
        violations == 0,
        f"{len(synsets)} synsets, {violations} violations",
    )


def test_criterion_6_format_round_trip(tmp_path):
    rng = np.random.default_rng(ROUNDTRIP_SEED)
    words = [f"word{i:02d}" for i in range(50)]
    model = make_model(words, rng.standard_normal((50, 10)))
    tpath, bpath = tmp_path / "m.txt", tmp_path / "m.bin"
    save_text_model(model, tpath)
    save_binary_model(model, bpath)
    from_text = load_text_model(tpath)
    from_binary = load_binary_model(bpath)
    agreement = float(np.max(np.abs(
        from_text.vectors.astype(np.float64) - from_binary.vectors.astype(np.float64)
    )))
    ok = from_text.words == from_binary.words == tuple(words) and agreement <= 1e-6

    dup = tmp_path / "dup.txt"
    dup.write_text("2 2\nsame 1 0\nsame 0 1\n", encoding="utf-8")
    try:
        load_text_model(dup)
        ok = False
        dup_msg = "duplicate token accepted"
    except ModelFormatError:
        dup_msg = "duplicate rejected"

    cut = tmp_path / "cut.bin"
    blob = bpath.read_bytes()
    cut.write_bytes(blob[: len(blob) // 2])
    try:
        load_binary_model(cut)
        ok = False
        cut_msg = "truncation accepted"
    except ModelFormatError:
        cut_msg = "truncation rejected"

    verdict(
        6,
        "format round-trip",
        ok,
        f"max text/binary gap {agreement:.1e}; {dup_msg}; {cut_msg}",
    )


def test_criterion_7_golden_cli(capsys):
    model = str(DATA / "fixture_model.txt")
    synsets = str(DATA / "fixture_synsets.tsv")
    golden = (DATA / "golden_analyze.json").read_text(encoding="utf-8")

    code = main(["analyze", "--model", model, "--synsets", synsets, "--output", "json"])
    out = capsys.readouterr().out
    ok = code == 0 and out == golden
    detail = "analyze JSON byte-identical" if ok else "analyze JSON differs from golden"

    # partitions totals against analyze values, for every analyzed word
    doc = json.loads(golden)
    totals_ok = True
    for s in doc["synsets"]:
        for w in s["words"]:
            code = main(
                [
                    "partitions", s["id"], w["token"],
                    "--model", model, "--synsets", synsets, "--output", "json",
                ]
            )
            pdoc = json.loads(capsys.readouterr().out)
            if code != 0 or pdoc["totals"]["rank"] != w["rank"]:
                totals_ok = False
            if abs(pdoc["totals"]["centrality"] - w["centrality"]) > 1e-9:
                totals_ok = False
    # and at full precision in the library: aggregation equals the sum of
    # the per-partition dump
    full_ok = True
    fixture_model = load_text_model(model)
    for raw_words in (("happy", "glad", "joyful", "cheerful"),):
        syn = resolve(RawSynset("x", None, raw_words), fixture_model).resolved
        by_token = {w.token: w for w in analyze_synset(syn).words}
        for focus, token in enumerate(syn.tokens):
            attrs = by_token[token]
            table = partition_outcomes(syn, focus)
            if int(table.r_doubled.sum()) != attrs.rank_doubled:
                full_ok = False
            if abs(float(table.centrality_delta.sum()) - attrs.centrality) > 1e-9:
                full_ok = False

    verdict(
        7,
        "golden CLI output",
        ok and totals_ok and full_ok,
        f"{detail}; partition totals {'match' if totals_ok and full_ok else 'differ'}",
    )


RNC_MODEL = os.environ.get("SYNSETGEOM_RNC_MODEL")
NEWS_MODEL = os.environ.get("SYNSETGEOM_NEWS_MODEL")
COMPARE_SYNSETS = os.environ.get("SYNSETGEOM_COMPARE_SYNSETS")

# reference attributes for a known synset under the RusVectores Russian
# National Corpus model: token -> (rank, centrality)
RNC_EXPECTED = {
    "баталия": (-3, -0.12),
    "бой": (2, 0.34),
    "битва": (3, 0.45),
    "сражение": (3, 0.6),
}


def _load_any(path):
    name = path[:-3] if path.endswith(".gz") else path
    return load_binary_model(path) if name.endswith(".bin") else load_text_model(path)


@pytest.mark.skipif(
    not RNC_MODEL,
    reason="optional: set SYNSETGEOM_RNC_MODEL to a local RusVectores RNC model",
)
def test_criterion_8_real_rnc_model():
    model = _load_any(RNC_MODEL)
    raw = RawSynset("battle", None, tuple(RNC_EXPECTED))
    policy = OovPolicy(tag_suffixes=("_NOUN", "_S"), lowercase_fallback=True)
    outcome = resolve(raw, model, policy)
    assert outcome.status == "resolved", f"resolution failed: {outcome}"
    report = analyze_synset(outcome.resolved)
    by_token = {w.token: w for w in report.words}
    ok = True
    details = []
    for token, (rank, centrality) in RNC_EXPECTED.items():
        w = by_token[token]
        if w.rank_doubled != 2 * rank:
            ok = False
            details.append(f"{token}: rank {w.rank_doubled / 2} != {rank}")
        if abs(w.centrality - centrality) > 0.02:
            ok = False
            details.append(f"{token}: centrality {w.centrality:.4f} vs {centrality}")
    if report.interior != frozenset({"битва", "сражение"}):
        ok = False
        details.append(f"interior = {sorted(report.interior)}")
    verdict(8, "real RNC model", ok, "; ".join(details) or "reference values reproduced")


@pytest.mark.skipif(
    not (RNC_MODEL and NEWS_MODEL and COMPARE_SYNSETS),
    reason="optional: needs SYNSETGEOM_RNC_MODEL, SYNSETGEOM_NEWS_MODEL and "
    "SYNSETGEOM_COMPARE_SYNSETS (synset file with ids 'прекрасно' and 'каменный')",
)
def test_criterion_8_real_model_comparison(capsys):
    code = main(
        [
            "compare",
            "--model", RNC_MODEL,
            "--model", NEWS_MODEL,
            "--synsets", COMPARE_SYNSETS,
            "--output", "json",
            "--tag-suffixes", "_NOUN,_ADJ,_VERB,_ADV,_S,_A",
            "--lowercase-fallback",
        ]
    )
    doc = json.loads(capsys.readouterr().out)
    assert code == 0
    rows = {r["id"]: r for r in doc["synsets"]}
    expected = {"прекрасно": (0, 2), "каменный": (0, 1)}
    ok = True
    details = []
    for sid, (rnc_size, news_size) in expected.items():
        row = rows.get(sid)
        if row is None:
            ok = False
            details.append(f"{sid}: missing")
            continue
        sizes = tuple(side.get("interior_size") for side in row["models"])
        if sizes != (rnc_size, news_size):
            ok = False
            details.append(f"{sid}: |interior| {sizes} != {(rnc_size, news_size)}")
    verdict(8, "real model comparison", ok, "; ".join(details) or "empty-interior rows reproduced")
