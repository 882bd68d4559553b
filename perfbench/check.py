"""Output checks for the benchmark workloads.

``check`` parses one CLI output and returns the operations it failed.  An
operation is one input synset, or one partition row for
``partitions-drilldown``.  It verifies structure and the invariants of the
method (every synset exactly once, planted skips with their status,
partition counts, interior <=> maximal rank, |rank| <= partition count) and
then compares a seeded sample against the independent oracle in
``tests/oracle.py``.  Byte-identity across invocations is checked by the
caller, which compares each output with the first.
"""

from __future__ import annotations

import importlib.util
import json
import os
import re
from collections import Counter

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
EPS = 1e-9  # the CLI's default --eps
CENT_TOL = 5e-5 + 1e-9  # centrality is printed to 4 places
SIM_TOL = 5e-7 + 1e-9  # similarities are printed to 6 places
ORACLE_SYNSETS = 3  # sampled synsets per model (dictionary workloads)
ORACLE_ROWS = 24  # sampled rows (partitions-drilldown)
_MAX_NOTES = 20


def load_oracle():
    path = os.path.join(ROOT, "tests", "oracle.py")
    spec = importlib.util.spec_from_file_location("synsetgeom_bench_oracle", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class Report:
    """Operation ids, the subset that failed, and the first few reasons."""

    def __init__(self, ops):
        self.ops = list(ops)
        self.failed: set = set()
        self.notes: list[str] = []

    def fail(self, op, why):
        self.failed.add(op)
        if len(self.notes) < _MAX_NOTES:
            self.notes.append(f"{op}: {why}")

    def fail_all(self, why):
        self.failed = set(self.ops)
        self.notes.append(f"all operations: {why}")


def operations(inputs) -> list:
    if inputs.workload == "partitions-drilldown":
        n = len(inputs.synsets[-1].tokens)
        return list(range(1, (1 << (n - 2))))
    return [s.id for s in inputs.synsets]


def check(inputs, out: bytes, oracle, seed: int) -> Report:
    """Check one CLI output against the inputs that produced it."""
    report = Report(operations(inputs))
    try:
        text = out.decode("utf-8")
        parsed = _PARSERS[inputs.workload](text)
    except (UnicodeDecodeError, ValueError, KeyError, TypeError, IndexError) as exc:
        report.fail_all(f"unparseable output ({type(exc).__name__}: {exc})")
        return report
    try:
        _CHECKS[inputs.workload](inputs, parsed, report, oracle, np.random.default_rng(seed))
    except (KeyError, TypeError, ValueError, IndexError, AttributeError) as exc:
        report.fail_all(f"malformed output ({type(exc).__name__}: {exc})")
    return report


# ---------------------------------------------------------------------------
# shared helpers


def _pc(n: int) -> int:
    return (1 << (n - 2)) - 1


def _rows(inputs, model: int, synset):
    return [inputs.vectors[model][k].tolist() for k in synset.keys]


def _sample(rng, synsets, k):
    resolved = [s for s in synsets if s.status == "resolved"]
    picks = rng.choice(len(resolved), size=min(k, len(resolved)), replace=False)
    return [resolved[i] for i in sorted(picks)]


def _check_listing(report, expected, listed_ids):
    """Each listed id is known and listed once.  An unknown id fails every
    operation and returns False; the caller checks that expected ids appear."""
    counts = Counter(listed_ids)
    for sid, c in counts.items():
        if sid not in expected:
            report.fail_all(f"unknown synset id {sid!r} in output")
            return False
        if c > 1:
            report.fail(sid, f"listed {c} times")
    return True


def _check_order(report, op, words, oracle_rows):
    """The report order must follow the oracle's (rank desc, centrality desc,
    token asc), up to centralities the oracle cannot separate from rounding."""
    by_token = {t: (r, c) for t, r, c, _ in oracle_rows}
    for a, b in zip(words, words[1:]):
        (ra, ca), (rb, cb) = by_token[a], by_token[b]
        if ra < rb or (ra == rb and ca < cb - 1e-9):
            report.fail(op, f"order {a!r} before {b!r} disagrees with the oracle")
            return


# ---------------------------------------------------------------------------
# audit-text: the default table


_WEAK = re.compile(r"  (\S+)  n=(\d+)  words: (.*)")
_SKIP = re.compile(r"  (\S+): ([^:]+): (.*)")


def _parse_audit(text):
    lines = text.rstrip("\n").split("\n")
    summary = {k: int(v) for k, v in (kv.split("=") for kv in lines[-1].split())}
    weak, skipped, section = [], [], None
    for line in lines[:-1]:
        if line in ("weak synsets (empty interior):", "skipped:"):
            section = line[:4]
        elif line == "no weak synsets" and section is None:
            continue
        elif section == "weak" and _WEAK.fullmatch(line):
            m = _WEAK.fullmatch(line)
            weak.append((m[1], int(m[2]), m[3].split(", ")))
        elif section == "skip" and _SKIP.fullmatch(line):
            m = _SKIP.fullmatch(line)
            skipped.append((m[1], m[2]))
        else:
            raise ValueError(f"unexpected line {line!r}")
    return summary, weak, skipped


def _check_audit(inputs, parsed, report, oracle, rng):
    summary, weak, skipped = parsed
    expected = {s.id: s for s in inputs.synsets}
    if not _check_listing(report, expected, [w[0] for w in weak] + [s[0] for s in skipped]):
        return
    for sid, n, words in weak:
        s = expected[sid]
        if s.status != "resolved":
            report.fail(sid, f"listed weak but expected {s.status}")
        elif n != len(s.tokens) or sorted(words) != sorted(s.tokens):
            report.fail(sid, f"weak entry n={n} {words} != resolved {s.tokens}")
    skipped_status = dict(skipped)
    for s in inputs.synsets:
        got = skipped_status.get(s.id)
        if s.status != "resolved" and got != s.status:
            report.fail(s.id, f"expected skip {s.status!r}, got {got!r}")
        elif s.status == "resolved" and got is not None:
            report.fail(s.id, f"unexpectedly skipped as {got!r}")
    resolved = sum(s.status == "resolved" for s in inputs.synsets)
    want = {
        "total": len(expected),
        "analyzed": resolved,
        "skipped": len(expected) - resolved,
        "weak": len(weak),
    }
    if summary != want:
        report.fail_all(f"summary {summary} != {want}")
        return
    weak_ids = {w[0] for w in weak}
    for s in _sample(rng, inputs.synsets, ORACLE_SYNSETS):
        rows = oracle.analyze(s.tokens, _rows(inputs, 0, s), EPS)
        oracle_weak = not any(member for *_, member in rows)
        if oracle_weak != (s.id in weak_ids):
            report.fail(s.id, f"weak={s.id in weak_ids}, oracle says {oracle_weak}")


# ---------------------------------------------------------------------------
# compare-binary: compare --output json


def _check_compare(inputs, doc, report, oracle, rng):
    expected = {s.id: s for s in inputs.synsets}
    rows = doc["synsets"]
    if not _check_listing(report, expected, [r["id"] for r in rows]):
        return
    listed = {r["id"]: r for r in rows}
    compared = differing = 0
    for s in inputs.synsets:
        r = listed.get(s.id)
        if r is None:
            report.fail(s.id, "missing from output")
            continue
        sides = r["models"]
        if len(sides) != 2:
            report.fail(s.id, f"{len(sides)} model sides")
            continue
        for side in sides:
            if s.status != "resolved":
                if side["status"] != s.status:
                    report.fail(s.id, f"status {side['status']!r}, expected {s.status!r}")
                continue
            words, interior = side.get("words", []), side.get("interior", [])
            if side["status"] != "analyzed":
                report.fail(s.id, f"status {side['status']!r}, expected analyzed")
            elif side["n"] != len(s.tokens) or sorted(words) != sorted(s.tokens):
                report.fail(s.id, f"words {words} != resolved {s.tokens}")
            elif interior != sorted(interior) or not set(interior) <= set(words):
                report.fail(s.id, f"interior {interior} is not a sorted subset of the words")
            elif side["interior_size"] != len(interior):
                report.fail(s.id, "interior_size != len(interior)")
        both = s.status == "resolved"
        compared += both
        want = sides[0].get("interior_size") != sides[1].get("interior_size") if both else None
        differing += bool(want)
        if r["differs"] != want:
            report.fail(s.id, f"differs={r['differs']}, expected {want}")
    want = {
        "total": len(expected),
        "compared": compared,
        "skipped": len(expected) - compared,
        "differing": differing,
    }
    if doc["summary"] != want:
        report.fail_all(f"summary {doc['summary']} != {want}")
        return
    for s in _sample(rng, inputs.synsets, ORACLE_SYNSETS):
        for m, side in enumerate(listed[s.id]["models"]):
            rows = oracle.analyze(s.tokens, _rows(inputs, m, s), EPS)
            interior = sorted(t for t, *_, member in rows if member)
            if side.get("interior") != interior:
                report.fail(s.id, f"model {m + 1} interior {side.get('interior')}, oracle {interior}")
            _check_order(report, s.id, side.get("words", []), rows)


# ---------------------------------------------------------------------------
# analyze-large: analyze --output json


def _check_analyze(inputs, doc, report, oracle, rng):
    expected = {s.id: s for s in inputs.synsets}
    analyzed, skipped = doc["synsets"], doc["skipped"]
    if not _check_listing(report, expected, [d["id"] for d in analyzed + skipped]):
        return
    listed = {d["id"]: d for d in analyzed}
    for s in inputs.synsets:
        d = listed.get(s.id)
        if d is None:
            report.fail(s.id, "not analyzed")
            continue
        n, pc = len(s.tokens), _pc(len(s.tokens))
        keys = dict(zip(s.tokens, s.keys))
        words = d["words"]
        if d["n"] != n or d["source_size"] != len(s.words) or d["partition_count"] != pc:
            report.fail(s.id, f"n/source_size/partition_count {d['n']}/{d['source_size']}/{d['partition_count']}")
        elif sorted(w["token"] for w in words) != sorted(s.tokens):
            report.fail(s.id, "word list differs from the resolved tokens")
        elif any(keys[w["token"]] != w["model_key"] for w in words):
            report.fail(s.id, "a model_key differs from the expected match")
        elif any(abs(w["rank"]) > pc or (w["rank"] == pc) != w["in_interior"] for w in words):
            report.fail(s.id, "rank bound or interior <=> maximal rank violated")
        elif d["interior"] != sorted(w["token"] for w in words if w["in_interior"]):
            report.fail(s.id, "interior list disagrees with in_interior flags")
        elif any(a["rank"] < b["rank"] for a, b in zip(words, words[1:])):
            report.fail(s.id, "words not in rank order")
    summary = {"total": len(expected), "analyzed": len(expected), "skipped": 0}
    if doc["summary"] != summary:
        report.fail_all(f"summary {doc['summary']} != {summary}")
        return
    s = min(inputs.synsets, key=lambda s: len(s.tokens))  # oracle cost grows as 2^n
    focus = int(rng.integers(len(s.tokens)))
    rank2, cent, member, _ = oracle.word_attributes(_rows(inputs, 0, s), focus, EPS)
    w = next((w for w in listed[s.id]["words"] if w["token"] == s.tokens[focus]), None)
    if w is None:
        report.fail(s.id, f"focus word {s.tokens[focus]!r} missing from the output")
    elif w["rank"] * 2 != rank2 or w["in_interior"] != member or abs(w["centrality"] - cent) > CENT_TOL:
        report.fail(s.id, f"{w} disagrees with the oracle ({rank2 / 2}, {cent}, {member})")


# ---------------------------------------------------------------------------
# partitions-drilldown: partitions <id> <word> --output json


def _row_consistent(row) -> bool:
    """The row's deltas follow from its own printed similarities, up to
    their 6-place rounding (signs are only decidable outside that band)."""
    d1, d2 = row["sim1"] - row["sim"], row["sim2"] - row["sim"]
    if abs(row["delta_centrality"] - (d1 + d2)) > CENT_TOL + 4 * SIM_TOL:
        return False
    if abs(d1) <= 2 * SIM_TOL or abs(d2) <= 2 * SIM_TOL:
        return True
    return row["delta_rank"] == ((d1 > 0) - (d1 < 0) + (d2 > 0) - (d2 < 0)) / 2


def _check_partitions(inputs, doc, report, oracle, rng):
    s = inputs.synsets[-1]
    sid, focus_word = inputs.focus
    n, pc = len(s.tokens), _pc(len(s.tokens))
    if (doc["id"], doc["focus"], doc["n"], doc["partition_count"]) != (sid, focus_word, n, pc):
        report.fail_all(f"header {doc['id']}/{doc['focus']}/{doc['n']}/{doc['partition_count']}")
        return
    rows = doc["partitions"]
    if len(rows) != pc:
        report.fail_all(f"{len(rows)} rows, expected {pc}")
        return
    focus = s.tokens.index(focus_word)
    rest = [t for i, t in enumerate(s.tokens) if i != focus]
    bit = {t: 1 << j for j, t in enumerate(rest)}
    everyone = set(rest)
    halves = (-1, -0.5, 0, 0.5, 1)
    for i, row in enumerate(rows, start=1):
        s1, s2 = row["s1"], row["s2"]
        if row["index"] != i or set(s1) | set(s2) != everyone or len(s1) + len(s2) != len(rest):
            report.fail(i, "blocks are not a split of the remaining words")
        elif sum(bit[t] for t in s1) != 2 * i - 1:
            report.fail(i, "row is not the canonical split for its index")
        elif row["delta_rank"] not in halves:
            report.fail(i, f"delta_rank {row['delta_rank']}")
        elif not _row_consistent(row):
            report.fail(i, "delta_rank or delta_centrality disagrees with the row's similarities")
    totals = doc["totals"]
    rank = sum(row["delta_rank"] for row in rows)
    cent = sum(row["sim1"] + row["sim2"] - 2 * row["sim"] for row in rows)
    if (
        totals["rank"] != rank
        or abs(totals["rank"]) > pc
        or totals["in_interior"] != (totals["rank"] == pc)
        or abs(totals["centrality"] - cent) > CENT_TOL + 4 * SIM_TOL * pc
    ):
        report.fail_all(f"totals {totals} disagree with the rows (rank {rank}, centrality {cent})")
        return
    vectors = _rows(inputs, 0, s)
    for i in sorted(rng.choice(pc, size=min(ORACLE_ROWS, pc), replace=False) + 1):
        row = rows[i - 1]
        sim, sim1, sim2, r2, delta = oracle.partition_outcome(vectors, focus, 2 * i - 1, EPS)
        if (
            max(abs(row["sim"] - sim), abs(row["sim1"] - sim1), abs(row["sim2"] - sim2)) > SIM_TOL
            or row["delta_rank"] * 2 != r2
            or abs(row["delta_centrality"] - delta) > CENT_TOL
        ):
            report.fail(int(i), f"{row} disagrees with the oracle ({sim}, {sim1}, {sim2}, {r2 / 2}, {delta})")


_PARSERS = {
    "audit-text": _parse_audit,
    "compare-binary": json.loads,
    "analyze-large": json.loads,
    "partitions-drilldown": json.loads,
}
_CHECKS = {
    "audit-text": _check_audit,
    "compare-binary": _check_compare,
    "analyze-large": _check_analyze,
    "partitions-drilldown": _check_partitions,
}
