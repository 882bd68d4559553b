"""Seeded input generation for the benchmark workloads.

Every input is a pure function of (workload, seed).  Models are written by
this module's own writers, never by the package's ``save_*`` functions, so a
change to the package cannot change what the benchmark feeds it.

Alongside the files, ``generate`` returns what the checker needs: every
synset's expected status, resolved tokens and model keys, the vectors the
program will see for the keys a synset uses (for the oracle), and the input
properties recorded with each result.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

DIM = 300
CYRILLIC = "абвгдежзиклмнопрстуфхцчшщыэюя"
LATIN = "abcdefghijklmnopqrstuvwxyz"
NOUN = "_NOUN"  # one of the CLI's default --tag-suffixes
_FILL = 0xFF  # never a byte of the ASCII number fields, dropped before writing
LARGE_TOPIC = 16

# Per-workload shapes.  The first `topics * per_topic` model rows carry
# topic structure (a shared centre plus per-topic noise) and are the only
# rows the dictionary draws from; the rest of the vocabulary is filler the
# loader must still read.  The `sizes` workloads take one synset per size,
# each from its own topic of LARGE_TOPIC rows.
WORKLOADS = {
    "audit-text": dict(
        rows=60_000, binary=False, topics=60, per_topic=9, synsets=400,
        n_range=(3, 8), oov_planted=12, too_small=6,
    ),
    "compare-binary": dict(
        rows=20_000, binary=True, topics=400, per_topic=10, synsets=2000,
        n_range=(3, 8), oov_planted=100, too_small=40,
    ),
    "analyze-large": dict(rows=300, binary=False, sizes=(12, 13, 14, 15, 16)),
    "partitions-drilldown": dict(rows=300, binary=False, sizes=(12, 13, 14, 15, 16)),
}


@dataclass
class Synset:
    id: str
    words: list[str]  # as written in the dictionary
    status: str  # "resolved" or "too-small-after-filter"
    tokens: list[str]  # resolved surface words, dictionary order
    keys: list[str]  # model key each resolved token matches
    dropped: list[str]  # planted out-of-vocabulary words


@dataclass
class Inputs:
    workload: str
    argv: list[str]  # CLI arguments after `python -m synsetgeom.cli`
    synsets: list[Synset]
    # per model: {model key: float64 unit row exactly as the loader yields it}
    vectors: list[dict[str, np.ndarray]]
    props: dict  # input properties recorded with each result
    focus: tuple[str, str] | None  # (synset id, word) for partitions


def _tokens(rng, count, alphabet, taken):
    """`count` distinct random words of 4..10 letters not in `taken`."""
    letters = np.array(list(alphabet))
    out = []
    while len(out) < count:
        lens = rng.integers(4, 11, size=count)
        idx = rng.integers(0, len(letters), size=(count, 10))
        for row, n in zip(idx, lens):
            w = "".join(letters[row[:n]])
            if w not in taken:
                taken.add(w)
                out.append(w)
                if len(out) == count:
                    break
    return out


def _vocabulary(rng, rows):
    """Half Cyrillic `<lemma>_NOUN` keys, half bare Latin keys, interleaved
    at random.  Returns (keys, surface words as a dictionary writes them)."""
    taken: set[str] = set()
    cyr = _tokens(rng, rows // 2, CYRILLIC, taken)
    lat = _tokens(rng, rows - rows // 2, LATIN, taken)
    surface = np.array(cyr + lat, dtype=object)
    keys = np.array([w + NOUN for w in cyr] + lat, dtype=object)
    order = rng.permutation(rows)
    return list(keys[order]), list(surface[order])


def _raw_rows(rng, rows, topics, per_topic):
    """Float rows: the first topics*per_topic are clustered (centre plus a
    per-topic noise level, so some synsets have an interior and some are
    weak), the rest are isotropic."""
    out = rng.standard_normal((rows, DIM))
    t = topics * per_topic
    centres = rng.standard_normal((topics, 1, DIM))
    spread = rng.uniform(0.5, 1.6, size=(topics, 1, 1))
    noise = rng.standard_normal((topics, per_topic, DIM))
    out[:t] = (centres + spread * noise).reshape(t, DIM)
    return out


def _micro(raw):
    """Rows scaled into (-1, 1) and rounded to 6 decimals, as integers."""
    scaled = raw / np.abs(raw).max(axis=1, keepdims=True) * 0.95
    return np.rint(scaled * 1e6).astype(np.int32)


def _unit(raw64):
    """What the loaders make of a row: float64 L2 normalisation, stored as
    float32, widened back to float64 by the analysis."""
    norms = np.linalg.norm(raw64, axis=1, keepdims=True)
    return (raw64 / norms).astype(np.float32).astype(np.float64)


def write_text_model(path, keys, micro):
    """word2vec text format with 6-decimal components.

    Lines end right after the last component, with no trailing space: the
    original word2vec C tool writes one, and the loader at the time this
    benchmark was written rejected such lines ("found 301 components").
    """
    rows, dim = micro.shape
    with open(path, "wb") as f:
        f.write(f"{rows} {dim}\n".encode("ascii"))
        for lo in range(0, rows, 5000):
            block = micro[lo : lo + 5000]
            mag = np.abs(block)
            fields = np.empty(block.shape + (10,), dtype=np.uint8)
            fields[..., 0] = np.where(block < 0, ord("-"), _FILL)
            fields[..., 1] = ord("0")
            fields[..., 2] = ord(".")
            for k in range(6):
                fields[..., 3 + k] = mag // 10 ** (5 - k) % 10 + ord("0")
            fields[..., 9] = ord(" ")
            fields[:, -1, 9] = ord("\n")
            flat = fields.reshape(len(block), dim * 10)
            keep = flat != _FILL
            ends = np.cumsum(keep.sum(axis=1))
            data = flat[keep].tobytes()
            start = 0
            for key, end in zip(keys[lo : lo + 5000], ends):
                f.write(key.encode("utf-8") + b" " + data[start:end])
                start = int(end)


def write_binary_model(path, keys, rows32):
    """word2vec binary format: header, then `token 0x20 float32*dim 0x0A`."""
    with open(path, "wb") as f:
        f.write(f"{len(keys)} {rows32.shape[1]}\n".encode("ascii"))
        for key, row in zip(keys, rows32.astype("<f4")):
            f.write(key.encode("utf-8") + b" " + row.tobytes() + b"\n")


def write_synsets(path, synsets):
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        for s in synsets:
            f.write(f"{s.id}\t{s.words[0]}\t{'|'.join(s.words)}\n")


def _dictionary(rng, spec, surface, keys):
    """Synsets drawn from the topic rows, with planted out-of-vocabulary
    words and planted too-small synsets at seeded positions."""
    per = spec["per_topic"]
    lo, hi = spec["n_range"]
    count = spec["synsets"]
    planted = rng.permutation(count)
    with_oov = set(planted[: spec["oov_planted"]].tolist())
    too_small = set(planted[spec["oov_planted"] : spec["oov_planted"] + spec["too_small"]].tolist())
    taken = set(surface) | set(keys)
    out = []
    for i in range(count):
        topic = int(rng.integers(spec["topics"]))
        n = 2 if i in too_small else int(rng.integers(lo, hi + 1))
        rows = (topic * per + rng.choice(per, size=n, replace=False)).tolist()
        tokens = [surface[r] for r in rows]
        dropped = []
        if i in with_oov or i in too_small:
            # Latin keys are bare, so a Latin word outside `taken` misses
            # under every lookup rule, suffixed or not
            dropped = _tokens(rng, int(rng.integers(1, 3)), LATIN, taken)
        words = tokens + dropped
        rng.shuffle(words)
        order = {w: j for j, w in enumerate(words)}
        pairs = sorted(zip(tokens, rows), key=lambda p: order[p[0]])
        out.append(
            Synset(
                id=f"s{i:05d}",
                words=words,
                status="too-small-after-filter" if n < 3 else "resolved",
                tokens=[t for t, _ in pairs] if n >= 3 else [],
                keys=[keys[r] for _, r in pairs] if n >= 3 else [],
                dropped=[w for w in words if w in dropped],
            )
        )
    return out


def _large_synsets(spec, surface, keys):
    """One synset per size, each from its own topic's rows."""
    out = []
    for topic, n in enumerate(spec["sizes"]):
        rows = list(range(topic * LARGE_TOPIC, topic * LARGE_TOPIC + n))
        words = [surface[r] for r in rows]
        out.append(Synset(f"L{n}", words, "resolved", words, [keys[r] for r in rows], []))
    return out


def _props(spec, files, synsets, keys):
    hist: dict[str, int] = {}
    for s in synsets:
        if s.status == "resolved":
            hist[str(len(s.tokens))] = hist.get(str(len(s.tokens)), 0) + 1
    needed = {k for s in synsets for k in s.keys}
    return {
        "rows": spec["rows"],
        "dim": DIM,
        "models": len(files),
        "file_mb": sum(os.path.getsize(p) for p in files) / 1e6,
        "synsets": len(synsets),
        "n_hist": dict(sorted(hist.items(), key=lambda kv: int(kv[0]))),
        "needed_keys_frac": len(needed) / len(keys),
        "oov_words": sum(len(s.dropped) for s in synsets),
        "suffix_matches": sum(t != k for s in synsets for t, k in zip(s.tokens, s.keys)),
        "too_small": sum(s.status != "resolved" for s in synsets),
    }


def generate(workload: str, seed: int, workdir: str, spec: dict | None = None) -> Inputs:
    """Write the workload's model(s) and synset file under `workdir`.

    `spec` overrides the workload's shape (the checker's tests shrink it)."""
    spec = spec or WORKLOADS[workload]
    rng = np.random.default_rng([seed, list(WORKLOADS).index(workload)])
    keys, surface = _vocabulary(rng, spec["rows"])
    if "sizes" in spec:
        topics, per = len(spec["sizes"]), LARGE_TOPIC
        synsets = _large_synsets(spec, surface, keys)
    else:
        topics, per = spec["topics"], spec["per_topic"]
        synsets = _dictionary(rng, spec, surface, keys)
    index = {k: r for r, k in enumerate(keys)}
    needed = {k: index[k] for s in synsets for k in s.keys}
    n_models = 2 if workload == "compare-binary" else 1
    files, vectors = [], []
    for m in range(n_models):
        raw = _raw_rows(rng, spec["rows"], topics, per)
        rows_of = np.array(list(needed.values()), dtype=np.int64)
        if spec["binary"]:
            rows32 = raw.astype(np.float32)
            path = os.path.join(workdir, f"model{m}.bin")
            write_binary_model(path, keys, rows32)
            seen = _unit(rows32[rows_of].astype(np.float64))
        else:
            micro = _micro(raw)
            path = os.path.join(workdir, f"model{m}.txt")
            write_text_model(path, keys, micro)
            seen = _unit(micro[rows_of] / 1e6)
        files.append(path)
        vectors.append(dict(zip(needed, seen)))
    syn_path = os.path.join(workdir, "synsets.tsv")
    write_synsets(syn_path, synsets)
    focus = None
    models = [a for p in files for a in ("--model", p)]
    common = models + ["--synsets", syn_path]
    if workload == "audit-text":
        argv = ["audit"] + common
    elif workload == "compare-binary":
        argv = ["compare"] + common + ["--output", "json"]
    elif workload == "analyze-large":
        argv = ["analyze"] + common + ["--output", "json"]
    else:
        big = synsets[-1]
        focus = (big.id, big.tokens[int(rng.integers(len(big.tokens)))])
        argv = ["partitions", *focus] + common + ["--output", "json"]
    props = _props(spec, files, synsets, keys)
    return Inputs(workload, argv, synsets, vectors, props, focus)
