"""Synthetic model and synset builders shared across test modules."""

import numpy as np

from synsetgeom import EmbeddingModel, ResolvedSynset, partition_outcomes


def unit_rows(rng, n, dim):
    """n vectors drawn uniformly from the unit sphere (float32 rows)."""
    rows = rng.standard_normal((n, dim))
    rows /= np.linalg.norm(rows, axis=1, keepdims=True)
    return rows.astype(np.float32)


def random_synset(rng, n=None, dim=None, synset_id="syn", n_range=(3, 8), dim_range=(2, 10)):
    if n is None:
        n = int(rng.integers(n_range[0], n_range[1] + 1))
    if dim is None:
        dim = int(rng.integers(dim_range[0], dim_range[1] + 1))
    tokens = [f"w{i}" for i in range(n)]
    return ResolvedSynset.from_arrays(synset_id, tokens, unit_rows(rng, n, dim))


def make_synset(tokens, rows, synset_id="syn"):
    return ResolvedSynset.from_arrays(synset_id, tokens, np.asarray(rows, dtype=np.float64))


def make_model(words, rows):
    return EmbeddingModel.from_raw(words, np.asarray(rows, dtype=np.float64))


def synset_rows(synset):
    """The synset's vectors as plain Python lists (for the oracle)."""
    return synset.vectors.tolist()


def partition_row(synset, focus, mask):
    """(sim, sim1, sim2, r_doubled, centrality_delta) of one split of the
    engine's table for ``focus``."""
    table = partition_outcomes(synset, focus)
    (i,) = np.nonzero(table.masks == mask)[0]
    return tuple(column[i].item() for column in table[1:])


def block_sim(block1, block2):
    """The engine's similarity of two blocks of rows: ``sim`` of the split
    block1 | block2 around a focus word on an extra axis, orthogonal to
    every row, so that no block can cancel with it."""
    rows = np.asarray(list(block1) + list(block2), dtype=np.float64)
    rows = np.hstack([rows, np.zeros((len(rows), 1))])
    rows = np.vstack([rows, np.eye(rows.shape[1])[-1]])
    syn = make_synset([f"w{i}" for i in range(len(rows))], rows)
    return partition_row(syn, len(rows) - 1, (1 << len(block1)) - 1)[0]


def write_model_file(path, words, rows):
    """Write raw rows in word2vec text format, without normalizing them."""
    rows = np.asarray(rows, float)
    lines = [f"{len(words)} {rows.shape[1]}"]
    for w, row in zip(words, rows):
        lines.append(w + " " + " ".join(repr(float(x)) for x in row))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def save_text_model(model, path):
    """Write a model in word2vec text format (components round-trip exactly)."""
    with open(str(path), "w", encoding="utf-8", newline="\n") as fout:
        fout.write(f"{model.vocab_size} {model.dimension}\n")
        for word, row in zip(model.words, model.vectors):
            cols = " ".join(repr(float(x)) for x in row)
            fout.write(f"{word} {cols}\n")


def save_binary_model(model, path):
    """Write a model in word2vec binary format, one newline after each entry."""
    with open(str(path), "wb") as fout:
        fout.write(f"{model.vocab_size} {model.dimension}\n".encode("ascii"))
        for word, row in zip(model.words, model.vectors):
            fout.write(word.encode("utf-8") + b" ")
            fout.write(row.astype("<f4").tobytes())
            fout.write(b"\n")
