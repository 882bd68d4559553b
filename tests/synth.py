"""Synthetic model and synset builders shared across test modules."""

import numpy as np

from synsetgeom import (
    DegenerateGeometryError,
    EmbeddingModel,
    ResolvedSynset,
    enumerate_partitions,
    partition_outcomes,
)
from synsetgeom import geometry
from synsetgeom.embeddings import DEGENERATE_NORM


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
    return make_synset(tokens, unit_rows(rng, n, dim), synset_id)


def make_synset(tokens, rows, synset_id="syn"):
    """A synset of raw rows normalized and stored as float32, as a model
    does; each token is its own key."""
    tokens = tuple(tokens)
    return ResolvedSynset(synset_id, tokens, tokens, make_model(tokens, rows).vectors, len(tokens))


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


def vector_table(synset, focus, eps):
    """The whole partition table of one focus word from its block vectors,
    summed through a subset-sum table rather than the engine's subset norms
    or its per-split rescore: the reference the engine is compared with.
    S2 is the remaining words' sum less S1, which can be off by a few 1e-10
    where S2 nearly cancels.  Costs O(2**n * dim) time and memory, with no
    budget."""
    vecs = synset.vectors
    dim = vecs.shape[1]
    v = vecs[focus]
    rest = np.delete(vecs, focus, axis=0)
    m = synset.n - 1
    count = (1 << (m - 1)) - 1

    # sums[k] = sum of rest[j+1] over the set bits j of k
    sums = np.zeros((1 << (m - 1), dim))
    for j in range(m - 1):
        lo = 1 << j
        sums[lo : 2 * lo] = sums[:lo] + rest[j + 1]

    # canonical block 1 always contains rest[0]; k == count would empty block 2
    s1 = rest[0] + sums[:count]
    s2 = rest.sum(axis=0) - s1
    s1v = s1 + v
    s2v = s2 + v
    masks = enumerate_partitions(m)

    def _normalize(block, label):
        # in place: all four sum arrays are fully formed above this point
        nrm = np.linalg.norm(block, axis=1)
        bad = np.nonzero(nrm <= DEGENERATE_NORM)[0]
        if bad.size:
            raise DegenerateGeometryError(
                f"synset {synset.id!r}, focus {synset.tokens[focus]!r}, "
                f"partition mask {int(masks[bad[0]]):#b}: block {label} sums "
                "to zero, normalized mean undefined"
            )
        block /= nrm[:, None]
        return block

    m1 = _normalize(s1, "S1")
    m2 = _normalize(s2, "S2")
    m1v = _normalize(s1v, "S1+v")
    m2v = _normalize(s2v, "S2+v")

    def _chordal_sim(a, b):
        d = a - b
        return np.clip(1.0 - 0.5 * np.einsum("ij,ij->i", d, d), -1.0, 1.0)

    return geometry._outcome_table(
        masks, _chordal_sim(m1, m2), _chordal_sim(m1v, m2), _chordal_sim(m1, m2v), eps
    )


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
