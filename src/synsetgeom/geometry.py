"""Core synset geometry: two-block partitions of the synset minus a focus
word, per-partition outcomes, and their aggregation into rank, centrality,
and interior membership.

Conventions
-----------
A partition of the m remaining words (the synset minus the focus word) is a
bitmask over those words in synset order: bit j set places remaining word j
in block 1, bit j clear places it in block 2.  Canonical masks always have
bit 0 set (the lowest-indexed remaining word sits in block 1), so each
unordered split is enumerated exactly once; there are 2**(m-1) - 1 of them.

Per-partition rank contributions are half-integers in {-1, -1/2, 0, 1/2, 1}
(a zero sign appears when a similarity delta falls inside the eps band) and
are stored exactly as doubled integers in {-2..2}; word rank accordingly as
``rank_doubled``.  This keeps the interior/rank equivalence an exact integer
comparison instead of a float one.

One engine
----------
Every per-word table, for ``analyze_synset`` and for ``partition_outcomes``
alike, comes from ``_word_table``, which reads it from one subset-norm table
of the synset.  Every similarity the method needs is a function of the
squared norms ``q(T) = |sum of the vectors in T|**2`` over subsets T of the
synset: for disjoint blocks A and B, ``<sum A, sum B> = (q(A+B) - q(A) -
q(B)) / 2``, and a cosine is that inner product over ``sqrt(q(A) * q(B))``.
One table of ``q`` over all ``2**n`` bitmasks is filled from the ``n x n``
Gram matrix in ``O(2**n)`` additions, and each word then reads its
``2**(n-2) - 1`` splits from it.  The cost is ``O(n * 2**n)`` with no factor
of the vector dimension, and the working set stays under ``80 * 2**n``
bytes (3.4 MB measured at n=16).

The polarization identity loses precision when a block nearly cancels, so
the splits with any block below ``GRAM_MIN_BLOCK_Q`` are rescored from their
block sums, normalized and compared, in ``O(n * dim)`` time and memory per
split.  Only those splits are rescored, and the rescore is the one that
raises ``DegenerateGeometryError`` with the offending partition mask (a
zero block always falls below the threshold).  Before the subset-norm table
or a rescore allocates, its working set is estimated and ``SynsetSizeError``
raised if that exceeds ``MEMORY_BUDGET``.

Everything here is a pure function of its inputs; distinct synsets can be
analyzed concurrently against a shared model.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .embeddings import DEGENERATE_NORM, NORM_ATOL
from .errors import DegenerateGeometryError, SynsetSizeError

DEFAULT_EPS = 1e-9
DEFAULT_MAX_SYNSET_SIZE = 16
# Smallest block squared norm the subset-norm engine trusts.  Its cosine
# error grows as 1/q of the smallest block: on synsets of up to 16 words in
# 2 and 3 dimensions it stayed below 6e-12 for q >= 1e-4 but reached 2e-10
# near 1e-6, against the 1e-9 the oracle allows.
GRAM_MIN_BLOCK_Q = 1e-4
# Bytes the subset-norm table or one word's rescore may take before the
# synset is refused.
MEMORY_BUDGET = 1 << 30


@dataclass(frozen=True, eq=False)
class ResolvedSynset:
    """A synset whose words all map to model vectors.

    ``tokens`` are the surface words in synset order and ``model_keys`` the
    model entries they resolved to (a key may differ from its token, e.g. a
    POS-tagged lemma).  ``vectors`` holds their unit rows as a read-only
    float64 ``(n, dim)`` array.  ``source_size`` is the word count before
    any out-of-vocabulary filtering.
    """

    id: str
    tokens: tuple[str, ...]
    model_keys: tuple[str, ...]
    vectors: np.ndarray
    source_size: int

    def __post_init__(self):
        tokens, keys = tuple(self.tokens), tuple(self.model_keys)
        vectors = np.array(self.vectors, dtype=np.float64)
        if not tokens:
            raise ValueError(f"synset {self.id!r} has no words")
        if len(set(tokens)) != len(tokens):
            dup = next(t for i, t in enumerate(tokens) if t in tokens[:i])
            raise ValueError(f"synset {self.id!r}: duplicate word {dup!r}")
        if vectors.ndim != 2 or not len(tokens) == len(keys) == vectors.shape[0]:
            raise ValueError(
                f"synset {self.id!r}: expected {len(tokens)} rows of one dimension "
                f"for {len(keys)} model keys, got vectors of shape {vectors.shape}"
            )
        norms = np.linalg.norm(vectors, axis=1)
        bad = np.nonzero(~(np.abs(norms - 1.0) <= NORM_ATOL))[0]
        if bad.size:
            raise ValueError(
                f"synset {self.id!r}: vector for {tokens[bad[0]]!r} is not unit "
                f"length (norm={norms[bad[0]]!r})"
            )
        vectors.setflags(write=False)
        object.__setattr__(self, "tokens", tokens)
        object.__setattr__(self, "model_keys", keys)
        object.__setattr__(self, "vectors", vectors)

    @property
    def n(self) -> int:
        return len(self.tokens)

    def __eq__(self, other):
        if not isinstance(other, ResolvedSynset):
            return NotImplemented
        return (self.id, self.tokens, self.model_keys, self.source_size) == (
            other.id, other.tokens, other.model_keys, other.source_size
        ) and np.array_equal(self.vectors, other.vectors)


class PartitionTable(NamedTuple):
    """Per-partition outcomes of one focus word, one entry per canonical
    partition in enumeration order.

    ``sim`` is the block-1/block-2 similarity without the focus word; sim1
    and sim2 are the similarities with the focus word joined to block 1
    resp. block 2.  ``r_doubled`` is twice the per-partition rank
    contribution, exact in {-2..2}, and ``centrality_delta`` is
    ``(sim1 - sim) + (sim2 - sim)``.
    """

    masks: np.ndarray
    sim: np.ndarray
    sim1: np.ndarray
    sim2: np.ndarray
    r_doubled: np.ndarray
    centrality_delta: np.ndarray


@dataclass(frozen=True)
class WordAttributes:
    token: str
    rank_doubled: int
    centrality: float
    in_interior: bool
    partition_count: int


@dataclass(frozen=True)
class SynsetReport:
    """Per-word attributes for a whole synset, in the report sort order:
    rank descending, then centrality descending, then token ascending."""

    synset_id: str
    n: int
    words: tuple[WordAttributes, ...]
    interior: frozenset[str]


def enumerate_partitions(m: int) -> np.ndarray:
    """The canonical masks of all two-block partitions of m words, as an
    int64 array in increasing order.

    Exactly 2**(m-1) - 1 masks (the Stirling number of the second kind for
    two blocks): bit 0 always set, the all-ones mask excluded.
    """
    if m < 2:
        raise SynsetSizeError(f"need at least 2 words to partition, got {m}")
    return (np.arange((1 << (m - 1)) - 1, dtype=np.int64) << 1) | 1


def _check_size(synset: ResolvedSynset, max_size: int) -> None:
    if synset.n < 3:
        raise SynsetSizeError(
            f"synset {synset.id!r} has {synset.n} words; rank and interior "
            "need at least 3"
        )
    if synset.n > max_size:
        raise SynsetSizeError(
            f"synset {synset.id!r} has {synset.n} words, above the size cap "
            f"{max_size} (2**(n-2)-1 partitions per word; raise the cap "
            "explicitly if you mean it)"
        )


def _check_eps(eps: float) -> None:
    # a non-positive band breaks interior <=> maximal rank; nan fails too
    if not eps > 0:
        raise ValueError(f"eps must be positive, got {eps}")


def _check_budget(synset: ResolvedSynset, nbytes: int, table: str) -> None:
    if nbytes > MEMORY_BUDGET:
        raise SynsetSizeError(
            f"synset {synset.id!r} has {synset.n} words: its {table} would take "
            f"about {nbytes >> 20} MiB, above the {MEMORY_BUDGET >> 20} MiB budget"
        )


def _sgn_band(deltas: np.ndarray, eps: float) -> np.ndarray:
    """Signs of the deltas, flattened to 0 inside the closed band |x| <= eps."""
    return np.where(np.abs(deltas) <= eps, 0, np.sign(deltas)).astype(np.int64)


def _outcome_table(masks, sim, sim1, sim2, eps: float) -> PartitionTable:
    d1 = sim1 - sim
    d2 = sim2 - sim
    r_doubled = _sgn_band(d1, eps) + _sgn_band(d2, eps)
    return PartitionTable(masks, sim, sim1, sim2, r_doubled, d1 + d2)


def _subset_norms(synset: ResolvedSynset) -> np.ndarray:
    """``q[T] = |sum of the vectors in T|**2`` for every bitmask T over the
    synset's words, up to one common scale, in O(2**n) additions.

    The sums run over the words sorted by their vectors' bytes, so each
    q[T] is the same float whatever order the synset lists its words in;
    the sort holds one key per word, not one per dimension."""
    n = synset.n
    _check_budget(synset, 80 << n, "subset-norm table")
    rows = [row.tobytes() for row in synset.vectors]
    order = sorted(range(n), key=rows.__getitem__)
    vecs = synset.vectors[order]
    # a repeated vector reads the Gram entries of its first occurrence, so
    # they are bit-identical; a common scale leaves every cosine unchanged
    # and makes a synset of one repeated vector exact
    first: dict[bytes, int] = {}
    same = [first.setdefault(rows[k], i) for i, k in enumerate(order)]
    gram = (vecs @ vecs.T)[np.ix_(same, same)]
    gram /= gram[0, 0]
    q = np.zeros(1 << n)
    for j in range(n):
        lo = 1 << j
        cross = np.zeros(lo)  # cross[T] = <sum of T, row j> for T within rows 0..j-1
        for i in range(j):
            cross[1 << i : 2 << i] = cross[: 1 << i] + gram[i, j]
        q[lo : 2 * lo] = q[:lo] + 2.0 * cross + gram[j, j]
    # index[T] is the sorted-order mask of the words in synset mask T
    index = np.zeros(1 << n, dtype=np.intp)
    for j, k in enumerate(np.argsort(order)):
        index[1 << j : 2 << j] = index[: 1 << j] | (1 << int(k))
    return q[index]


def _rescore(
    synset: ResolvedSynset, focus: int, masks: np.ndarray, s1: np.ndarray, s2: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``sim``, ``sim1`` and ``sim2`` of the splits ``masks`` of one focus
    word from their block sums, the blocks given as synset masks ``s1`` and
    ``s2``.  The first split with a zero block raises
    ``DegenerateGeometryError``, S1 blocks checked first, then S2, S1+v and
    S2+v."""
    vecs = synset.vectors
    n, dim = vecs.shape
    # the bit matrices, the four block sums and the temporaries of
    # normalizing and comparing them
    _check_budget(synset, masks.size * 8 * (3 * n + 6 * dim), "rescore of cancelling splits")
    words = np.arange(n)
    b1, b2 = (((s[:, None] >> words) & 1).astype(np.float64) @ vecs for s in (s1, s2))
    blocks = {"S1": b1, "S2": b2, "S1+v": b1 + vecs[focus], "S2+v": b2 + vecs[focus]}
    for label, block in blocks.items():
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
    m1, m2, m1v, m2v = blocks.values()

    def _chordal_sim(a, b):
        # for unit vectors 1 - |a - b|**2 / 2 is their inner product; this
        # form saturates at exactly 1.0 when the directions coincide
        d = a - b
        return np.clip(1.0 - 0.5 * np.einsum("ij,ij->i", d, d), -1.0, 1.0)

    return _chordal_sim(m1, m2), _chordal_sim(m1v, m2), _chordal_sim(m1, m2v)


def _word_table(
    synset: ResolvedSynset, q: np.ndarray, focus: int, masks: np.ndarray, eps: float
) -> PartitionTable:
    """One word's partition table, read from the synset's subset norms
    ``q``; the splits with a block too close to cancelling to trust are
    rescored from their block sums."""
    bit = 1 << focus
    full = (1 << synset.n) - 1
    low = masks & (bit - 1)
    s1 = low | ((masks ^ low) << 1)  # remaining-word masks -> synset masks
    s2 = (full ^ bit) ^ s1
    q1, q2, q1v, q2v = q[s1], q[s2], q[s1 | bit], q[s2 | bit]
    near = np.nonzero(np.minimum(np.minimum(q1, q2), np.minimum(q1v, q2v)) < GRAM_MIN_BLOCK_Q)[0]

    def _cos(q_ab, qa, qb):
        # <a, b> = (q(a + b) - q(a) - q(b)) / 2 for disjoint blocks a, b
        inner = (q_ab - qa - qb) / 2.0
        return np.clip(inner / (np.sqrt(qa) * np.sqrt(qb)), -1.0, 1.0)

    # a nearly cancelling block's q can round to zero or below it; the
    # splits holding one are rescored, so their nan or inf is overwritten
    with np.errstate(invalid="ignore", divide="ignore"):
        sim = _cos(q[full ^ bit], q1, q2)
        sim1 = _cos(q[full], q1v, q2)
        sim2 = _cos(q[full], q1, q2v)
    if near.size:
        sim[near], sim1[near], sim2[near] = _rescore(
            synset, focus, masks[near], s1[near], s2[near]
        )
    return _outcome_table(masks, sim, sim1, sim2, eps)


def word_attributes(token: str, table: PartitionTable, eps: float) -> WordAttributes:
    """Sum one word's ``partition_outcomes`` table into its rank, centrality
    and interior membership (strict improvement on both sides of every
    split), as ``analyze_synset`` reports them."""
    _check_eps(eps)
    d1 = table.sim1 - table.sim
    d2 = table.sim2 - table.sim
    return WordAttributes(
        token=token,
        rank_doubled=int(table.r_doubled.sum()),
        centrality=float(table.centrality_delta.sum()),
        in_interior=bool(np.all((d1 > eps) & (d2 > eps))),
        partition_count=int(table.masks.size),
    )


def partition_outcomes(
    synset: ResolvedSynset,
    focus: int,
    eps: float = DEFAULT_EPS,
    max_size: int = DEFAULT_MAX_SYNSET_SIZE,
) -> PartitionTable:
    """Outcomes of every canonical partition for one focus word, read from
    the same table ``analyze_synset`` reads that word from."""
    _check_eps(eps)
    _check_size(synset, max_size)
    if not 0 <= focus < synset.n:
        raise IndexError(
            f"focus index {focus} out of range for synset {synset.id!r} "
            f"of size {synset.n}"
        )
    q = _subset_norms(synset)
    return _word_table(synset, q, focus, enumerate_partitions(synset.n - 1), eps)


def analyze_synset(
    synset: ResolvedSynset,
    eps: float = DEFAULT_EPS,
    max_size: int = DEFAULT_MAX_SYNSET_SIZE,
) -> SynsetReport:
    """Attributes for every word, sorted into the report order.

    Every word is scored from one subset-norm table; the splits with a
    nearly cancelling block are rescored from their block sums (see the
    module docstring).
    """
    _check_eps(eps)
    _check_size(synset, max_size)
    q = _subset_norms(synset)
    masks = enumerate_partitions(synset.n - 1)
    attrs = [
        word_attributes(token, _word_table(synset, q, focus, masks, eps), eps)
        for focus, token in enumerate(synset.tokens)
    ]
    attrs.sort(key=lambda w: (-w.rank_doubled, -w.centrality, w.token))
    interior = frozenset(w.token for w in attrs if w.in_interior)
    return SynsetReport(synset.id, synset.n, tuple(attrs), interior)
