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

Two engines compute the same tables
-----------------------------------
``analyze_synset`` scores every word of a synset from one subset-norm table.
Every similarity the method needs is a function of the squared norms
``q(T) = |sum of the vectors in T|**2`` over subsets T of the synset: for
disjoint blocks A and B, ``<sum A, sum B> = (q(A+B) - q(A) - q(B)) / 2``, and
a cosine is that inner product over ``sqrt(q(A) * q(B))``.  One table of
``q`` over all ``2**n`` bitmasks is filled from the ``n x n`` Gram matrix in
``O(2**n)`` additions, and each word then reads its ``2**(n-2) - 1`` splits
from it.  The cost is ``O(n * 2**n)`` with no factor of the vector
dimension, and the working set stays under ``80 * 2**n`` bytes (3.4 MB
measured at n=16).

The polarization identity loses precision when a block nearly cancels, so a
word with any block below ``GRAM_MIN_BLOCK_Q`` is rescored on the vector
path, ``_partition_table``: the block sums themselves, normalized and
compared, in ``O(2**n * dim)`` time and under ``14 * dim * 2**n`` bytes
per word.  That path also serves ``partition_outcomes``,
``rank_and_centrality`` and ``interior_membership``, and it is the one that
raises ``DegenerateGeometryError`` with the offending partition mask.
Before either engine allocates, it estimates its working set from those
bounds and raises ``SynsetSizeError`` if that exceeds ``MEMORY_BUDGET``.

Everything here is a pure function of its inputs; distinct synsets can be
analyzed concurrently against a shared model.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .embeddings import DEGENERATE_NORM, WordVector, set_similarity
from .errors import DegenerateGeometryError, SynsetSizeError

DEFAULT_EPS = 1e-9
DEFAULT_MAX_SYNSET_SIZE = 16
# Smallest block squared norm the subset-norm engine trusts.  Its cosine
# error grows as 1/q of the smallest block: on synsets of up to 16 words in
# 2 and 3 dimensions it stayed below 6e-12 for q >= 1e-4 but reached 2e-10
# near 1e-6, against the 1e-9 the oracle allows.
GRAM_MIN_BLOCK_Q = 1e-4
# Bytes one partition table may take before the synset is refused.
MEMORY_BUDGET = 1 << 30


@dataclass(frozen=True)
class ResolvedSynset:
    """A synset whose words all map to model vectors.

    ``words`` pairs each surface token with the vector it resolved to; the
    vector's own token is the model key that matched (it may differ from the
    surface token, e.g. a POS-tagged lemma).  ``source_size`` is the word
    count before any out-of-vocabulary filtering.
    """

    id: str
    words: tuple[tuple[str, WordVector], ...]
    source_size: int

    def __post_init__(self):
        object.__setattr__(self, "words", tuple(self.words))
        if not self.words:
            raise ValueError(f"synset {self.id!r} has no words")
        seen = set()
        dims = set()
        for token, wv in self.words:
            if token in seen:
                raise ValueError(f"synset {self.id!r}: duplicate word {token!r}")
            seen.add(token)
            dims.add(wv.dimension)
        if len(dims) != 1:
            raise ValueError(f"synset {self.id!r}: mixed vector dimensions {dims}")

    @classmethod
    def from_arrays(cls, synset_id, tokens, rows, source_size=None):
        """Build a synset from raw rows, normalizing each to unit length."""
        rows = np.asarray(rows, dtype=np.float64)
        norms = np.linalg.norm(rows, axis=1, keepdims=True)
        if np.any(norms <= DEGENERATE_NORM):
            raise ValueError(f"synset {synset_id!r}: zero-norm row")
        unit = (rows / norms).astype(np.float32)
        words = tuple(
            (tok, WordVector(tok, row)) for tok, row in zip(tokens, unit, strict=True)
        )
        if source_size is None:
            source_size = len(words)
        return cls(synset_id, words, source_size)

    @property
    def n(self) -> int:
        return len(self.words)

    @property
    def tokens(self) -> tuple[str, ...]:
        return tuple(token for token, _ in self.words)

    def matrix(self) -> np.ndarray:
        """The word vectors stacked as a float64 (n, dim) matrix."""
        return np.stack([wv.components for _, wv in self.words]).astype(np.float64)


@dataclass(frozen=True)
class Partition:
    """One canonical two-block split of the words around ``focus_index``.

    The mask ranges over the remaining words in synset order.  Bit 0 must be
    set (canonical form); ops additionally reject the all-ones mask, which
    would leave block 2 empty.
    """

    focus_index: int
    mask: int

    def __post_init__(self):
        if self.focus_index < 0:
            raise ValueError(f"negative focus index {self.focus_index}")
        if self.mask < 1 or not (self.mask & 1):
            raise ValueError(
                f"mask {self.mask:#b} is not canonical (lowest remaining word "
                "must be in block 1)"
            )

    def split_indices(self, remaining_count: int):
        """Index pairs (block1, block2) into the remaining-word list."""
        if self.mask >= (1 << remaining_count) - 1:
            raise ValueError(
                f"mask {self.mask:#b} leaves block 2 empty for "
                f"{remaining_count} remaining words"
            )
        s1 = tuple(j for j in range(remaining_count) if self.mask >> j & 1)
        s2 = tuple(j for j in range(remaining_count) if not self.mask >> j & 1)
        return s1, s2


@dataclass(frozen=True)
class PartitionOutcome:
    """Similarities and contributions of the focus word for one partition.

    ``sim`` is the block-1/block-2 similarity without the focus word; sim1
    and sim2 are the similarities with the focus word joined to block 1
    resp. block 2.  ``r_doubled`` is twice the per-partition rank
    contribution, exact in {-2..2}.
    """

    partition: Partition
    sim: float
    sim1: float
    sim2: float
    r_doubled: int
    centrality_delta: float


@dataclass(frozen=True)
class WordAttributes:
    token: str
    rank_doubled: int
    centrality: float
    in_interior: bool
    partition_count: int

    @property
    def rank(self) -> float:
        return self.rank_doubled / 2


@dataclass(frozen=True)
class SynsetReport:
    """Per-word attributes for a whole synset, in the report sort order:
    rank descending, then centrality descending, then token ascending."""

    synset_id: str
    n: int
    words: tuple[WordAttributes, ...]
    interior: frozenset[str]


def enumerate_partitions(m: int):
    """Yield the canonical masks of all two-block partitions of m words.

    Exactly 2**(m-1) - 1 masks (the Stirling number of the second kind for
    two blocks): bit 0 always set, the all-ones mask excluded.
    """
    if m < 2:
        raise SynsetSizeError(f"need at least 2 words to partition, got {m}")
    for k in range((1 << (m - 1)) - 1):
        yield (k << 1) | 1


def sgn_eps(x: float, eps: float) -> int:
    """Sign of x, flattened to 0 inside the closed band |x| <= eps."""
    if eps < 0:
        raise ValueError(f"eps must be non-negative, got {eps}")
    if abs(x) <= eps:
        return 0
    return 1 if x > 0 else -1


class _PartitionTable(NamedTuple):
    """Vectorized per-partition results for one focus word, in canonical
    enumeration order."""

    masks: np.ndarray
    sim: np.ndarray
    sim1: np.ndarray
    sim2: np.ndarray
    r_doubled: np.ndarray
    centrality_delta: np.ndarray


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


def _check_focus(synset: ResolvedSynset, focus: int) -> None:
    if not 0 <= focus < synset.n:
        raise IndexError(
            f"focus index {focus} out of range for synset {synset.id!r} "
            f"of size {synset.n}"
        )


def _check_budget(synset: ResolvedSynset, nbytes: int, table: str) -> None:
    if nbytes > MEMORY_BUDGET:
        raise SynsetSizeError(
            f"synset {synset.id!r} has {synset.n} words: its {table} would take "
            f"about {nbytes >> 20} MiB, above the {MEMORY_BUDGET >> 20} MiB budget"
        )


def _canonical_masks(m: int) -> np.ndarray:
    """The masks of ``enumerate_partitions(m)`` as an int64 array."""
    return (np.arange((1 << (m - 1)) - 1, dtype=np.int64) << 1) | 1


def _sgn_band(deltas: np.ndarray, eps: float) -> np.ndarray:
    return np.where(np.abs(deltas) <= eps, 0, np.sign(deltas)).astype(np.int64)


def _outcome_table(masks, sim, sim1, sim2, eps: float) -> _PartitionTable:
    d1 = sim1 - sim
    d2 = sim2 - sim
    r_doubled = _sgn_band(d1, eps) + _sgn_band(d2, eps)
    return _PartitionTable(masks, sim, sim1, sim2, r_doubled, d1 + d2)


def _partition_table(synset: ResolvedSynset, focus: int, eps: float) -> _PartitionTable:
    """All canonical-partition outcomes for one focus word.

    Block sums are built once via an incremental subset-sum table over the
    non-anchor remaining words, so the whole table costs O(2**n * dim)
    instead of O(n * 2**n * dim).
    """
    vecs = synset.matrix()
    n, dim = vecs.shape
    # the block-sum arrays and the temporaries of normalizing and comparing them
    _check_budget(synset, (56 * dim) << (n - 2), "vector-path table")
    v = vecs[focus]
    rest = np.delete(vecs, focus, axis=0)
    m = n - 1
    count = (1 << (m - 1)) - 1

    # sums[k] = sum of rest[j+1] over the set bits j of k
    sums = np.zeros((1 << (m - 1), dim))
    for j in range(m - 1):
        lo = 1 << j
        sums[lo : 2 * lo] = sums[:lo] + rest[j + 1]

    # canonical block 1 always contains rest[0]; k == count would empty block 2
    s1 = rest[0] + sums[:count]
    del sums
    s2 = rest.sum(axis=0) - s1
    s1v = s1 + v
    s2v = s2 + v
    masks = _canonical_masks(m)

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
        # cosine of the means via their distance: saturates at exactly 1.0
        # when the directions coincide (see embeddings.set_similarity)
        d = a - b
        return np.clip(1.0 - 0.5 * np.einsum("ij,ij->i", d, d), -1.0, 1.0)

    return _outcome_table(
        masks, _chordal_sim(m1, m2), _chordal_sim(m1v, m2), _chordal_sim(m1, m2v), eps
    )


def _subset_norms(gram: np.ndarray) -> np.ndarray:
    """``q[T] = |sum of the rows in T|**2`` for every bitmask T over the rows
    whose Gram matrix is given, in O(2**n) additions."""
    n = gram.shape[0]
    q = np.zeros(1 << n)
    for j in range(n):
        lo = 1 << j
        cross = np.zeros(lo)  # cross[T] = <sum of T, row j> for T within rows 0..j-1
        for i in range(j):
            cross[1 << i : 2 << i] = cross[: 1 << i] + gram[i, j]
        q[lo : 2 * lo] = q[:lo] + 2.0 * cross + gram[j, j]
    return q


def _gram_table(q: np.ndarray, n: int, focus: int, masks: np.ndarray, eps: float):
    """One word's partition table read from the subset norms ``q``, or None
    when one of its blocks is too close to cancelling to trust."""
    bit = 1 << focus
    full = (1 << n) - 1
    low = masks & (bit - 1)
    s1 = low | ((masks ^ low) << 1)  # remaining-word masks -> synset masks
    s2 = (full ^ bit) ^ s1
    q1, q2, q1v, q2v = q[s1], q[s2], q[s1 | bit], q[s2 | bit]
    if min(q1.min(), q2.min(), q1v.min(), q2v.min()) < GRAM_MIN_BLOCK_Q:
        return None

    def _cos(q_ab, qa, qb):
        # <a, b> = (q(a + b) - q(a) - q(b)) / 2 for disjoint blocks a, b
        inner = (q_ab - qa - qb) / 2.0
        return np.clip(inner / (np.sqrt(qa) * np.sqrt(qb)), -1.0, 1.0)

    return _outcome_table(
        masks,
        _cos(q[full ^ bit], q1, q2),
        _cos(q[full], q1v, q2),
        _cos(q[full], q1, q2v),
        eps,
    )


def _table_membership(table: _PartitionTable, eps: float) -> bool:
    d1 = table.sim1 - table.sim
    d2 = table.sim2 - table.sim
    return bool(np.all((d1 > eps) & (d2 > eps)))


def _attributes(token: str, table: _PartitionTable, eps: float) -> WordAttributes:
    return WordAttributes(
        token=token,
        rank_doubled=int(table.r_doubled.sum()),
        centrality=float(table.centrality_delta.sum()),
        in_interior=_table_membership(table, eps),
        partition_count=int(table.masks.size),
    )


def partition_outcome(
    synset: ResolvedSynset,
    focus: int,
    partition: Partition,
    eps: float = DEFAULT_EPS,
) -> PartitionOutcome:
    """Outcome of a single partition, computed directly from block means."""
    _check_focus(synset, focus)
    if synset.n < 3:
        raise SynsetSizeError(
            f"synset {synset.id!r} has {synset.n} words; need at least 3"
        )
    if partition.focus_index != focus:
        raise ValueError(
            f"partition is for focus {partition.focus_index}, not {focus}"
        )
    remaining = [wv for i, (_, wv) in enumerate(synset.words) if i != focus]
    i1, i2 = partition.split_indices(len(remaining))
    v = synset.words[focus][1]
    block1 = [remaining[j] for j in i1]
    block2 = [remaining[j] for j in i2]
    try:
        sim = set_similarity(block1, block2)
        sim1 = set_similarity(block1 + [v], block2)
        sim2 = set_similarity(block1, block2 + [v])
    except DegenerateGeometryError as exc:
        raise DegenerateGeometryError(
            f"synset {synset.id!r}, focus {synset.tokens[focus]!r}, "
            f"partition mask {partition.mask:#b}: {exc}"
        ) from exc
    r_doubled = sgn_eps(sim1 - sim, eps) + sgn_eps(sim2 - sim, eps)
    return PartitionOutcome(
        partition, sim, sim1, sim2, r_doubled, (sim1 - sim) + (sim2 - sim)
    )


def partition_outcomes(
    synset: ResolvedSynset,
    focus: int,
    eps: float = DEFAULT_EPS,
    max_size: int = DEFAULT_MAX_SYNSET_SIZE,
) -> tuple[PartitionOutcome, ...]:
    """Outcomes for every canonical partition, in enumeration order."""
    _check_size(synset, max_size)
    _check_focus(synset, focus)
    t = _partition_table(synset, focus, eps)
    return tuple(
        PartitionOutcome(
            Partition(focus, int(mask)),
            float(t.sim[i]),
            float(t.sim1[i]),
            float(t.sim2[i]),
            int(t.r_doubled[i]),
            float(t.centrality_delta[i]),
        )
        for i, mask in enumerate(t.masks)
    )


def rank_and_centrality(
    synset: ResolvedSynset,
    focus: int,
    eps: float = DEFAULT_EPS,
    max_size: int = DEFAULT_MAX_SYNSET_SIZE,
) -> WordAttributes:
    """Sum per-partition contributions into the focus word's attributes."""
    _check_size(synset, max_size)
    _check_focus(synset, focus)
    return _attributes(synset.tokens[focus], _partition_table(synset, focus, eps), eps)


def interior_membership(
    synset: ResolvedSynset,
    focus: int,
    eps: float = DEFAULT_EPS,
    max_size: int = DEFAULT_MAX_SYNSET_SIZE,
) -> bool:
    """Whether adding the focus word to either block strictly increases the
    block similarity, for every canonical partition."""
    _check_size(synset, max_size)
    _check_focus(synset, focus)
    return _table_membership(_partition_table(synset, focus, eps), eps)


def analyze_synset(
    synset: ResolvedSynset,
    eps: float = DEFAULT_EPS,
    max_size: int = DEFAULT_MAX_SYNSET_SIZE,
) -> SynsetReport:
    """Attributes for every word, sorted into the report order.

    Every word is scored from one subset-norm table; a word with a nearly
    cancelling block is rescored on the vector path (see the module
    docstring).
    """
    _check_size(synset, max_size)
    n = synset.n
    _check_budget(synset, 80 << n, "subset-norm table")
    vecs = synset.matrix()
    # a repeated vector reads the Gram entries of its first occurrence, so
    # they are bit-identical; a common scale leaves every cosine unchanged
    # and makes a synset of one repeated vector exact
    first: dict[bytes, int] = {}
    same = [first.setdefault(row.tobytes(), i) for i, row in enumerate(vecs)]
    gram = (vecs @ vecs.T)[np.ix_(same, same)]
    q = _subset_norms(gram / gram[0, 0])
    masks = _canonical_masks(n - 1)
    attrs = []
    for focus in range(n):
        table = _gram_table(q, n, focus, masks, eps)
        if table is None:
            table = _partition_table(synset, focus, eps)
        attrs.append(_attributes(synset.tokens[focus], table, eps))
    attrs.sort(key=lambda w: (-w.rank_doubled, -w.centrality, w.token))
    interior = frozenset(w.token for w in attrs if w.in_interior)
    return SynsetReport(synset.id, synset.n, tuple(attrs), interior)
