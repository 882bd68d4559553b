"""Word embedding models in the word2vec text and binary formats.

Every vector is L2-normalized at load time and stored as float32; all
downstream math is angular, so the original norms carry no information.
Sums and dot products accumulate in float64.

Both formats share one loop that reads one entry at a time.  It normalizes
rows in fixed blocks as they fill and joins the float32 blocks once at the
end, so a load peaks at about twice the float32 matrix it returns.  No
array is sized from the header's entry count: an overstated count is a
truncated file, not an allocation.  A kept text line's components are
parsed with ``float()`` as the line is read, so a kept line that does not
parse is reported before any later line's error.

A load may be limited to a set of keys, the tokens a run can look up.  Every
row's shape is still checked (UTF-8, the token plus ``dimension``
components, a unique token, the declared entry count, an intact gzip
stream), but only the kept rows are parsed, checked for finite components
and a non-zero norm, and held: a model whose damage lies only in the
components of other rows loads.  Errors name the same global line or row as
a full load.
"""

from __future__ import annotations

import contextlib
import gzip
import os
import zlib

import numpy as np

from .errors import ModelFormatError

NORM_ATOL = 1e-5
DEGENERATE_NORM = 1e-12

_MAX_HEADER_BYTES = 128
_MAX_TOKEN_BYTES = 10_000
_MAX_DEFLATE_RATIO = 1032
_BLOCK_ROWS = 4096


class EmbeddingModel:
    """An immutable vocabulary plus a row-per-token matrix of unit vectors.

    A model loaded with a key set holds only the kept rows, and
    ``vocab_size`` counts those; it may hold none.  Safe to share across
    threads: nothing is mutated after construction.
    """

    def __init__(self, words, vectors):
        words = tuple(words)
        vectors = np.asarray(vectors, dtype=np.float32)
        if vectors.ndim != 2 or vectors.shape[0] != len(words):
            raise ValueError(
                f"vectors must be a ({len(words)}, dim) matrix, got {vectors.shape}"
            )
        if vectors.shape[1] == 0:
            raise ValueError("model must have at least one dimension")
        index = _index(words)
        norms = np.sqrt(np.einsum("ij,ij->i", vectors, vectors, dtype=np.float64))
        bad = np.nonzero(np.abs(norms - 1.0) > NORM_ATOL)[0]
        if bad.size:
            raise ValueError(
                f"row for token {words[bad[0]]!r} is not unit length "
                f"(norm={norms[bad[0]]!r}); normalize before constructing"
            )
        self.words = words
        self.vectors = vectors
        self.index = index
        vectors.setflags(write=False)

    @classmethod
    def from_raw(cls, words, raw_vectors) -> "EmbeddingModel":
        """Build a model from unnormalized rows, normalizing each one."""
        return cls(words, _normalize_rows(raw_vectors, "<memory>"))

    @property
    def dimension(self) -> int:
        return self.vectors.shape[1]

    @property
    def vocab_size(self) -> int:
        return len(self.words)

    def __len__(self) -> int:
        return self.vocab_size

    def __repr__(self):
        return f"EmbeddingModel(vocab_size={self.vocab_size}, dimension={self.dimension})"


def _index(words) -> dict:
    """Each word's position; the first repeated word is a ModelFormatError."""
    index = {}
    for row, word in enumerate(words):
        if word in index:
            raise ModelFormatError(f"duplicate token {word!r}")
        index[word] = row
    return index


def _normalize_rows(raw, source: str, rows=None) -> np.ndarray:
    """``raw``'s rows scaled to unit length, as a new float32 array.  Errors
    name ``raw[i]`` as row ``rows[i]`` (row ``i`` without ``rows``)."""
    raw64 = np.asarray(raw, dtype=np.float64)
    if not np.all(np.isfinite(raw64)):
        i = int(np.nonzero(~np.isfinite(raw64).all(axis=1))[0][0])
        row = i if rows is None else rows[i]
        raise ModelFormatError(f"{source}: non-finite component in row {row}")
    with np.errstate(over="ignore"):  # components past ~1e154 overflow to inf
        norms = np.linalg.norm(raw64, axis=1, keepdims=True)
    bad = np.nonzero(~((norms[:, 0] > DEGENERATE_NORM) & np.isfinite(norms[:, 0])))[0]
    if bad.size:
        row = int(bad[0]) if rows is None else rows[bad[0]]
        raise ModelFormatError(
            f"{source}: zero-norm or overflowing vector in row {row} (cannot normalize)"
        )
    return (raw64 / norms).astype(np.float32)


def _read_header(fin, path: str, binary: bool) -> tuple[int, int]:
    """The declared (vocab_size, dimension).  A file too small to hold that
    many entries is refused before any row is read."""
    line = fin.readline(_MAX_HEADER_BYTES)
    if binary:
        line = line.decode("ascii", errors="replace")
    if not line.endswith("\n"):
        raise ModelFormatError(f"{path}: header line missing or too long")
    parts = line.split()
    if len(parts) != 2:
        raise ModelFormatError(f"{path}: malformed header {line!r}")
    try:
        vocab_size, dimension = int(parts[0]), int(parts[1])
    except ValueError:
        raise ModelFormatError(f"{path}: malformed header {line!r}") from None
    if vocab_size <= 0 or dimension <= 0:
        raise ModelFormatError(
            f"{path}: header must declare positive sizes, got {line!r}"
        )
    # an entry is at least a one-byte token plus, in binary, a 0x20 and the
    # float32s, in text a space and a digit per component; deflate expands
    # its input at most _MAX_DEFLATE_RATIO-fold
    min_entry = 4 * dimension + 2 if binary else 2 * dimension + 1
    size = os.path.getsize(path)
    capacity = size * _MAX_DEFLATE_RATIO if path.endswith(".gz") else size
    if vocab_size * min_entry > capacity:
        raise ModelFormatError(
            f"{path}: truncated: header declares {vocab_size} entries of "
            f"dimension {dimension}, more than its {size} bytes can hold"
        )
    return vocab_size, dimension


@contextlib.contextmanager
def _open_model(path: str, binary: bool):
    """The model file, with a damaged gzip stream or undecodable text
    reported as ModelFormatError."""
    opener = gzip.open if path.endswith(".gz") else open
    mode, encoding = ("rb", None) if binary else ("rt", "utf-8")
    try:
        with opener(path, mode, encoding=encoding) as fin:
            yield fin
    except (EOFError, zlib.error, gzip.BadGzipFile) as exc:
        raise ModelFormatError(f"{path}: damaged gzip stream: {exc}") from None
    except UnicodeDecodeError:
        raise ModelFormatError(
            f"{path}: not valid UTF-8 text (binary model? use a .bin path)"
        ) from None


def _load(path, binary: bool, keys=None) -> EmbeddingModel:
    path = str(path)
    read_entry = _binary_entry if binary else _text_entry
    # widening a float32 signaling NaN warns; _normalize_rows refuses the row
    with _open_model(path, binary) as fin, np.errstate(invalid="ignore"):
        vocab_size, dimension = _read_header(fin, path, binary)
        words, rows, blocks = [], [], []
        for start in range(0, vocab_size, _BLOCK_ROWS):
            raw, kept = np.empty((min(_BLOCK_ROWS, vocab_size - start), dimension)), []
            for i in range(start, start + len(raw)):
                entry = read_entry(fin, path, i, dimension, keys)
                if entry is None:
                    raise ModelFormatError(
                        f"{path}: truncated: expected {vocab_size} entries, found {i}"
                    )
                token, components = entry
                words.append(token)
                if components is not None:
                    raw[len(kept)] = components
                    kept.append(i)
            blocks.append(_normalize_rows(raw[: len(kept)], path, kept))
            rows += kept
            del raw  # before the next block is read
    if keys is not None:
        _index(words)  # every token is unique, kept or not
        words = [words[row] for row in rows]
    return EmbeddingModel(words, np.concatenate(blocks))


def _text_entry(fin, path: str, i: int, dimension: int, keys):
    """Entry ``i``'s token and its components parsed with ``float()``, or
    None in their place unless ``keys`` is None or holds the token; None if
    the file ends first.  Without its trailing whitespace a line holds a
    token and ``dimension`` single-space-separated components."""
    line = fin.readline()
    if not line:
        return None
    line = line.rstrip()
    spaces = line.count(" ")
    if spaces != dimension:
        raise ModelFormatError(
            f"{path}: line {i + 2}: expected token plus {dimension} "
            f"components, found {spaces}"
        )
    token = line[: line.index(" ")]
    if keys is not None and token not in keys:
        return token, None
    try:
        return token, [float(x) for x in line.split(" ")[1:]]
    except ValueError:
        raise ModelFormatError(f"{path}: line {i + 2}: unparseable component") from None


def _binary_entry(fin, path: str, i: int, dimension: int, keys):
    """``_text_entry`` for a binary entry: the kept components are its
    little-endian float32s; the others are read past, not converted."""
    buf = bytearray()
    while True:
        b = fin.read(1)
        if not b:
            return None
        if b == b" ":
            break
        if b == b"\n" and not buf:
            continue  # entry separator from the newline-terminated layout
        buf += b
        if len(buf) > _MAX_TOKEN_BYTES:
            raise ModelFormatError(f"{path}: entry {i}: token too long")
    try:
        token = buf.decode("utf-8")
    except UnicodeDecodeError:
        raise ModelFormatError(f"{path}: entry {i}: token is not valid UTF-8") from None
    chunk = fin.read(4 * dimension)
    if len(chunk) != 4 * dimension:
        raise ModelFormatError(
            f"{path}: truncated: entry {i} ({token!r}) has incomplete vector data"
        )
    if keys is not None and token not in keys:
        return token, None
    return token, np.frombuffer(chunk, "<f4")


def load_text_model(path, keys=None) -> EmbeddingModel:
    """Load a word2vec text-format model (gzipped files accepted).

    Expected layout: a ``<vocab_size> <dimension>`` header line, then one
    ``<token> <c1> ... <c_dim>`` line per word, single-space separated.
    Trailing whitespace, such as the space the original word2vec tool
    writes after the last component, is ignored.  Each component is parsed
    with ``float()``, and rows are L2-normalized on load.

    With ``keys`` (a set of tokens), every line's shape is still checked,
    but only the lines whose token is in ``keys`` are parsed and kept; a
    model whose damage lies only in other lines' components loads.  A full
    load parses every line, so pass ``keys`` for a large model.
    """
    return _load(path, binary=False, keys=keys)


def load_binary_model(path, keys=None) -> EmbeddingModel:
    """Load a word2vec binary-format model (gzipped files accepted).

    Layout: ASCII ``<vocab_size> <dimension>\\n`` header, then per entry a
    token, one 0x20 byte, ``dimension`` little-endian float32s, and an
    optional 0x0A.  Both trailing-newline layouts found in the wild are
    accepted.  Rows are L2-normalized on load.

    With ``keys`` (a set of tokens), every entry's token and length are
    still checked, but only the entries whose token is in ``keys`` are
    converted and kept; a model whose damage lies only in other entries'
    components loads.
    """
    return _load(path, binary=True, keys=keys)
