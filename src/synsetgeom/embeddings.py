"""Word embedding models in the word2vec text and binary formats.

Every vector is L2-normalized at load time and stored as float32; all
downstream math is angular, so the original norms carry no information.
Sums and dot products accumulate in float64.

Both formats share one reader.  It normalizes rows in fixed blocks as they
fill and joins the float32 blocks once at the end, so a load peaks at about
twice the float32 matrix it returns.  No array is sized from the header's
entry count: an overstated count is a truncated file, not an allocation.
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

    Safe to share across threads: nothing is mutated after construction.
    """

    def __init__(self, words, vectors):
        words = tuple(words)
        vectors = np.asarray(vectors, dtype=np.float32)
        if vectors.ndim != 2 or vectors.shape[0] != len(words):
            raise ValueError(
                f"vectors must be a ({len(words)}, dim) matrix, got {vectors.shape}"
            )
        if len(words) == 0 or vectors.shape[1] == 0:
            raise ValueError("model must have at least one word and one dimension")
        index = {}
        for row, word in enumerate(words):
            if word in index:
                raise ModelFormatError(f"duplicate token {word!r}")
            index[word] = row
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

    def __contains__(self, token) -> bool:
        return token in self.index

    def __repr__(self):
        return f"EmbeddingModel(vocab_size={self.vocab_size}, dimension={self.dimension})"


def _normalize_rows(raw, source: str, first_row: int = 0) -> np.ndarray:
    """``raw``'s rows scaled to unit length, as a new float32 array.  Row
    numbers in errors count from ``first_row``."""
    raw64 = np.asarray(raw, dtype=np.float64)
    if not np.all(np.isfinite(raw64)):
        row = first_row + int(np.nonzero(~np.isfinite(raw64).all(axis=1))[0][0])
        raise ModelFormatError(f"{source}: non-finite component in row {row}")
    with np.errstate(over="ignore"):  # components past ~1e154 overflow to inf
        norms = np.linalg.norm(raw64, axis=1, keepdims=True)
    bad = np.nonzero(~((norms[:, 0] > DEGENERATE_NORM) & np.isfinite(norms[:, 0])))[0]
    if bad.size:
        row = first_row + int(bad[0])
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


def _load(path, binary: bool) -> EmbeddingModel:
    path = str(path)
    read_entry = _binary_entry if binary else _text_entry
    with _open_model(path, binary) as fin:
        vocab_size, dimension = _read_header(fin, path, binary)
        words, blocks = [], []
        block = np.empty((min(vocab_size, _BLOCK_ROWS), dimension))
        for i in range(vocab_size):
            entry = read_entry(fin, path, i, dimension)
            if entry is None:
                raise ModelFormatError(
                    f"{path}: truncated: expected {vocab_size} entries, found {i}"
                )
            j = i % _BLOCK_ROWS
            words.append(entry[0])
            block[j] = entry[1]
            if j == _BLOCK_ROWS - 1 or i == vocab_size - 1:
                blocks.append(_normalize_rows(block[: j + 1], path, i - j))
    return EmbeddingModel(words, np.concatenate(blocks))


def _text_entry(fin, path: str, i: int, dimension: int):
    """Entry ``i``'s (token, components) from one text line; None at the end
    of the file."""
    line = fin.readline()
    if not line:
        return None
    parts = line.rstrip().split(" ")
    if len(parts) != dimension + 1:
        raise ModelFormatError(
            f"{path}: line {i + 2}: expected token plus {dimension} "
            f"components, found {len(parts) - 1}"
        )
    try:
        return parts[0], [float(x) for x in parts[1:]]
    except ValueError:
        raise ModelFormatError(f"{path}: line {i + 2}: unparseable component") from None


def _binary_entry(fin, path: str, i: int, dimension: int):
    """Entry ``i``'s (token, float32 components); None if the file ends
    before its token does."""
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
    return token, np.frombuffer(chunk, dtype="<f4")


def load_text_model(path) -> EmbeddingModel:
    """Load a word2vec text-format model (gzipped files accepted).

    Expected layout: a ``<vocab_size> <dimension>`` header line, then one
    ``<token> <c1> ... <c_dim>`` line per word, single-space separated.
    Trailing whitespace, such as the space the original word2vec tool
    writes after the last component, is ignored.  Rows are L2-normalized
    on load.
    """
    return _load(path, binary=False)


def load_binary_model(path) -> EmbeddingModel:
    """Load a word2vec binary-format model (gzipped files accepted).

    Layout: ASCII ``<vocab_size> <dimension>\\n`` header, then per entry a
    token, one 0x20 byte, ``dimension`` little-endian float32s, and an
    optional 0x0A.  Both trailing-newline layouts found in the wild are
    accepted.  Rows are L2-normalized on load.
    """
    return _load(path, binary=True)
