"""Word embedding models in the word2vec text and binary formats.

Every vector is L2-normalized at load time and stored as float32; all
downstream math is angular, so the original norms carry no information.
Sums and dot products accumulate in float64.
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
        norms = np.linalg.norm(vectors.astype(np.float64), axis=1)
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
        return cls(words, _normalize_rows(np.asarray(raw_vectors), "<memory>"))

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


def _normalize_rows(raw: np.ndarray, source: str) -> np.ndarray:
    raw64 = raw.astype(np.float64)
    if not np.all(np.isfinite(raw64)):
        row = int(np.nonzero(~np.isfinite(raw64).all(axis=1))[0][0])
        raise ModelFormatError(f"{source}: non-finite component in row {row}")
    with np.errstate(over="ignore"):  # components past ~1e154 overflow to inf
        norms = np.linalg.norm(raw64, axis=1, keepdims=True)
    bad = np.nonzero(~((norms[:, 0] > DEGENERATE_NORM) & np.isfinite(norms[:, 0])))[0]
    if bad.size:
        raise ModelFormatError(
            f"{source}: zero-norm or overflowing vector in row {int(bad[0])} "
            "(cannot normalize)"
        )
    return (raw64 / norms).astype(np.float32)


def _parse_header(text: str, path: str, binary: bool) -> tuple[int, int]:
    """The declared (vocab_size, dimension).  An uncompressed file too small
    to hold that many entries is refused before its rows are allocated."""
    parts = text.split()
    if len(parts) != 2:
        raise ModelFormatError(f"{path}: malformed header {text!r}")
    try:
        vocab_size, dimension = int(parts[0]), int(parts[1])
    except ValueError:
        raise ModelFormatError(f"{path}: malformed header {text!r}") from None
    if vocab_size <= 0 or dimension <= 0:
        raise ModelFormatError(
            f"{path}: header must declare positive sizes, got {text!r}"
        )
    # an entry is at least a one-byte token plus, in binary, a 0x20 and the
    # float32s, in text a space and a digit per component
    min_entry = 4 * dimension + 2 if binary else 2 * dimension + 1
    size = os.path.getsize(path)
    if not path.endswith(".gz") and vocab_size * min_entry > size:
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


def load_text_model(path) -> EmbeddingModel:
    """Load a word2vec text-format model (gzipped files accepted).

    Expected layout: a ``<vocab_size> <dimension>`` header line, then one
    ``<token> <c1> ... <c_dim>`` line per word, single-space separated.
    Trailing whitespace, such as the space the original word2vec tool
    writes after the last component, is ignored.  Rows are L2-normalized
    on load.
    """
    path = str(path)
    with _open_model(path, binary=False) as fin:
        header = fin.readline()
        if not header:
            raise ModelFormatError(f"{path}: empty file")
        vocab_size, dimension = _parse_header(header, path, binary=False)
        words = []
        raw = np.empty((vocab_size, dimension), dtype=np.float64)
        for i in range(vocab_size):
            line = fin.readline()
            if not line:
                raise ModelFormatError(
                    f"{path}: truncated: expected {vocab_size} entries, found {i}"
                )
            parts = line.rstrip().split(" ")
            if len(parts) != dimension + 1:
                raise ModelFormatError(
                    f"{path}: line {i + 2}: expected token plus {dimension} "
                    f"components, found {len(parts) - 1}"
                )
            words.append(parts[0])
            try:
                raw[i] = [float(x) for x in parts[1:]]
            except ValueError:
                raise ModelFormatError(
                    f"{path}: line {i + 2}: unparseable component"
                ) from None
    return EmbeddingModel(words, _normalize_rows(raw, path))


def load_binary_model(path) -> EmbeddingModel:
    """Load a word2vec binary-format model (gzipped files accepted).

    Layout: ASCII ``<vocab_size> <dimension>\\n`` header, then per entry a
    token, one 0x20 byte, ``dimension`` little-endian float32s, and an
    optional 0x0A.  Both trailing-newline layouts found in the wild are
    accepted.  Rows are L2-normalized on load.
    """
    path = str(path)
    with _open_model(path, binary=True) as fin:
        header = _read_line_bytes(fin, path)
        vocab_size, dimension = _parse_header(
            header.decode("ascii", errors="replace"), path, binary=True
        )
        row_bytes = 4 * dimension
        words = []
        raw = np.empty((vocab_size, dimension), dtype=np.float64)
        for i in range(vocab_size):
            token = _read_token(fin, path, i)
            chunk = fin.read(row_bytes)
            if len(chunk) != row_bytes:
                raise ModelFormatError(
                    f"{path}: truncated: entry {i} ({token!r}) has incomplete vector data"
                )
            words.append(token)
            raw[i] = np.frombuffer(chunk, dtype="<f4")
    return EmbeddingModel(words, _normalize_rows(raw, path))


def _read_line_bytes(fin, path: str) -> bytes:
    buf = bytearray()
    while len(buf) < _MAX_HEADER_BYTES:
        b = fin.read(1)
        if not b:
            raise ModelFormatError(f"{path}: unexpected end of file in header")
        if b == b"\n":
            return bytes(buf)
        buf += b
    raise ModelFormatError(f"{path}: header line too long")


def _read_token(fin, path: str, entry: int) -> str:
    buf = bytearray()
    while True:
        b = fin.read(1)
        if not b:
            raise ModelFormatError(
                f"{path}: truncated: expected more entries, found {entry}"
            )
        if b == b" ":
            break
        if b == b"\n" and not buf:
            continue  # entry separator from the newline-terminated layout
        buf += b
        if len(buf) > _MAX_TOKEN_BYTES:
            raise ModelFormatError(f"{path}: entry {entry}: token too long")
    try:
        return buf.decode("utf-8")
    except UnicodeDecodeError:
        raise ModelFormatError(
            f"{path}: entry {entry}: token is not valid UTF-8"
        ) from None


def save_text_model(model: EmbeddingModel, path) -> None:
    """Write a model in word2vec text format (components round-trip exactly)."""
    with open(str(path), "w", encoding="utf-8", newline="\n") as fout:
        fout.write(f"{model.vocab_size} {model.dimension}\n")
        for word, row in zip(model.words, model.vectors):
            cols = " ".join(repr(float(x)) for x in row)
            fout.write(f"{word} {cols}\n")


def save_binary_model(model: EmbeddingModel, path) -> None:
    """Write a model in word2vec binary format, one newline after each entry."""
    with open(str(path), "wb") as fout:
        fout.write(f"{model.vocab_size} {model.dimension}\n".encode("ascii"))
        for word, row in zip(model.words, model.vectors):
            fout.write(word.encode("utf-8") + b" ")
            fout.write(row.astype("<f4").tobytes())
            fout.write(b"\n")
