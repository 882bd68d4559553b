"""Word embedding models in the word2vec text and binary formats.

Every vector is L2-normalized at load time and stored as float32; all
downstream math is angular, so the original norms carry no information.
Sums and dot products accumulate in float64.

Both formats share one loop that reads one entry at a time from one
chunked byte buffer.  It normalizes rows in fixed blocks as they fill and
joins the float32 blocks once at the end, so a load peaks at about twice
the float32 matrix it returns.  No array is sized from the header's entry
count: an overstated count is a truncated file, not an allocation.  A kept
text line's components are parsed with ``float()`` as the line is read, so
a kept line that does not parse is reported before any later line's error.

A text model is read as text mode reads it (universal newlines, trailing
whitespace as ``str.rstrip()`` strips it), but in place: a line's token and
component count are found on its bytes, and only the token, a kept line and
the non-ASCII rest of a line are decoded.  So UTF-8 is checked line by
line, in file order: an error in an earlier line's shape is reported before
invalid UTF-8 in a later line, and invalid UTF-8 before the shape of its
own line.  Bytes after the last declared entry are never decoded.

A load may be limited to a set of keys, the tokens a run can look up.  Every
row's shape is still checked (UTF-8, the token plus ``dimension``
components, a unique token, the declared entry count, an intact gzip
stream), but only the kept rows are parsed, checked for finite components
and a non-zero norm, and held: a model whose damage lies only in the
components of other rows loads.  Errors name the same global line or row as
a full load.
"""

from __future__ import annotations

import bisect
import contextlib
import gzip
import os
import sys
import zlib

import numpy as np

from .errors import ModelFormatError

NORM_ATOL = 1e-5
DEGENERATE_NORM = 1e-12

_MAX_HEADER_BYTES = 128
_MAX_TOKEN_BYTES = 10_000
_MAX_DEFLATE_RATIO = 1032
_BLOCK_ROWS = 4096
_CHUNK_BYTES = 1 << 16
# what str.rstrip() strips below 0x80
_ASCII_WHITESPACE = frozenset(b" \t\n\v\f\r\x1c\x1d\x1e\x1f")


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


def _parse_header(line: str, path: str, binary: bool) -> tuple[int, int]:
    """The declared (vocab_size, dimension) from the header ``line``, read
    through its line end and at most ``_MAX_HEADER_BYTES`` characters long.
    A file too small to hold that many entries is refused before any row is
    read."""
    if len(line) > _MAX_HEADER_BYTES or not line.endswith("\n"):
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
def _open_model(path: str):
    """The model file in binary mode, with a damaged gzip stream or
    undecodable text reported as ModelFormatError."""
    opener = gzip.open if path.endswith(".gz") else open
    try:
        with opener(path, "rb") as fin:
            yield fin
    except (EOFError, zlib.error, gzip.BadGzipFile) as exc:
        raise ModelFormatError(f"{path}: damaged gzip stream: {exc}") from None
    except UnicodeDecodeError:
        raise ModelFormatError(
            f"{path}: not valid UTF-8 text (binary model? use a .bin path)"
        ) from None


class _Chunks:
    """A model file read forward through one buffer: ``buf[pos:]`` holds the
    bytes read and not yet taken.  A text file's line ends are translated as
    text mode's universal newlines translate them, and ``high`` lists the
    positions of ``buf``'s bytes past ASCII."""

    def __init__(self, fin, text: bool):
        self.fin, self.text = fin, text
        self.buf, self.pos, self.high = b"", 0, []
        self.cr = b""  # a \r held back from the end of the last chunk

    def _more(self) -> bool:
        """Append the next chunk to ``buf``; False at the end of the file."""
        unread = len(self.buf) - self.pos
        # a chunk at least as long as the unread bytes keeps a long line linear
        data = self.fin.read(max(_CHUNK_BYTES, unread))
        if not data and not self.cr:
            return False
        if self.text and (self.cr or b"\r" in data):
            # \r\n and a lone \r end a line; a final \r waits for the next
            # chunk, which may start with \n
            data, self.cr = self.cr + data, b"\r" if data.endswith(b"\r") else b""
            data = data[: len(data) - len(self.cr)]
            data = data.replace(b"\r\n", b"\n").replace(b"\r", b"\n")
        self.buf, self.pos = self.buf[self.pos :] + data, 0
        if self.text:
            self.high = np.flatnonzero(np.frombuffer(self.buf, np.uint8) >= 0x80).tolist()
        return True

    def fill(self, size: int) -> bool:
        """Whether ``size`` unread bytes are buffered, reading as needed."""
        while len(self.buf) - self.pos < size:
            if not self._more():
                return False
        return True

    def find(self, byte: bytes, limit: int = sys.maxsize) -> int:
        """The index in ``buf`` of the first ``byte`` among the next ``limit``
        unread bytes, reading as needed; -1 if the file ends or ``limit``
        bytes pass first."""
        searched = 0
        while True:
            end = self.buf.find(byte, self.pos + searched, self.pos + limit)
            if end >= 0:
                return end
            searched = len(self.buf) - self.pos
            if searched >= limit or not self._more():
                return -1


def _load(path, binary: bool, keys=None) -> EmbeddingModel:
    path = str(path)
    read_entry = _binary_entry if binary else _text_entry
    # widening a float32 signaling NaN warns; _normalize_rows refuses the row
    with _open_model(path) as fin, np.errstate(invalid="ignore"):
        src = _Chunks(fin, text=not binary)
        # a header character takes up to four bytes in UTF-8, one in binary
        end = src.find(b"\n", _MAX_HEADER_BYTES if binary else 4 * _MAX_HEADER_BYTES)
        line = src.buf[src.pos : end + 1] if end >= 0 else b""
        src.pos = end + 1
        line = line.decode("ascii", errors="replace") if binary else line.decode("utf-8")
        vocab_size, dimension = _parse_header(line, path, binary)
        words, rows, blocks = [], [], []
        for start in range(0, vocab_size, _BLOCK_ROWS):
            raw, kept = np.empty((min(_BLOCK_ROWS, vocab_size - start), dimension)), []
            for i in range(start, start + len(raw)):
                entry = read_entry(src, path, i, dimension, keys)
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


def _text_entry(src: _Chunks, path: str, i: int, dimension: int, keys):
    """Entry ``i``'s token and its components parsed with ``float()``, or
    None in their place unless ``keys`` is None or holds the token; None if
    the file ends first.  Without its trailing whitespace a line holds a
    token and ``dimension`` single-space-separated components.  The line is
    read in place: only its token, a kept line and a non-ASCII rest are
    decoded."""
    end = src.find(b"\n")
    buf, start = src.buf, src.pos
    if end < 0:
        end = len(buf)
        if start >= end:
            return None
    src.pos = end + 1
    while end > start and buf[end - 1] in _ASCII_WHITESPACE:
        end -= 1
    if end > start and buf[end - 1] >= 0x80:  # it may end in Unicode whitespace
        end = start + len(buf[start:end].decode("utf-8").rstrip().encode("utf-8"))
    sep = buf.find(b" ", start, end)
    if sep < 0:
        sep = end
    token = buf[start:sep].decode("utf-8")
    j = bisect.bisect_left(src.high, sep)
    if j < len(src.high) and src.high[j] < end:
        buf[sep:end].decode("utf-8")  # the whole file must be UTF-8
    spaces = buf.count(b" ", sep, end)
    if spaces != dimension:
        raise ModelFormatError(
            f"{path}: line {i + 2}: expected token plus {dimension} "
            f"components, found {spaces}"
        )
    if keys is not None and token not in keys:
        return token, None
    try:
        fields = buf[sep + 1 : end].decode("utf-8").split(" ")
        return token, np.fromiter(map(float, fields), np.float64, dimension)
    except ValueError:
        raise ModelFormatError(f"{path}: line {i + 2}: unparseable component") from None


def _binary_entry(src: _Chunks, path: str, i: int, dimension: int, keys):
    """``_text_entry`` for a binary entry: the kept components are its
    little-endian float32s; the others are skipped, not converted."""
    while src.fill(1) and src.buf[src.pos] == 0x0A:
        src.pos += 1  # entry separator from the newline-terminated layout
    end = src.find(b" ", _MAX_TOKEN_BYTES + 1)
    if end < 0:
        if src.fill(_MAX_TOKEN_BYTES + 1):
            raise ModelFormatError(f"{path}: entry {i}: token too long")
        return None
    try:
        token = src.buf[src.pos : end].decode("utf-8")
    except UnicodeDecodeError:
        raise ModelFormatError(f"{path}: entry {i}: token is not valid UTF-8") from None
    src.pos = end + 1
    if not src.fill(4 * dimension):
        raise ModelFormatError(
            f"{path}: truncated: entry {i} ({token!r}) has incomplete vector data"
        )
    start, src.pos = src.pos, src.pos + 4 * dimension
    if keys is not None and token not in keys:
        return token, None
    return token, np.frombuffer(src.buf, "<f4", dimension, start)


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
