"""Word embedding models in the word2vec text and binary formats.

Every vector is L2-normalized at load time and stored as float32; all
downstream math is angular, so the original norms carry no information.
Sums and dot products accumulate in float64.

Both formats share one reader.  It normalizes rows in fixed blocks as they
fill and joins the float32 blocks once at the end, so a load peaks at about
twice the float32 matrix it returns.  No array is sized from the header's
entry count: an overstated count is a truncated file, not an allocation.
A text block's components are parsed at once by numpy's C reader
(``np.loadtxt``); any block it refuses is re-read line by line with
``float()``, so the values, the inputs accepted and the errors are those of
a line-by-line parse.  Binary entries are read one at a time.

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
import itertools
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
# whitespace to str.isspace() and so to loadtxt, which strips it from a
# field's ends, but not to float(), which refuses it there
_NOT_FLOAT_SPACE = "\x1c\x1d\x1e\x1f"


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

    def __contains__(self, token) -> bool:
        return token in self.index

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
    read_block = _binary_block if binary else _text_block
    with _open_model(path, binary) as fin:
        vocab_size, dimension = _read_header(fin, path, binary)
        words, rows, blocks = [], [], []
        for start in range(0, vocab_size, _BLOCK_ROWS):
            count = min(_BLOCK_ROWS, vocab_size - start)
            tokens, kept, raw = read_block(fin, path, start, count, dimension, keys)
            words += tokens
            if len(tokens) < count:
                raise ModelFormatError(
                    f"{path}: truncated: expected {vocab_size} entries, found {len(words)}"
                )
            blocks.append(_normalize_rows(raw, path, kept))
            rows += kept
            del raw  # before the next block is read
    if keys is not None:
        _index(words)  # every token is unique, kept or not
        words = [words[row] for row in rows]
    return EmbeddingModel(words, np.concatenate(blocks))


def _binary_block(fin, path: str, start: int, count: int, dimension: int, keys):
    """The tokens of entries ``start`` onwards (fewer than ``count`` if the
    file ends first), the entry numbers kept (those whose token is in
    ``keys``; all without it) and a float64 block of their components.  The
    other entries' components are read past, not converted."""
    tokens, kept, raw = [], [], np.empty((count, dimension))
    for j in range(count):
        entry = _binary_entry(fin, path, start + j, dimension)
        if entry is None:
            break
        token, components = entry
        tokens.append(token)
        if keys is None or token in keys:
            raw[len(kept)] = np.frombuffer(components, dtype="<f4")
            kept.append(start + j)
    return tokens, kept, raw[: len(kept)]


def _text_block(fin, path: str, start: int, count: int, dimension: int, keys):
    """``_binary_block`` for the next ``count`` text lines.

    Every line's shape is checked: without its trailing whitespace it holds
    a token and ``dimension`` single-space-separated components.  Only the
    kept lines' components are parsed, and an error in a kept line comes
    before a shape error in a later line, as in a line-by-line parse.
    """
    lines = [line.rstrip() for line in itertools.islice(fin, count)]
    tokens, kept = [], []

    def parse_kept():
        return _parse_components([lines[i - start] for i in kept], kept, path, dimension)

    for j, line in enumerate(lines):
        spaces = line.count(" ")
        if spaces != dimension:
            parse_kept()  # an error in an earlier kept line comes first
            raise ModelFormatError(
                f"{path}: line {start + j + 2}: expected token plus {dimension} "
                f"components, found {spaces}"
            )
        token = line[: line.index(" ")]
        tokens.append(token)
        if keys is None or token in keys:
            kept.append(start + j)
    return tokens, kept, parse_kept()


def _parse_components(lines, entries, path: str, dimension: int) -> np.ndarray:
    """The float64 components of shape-checked, stripped ``lines`` (entries
    ``entries``), parsed in one ``np.loadtxt`` call.

    ``loadtxt`` converts each field with ``PyOS_string_to_double``, as
    ``float()`` does for ASCII input, so on lines without
    ``_NOT_FLOAT_SPACE`` every field it accepts ``float()`` accepts with the
    same value.  It skips blank lines and takes any width that is the same
    on every line, hence the shape check.  Lines it refuses are re-read one
    by one, which gives the per-line errors and accepts the spellings only
    ``float()`` takes (``1_0``, non-ASCII digits).
    """
    if lines and not any(c in line for line in lines for c in _NOT_FLOAT_SPACE):
        tails = (line[line.index(" ") + 1 :] for line in lines)
        try:
            raw = np.loadtxt(tails, delimiter=" ", comments=None, quotechar=None, ndmin=2)
        except ValueError:
            pass
        else:
            if raw.shape == (len(lines), dimension):
                return raw
    return _parse_lines(lines, entries, path, dimension)


def _parse_lines(lines, entries, path: str, dimension: int) -> np.ndarray:
    """``_parse_components`` with one ``float()`` per component."""
    raw = np.empty((len(lines), dimension))
    for r, (line, i) in enumerate(zip(lines, entries)):
        try:
            raw[r] = [float(x) for x in line.split(" ")[1:]]
        except ValueError:
            raise ModelFormatError(f"{path}: line {i + 2}: unparseable component") from None
    return raw


def _binary_entry(fin, path: str, i: int, dimension: int):
    """Entry ``i``'s token and raw little-endian float32 bytes; None if the
    file ends before its token does."""
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
    return token, chunk


def load_text_model(path, keys=None) -> EmbeddingModel:
    """Load a word2vec text-format model (gzipped files accepted).

    Expected layout: a ``<vocab_size> <dimension>`` header line, then one
    ``<token> <c1> ... <c_dim>`` line per word, single-space separated.
    Trailing whitespace, such as the space the original word2vec tool
    writes after the last component, is ignored.  Rows are L2-normalized
    on load.

    With ``keys`` (a set of tokens), every line's shape is still checked,
    but only the lines whose token is in ``keys`` are parsed and kept; a
    model whose damage lies only in other lines' components loads.
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
