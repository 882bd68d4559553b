"""Model loading and serialization, and the block similarity the engine
computes from the loaded vectors."""

import gzip
import math
import pathlib
import tempfile
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from synsetgeom import (
    DegenerateGeometryError,
    EmbeddingModel,
    ModelFormatError,
    ResolvedSynset,
    embeddings,
    load_binary_model,
    load_text_model,
)
from synsetgeom.cli import main
from synsetgeom.embeddings import _BLOCK_ROWS, _MAX_HEADER_BYTES, _MAX_TOKEN_BYTES, _parse_header

from synth import block_sim, make_model, save_binary_model, save_text_model, unit_rows


def row(model, token):
    return model.vectors[model.index[token]]


def write_text(tmp_path, content, name="model.txt"):
    path = tmp_path / name
    path.write_text(content, encoding="utf-8")
    return path


class TestLoadText:
    def test_axis_vectors_are_normalized(self, tmp_path):
        model = load_text_model(write_text(tmp_path, "2 3\na 1 0 0\nb 0 2 0\n"))
        assert model.vocab_size == 2
        assert model.dimension == 3
        np.testing.assert_array_equal(row(model, "a"), [1, 0, 0])
        np.testing.assert_array_equal(row(model, "b"), [0, 1, 0])

    def test_3_4_5_normalization(self, tmp_path):
        model = load_text_model(write_text(tmp_path, "1 2\nx 3 4\n"))
        np.testing.assert_allclose(row(model, "x"), [0.6, 0.8], atol=1e-7)

    def test_duplicate_token_rejected(self, tmp_path):
        path = write_text(tmp_path, "2 2\na 1 0\na 0 1\n")
        with pytest.raises(ModelFormatError, match="duplicate"):
            load_text_model(path)

    def test_malformed_header(self, tmp_path):
        for header in ("", "2", "two 3", "2 3 4", "-1 3", "0 3", "2 0", "1 3" + " " * 200):
            path = write_text(tmp_path, header + "\na 1 0 0\n")
            with pytest.raises(ModelFormatError):
                load_text_model(path)

    @pytest.mark.filterwarnings("error")
    def test_wrong_component_count(self, tmp_path):
        for content in ("1 3\na 1 0\n", "2 3\nalpha\nbravo\n"):
            path = write_text(tmp_path, content)
            with pytest.raises(ModelFormatError, match="components"):
                load_text_model(path)

    def test_non_finite_component(self, tmp_path):
        for bad in ("nan", "inf", "-inf"):
            path = write_text(tmp_path, f"1 2\na 1 {bad}\n")
            with pytest.raises(ModelFormatError, match="non-finite"):
                load_text_model(path)

    def test_unparseable_component(self, tmp_path):
        path = write_text(tmp_path, "1 2\na 1 zebra\n")
        with pytest.raises(ModelFormatError, match="unparseable"):
            load_text_model(path)

    def test_zero_norm_vector(self, tmp_path):
        path = write_text(tmp_path, "1 3\na 0 0 0\n")
        with pytest.raises(ModelFormatError, match="zero-norm"):
            load_text_model(path)

    def test_overflowing_norm_vector(self, tmp_path):
        path = write_text(tmp_path, "1 2\na 1e200 1e200\n")
        with pytest.raises(ModelFormatError, match="overflowing"):
            load_text_model(path)

    def test_header_beyond_the_file_size_is_refused(self, tmp_path):
        # refused from the header alone: the rows would take 2.4 PB
        path = write_text(tmp_path, "1000000000000 300\na 1 0\n")
        with pytest.raises(ModelFormatError, match="truncated: header declares"):
            load_text_model(path)
        # the smallest file the header allows still loads
        assert load_text_model(write_text(tmp_path, "2 2\na 1 0\nb 0 1")).words == ("a", "b")

    @pytest.mark.parametrize("kind", ["txt", "bin"])
    @pytest.mark.parametrize(
        "header",
        ["1000000000000000000 300", "1000000000000000000 2", "2 1000000000000000000", "1000 2"],
    )
    def test_gzip_header_beyond_the_stream_is_refused(self, tmp_path, kind, header):
        # a .gz file's size bounds its content only by deflate's 1032:1 ratio;
        # a header past that is refused, one within it runs out of entries,
        # and neither declared size is ever allocated
        path = tmp_path / f"huge.{kind}.gz"
        path.write_bytes(gzip.compress(f"{header}\na 1 0\n".encode()))
        loader = load_text_model if kind == "txt" else load_binary_model
        with pytest.raises(ModelFormatError, match="truncated"):
            loader(path)

    def test_gzip_header_beyond_the_stream_is_exit_1(self, tmp_path, capsys):
        path = tmp_path / "huge.txt.gz"
        path.write_bytes(gzip.compress(b"1000000000000000000 300\na 1 0\n"))
        synsets = tmp_path / "s.tsv"
        synsets.write_text("s\t\ta|b|c\n", encoding="utf-8")
        assert main(["analyze", "--model", str(path), "--synsets", str(synsets)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "truncated" in err
        assert "Traceback" not in err

    def test_trailing_space_and_crlf(self, tmp_path):
        # the original word2vec tool ends every row with a space
        model = load_text_model(write_text(tmp_path, "2 3\na 1 0 0 \nb 0 1 0 \n"))
        assert model.words == ("a", "b")
        np.testing.assert_array_equal(model.vectors, np.eye(3, dtype=np.float32)[:2])
        crlf = tmp_path / "crlf.txt"
        crlf.write_bytes(b"2 3\r\na 1 0 0\r\nb 0 1 0 \r\n")
        np.testing.assert_array_equal(load_text_model(crlf).vectors, model.vectors)

    def test_truncated_file(self, tmp_path):
        path = write_text(tmp_path, "3 2\na 1 0\nb 0 1\n")
        with pytest.raises(ModelFormatError, match="truncated"):
            load_text_model(path)

    def test_scale_invariance(self, tmp_path):
        rng = np.random.default_rng(7)
        raw = rng.standard_normal((6, 4))
        words = [f"w{i}" for i in range(6)]
        paths = []
        for scale, name in ((1.0, "base.txt"), (37.5, "scaled.txt")):
            lines = [f"{len(words)} 4"]
            for w, row in zip(words, raw * scale):
                lines.append(w + " " + " ".join(repr(float(x)) for x in row))
            paths.append(write_text(tmp_path, "\n".join(lines) + "\n", name))
        base, scaled = (load_text_model(p) for p in paths)
        np.testing.assert_allclose(base.vectors, scaled.vectors, atol=1e-5)

    def test_loaded_rows_are_unit_norm(self, tmp_path):
        rng = np.random.default_rng(11)
        raw = rng.standard_normal((20, 8)) * 10
        lines = ["20 8"] + [
            f"w{i} " + " ".join(repr(float(x)) for x in row) for i, row in enumerate(raw)
        ]
        model = load_text_model(write_text(tmp_path, "\n".join(lines) + "\n"))
        norms = np.linalg.norm(model.vectors.astype(np.float64), axis=1)
        assert np.all(np.abs(norms - 1.0) < 1e-5)


class TestLoadBinary:
    def test_empty_file_is_header_error(self, tmp_path):
        path = tmp_path / "empty.bin"
        path.write_bytes(b"")
        with pytest.raises(ModelFormatError, match="header"):
            load_binary_model(path)

    def test_truncated_entry_count(self, tmp_path):
        model = make_model(["a", "b", "c"], np.eye(3))
        full = tmp_path / "full.bin"
        save_binary_model(model, full)
        blob = full.read_bytes()
        truncated = tmp_path / "short.bin"
        truncated.write_bytes(b"5 3\n" + blob.split(b"\n", 1)[1])
        with pytest.raises(ModelFormatError, match="truncated"):
            load_binary_model(truncated)

    def test_truncated_vector_data(self, tmp_path):
        path = tmp_path / "cut.bin"
        path.write_bytes(b"1 3\na " + b"\x00" * 7)
        with pytest.raises(ModelFormatError, match="truncated"):
            load_binary_model(path)

    def test_text_binary_agreement(self, tmp_path):
        rng = np.random.default_rng(3)
        model = make_model([f"w{i}" for i in range(10)], rng.standard_normal((10, 5)))
        tpath, bpath = tmp_path / "m.txt", tmp_path / "m.bin"
        save_text_model(model, tpath)
        save_binary_model(model, bpath)
        from_text = load_text_model(tpath)
        from_binary = load_binary_model(bpath)
        assert from_text.words == from_binary.words == model.words
        np.testing.assert_allclose(
            from_text.vectors, from_binary.vectors, atol=1e-6
        )

    def test_entries_without_trailing_newline(self, tmp_path):
        model = make_model(["a", "b"], [[1.0, 0.0], [0.0, 1.0]])
        packed = tmp_path / "packed.bin"
        with open(packed, "wb") as f:
            f.write(b"2 2\n")
            for word, row in zip(model.words, model.vectors):
                f.write(word.encode() + b" " + row.astype("<f4").tobytes())
        loaded = load_binary_model(packed)
        assert loaded.words == ("a", "b")
        np.testing.assert_array_equal(loaded.vectors, model.vectors)

    def test_duplicate_token_rejected(self, tmp_path):
        path = tmp_path / "dup.bin"
        row = np.array([1.0, 0.0], "<f4").tobytes()
        path.write_bytes(b"2 2\na " + row + b"\na " + row + b"\n")
        with pytest.raises(ModelFormatError, match="duplicate"):
            load_binary_model(path)

    @pytest.mark.filterwarnings("error")
    def test_signaling_nan_is_refused_without_a_warning(self, tmp_path):
        """A float32 signaling NaN (bytes 01 00 80 7f) raises numpy's
        invalid-value warning when widened; the loader reports only the row."""
        path = tmp_path / "snan.bin"
        rows = [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]
        entries = [np.array(r, "<f4").tobytes() for r in rows]
        entries[1] = b"\x01\x00\x80\x7f" + entries[1][4:]
        path.write_bytes(b"3 3\n" + b"".join(
            w + b" " + e + b"\n" for w, e in zip((b"a", b"b", b"c"), entries)
        ))
        with pytest.raises(ModelFormatError, match="non-finite component in row 1"):
            load_binary_model(path)

    def test_header_beyond_the_file_size_is_refused(self, tmp_path):
        path = tmp_path / "huge.bin"
        path.write_bytes(b"1000000000000 300\na " + b"\x00" * 1200)
        with pytest.raises(ModelFormatError, match="truncated: header declares"):
            load_binary_model(path)

    def test_gzip_roundtrip(self, tmp_path):
        model = make_model(["a", "b"], [[1.0, 0.0], [0.0, 1.0]])
        plain = tmp_path / "m.bin"
        save_binary_model(model, plain)
        zipped = tmp_path / "m.bin.gz"
        zipped.write_bytes(gzip.compress(plain.read_bytes()))
        loaded = load_binary_model(zipped)
        np.testing.assert_array_equal(loaded.vectors, model.vectors)


def write_raw_model(path, raw, binary):
    """``raw`` as a word2vec model: repr-exact text, or float32 binary."""
    words = [f"w{i}" for i in range(len(raw))]
    header = f"{raw.shape[0]} {raw.shape[1]}\n"
    if binary:
        path.write_bytes(header.encode() + b"".join(
            w.encode() + b" " + r.astype("<f4").tobytes() + b"\n" for w, r in zip(words, raw)
        ))
    else:
        path.write_text(header + "".join(
            w + " " + " ".join(repr(float(x)) for x in r) + "\n" for w, r in zip(words, raw)
        ), encoding="utf-8")
    return words


class TestBlocks:
    """The loader normalizes its rows block by block; a model larger than
    one block loads as if normalized in one piece."""

    ROWS = _BLOCK_ROWS + 100

    @pytest.mark.parametrize("binary", [False, True])
    def test_rows_past_one_block_match_a_whole_array_normalization(self, tmp_path, binary):
        rng = np.random.default_rng(90)
        raw = rng.standard_normal((self.ROWS, 6)) * rng.uniform(0.01, 100, (self.ROWS, 1))
        path = tmp_path / ("m.bin" if binary else "m.txt")
        words = write_raw_model(path, raw, binary)
        raw64 = raw.astype(np.float32).astype(np.float64) if binary else raw
        expected = (raw64 / np.linalg.norm(raw64, axis=1, keepdims=True)).astype(np.float32)
        model = (load_binary_model if binary else load_text_model)(path)
        assert model.words == tuple(words)
        assert np.array_equal(model.vectors, expected)

    @pytest.mark.parametrize("binary", [False, True])
    @pytest.mark.parametrize(
        "value, message", [(np.nan, "non-finite component"), (0.0, "zero-norm")]
    )
    def test_bad_rows_in_the_second_block_report_their_global_row(
        self, tmp_path, binary, value, message
    ):
        raw = np.ones((self.ROWS, 3))
        bad_row = _BLOCK_ROWS + 37
        raw[bad_row] = value
        path = tmp_path / ("m.bin" if binary else "m.txt")
        write_raw_model(path, raw, binary)
        with pytest.raises(ModelFormatError, match=f"{message}.* in row {bad_row}\\b"):
            (load_binary_model if binary else load_text_model)(path)

    @pytest.mark.parametrize(
        "components, message",
        [
            ("1 1", "expected token plus 3 components, found 2"),
            ("1 one 1", "unparseable component"),
            ("1 1\x1c 1", "unparseable component"),  # whitespace to str.strip(), not float()
            (None, "expected token plus 3 components, found 0"),  # a blank line
        ],
    )
    def test_bad_lines_in_the_second_block_report_their_global_line(
        self, tmp_path, components, message
    ):
        path = tmp_path / "m.txt"
        write_raw_model(path, np.ones((self.ROWS, 3)), binary=False)
        lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
        entry = _BLOCK_ROWS + 37
        lines[entry + 1] = "\n" if components is None else f"w{entry} {components}\n"
        path.write_text("".join(lines), encoding="utf-8")
        with pytest.raises(ModelFormatError, match=f": line {entry + 2}: {message}$"):
            load_text_model(path)

    @pytest.mark.parametrize("spelling, value", [("1_0", 10.0), ("\u0661", 1.0)])
    def test_a_spelling_only_float_accepts_loads_in_the_second_block(
        self, tmp_path, spelling, value
    ):
        raw = np.random.default_rng(92).standard_normal((self.ROWS, 3))
        path = tmp_path / "m.txt"
        words = write_raw_model(path, raw, binary=False)
        lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
        entry = _BLOCK_ROWS + 37
        lines[entry + 1] = f"w{entry} {spelling} {float(raw[entry, 1])!r} {float(raw[entry, 2])!r}\n"
        path.write_text("".join(lines), encoding="utf-8")
        raw[entry, 0] = value
        expected = (raw / np.linalg.norm(raw, axis=1, keepdims=True)).astype(np.float32)
        model = load_text_model(path)
        assert model.words == tuple(words)
        assert np.array_equal(model.vectors, expected)

    def test_load_peak_memory_stays_near_the_loaded_model(self, tmp_path):
        # a float64 matrix of the whole vocabulary, normalized in one piece,
        # peaks at almost 4x what this model keeps
        rng = np.random.default_rng(91)
        path = tmp_path / "m.txt"
        write_raw_model(path, rng.standard_normal((2 * _BLOCK_ROWS + 1, 24)), binary=False)
        tracemalloc.start()
        try:
            model = load_text_model(path)
            kept, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert model.vectors.nbytes <= kept
        assert peak <= 3 * kept


def reference_text_entry(fin, path, i, dimension):
    """A text line through text-mode ``readline``, with one ``float()`` per
    component."""
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


def reference_binary_entry(fin, path, i, dimension):
    """A binary entry with its token read one byte at a time."""
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
    return token, np.frombuffer(chunk, "<f4")


def reference_load(path, binary=False):
    """The loader one entry at a time, reading a text model in text mode and
    a binary one a byte at a time: the same checks in the same order, with
    the same messages."""
    read_entry = reference_binary_entry if binary else reference_text_entry
    with open(path, "rb" if binary else "r", encoding=None if binary else "utf-8") as fin:
        line = fin.readline(_MAX_HEADER_BYTES)
        if binary:
            line = line.decode("ascii", errors="replace")
        vocab_size, dimension = _parse_header(line, str(path), binary)
        words, rows = [], []
        for i in range(vocab_size):
            entry = read_entry(fin, path, i, dimension)
            if entry is None:
                raise ModelFormatError(
                    f"{path}: truncated: expected {vocab_size} entries, found {i}"
                )
            words.append(entry[0])
            rows.append(entry[1])
            if len(rows) % _BLOCK_ROWS and i < vocab_size - 1:
                continue
            first = (len(rows) - 1) // _BLOCK_ROWS * _BLOCK_ROWS
            block = np.array(rows[first:], dtype=np.float64)
            finite = np.isfinite(block).all(axis=1)
            if not finite.all():
                row = first + int(np.argmin(finite))
                raise ModelFormatError(f"{path}: non-finite component in row {row}")
            with np.errstate(over="ignore"):
                norms = np.linalg.norm(block, axis=1, keepdims=True)
            usable = (norms[:, 0] > 1e-12) & np.isfinite(norms[:, 0])
            if not usable.all():
                row = first + int(np.argmin(usable))
                raise ModelFormatError(
                    f"{path}: zero-norm or overflowing vector in row {row} (cannot normalize)"
                )
    raw = np.array(rows, dtype=np.float64)
    norms = np.linalg.norm(raw, axis=1, keepdims=True)
    return EmbeddingModel(words, (raw / norms).astype(np.float32))


def assert_loads_as_the_reference(path, binary=False):
    """The loader's words and vectors bit-identical to the reference's, or
    the same ModelFormatError."""
    try:
        expected = reference_load(path, binary)
    except ModelFormatError as exc:
        with pytest.raises(ModelFormatError) as raised:
            loader_for(binary)(path)
        assert str(raised.value) == str(exc)
        return
    model = loader_for(binary)(path)
    assert model.words == expected.words
    assert model.vectors.tobytes() == expected.vectors.tobytes()


# edge-case spellings float() accepts or refuses; whitespace ending a line
SPELLINGS = ["1_0", "\u0661", "+1", ".5", "2.", "1E2", "nan", "1e400", "-0", "0",
             "1\x1c", "1\u3000", "one", ""]
LINE_ENDS = ["", " ", "\t", "\u3000", "\x85", "\xa0 ", "\x1f"]
NEWLINES = ["\n", "\r\n", "\r"]
FIELDS = st.sampled_from(SPELLINGS) | st.floats().map(repr)
TOKENS = st.text(alphabet='ab#"_\u0431\u00e9\u8a9e\U0001d7d0', min_size=1, max_size=3)


@pytest.mark.filterwarnings("error")
@settings(max_examples=40, deadline=None)
@given(
    dimension=st.integers(1, 4),
    rows=st.sampled_from([1, 5, _BLOCK_ROWS + 3]),
    declared_extra=st.sampled_from([0, 0, 0, 1]),
    seed=st.integers(0, 2**31 - 1),
    data=st.data(),
)
def test_text_loader_matches_a_per_line_float_reference(
    tmp_path_factory, dimension, rows, declared_extra, seed, data
):
    """Bit-identical words and vectors, or the same ModelFormatError, and
    no warning."""
    raw = np.random.default_rng(seed).standard_normal((rows, dimension))
    lines = [f"f{i} " + " ".join(repr(float(x)) for x in r) + "\n" for i, r in enumerate(raw)]
    for _ in range(data.draw(st.integers(0, 4), label="odd lines")):
        position = data.draw(st.integers(0, rows - 1), label="position")
        token = data.draw(TOKENS, label="token")
        width = data.draw(st.sampled_from([dimension] * 4 + [dimension - 1, dimension + 1]))
        components = data.draw(st.lists(FIELDS, min_size=width, max_size=width))
        end = data.draw(st.sampled_from(LINE_ENDS + NEWLINES[1:]), label="line end")
        lines[position] = " ".join([token, *components]) + end + "\n"
    path = tmp_path_factory.mktemp("differential") / "m.txt"
    path.write_text(f"{rows + declared_extra} {dimension}\n" + "".join(lines), encoding="utf-8")
    assert_loads_as_the_reference(path)


@pytest.mark.parametrize("header", [
    "2 3\r\n", "2 3\r", "\ufeff2 3\n", "\u0662 \u0663\n", "\U0001d7d0\U0001d7d2 3\n",
    "2 3".ljust(127) + "\n", "2 3".ljust(128) + "\n",
    "2 3".ljust(126) + "\r\n", "2 3".ljust(127) + "\r\n",
    "2 3" + "\u3000" * 124 + "\n", "2 3" + "\u3000" * 125 + "\n",
    "\U0001d7ce" * 124 + "2 3\n", "\U0001d7ce" * 125 + "2 3\n", "\U0001d7ce" * 200 + "2 3\n",
    "2 3" + "\xa0" * 124 + "\n", "2 3", "",
])
def test_text_header_matches_the_text_mode_reference(tmp_path, header):
    """The header is one text-mode line: universal newlines, at most 128
    characters, ``int()``'s digits, and a byte-order mark kept."""
    path = tmp_path / "m.txt"
    path.write_text(header + "a 1 0 0\nb 0 1 0\n", encoding="utf-8", newline="")
    assert_loads_as_the_reference(path)


@pytest.mark.filterwarnings("error")
@settings(max_examples=60, deadline=None)
@given(chunk=st.sampled_from([1, 2, 3, 7]), dimension=st.integers(1, 3), data=st.data())
def test_text_lines_across_chunk_ends_load_as_the_reference(chunk, dimension, data):
    """With chunks of a few bytes, \\r\\n pairs, multi-byte characters and
    whole lines straddle chunk ends."""
    rows = data.draw(st.integers(1, 6), label="rows")
    newline = st.sampled_from(NEWLINES)
    lines = [f"{rows} {dimension}" + data.draw(newline, label="header end")]
    for _ in range(rows):
        width = data.draw(st.sampled_from([dimension] * 4 + [dimension - 1, dimension + 1]))
        components = data.draw(st.lists(FIELDS, min_size=width, max_size=width))
        end = data.draw(st.sampled_from(LINE_ENDS), label="line end")
        lines.append(" ".join([data.draw(TOKENS), *components]) + end + data.draw(newline))
    if data.draw(st.booleans(), label="no final newline"):
        lines[-1] = lines[-1].rstrip("\r\n")
    with tempfile.TemporaryDirectory() as tmp:
        path = pathlib.Path(tmp) / "m.txt"
        path.write_text("".join(lines), encoding="utf-8", newline="")
        with mock.patch.object(embeddings, "_CHUNK_BYTES", chunk):
            assert_loads_as_the_reference(path)


@pytest.mark.filterwarnings("error")
@settings(max_examples=60, deadline=None)
@given(chunk=st.sampled_from([1, 2, 3, 7, 1 << 16]), dimension=st.integers(1, 3), data=st.data())
def test_binary_entries_across_chunk_ends_load_as_the_reference(chunk, dimension, data):
    """Tokens found in the buffer agree with tokens read a byte at a time:
    runs of leading newlines, multi-byte and invalid UTF-8, tokens at and
    past the length limit, and files cut anywhere."""
    rows = data.draw(st.integers(1, 5), label="rows")
    token = st.sampled_from([b"a", b"\xd0\xb1\xc3\xa9", b"a\nb", b"w\xff",
                             b"t" * _MAX_TOKEN_BYTES, b"t" * (_MAX_TOKEN_BYTES + 1)])
    blob = f"{rows} {dimension}\n".encode()
    for i in range(rows):
        values = data.draw(st.lists(st.sampled_from(BINARY_COMPONENTS + [1.0]),
                                    min_size=dimension, max_size=dimension))
        blob += b"\n" * data.draw(st.integers(0, 3), label="leading newlines")
        # the entry number keeps later tokens unique (and one byte longer)
        blob += data.draw(token, label="token") + str(i).encode() * (i > 0) + b" "
        blob += np.array(values, "<f4").tobytes()
    blob = blob[: data.draw(st.integers(0, len(blob)), label="length")]
    with tempfile.TemporaryDirectory() as tmp:
        path = pathlib.Path(tmp) / "m.bin"
        path.write_bytes(blob)
        with mock.patch.object(embeddings, "_CHUNK_BYTES", chunk):
            assert_loads_as_the_reference(path, binary=True)


class TestDecodingPolicy:
    """A text model is decoded line by line, in file order, and only as far
    as its last declared entry."""

    def test_a_shape_error_before_invalid_utf8_wins(self, tmp_path):
        path = tmp_path / "m.txt"
        path.write_bytes(b"3 2\na 1 0\nb 1\nc\xff 0 1\n")
        with pytest.raises(ModelFormatError, match=": line 3: expected token plus 2"):
            load_text_model(path)
        for damaged in (b"3 2\na 1 0\nb\xff 1\nc 1\n", b"3 2\na 1 0\nb 1 \xff\nc 1\n"):
            path.write_bytes(damaged)
            with pytest.raises(ModelFormatError, match="not valid UTF-8 text"):
                load_text_model(path)

    @pytest.mark.parametrize("keys", [None, {"a"}])
    def test_bytes_after_the_last_declared_entry_are_never_decoded(self, tmp_path, keys):
        path = tmp_path / "m.txt"
        path.write_bytes(b"2 2\na 1 0\nb 0 1\n\xff\xfe trailing bytes\n")
        assert load_text_model(path, keys=keys).words == (("a", "b") if keys is None else ("a",))


KEY_ROWS = _BLOCK_ROWS + 100
KEPT_ROW = _BLOCK_ROWS + 50
UNUSED_ROW = _BLOCK_ROWS + 37
KEYS = frozenset({"w3", f"w{KEPT_ROW}", "absent"})


def write_damaged(path, binary, damage=None, row=UNUSED_ROW):
    """A ``KEY_ROWS``x3 model, text or binary, with one damaged row (the
    final one for "truncated")."""
    raw = np.random.default_rng(93).standard_normal((KEY_ROWS, 3))
    words = [f"w{i}".encode() for i in range(KEY_ROWS)]
    if damage == "nan":
        raw[row, 1] = np.nan
    elif damage == "zero":
        raw[row] = 0.0
    elif damage == "duplicate":
        words[row] = words[row - 1]
    elif damage == "utf8":
        words[row] = b"w\xff"
    if binary:
        entries = [w + b" " + r.astype("<f4").tobytes() + b"\n" for w, r in zip(words, raw)]
    else:
        entries = [
            w + b" " + " ".join(repr(float(x)) for x in r).encode() + b"\n"
            for w, r in zip(words, raw)
        ]
    if damage == "unparseable":
        entries[row] = words[row] + b" 1 one 1\n"
    elif damage == "columns":
        entries[row] = words[row] + b" 1 1\n"
    elif damage == "utf8-components":
        entries[row] = words[row] + b" 1 \xff1 1\n"
    elif damage == "truncated":
        entries[-1] = entries[-1][:-5] if binary else b""
    path.write_bytes(f"{KEY_ROWS} 3\n".encode() + b"".join(entries))
    return path


def model_file(tmp_path, binary, name="m"):
    return tmp_path / (f"{name}.bin" if binary else f"{name}.txt")


def loader_for(binary):
    return load_binary_model if binary else load_text_model


FORMATS = pytest.mark.parametrize("binary", [False, True], ids=["text", "binary"])


def damages(*names, text_only=()):
    """(binary, damage) parameters: every damage for text, and those a
    binary entry can hold for binary."""
    return pytest.mark.parametrize("binary, damage", [
        pytest.param(binary, name, id=f"{'binary' if binary else 'text'}-{name}")
        for binary in (False, True)
        for name in names + text_only
        if not (binary and name in text_only)
    ])


class TestKeys:
    """A load limited to a key set checks every row's shape, but parses,
    checks and keeps only the rows whose token is a key."""

    @damages("nan", "zero", text_only=("unparseable",))
    def test_component_damage_in_an_unused_row_loads(self, tmp_path, binary, damage):
        load = loader_for(binary)
        path = write_damaged(model_file(tmp_path, binary), binary, damage)
        with pytest.raises(ModelFormatError):
            load(path)
        model = load(path, keys=KEYS)
        clean = load(write_damaged(model_file(tmp_path, binary, "clean"), binary))
        assert model.words == ("w3", f"w{KEPT_ROW}")
        assert model.vocab_size == len(model) == 2
        kept = clean.vectors[[clean.index[w] for w in model.words]]
        assert model.vectors.tobytes() == kept.tobytes()

    @damages("nan", "zero", text_only=("unparseable",))
    def test_component_damage_in_a_kept_row_fails_as_a_full_load(self, tmp_path, binary, damage):
        message = {
            "nan": f"non-finite component in row {KEPT_ROW}$",
            "zero": f"zero-norm or overflowing vector in row {KEPT_ROW} ",
            "unparseable": f": line {KEPT_ROW + 2}: unparseable component$",
        }[damage]
        load = loader_for(binary)
        path = write_damaged(model_file(tmp_path, binary), binary, damage, row=KEPT_ROW)
        with pytest.raises(ModelFormatError, match=message) as full:
            load(path)
        with pytest.raises(ModelFormatError) as keyed:
            load(path, keys=KEYS)
        assert str(keyed.value) == str(full.value)

    @damages("duplicate", "utf8", "truncated", text_only=("columns", "utf8-components"))
    def test_shape_damage_in_an_unused_row_still_fails(self, tmp_path, binary, damage):
        load = loader_for(binary)
        path = write_damaged(model_file(tmp_path, binary), binary, damage)
        with pytest.raises(ModelFormatError) as full:
            load(path)
        with pytest.raises(ModelFormatError) as keyed:
            load(path, keys=KEYS)
        assert str(keyed.value) == str(full.value)

    def test_an_error_in_a_kept_line_comes_before_a_later_shape_error(self, tmp_path):
        path = tmp_path / "m.txt"
        path.write_text("3 2\na 1 one\nb 1 1\nc 1\n", encoding="utf-8")
        for keys in (None, {"a"}):
            with pytest.raises(ModelFormatError, match=": line 2: unparseable component$"):
                load_text_model(path, keys=keys)
        with pytest.raises(ModelFormatError, match=": line 4: expected token plus 2"):
            load_text_model(path, keys={"b"})

    @FORMATS
    def test_no_key_in_the_model_loads_an_empty_model(self, tmp_path, binary):
        path = write_damaged(model_file(tmp_path, binary), binary)
        model = loader_for(binary)(path, keys={"absent"})
        assert model.words == () and model.vectors.shape == (0, 3)


def repaired(lines, keys, dimension):
    """``(originals, repaired)``: the text lines, and the lines with every
    well-shaped line whose token is not a key given valid components.  A
    key-filtered load must read the first exactly as a full load reads the
    second.  Each pair of lines is padded with trailing spaces, which the
    loader ignores, to one byte length, so that the header's size check
    sees two files of one size."""
    originals, out = [], []
    for line in lines:
        fixed = line
        try:
            stripped = line.decode("utf-8").rstrip()
        except UnicodeDecodeError:
            pass
        else:
            token = stripped.split(" ")[0]
            if stripped.count(" ") == dimension and token not in keys:
                fixed = (token + " 1" * dimension + "\n").encode()
        width = max(len(line), len(fixed)) - 1
        originals.append(line[:-1].ljust(width) + b"\n")
        out.append(fixed[:-1].ljust(width) + b"\n")
    return originals, out


def repaired_entries(entries, keys, dimension):
    """``repaired`` for binary (token, components) entries."""
    out = []
    for token, components in entries:
        try:
            unused = token.decode("utf-8") not in keys
        except UnicodeDecodeError:
            unused = False
        out.append((token, np.ones(dimension, "<f4").tobytes() if unused else components))
    return out


BINARY_COMPONENTS = [np.nan, np.inf, 0.0, 1e30, -2.5]


@FORMATS
@pytest.mark.filterwarnings("error")
@settings(max_examples=40, deadline=None)
@given(
    dimension=st.integers(1, 4),
    rows=st.sampled_from([1, 5, _BLOCK_ROWS + 3]),
    seed=st.integers(0, 2**31 - 1),
    data=st.data(),
)
def test_key_filtered_load_matches_the_full_load_on_the_kept_rows(
    tmp_path_factory, binary, dimension, rows, seed, data
):
    """The words and vectors of a full load that are keys, in file order and
    bit-identical, or the same ModelFormatError, whenever the failure lies in
    a kept row or in any row's shape.  Damage in other rows' components is
    taken out of the full load's file ("repaired"), since the key-filtered
    load never parses it."""
    raw = np.random.default_rng(seed).standard_normal((rows, dimension))
    tokens = [f"f{i}".encode() for i in range(rows)]
    for _ in range(data.draw(st.integers(0, 2), label="odd tokens")):
        position = data.draw(st.integers(0, rows - 1), label="token position")
        tokens[position] = data.draw(
            st.sampled_from([b"f0", b"f1", b"a#", b'"b', b"w\xff"]), label="token"
        )
    if binary:
        components = [r.astype("<f4").tobytes() for r in raw]
        for _ in range(data.draw(st.integers(0, 4), label="odd rows")):
            position = data.draw(st.integers(0, rows - 1), label="position")
            values = data.draw(st.lists(st.sampled_from(BINARY_COMPONENTS),
                                        min_size=dimension, max_size=dimension))
            components[position] = np.array(values, "<f4").tobytes()
        entries = list(zip(tokens, components))
    else:
        lines = [" ".join(repr(float(x)) for x in r) for r in raw]
        for _ in range(data.draw(st.integers(0, 4), label="odd lines")):
            position = data.draw(st.integers(0, rows - 1), label="position")
            width = data.draw(st.sampled_from([dimension] * 4 + [dimension - 1, dimension + 1]))
            fields = data.draw(st.lists(FIELDS, min_size=width, max_size=width))
            lines[position] = " ".join(fields) + data.draw(st.sampled_from(LINE_ENDS))
        lines = [t + b" " + line.encode() + b"\n" for t, line in zip(tokens, lines)]
    words = [t.decode() for t in tokens if b"\xff" not in t] + ["absent"]
    if data.draw(st.booleans(), label="every token a key"):
        keys = set(words)
    else:
        keys = set(data.draw(st.lists(st.sampled_from(words), max_size=8), label="keys"))
    declared_extra = data.draw(st.sampled_from([0, 0, 0, 1]), label="declared extra")
    cut = data.draw(st.sampled_from([0, 0, 0, 3]), label="bytes cut") if binary else 0

    def blob(rows_bytes):
        content = f"{rows + declared_extra} {dimension}\n".encode() + b"".join(rows_bytes)
        return content[: len(content) - cut]

    if binary:
        original = blob(t + b" " + c + b"\n" for t, c in entries)
        reference = blob(t + b" " + c + b"\n" for t, c in repaired_entries(entries, keys, dimension))
    else:
        originals, fixed = repaired(lines, keys, dimension)
        original, reference = blob(originals), blob(fixed)
    # one path, so that messages name the same file
    path = model_file(tmp_path_factory.mktemp("keys"), binary)
    load = loader_for(binary)
    path.write_bytes(reference)
    try:
        full = load(path)
    except ModelFormatError as exc:
        path.write_bytes(original)
        with pytest.raises(ModelFormatError) as raised:
            load(path, keys=keys)
        assert str(raised.value) == str(exc)
        return
    path.write_bytes(original)
    model = load(path, keys=keys)
    kept = [i for i, word in enumerate(full.words) if word in keys]
    assert model.words == tuple(full.words[i] for i in kept)
    assert model.vectors.tobytes() == full.vectors[kept].tobytes()


class TestGzipDamage:
    """A damaged gzip stream is a ModelFormatError for both loaders."""

    @pytest.fixture(params=["txt", "bin"])
    def gz_model(self, request, tmp_path):
        model = make_model([f"w{i}" for i in range(40)], np.eye(40)[:, :8] + 0.1)
        plain = tmp_path / f"m.{request.param}"
        (save_text_model if request.param == "txt" else save_binary_model)(model, plain)
        loader = load_text_model if request.param == "txt" else load_binary_model
        return gzip.compress(plain.read_bytes()), loader, tmp_path / f"cut.{request.param}.gz"

    def test_truncated_stream(self, gz_model):
        blob, loader, path = gz_model
        path.write_bytes(blob[: len(blob) // 2])
        with pytest.raises(ModelFormatError, match="gzip"):
            loader(path)

    def test_corrupt_stream(self, gz_model):
        blob, loader, path = gz_model
        damaged = bytearray(blob)
        damaged[len(blob) // 2 : len(blob) // 2 + 8] = b"\xff" * 8
        path.write_bytes(bytes(damaged))
        with pytest.raises(ModelFormatError):
            loader(path)

    def test_not_a_gzip_file(self, gz_model):
        _, loader, path = gz_model
        path.write_bytes(b"2 2\na 1 0\nb 0 1\n")
        with pytest.raises(ModelFormatError, match="gzip"):
            loader(path)


class TestVocabulary:
    @pytest.fixture
    def model(self, tmp_path):
        return load_text_model(write_text(tmp_path, "2 3\na 1 0 0\nb 0 2 0\n"))

    def test_lookup_hit(self, model):
        assert model.words[model.index["a"]] == "a"
        np.testing.assert_array_equal(row(model, "a"), [1, 0, 0])

    def test_lookup_miss_is_none(self, model):
        assert model.index.get("missing") is None

    def test_lookup_is_case_sensitive(self, model):
        assert model.index.get("A") is None
        assert "a" in model.index and "A" not in model.index


class TestCosine:
    """Two one-word blocks compare as the cosine of their words."""

    def test_identical(self):
        assert block_sim([[1, 0]], [[1, 0]]) == 1.0

    def test_orthogonal(self):
        assert block_sim([[1, 0]], [[0, 1]]) == 0.0

    def test_antipodal(self):
        assert block_sim([[1, 0]], [[-1, 0]]) == -1.0

    @given(st.integers(2, 8), st.integers(0, 2**31 - 1))
    def test_symmetry_and_range(self, dim, seed):
        rng = np.random.default_rng(seed)
        a, b = unit_rows(rng, 2, dim)
        # the engine sums the pair in synset order, so the swap agrees to rounding
        assert block_sim([a], [b]) == pytest.approx(block_sim([b], [a]), abs=1e-12)
        assert -1.0 <= block_sim([a], [b]) <= 1.0

    def test_self_similarity_never_exceeds_one(self):
        rng = np.random.default_rng(5)
        for r in unit_rows(rng, 50, 300):
            assert block_sim([r], [r]) <= 1.0


class TestNormalizedMean:
    """A block's direction is the normalized sum of its words."""

    def test_singleton(self):
        assert block_sim([[1, 0]], [[0.6, 0.8]]) == pytest.approx(0.6, abs=1e-7)

    def test_two_axes(self):
        diagonal = [math.sqrt(2) / 2] * 2
        assert block_sim([[1, 0], [0, 1]], [diagonal]) == pytest.approx(1.0, abs=1e-12)

    def test_cancellation_is_an_error(self):
        with pytest.raises(DegenerateGeometryError, match="sums to zero"):
            block_sim([[1, 0], [-1, 0]], [[0, 1]])


class TestSetSimilarity:
    def test_identical_singletons(self):
        assert block_sim([[0, 1, 0]], [[0, 1, 0]]) == 1.0

    def test_orthogonal_singletons(self):
        s = math.sqrt(0.5)
        assert block_sim([[s, s, 0]], [[s, -s, 0]]) == 0.0

    def test_pair_vs_singleton(self):
        assert block_sim([[1, 0], [0, 1]], [[1, 0]]) == pytest.approx(
            math.sqrt(2) / 2, abs=1e-12
        )

    def test_singleton_reduction_exact_on_exact_unit_vectors(self):
        # axis-like vectors have exactly representable unit norm
        a, b = [0, 1, 0], [-1, 0, 0]
        assert block_sim([a], [b]) == float(np.dot(a, b))

    @given(st.integers(2, 8), st.integers(0, 2**31 - 1))
    def test_singleton_reduction_close_in_general(self, dim, seed):
        rng = np.random.default_rng(seed)
        a, b = unit_rows(rng, 2, dim)
        assert block_sim([a], [b]) == pytest.approx(float(np.dot(a, b)), abs=1e-6)

    @given(st.integers(2, 6), st.integers(1, 4), st.integers(1, 4), st.integers(0, 2**31 - 1))
    def test_symmetry(self, dim, na, nb, seed):
        rng = np.random.default_rng(seed)
        A = list(unit_rows(rng, na, dim))
        B = list(unit_rows(rng, nb, dim))
        assert block_sim(A, B) == pytest.approx(block_sim(B, A), abs=1e-12)


class TestModelConstruction:
    def test_rejects_non_unit_rows(self):
        with pytest.raises(ValueError, match="unit length"):
            EmbeddingModel(["a"], np.array([[3.0, 4.0]], np.float32))

    def test_rejects_shape_mismatch(self):
        with pytest.raises(ValueError):
            EmbeddingModel(["a", "b"], np.array([[1.0, 0.0]], np.float32))

    def test_word_vector_rejects_non_unit(self):
        # a resolved synset validates its word vectors once, at construction
        for bad in ([1.0, 1.0], [np.nan, 0.0]):
            with pytest.raises(ValueError, match="unit length"):
                ResolvedSynset("s", ("a", "b"), ("a", "b"), [[1.0, 0.0], bad], 2)

    def test_vectors_are_read_only(self):
        model = make_model(["a"], [[1.0, 0.0]])
        with pytest.raises(ValueError):
            model.vectors[0, 0] = 5.0
