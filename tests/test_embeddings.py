"""Model loading and serialization, and the block similarity the engine
computes from the loaded vectors."""

import gzip
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, strategies as st

from synsetgeom import (
    DegenerateGeometryError,
    EmbeddingModel,
    ModelFormatError,
    ResolvedSynset,
    load_binary_model,
    load_text_model,
)
from synsetgeom.cli import main
from synsetgeom.embeddings import _BLOCK_ROWS

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

    def test_wrong_component_count(self, tmp_path):
        path = write_text(tmp_path, "1 3\na 1 0\n")
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
        assert "a" in model and "A" not in model


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
