"""Model loading, serialization, and the similarity primitives."""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from synsetgeom import (
    DegenerateGeometryError,
    EmbeddingModel,
    ModelFormatError,
    WordVector,
    cosine,
    load_binary_model,
    load_text_model,
    normalized_mean,
    save_binary_model,
    save_text_model,
    set_similarity,
)

from synth import make_model, unit_rows


def write_text(tmp_path, content, name="model.txt"):
    path = tmp_path / name
    path.write_text(content, encoding="utf-8")
    return path


class TestLoadText:
    def test_axis_vectors_are_normalized(self, tmp_path):
        model = load_text_model(write_text(tmp_path, "2 3\na 1 0 0\nb 0 2 0\n"))
        assert model.vocab_size == 2
        assert model.dimension == 3
        np.testing.assert_array_equal(model.vector("a").components, [1, 0, 0])
        np.testing.assert_array_equal(model.vector("b").components, [0, 1, 0])

    def test_3_4_5_normalization(self, tmp_path):
        model = load_text_model(write_text(tmp_path, "1 2\nx 3 4\n"))
        np.testing.assert_allclose(
            model.vector("x").components, [0.6, 0.8], atol=1e-7
        )

    def test_duplicate_token_rejected(self, tmp_path):
        path = write_text(tmp_path, "2 2\na 1 0\na 0 1\n")
        with pytest.raises(ModelFormatError, match="duplicate"):
            load_text_model(path)

    def test_malformed_header(self, tmp_path):
        for header in ("", "2", "two 3", "2 3 4", "-1 3", "0 3", "2 0"):
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

    def test_gzip_roundtrip(self, tmp_path):
        import gzip

        model = make_model(["a", "b"], [[1.0, 0.0], [0.0, 1.0]])
        plain = tmp_path / "m.bin"
        save_binary_model(model, plain)
        zipped = tmp_path / "m.bin.gz"
        zipped.write_bytes(gzip.compress(plain.read_bytes()))
        loaded = load_binary_model(zipped)
        np.testing.assert_array_equal(loaded.vectors, model.vectors)


class TestVocabulary:
    @pytest.fixture
    def model(self, tmp_path):
        return load_text_model(write_text(tmp_path, "2 3\na 1 0 0\nb 0 2 0\n"))

    def test_lookup_hit(self, model):
        wv = model.vector("a")
        assert wv.token == "a"
        np.testing.assert_array_equal(wv.components, [1, 0, 0])

    def test_lookup_miss_is_none(self, model):
        assert model.vector("missing") is None

    def test_lookup_is_case_sensitive(self, model):
        assert model.vector("A") is None
        assert "a" in model and "A" not in model


class TestCosine:
    def test_identical(self):
        assert cosine(WordVector("a", [1, 0]), WordVector("b", [1, 0])) == 1.0

    def test_orthogonal(self):
        assert cosine(WordVector("a", [1, 0]), WordVector("b", [0, 1])) == 0.0

    def test_antipodal(self):
        assert cosine(WordVector("a", [1, 0]), WordVector("b", [-1, 0])) == -1.0

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="dimension"):
            cosine(WordVector("a", [1, 0]), WordVector("b", [1, 0, 0]))

    @given(st.integers(2, 8), st.integers(0, 2**31 - 1))
    def test_symmetry_and_range(self, dim, seed):
        rng = np.random.default_rng(seed)
        a, b = unit_rows(rng, 2, dim)
        wa, wb = WordVector("a", a), WordVector("b", b)
        assert cosine(wa, wb) == cosine(wb, wa)
        assert -1.0 <= cosine(wa, wb) <= 1.0

    def test_self_similarity_never_exceeds_one(self):
        rng = np.random.default_rng(5)
        for row in unit_rows(rng, 50, 300):
            wv = WordVector("w", row)
            assert cosine(wv, wv) <= 1.0


class TestNormalizedMean:
    def test_singleton(self):
        np.testing.assert_array_equal(
            normalized_mean([WordVector("a", [1, 0])]), [1, 0]
        )

    def test_two_axes(self):
        np.testing.assert_allclose(
            normalized_mean([WordVector("a", [1, 0]), WordVector("b", [0, 1])]),
            [math.sqrt(2) / 2] * 2,
            atol=1e-12,
        )

    def test_cancellation_is_an_error(self):
        with pytest.raises(DegenerateGeometryError, match="cancel"):
            normalized_mean([WordVector("a", [1, 0]), WordVector("b", [-1, 0])])

    def test_empty_set_rejected(self):
        with pytest.raises(ValueError):
            normalized_mean([])


class TestSetSimilarity:
    def test_identical_singletons(self):
        a = [WordVector("a", [1, 0])]
        assert set_similarity(a, [WordVector("b", [1, 0])]) == 1.0

    def test_orthogonal_singletons(self):
        assert set_similarity([WordVector("a", [1, 0])], [WordVector("b", [0, 1])]) == 0.0

    def test_pair_vs_singleton(self):
        a = [WordVector("a", [1, 0]), WordVector("b", [0, 1])]
        b = [WordVector("c", [1, 0])]
        assert set_similarity(a, b) == pytest.approx(math.sqrt(2) / 2, abs=1e-12)

    def test_singleton_reduction_exact_on_exact_unit_vectors(self):
        # axis-like vectors have exactly representable unit norm, so the
        # normalized mean divides by exactly 1.0
        a, b = WordVector("a", [0, 1, 0]), WordVector("b", [-1, 0, 0])
        assert set_similarity([a], [b]) == cosine(a, b)

    @given(st.integers(2, 8), st.integers(0, 2**31 - 1))
    def test_singleton_reduction_close_in_general(self, dim, seed):
        rng = np.random.default_rng(seed)
        a, b = (WordVector(t, r) for t, r in zip("ab", unit_rows(rng, 2, dim)))
        assert set_similarity([a], [b]) == pytest.approx(cosine(a, b), abs=1e-6)

    @given(st.integers(2, 6), st.integers(1, 4), st.integers(1, 4), st.integers(0, 2**31 - 1))
    def test_symmetry(self, dim, na, nb, seed):
        rng = np.random.default_rng(seed)
        A = [WordVector(f"a{i}", r) for i, r in enumerate(unit_rows(rng, na, dim))]
        B = [WordVector(f"b{i}", r) for i, r in enumerate(unit_rows(rng, nb, dim))]
        assert set_similarity(A, B) == set_similarity(B, A)


class TestModelConstruction:
    def test_rejects_non_unit_rows(self):
        with pytest.raises(ValueError, match="unit length"):
            EmbeddingModel(["a"], np.array([[3.0, 4.0]], np.float32))

    def test_rejects_shape_mismatch(self):
        with pytest.raises(ValueError):
            EmbeddingModel(["a", "b"], np.array([[1.0, 0.0]], np.float32))

    def test_word_vector_rejects_non_unit(self):
        with pytest.raises(ValueError, match="unit length"):
            WordVector("a", [1.0, 1.0])

    def test_vectors_are_read_only(self):
        model = make_model(["a"], [[1.0, 0.0]])
        with pytest.raises(ValueError):
            model.vectors[0, 0] = 5.0
