"""Synset file parsing and OOV resolution policies."""

import codecs
import json

import numpy as np
import pytest

from synsetgeom import (
    EmbeddingModel,
    OovPolicy,
    RawSynset,
    ResolutionError,
    SynsetParseError,
    candidate_keys,
    parse_synsets,
    resolve,
)
from synsetgeom.ingestion import (
    STATUS_RESOLVED,
    STATUS_SKIPPED,
    STATUS_TOO_SMALL,
    SYNSET_FORMATS,
)

from synth import make_model


def write(tmp_path, content, name):
    path = tmp_path / name
    path.write_text(content, encoding="utf-8")
    return path


@pytest.fixture
def model():
    words = [
        "замечательно",
        "отлично",
        "прекрасно",
        "бой_NOUN",
        "битва_NOUN",
        "сражение_NOUN",
        "mixed",
        "upper",
    ]
    rows = [
        [1, 0, 0], [0.9, 0.1, 0], [0.9, 0, 0.1],
        [0, 1, 0], [0.1, 0.9, 0], [0, 0.9, 0.1],
        [0, 0, 1], [0.5, 0.5, 0.5],
    ]
    return make_model(words, rows)


class TestParseTsv:
    def test_basic_line(self, tmp_path):
        path = write(
            tmp_path,
            "s1\tпрекрасно\tзамечательно|отлично|прекрасно\n",
            "synsets.tsv",
        )
        synsets = parse_synsets(path, "tsv")
        assert synsets == [
            RawSynset("s1", "прекрасно", ("замечательно", "отлично", "прекрасно"))
        ]

    def test_empty_headword_is_none(self, tmp_path):
        path = write(tmp_path, "s1\t\ta|b|c\n", "synsets.tsv")
        assert parse_synsets(path, "tsv")[0].headword is None

    def test_blank_lines_skipped(self, tmp_path):
        path = write(tmp_path, "\ns1\th\ta|b\n\n\ns2\th\tc|d\n", "synsets.tsv")
        assert [s.id for s in parse_synsets(path, "tsv")] == ["s1", "s2"]

    def test_wrong_field_count(self, tmp_path):
        path = write(tmp_path, "s1\ta|b|c\n", "synsets.tsv")
        with pytest.raises(SynsetParseError, match="line 1"):
            parse_synsets(path, "tsv")

    def test_duplicate_word(self, tmp_path):
        path = write(tmp_path, "s1\th\ta|a|b\n", "synsets.tsv")
        with pytest.raises(SynsetParseError, match="line 1.*twice"):
            parse_synsets(path, "tsv")

    def test_duplicate_id(self, tmp_path):
        path = write(tmp_path, "s1\th\ta|b\ns1\th\tc|d\n", "synsets.tsv")
        with pytest.raises(SynsetParseError, match="line 2.*duplicate synset id"):
            parse_synsets(path, "tsv")

    def test_empty_word_list(self, tmp_path):
        path = write(tmp_path, "s1\th\t\n", "synsets.tsv")
        with pytest.raises(SynsetParseError, match="empty word list"):
            parse_synsets(path, "tsv")

    def test_empty_word(self, tmp_path):
        path = write(tmp_path, "s1\th\ta||b\n", "synsets.tsv")
        with pytest.raises(SynsetParseError, match="empty word"):
            parse_synsets(path, "tsv")

    def test_word_order_preserved(self, tmp_path):
        path = write(tmp_path, "s1\th\tz|a|m|b\n", "synsets.tsv")
        assert parse_synsets(path, "tsv")[0].words == ("z", "a", "m", "b")


class TestParseJsonl:
    def test_basic_object(self, tmp_path):
        line = json.dumps(
            {"id": "s2", "words": ["battle", "combat", "fight", "engagement"]}
        )
        path = write(tmp_path, line + "\n", "synsets.jsonl")
        synsets = parse_synsets(path, "jsonl")
        assert synsets[0].id == "s2"
        assert synsets[0].headword is None
        assert synsets[0].words == ("battle", "combat", "fight", "engagement")

    def test_headword_kept(self, tmp_path):
        line = json.dumps({"id": "s1", "headword": "h", "words": ["a", "b"]})
        path = write(tmp_path, line + "\n", "synsets.jsonl")
        assert parse_synsets(path, "jsonl")[0].headword == "h"

    def test_invalid_json_positioned(self, tmp_path):
        path = write(tmp_path, '{"id": "s1", "words": ["a"]}\n{broken\n', "s.jsonl")
        with pytest.raises(SynsetParseError, match="line 2"):
            parse_synsets(path, "jsonl")

    def test_missing_id(self, tmp_path):
        path = write(tmp_path, '{"words": ["a", "b"]}\n', "s.jsonl")
        with pytest.raises(SynsetParseError, match="'id'"):
            parse_synsets(path, "jsonl")

    def test_words_must_be_strings(self, tmp_path):
        path = write(tmp_path, '{"id": "s1", "words": ["a", 3]}\n', "s.jsonl")
        with pytest.raises(SynsetParseError, match="'words'"):
            parse_synsets(path, "jsonl")

    def test_unknown_format_rejected(self, tmp_path):
        path = write(tmp_path, "", "s.xml")
        with pytest.raises(ValueError, match="format"):
            parse_synsets(path, "xml")


class TestEncoding:
    LINES = {
        "tsv": "battle\t\tбой|битва|сражение\n",
        "jsonl": json.dumps({"id": "battle", "words": ["бой", "битва", "сражение"]},
                            ensure_ascii=False) + "\n",
    }

    @pytest.mark.parametrize("fmt", SYNSET_FORMATS)
    def test_byte_order_mark_is_not_part_of_the_first_id(self, tmp_path, fmt):
        path = tmp_path / f"s.{fmt}"
        path.write_bytes(codecs.BOM_UTF8 + self.LINES[fmt].encode("utf-8"))
        assert parse_synsets(path, fmt)[0].id == "battle"

    @pytest.mark.parametrize("fmt", SYNSET_FORMATS)
    def test_invalid_utf8_is_a_parse_error_with_its_line(self, tmp_path, fmt):
        path = tmp_path / f"s.{fmt}"
        line = self.LINES[fmt].encode("utf-8")
        path.write_bytes(line + line.replace(b"battle", b"\xff\xfe"))
        with pytest.raises(SynsetParseError, match="line 2: not valid UTF-8"):
            parse_synsets(path, fmt)

    @pytest.mark.parametrize("end", [b"\n", b"\r", b"\r\n"])
    def test_invalid_utf8_names_its_line_under_any_line_end(self, tmp_path, end):
        path = tmp_path / "s.tsv"
        path.write_bytes(end.join([b"s1\t\ta|b|c", b"s2\t\td|e|f", b"s3\t\tg|\xff|h", b""]))
        with pytest.raises(SynsetParseError, match="line 3: not valid UTF-8"):
            parse_synsets(path, "tsv")
        path.write_bytes(end.join([b"s1\t\ta|b|c", b"s2\t\td|e|f", b"s3\t\tg||h", b""]))
        with pytest.raises(SynsetParseError, match="line 3: .*empty word"):
            parse_synsets(path, "tsv")

    def test_crlf_line_ends(self, tmp_path):
        path = tmp_path / "s.tsv"
        path.write_bytes(b"s1\t\ta|b|c\r\ns2\t\td|e\r\n")
        assert [s.words for s in parse_synsets(path, "tsv")] == [("a", "b", "c"), ("d", "e")]


class TestResolve:
    def test_all_words_in_vocabulary(self, model):
        raw = RawSynset("s1", None, ("замечательно", "отлично", "прекрасно"))
        outcome = resolve(raw, model, OovPolicy())
        assert outcome.status == STATUS_RESOLVED
        assert outcome.dropped_words == ()
        assert outcome.resolved.tokens == raw.words
        assert outcome.resolved.source_size == 3
        assert outcome.matched_keys == tuple((w, w) for w in raw.words)

    def test_suffix_lookup(self, model):
        raw = RawSynset("s2", None, ("бой", "битва", "сражение"))
        outcome = resolve(raw, model, OovPolicy(tag_suffixes=("_NOUN",)))
        assert outcome.status == STATUS_RESOLVED
        assert outcome.matched_keys == (
            ("бой", "бой_NOUN"),
            ("битва", "битва_NOUN"),
            ("сражение", "сражение_NOUN"),
        )
        # surface tokens kept, model keys travel on the vectors
        assert outcome.resolved.tokens == ("бой", "битва", "сражение")
        assert outcome.resolved.model_keys == ("бой_NOUN", "битва_NOUN", "сражение_NOUN")
        rows = [model.index[k] for k in outcome.resolved.model_keys]
        np.testing.assert_array_equal(outcome.resolved.vectors, model.vectors[rows])

    def test_exact_match_beats_suffix(self):
        model = make_model(["w", "w_NOUN", "x", "y"], [[1, 0], [0, 1], [0.6, 0.8], [0.8, 0.6]])
        raw = RawSynset("s", None, ("w", "x", "y"))
        outcome = resolve(raw, model, OovPolicy(tag_suffixes=("_NOUN",)))
        assert outcome.resolved.model_keys[0] == "w"

    def test_suffix_order_is_respected(self):
        model = make_model(["w_B", "w_A", "x", "y"], [[1, 0], [0, 1], [0.6, 0.8], [0.8, 0.6]])
        raw = RawSynset("s", None, ("w", "x", "y"))
        outcome = resolve(raw, model, OovPolicy(tag_suffixes=("_A", "_B")))
        assert outcome.resolved.model_keys[0] == "w_A"

    def test_lowercase_fallback(self, model):
        raw = RawSynset("s", None, ("MIXED", "upper", "замечательно"))
        off = resolve(raw, model, OovPolicy())
        assert off.status == STATUS_TOO_SMALL
        on = resolve(raw, model, OovPolicy(lowercase_fallback=True))
        assert on.status == STATUS_RESOLVED
        assert on.resolved.model_keys[0] == "mixed"

    def test_drop_word_records_reasons(self, model):
        raw = RawSynset(
            "s", None, ("замечательно", "nope1", "отлично", "nope2", "прекрасно")
        )
        outcome = resolve(raw, model, OovPolicy())
        assert outcome.status == STATUS_RESOLVED
        assert outcome.dropped_words == (
            ("nope1", "out-of-vocabulary"),
            ("nope2", "out-of-vocabulary"),
        )
        assert outcome.resolved.n == 3
        assert outcome.resolved.source_size == 5
        assert outcome.resolved.n == outcome.resolved.source_size - len(
            outcome.dropped_words
        )

    def test_too_small_after_filter(self, model):
        raw = RawSynset("s", None, ("замечательно", "nope1", "nope2", "nope3"))
        outcome = resolve(raw, model, OovPolicy())
        assert outcome.status == STATUS_TOO_SMALL
        assert outcome.resolved is None
        assert len(outcome.dropped_words) == 3

    def test_small_synset_with_full_vocabulary_is_still_too_small(self, model):
        raw = RawSynset("s", None, ("замечательно", "отлично"))
        outcome = resolve(raw, model, OovPolicy())
        assert outcome.status == STATUS_TOO_SMALL

    def test_skip_synset_mode(self, model):
        raw = RawSynset("s", None, ("замечательно", "отлично", "прекрасно", "nope"))
        outcome = resolve(raw, model, OovPolicy(mode="skip-synset"))
        assert outcome.status == STATUS_SKIPPED
        assert outcome.resolved is None
        assert outcome.dropped_words == (("nope", "out-of-vocabulary"),)

    def test_duplicate_model_key_drops_the_later_word(self, model):
        # "бой" resolves to "бой_NOUN" through the suffix; the literal key
        # is the same vector and would count it twice
        raw = RawSynset("s", None, ("бой", "битва", "бой_NOUN", "сражение"))
        outcome = resolve(raw, model, OovPolicy(mode="skip-synset"))
        assert outcome.status == STATUS_RESOLVED
        assert outcome.resolved.tokens == ("бой", "битва", "сражение")
        assert outcome.resolved.model_keys == ("бой_NOUN", "битва_NOUN", "сражение_NOUN")
        assert outcome.resolved.source_size == 4
        assert outcome.dropped_words == (("бой_NOUN", "duplicate-model-key"),)

    def test_fail_mode(self, model):
        raw = RawSynset("s", None, ("замечательно", "nope", "отлично"))
        with pytest.raises(ResolutionError, match="nope"):
            resolve(raw, model, OovPolicy(mode="fail"))

    def test_order_never_changes(self, model):
        raw = RawSynset("s", None, ("прекрасно", "замечательно", "отлично"))
        outcome = resolve(raw, model, OovPolicy())
        assert outcome.resolved.tokens == raw.words

    def test_deterministic(self, model):
        raw = RawSynset("s", None, ("замечательно", "nope", "отлично", "прекрасно"))
        a = resolve(raw, model, OovPolicy())
        b = resolve(raw, model, OovPolicy())
        assert a == b

    def test_bad_mode_rejected(self):
        with pytest.raises(ValueError, match="mode"):
            OovPolicy(mode="explode")

    def test_duplicate_suffixes_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            OovPolicy(tag_suffixes=("_A", "_A"))


class TestCandidateKeys:
    SYNSETS = [
        RawSynset("a", None, ("MIXED", "upper", "замечательно", "nope")),
        RawSynset("b", None, ("бой", "битва", "бой_NOUN", "сражение")),
    ]

    def test_every_form_resolve_can_try(self):
        policy = OovPolicy(tag_suffixes=("_NOUN",), lowercase_fallback=True)
        assert candidate_keys([RawSynset("s", None, ("Бой", "x"))], policy) == {
            "Бой", "Бой_NOUN", "бой", "бой_NOUN", "x", "x_NOUN"
        }

    @pytest.mark.parametrize("policy", [
        OovPolicy(),
        OovPolicy(mode="skip-synset"),
        OovPolicy(tag_suffixes=()),
        OovPolicy(lowercase_fallback=True),
    ])
    def test_the_candidate_rows_resolve_as_the_whole_model(self, model, policy):
        keys = candidate_keys(self.SYNSETS, policy)
        rows = [i for i, word in enumerate(model.words) if word in keys]
        kept = EmbeddingModel([model.words[i] for i in rows], model.vectors[rows])
        for raw in self.SYNSETS:
            assert resolve(raw, kept, policy) == resolve(raw, model, policy)
