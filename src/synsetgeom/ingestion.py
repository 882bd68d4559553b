"""Synset definition files and vocabulary resolution.

Two input formats are supported:

* TSV: one synset per line, ``<id>\\t<headword>\\t<word1>|<word2>|...``
  (empty headword column allowed).
* JSONL: one object per line with fields ``id``, ``words`` and an optional
  ``headword``.

Files are UTF-8, with or without a byte-order mark.  Resolution maps each
word to a model vector under a configurable policy: exact lookup first, then
the word with each tag suffix appended (models keyed by POS-tagged lemmas),
then lowercase variants when enabled.  The first hit wins and the matched
model key travels with the vector, so reports can show exactly which entry
was used.  A word whose key an earlier word of the synset already took is
dropped, so no vector is counted twice.
"""

from __future__ import annotations

import codecs
import io
import json
from dataclasses import dataclass

from .embeddings import EmbeddingModel
from .errors import ResolutionError, SynsetParseError
from .geometry import ResolvedSynset

SYNSET_FORMATS = ("tsv", "jsonl")

OOV_MODES = ("drop-word", "skip-synset", "fail")
DEFAULT_TAG_SUFFIXES = ("_NOUN", "_ADJ", "_VERB", "_ADV")

MIN_SYNSET_SIZE = 3  # rank/interior are undefined below this

STATUS_RESOLVED = "resolved"
STATUS_TOO_SMALL = "too-small-after-filter"
STATUS_SKIPPED = "skipped"

DROP_OOV = "out-of-vocabulary"
DROP_DUPLICATE_KEY = "duplicate-model-key"


@dataclass(frozen=True)
class RawSynset:
    id: str
    headword: str | None
    words: tuple[str, ...]


@dataclass(frozen=True)
class OovPolicy:
    """What to do when a synset word is missing from the model vocabulary."""

    mode: str = "drop-word"
    tag_suffixes: tuple[str, ...] = DEFAULT_TAG_SUFFIXES
    lowercase_fallback: bool = False

    def __post_init__(self):
        if self.mode not in OOV_MODES:
            raise ValueError(f"unknown OOV mode {self.mode!r}; choose from {OOV_MODES}")
        suffixes = tuple(self.tag_suffixes)
        if len(set(suffixes)) != len(suffixes):
            raise ValueError(f"duplicate tag suffixes in {suffixes}")
        object.__setattr__(self, "tag_suffixes", suffixes)


@dataclass(frozen=True)
class ResolutionOutcome:
    synset_id: str
    resolved: ResolvedSynset | None
    dropped_words: tuple[tuple[str, str], ...]  # (token, reason)
    status: str

    @property
    def matched_keys(self) -> tuple[tuple[str, str], ...]:
        """(token, model key) for each resolved word; empty when unresolved."""
        if self.resolved is None:
            return ()
        return tuple(zip(self.resolved.tokens, self.resolved.model_keys))


def parse_synsets(path, format: str) -> list[RawSynset]:
    """Parse a synset file; raises SynsetParseError with a 1-based line number."""
    if format not in SYNSET_FORMATS:
        raise ValueError(f"unknown synset format {format!r}; choose from {SYNSET_FORMATS}")
    parse_line = _parse_tsv_line if format == "tsv" else _parse_jsonl_line
    with open(str(path), "rb") as fin:
        data = fin.read().removeprefix(codecs.BOM_UTF8)
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = data.count(b"\n", 0, exc.start) + 1
        raise SynsetParseError(f"not valid UTF-8: {exc.reason}", line=line) from None
    synsets = []
    seen_ids = set()
    for lineno, line in enumerate(io.StringIO(text, newline=None), start=1):
        if not line.strip():
            continue
        raw = parse_line(line.rstrip("\n"), lineno)
        if raw.id in seen_ids:
            raise SynsetParseError(f"duplicate synset id {raw.id!r}", line=lineno)
        seen_ids.add(raw.id)
        synsets.append(raw)
    return synsets


def _check_words(synset_id, words, lineno):
    if not words:
        raise SynsetParseError(f"synset {synset_id!r} has an empty word list", line=lineno)
    seen = set()
    for word in words:
        if not word:
            raise SynsetParseError(f"synset {synset_id!r} contains an empty word", line=lineno)
        if word in seen:
            raise SynsetParseError(
                f"synset {synset_id!r} lists {word!r} twice", line=lineno
            )
        seen.add(word)


def _parse_tsv_line(line: str, lineno: int) -> RawSynset:
    fields = line.split("\t")
    if len(fields) != 3:
        raise SynsetParseError(
            f"expected 3 tab-separated fields (id, headword, words), got {len(fields)}",
            line=lineno,
        )
    synset_id, headword, words_field = fields
    if not synset_id:
        raise SynsetParseError("empty synset id", line=lineno)
    words = tuple(words_field.split("|")) if words_field else ()
    _check_words(synset_id, words, lineno)
    return RawSynset(synset_id, headword or None, words)


def _parse_jsonl_line(line: str, lineno: int) -> RawSynset:
    try:
        obj = json.loads(line)
    except json.JSONDecodeError as exc:
        raise SynsetParseError(f"invalid JSON: {exc.msg}", line=lineno) from None
    if not isinstance(obj, dict):
        raise SynsetParseError("expected a JSON object", line=lineno)
    synset_id = obj.get("id")
    if not isinstance(synset_id, str) or not synset_id:
        raise SynsetParseError("missing or empty 'id'", line=lineno)
    words = obj.get("words")
    if not isinstance(words, list) or not all(isinstance(w, str) for w in words):
        raise SynsetParseError(
            f"synset {synset_id!r}: 'words' must be an array of strings", line=lineno
        )
    headword = obj.get("headword")
    if headword is not None and not isinstance(headword, str):
        raise SynsetParseError(
            f"synset {synset_id!r}: 'headword' must be a string or null", line=lineno
        )
    words = tuple(words)
    _check_words(synset_id, words, lineno)
    return RawSynset(synset_id, headword or None, words)


def _candidates(token: str, policy: OovPolicy):
    yield token
    for suffix in policy.tag_suffixes:
        yield token + suffix
    if policy.lowercase_fallback:
        lower = token.lower()
        if lower != token:
            yield lower
            for suffix in policy.tag_suffixes:
                yield lower + suffix


def resolve(
    synset: RawSynset, model: EmbeddingModel, policy: OovPolicy = OovPolicy()
) -> ResolutionOutcome:
    """Look every word up in the model and apply the OOV policy.

    Word order is preserved; resolution is deterministic.  A word that
    resolves to a key an earlier word already took is dropped as
    duplicate-model-key.  Synsets with fewer than 3 surviving words cannot
    be analyzed and come back as too-small-after-filter.
    """
    tokens, keys = [], []
    dropped = []
    for token in synset.words:
        key = next((c for c in _candidates(token, policy) if c in model.index), None)
        if key is None:
            if policy.mode == "fail":
                raise ResolutionError(
                    f"synset {synset.id!r}: word {token!r} not in model vocabulary"
                )
            dropped.append((token, DROP_OOV))
        elif key in keys:
            dropped.append((token, DROP_DUPLICATE_KEY))
        else:
            tokens.append(token)
            keys.append(key)
    dropped = tuple(dropped)
    if policy.mode == "skip-synset" and any(r == DROP_OOV for _, r in dropped):
        return ResolutionOutcome(synset.id, None, dropped, STATUS_SKIPPED)
    if len(tokens) < MIN_SYNSET_SIZE:
        return ResolutionOutcome(synset.id, None, dropped, STATUS_TOO_SMALL)
    rows = model.vectors[[model.index[k] for k in keys]]
    resolved = ResolvedSynset(synset.id, tokens, keys, rows, len(synset.words))
    return ResolutionOutcome(synset.id, resolved, dropped, STATUS_RESOLVED)
