"""Damaged inputs: truncated or byte-flipped model and synset files either
load or raise the package's own format error, never anything else."""

import gzip
import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from synsetgeom import (
    ModelFormatError,
    SynsetParseError,
    load_binary_model,
    load_text_model,
    parse_synsets,
)

from synth import make_model, save_binary_model, save_text_model

FUZZ = settings(max_examples=40, deadline=None)
LOADERS = {"txt": load_text_model, "bin": load_binary_model}


@pytest.fixture(scope="module")
def originals(tmp_path_factory):
    """The undamaged bytes of each input kind, and a directory to write to."""
    root = tmp_path_factory.mktemp("fuzz")
    words = ["бой_NOUN", "битва_NOUN", "сражение_NOUN", "battle", "fight"]
    model = make_model(words, np.random.default_rng(0).standard_normal((5, 4)))
    save_text_model(model, root / "m.txt")
    save_binary_model(model, root / "m.bin")
    blobs = {kind: (root / f"m.{kind}").read_bytes() for kind in LOADERS}
    synsets = [("battle", "бой", ["бой", "битва", "сражение"]), ("fight", "", ["fight", "battle"])]
    blobs["tsv"] = "".join(f"{i}\t{h}\t{'|'.join(w)}\n" for i, h, w in synsets).encode()
    blobs["jsonl"] = "".join(
        json.dumps({"id": i, "headword": h, "words": w}, ensure_ascii=False) + "\n"
        for i, h, w in synsets
    ).encode()
    return root, blobs


def damage(data, blob):
    """A prefix of the blob, or the blob with one to three bytes replaced."""
    if data.draw(st.booleans(), label="truncate"):
        return blob[: data.draw(st.integers(0, len(blob) - 1), label="length")]
    out = bytearray(blob)
    for _ in range(data.draw(st.integers(1, 3), label="flips")):
        out[data.draw(st.integers(0, len(out) - 1))] = data.draw(st.integers(0, 255))
    return bytes(out)


@pytest.mark.parametrize("kind", sorted(LOADERS))
@FUZZ
@given(data=st.data())
def test_damaged_model_loads_or_raises_model_format_error(originals, kind, data):
    root, blobs = originals
    path = root / f"damaged.{kind}"
    path.write_bytes(damage(data, blobs[kind]))
    try:
        LOADERS[kind](path)
    except ModelFormatError:
        pass


@pytest.mark.parametrize("kind", sorted(LOADERS))
@FUZZ
@given(data=st.data())
def test_truncated_gzip_model_loads_or_raises_model_format_error(originals, kind, data):
    # a cut in the gzip trailer can leave every entry readable; the header
    # may also declare far more entries than the stream holds
    root, blobs = originals
    count = data.draw(st.sampled_from([b"5", b"1000000", b"1000000000000000000"]), label="count")
    blob = gzip.compress(count + blobs[kind][blobs[kind].index(b" "):])
    path = root / f"damaged.{kind}.gz"
    path.write_bytes(blob[: data.draw(st.integers(0, len(blob) - 1), label="length")])
    try:
        LOADERS[kind](path)
    except ModelFormatError:
        pass


@pytest.mark.parametrize("fmt", ["tsv", "jsonl"])
@FUZZ
@given(data=st.data())
def test_damaged_synset_file_parses_or_raises_synset_parse_error(originals, fmt, data):
    root, blobs = originals
    path = root / f"damaged.{fmt}"
    path.write_bytes(damage(data, blobs[fmt]))
    try:
        parse_synsets(path, fmt)
    except SynsetParseError:
        pass
