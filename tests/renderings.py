"""Every CLI rendering snapshotted in data/golden_renderings.json.

Each case is one CLI invocation, run inside a directory that ``write_inputs``
fills, so every path the output may quote is relative and stable.  A case
records stdout, stderr and the exit code; help cases run with COLUMNS=80.

Re-record (only when an output change is intended) from the repo root:

    PYTHONPATH=src python3 tests/renderings.py
"""

import contextlib
import io
import json
import os
import pathlib
import shutil
import sys
import tempfile

import numpy as np

from synsetgeom.cli import main

from synth import write_model_file

DATA = pathlib.Path(__file__).parent / "data"
GOLDEN = DATA / "golden_renderings.json"
OUTPUTS = ("table", "csv", "json")

# the resolved words of every fixture synset, each a `partitions` focus
FIXTURE_WORDS = {
    "battle": ("баталия", "бой", "битва", "сражение"),
    "waters": ("brook", "creek", "stream", "rivulet"),
    "mood": ("happy", "glad", "joyful", "cheerful"),
}


def write_inputs(workdir: pathlib.Path) -> None:
    """The fixture, the two contrast models (a synset with a central word
    under a.txt, two clusters under b.txt) and the inputs of the error cases."""
    shutil.copy(DATA / "fixture_model.txt", workdir / "model.txt")
    shutil.copy(DATA / "fixture_synsets.tsv", workdir / "synsets.tsv")
    words = ["w", "a", "b", "c"]
    rest = np.array([[1, 0.5, 0], [1, 0, 0.5], [1, -0.5, 0]], float)
    rest /= np.linalg.norm(rest, axis=1, keepdims=True)
    write_model_file(workdir / "a.txt", words, np.vstack([rest.sum(axis=0), rest]))
    write_model_file(workdir / "b.txt", words,
                     [[1, 0, 0], [1, 0.01, 0], [0, 1, 0], [0, 1, 0.01]])
    write_model_file(workdir / "small.txt", words[:3], np.eye(3))
    big = [f"w{i}" for i in range(40)]
    write_model_file(workdir / "big.txt", big, np.random.default_rng(5).standard_normal((40, 2)))
    texts = {
        "quad.tsv": "quad\tw\tw|a|b|c\n",
        "big.tsv": "big\t\t" + "|".join(big) + "\n",
        "empty.tsv": "",
        "bad_model.txt": "not a header\n",
    }
    for name, text in texts.items():
        (workdir / name).write_text(text, encoding="utf-8")
    (workdir / "bad.tsv").write_bytes(b"a\tb\t\xff\xfe|x|y\n")


def _cases() -> dict[str, list[str]]:
    fixture = ["--model", "model.txt", "--synsets", "synsets.tsv"]
    per_output = {
        "analyze": ["analyze", *fixture],
        "audit": ["audit", *fixture],
        "compare-self": ["compare", "--model", "model.txt", *fixture],
        "compare-contrast": ["compare", "--model", "a.txt", "--model", "b.txt",
                             "--synsets", "quad.tsv"],
        "compare-one-side-skipped": ["compare", "--model", "a.txt", "--model", "small.txt",
                                     "--synsets", "quad.tsv", "--oov", "skip-synset"],
        "audit-weak": ["audit", "--model", "b.txt", "--synsets", "quad.tsv"],
        "analyze-skip-synset": ["analyze", *fixture, "--oov", "skip-synset"],
        "analyze-size-cap": ["analyze", *fixture, "--max-synset-size", "3"],
        "error-analyze-nothing": ["analyze", "--model", "model.txt", "--synsets", "empty.tsv"],
        "error-compare-nothing": ["compare", "--model", "model.txt", "--model", "model.txt",
                                  "--synsets", "empty.tsv"],
        "error-audit-nothing": ["audit", "--model", "model.txt", "--synsets", "empty.tsv"],
        "error-missing-model": ["analyze", "--model", "missing.txt", "--synsets", "synsets.tsv"],
        "error-malformed-model": ["analyze", "--model", "bad_model.txt",
                                  "--synsets", "synsets.tsv"],
        "error-invalid-utf8": ["analyze", "--model", "model.txt", "--synsets", "bad.tsv"],
        "error-usage": ["analyze", "--synsets", "synsets.tsv"],
        "error-bad-eps": ["analyze", *fixture, "--eps", "0"],
        "error-two-models": ["analyze", "--model", "model.txt", *fixture],
        "error-oov-fail": ["analyze", *fixture, "--oov", "fail"],
        "error-analyze-over-budget": ["analyze", "--model", "big.txt", "--synsets", "big.tsv",
                                      "--max-synset-size", "64"],
        "error-partitions-over-budget": ["partitions", "big", "w0", "--model", "big.txt",
                                         "--synsets", "big.tsv", "--max-synset-size", "64"],
        "error-partitions-unknown-id": ["partitions", "nope", "бой", *fixture],
        "error-partitions-unknown-token": ["partitions", "battle", "nope", *fixture],
        "error-partitions-unresolved": ["partitions", "tiny", "happy", *fixture],
    }
    for synset_id, tokens in FIXTURE_WORDS.items():
        for token in tokens:
            per_output[f"partitions-{synset_id}-{token}"] = [
                "partitions", synset_id, token, *fixture
            ]
    cases = {
        f"{name}-{output}": [*argv, "--output", output]
        for name, argv in per_output.items()
        for output in OUTPUTS
    }
    cases["help"] = ["--help"]
    for command in ("analyze", "partitions", "compare", "audit"):
        cases[f"help-{command}"] = [command, "--help"]
    return cases


CASES = _cases()


def run_case(argv) -> dict:
    """stdout, stderr and exit code of ``main(argv)`` in the current directory."""
    stdout = io.TextIOWrapper(io.BytesIO(), encoding="utf-8", newline="\n")
    stderr = io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        try:
            code = main(list(argv))
        except SystemExit as exc:  # --help
            code = exc.code
    stdout.flush()
    return {"code": code, "stdout": stdout.buffer.getvalue().decode("utf-8"),
            "stderr": stderr.getvalue()}


def record() -> dict:
    os.environ["COLUMNS"] = "80"
    here = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        write_inputs(pathlib.Path(tmp))
        os.chdir(tmp)
        try:
            return {name: run_case(argv) for name, argv in CASES.items()}
        finally:
            os.chdir(here)


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(record(), ensure_ascii=False, indent=1) + "\n",
                      encoding="utf-8")
    print(f"wrote {len(CASES)} cases to {GOLDEN}", file=sys.stderr)
