"""Command-line front door.

Four commands over one or two embedding models and a synset file:

* ``analyze``    - per-word rank, centrality and interior membership
* ``partitions`` - per-partition detail for one word of one synset
* ``compare``    - interiors under two models, side by side
* ``audit``      - synsets whose interior is empty ("weak" synsets)

JSON is the normative machine format and is byte-deterministic for
identical inputs: insertion-ordered keys, centrality and similarity values
rounded to fixed precision, rank rendered as an integer or a half (never
the internal doubled representation).  Exit codes: 0 success, 1 fatal
error, 2 nothing analyzed.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from dataclasses import dataclass
from typing import Callable, NamedTuple

from .embeddings import EmbeddingModel, load_binary_model, load_text_model
from .errors import DegenerateGeometryError, SynsetGeomError, SynsetSizeError
from .geometry import (
    DEFAULT_EPS,
    DEFAULT_MAX_SYNSET_SIZE,
    SynsetReport,
    _attributes,
    analyze_synset,
    partition_outcomes,
)
from .ingestion import (
    DEFAULT_TAG_SUFFIXES,
    DROP_OOV,
    MIN_SYNSET_SIZE,
    OOV_MODES,
    STATUS_RESOLVED,
    STATUS_TOO_SMALL,
    OovPolicy,
    RawSynset,
    ResolutionOutcome,
    parse_synsets,
    resolve,
)

OUTPUT_FORMATS = ("table", "csv", "json")

EXIT_OK = 0
EXIT_FATAL = 1
EXIT_NOTHING = 2


class _UsageError(SynsetGeomError):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # exit code 2 is reserved for "nothing analyzed"
        raise _UsageError(f"{self.prog}: {message}")


@dataclass(frozen=True)
class RunConfig:
    model_paths: tuple[str, ...]
    synsets_path: str | None
    synset_format: str
    eps: float
    oov: OovPolicy
    max_synset_size: int
    output: str
    out_path: str | None

    def __post_init__(self):
        if not self.eps > 0:
            raise _UsageError(f"--eps must be positive, got {self.eps}")
        if self.max_synset_size < MIN_SYNSET_SIZE:
            raise _UsageError(
                f"--max-synset-size must be at least {MIN_SYNSET_SIZE}, "
                f"got {self.max_synset_size}"
            )


# ---------------------------------------------------------------------------
# argument parsing


# the options every command takes after --model; each help states its
# default through %(default)s, so the default is written once
_COMMON_OPTIONS = (
    ("--synsets", dict(required=True, metavar="PATH", help="synset file")),
    ("--format", dict(choices=("tsv", "jsonl"), default=None,
                      help="synset file format (default: by extension, tsv unless .jsonl)")),
    ("--output", dict(choices=OUTPUT_FORMATS, default="table",
                      help="rendering (default: %(default)s); json is the machine format")),
    ("--eps", dict(type=float, default=DEFAULT_EPS,
                   help="equality band for similarity comparisons (default %(default)s)")),
    ("--oov", dict(choices=OOV_MODES, default="drop-word",
                   help="policy for words missing from the model (default %(default)s)")),
    ("--tag-suffixes", dict(default=",".join(DEFAULT_TAG_SUFFIXES), metavar="CSV",
                            help="lookup suffixes for POS-tagged vocabularies "
                            "(default %(default)s; pass '' for none)")),
    ("--lowercase-fallback", dict(action="store_true", help="also try lowercased lookups")),
    ("--max-synset-size", dict(type=int, default=DEFAULT_MAX_SYNSET_SIZE,
                               help="refuse synsets larger than this (default %(default)s)")),
    ("--out", dict(default=None, metavar="PATH", help="write output here instead of stdout")),
)


def _build_parser() -> _Parser:
    parser = _Parser(
        prog="synsetgeom",
        description="Geometric significance attributes of synonym sets "
        "over word embeddings.",
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")
    for name, command in _COMMANDS.items():
        p = sub.add_parser(name, help=command.help)
        for dest, text in command.positionals:
            p.add_argument(dest, help=text)
        twice = " (give this flag twice)" if command.n_models == 2 else ""
        p.add_argument("--model", action="append", required=True, metavar="PATH",
                       help="embedding model in word2vec format; .bin/.bin.gz is read as "
                       "binary, anything else as text" + twice)
        for flag, options in _COMMON_OPTIONS:
            p.add_argument(flag, **options)
    return parser


def _config_from_args(args) -> RunConfig:
    models = tuple(args.model)
    n_models = _COMMANDS[args.command].n_models
    if len(models) != n_models:
        raise _UsageError(
            f"{args.command} needs exactly {n_models} --model flag(s), got {len(models)}"
        )
    fmt = args.format
    if fmt is None:
        fmt = "jsonl" if args.synsets.endswith(".jsonl") else "tsv"
    suffixes = tuple(s for s in args.tag_suffixes.split(",") if s)
    try:
        oov = OovPolicy(args.oov, suffixes, args.lowercase_fallback)
    except ValueError as exc:
        raise _UsageError(str(exc)) from None
    return RunConfig(
        model_paths=models,
        synsets_path=args.synsets,
        synset_format=fmt,
        eps=args.eps,
        oov=oov,
        max_synset_size=args.max_synset_size,
        output=args.output,
        out_path=args.out,
    )


def _load_model(path: str) -> EmbeddingModel:
    name = path[:-3] if path.endswith(".gz") else path
    if name.endswith(".bin"):
        return load_binary_model(path)
    return load_text_model(path)


# ---------------------------------------------------------------------------
# value rendering


def _fixed(x: float, places: int) -> float:
    """Round to a fixed decimal precision; the JSON rendering of the result
    is then platform-independent."""
    v = float(format(float(x), f".{places}f"))
    return 0.0 if v == 0 else v


def _rank_value(rank_doubled: int):
    """Integer when whole; an x.5 float when a zero sign made the sum odd."""
    if rank_doubled % 2 == 0:
        return rank_doubled // 2
    return rank_doubled / 2


def _render_json(doc) -> str:
    return json.dumps(doc, ensure_ascii=False, indent=2)


def _csv_cell(cell):
    """A row cell as csv writes it: true/false, a |-joined word list; csv
    itself writes numbers, and None as an empty field."""
    if isinstance(cell, bool):
        return "true" if cell else "false"
    return "|".join(cell) if isinstance(cell, list) else cell


def _table_cell(cell) -> str:
    """A row cell as a table column shows it: +/-, a {braced, word list}."""
    if isinstance(cell, bool):
        return "+" if cell else "-"
    return "{" + ", ".join(cell) + "}" if isinstance(cell, list) else str(cell)


def _align(rows, indent="") -> list[str]:
    cells = [[_table_cell(c) for c in r] for r in rows]
    widths = [max(map(len, column)) for column in zip(*cells)]
    return [
        indent + "  ".join(cell.ljust(w) for cell, w in zip(r, widths)).rstrip()
        for r in cells
    ]


# ---------------------------------------------------------------------------
# shared pipeline


class _Side(NamedTuple):
    """One synset under one model: the report when analyzed, otherwise the
    resolution status (or 'error') and the reason."""

    status: str
    outcome: ResolutionOutcome
    report: SynsetReport | None
    reason: str | None


class _Command(NamedTuple):
    """A subcommand: its parser entry, its document and its two text
    renderings.  ``rows`` turns the document into a csv header and rows of
    cells (str, number, bool or word list, see ``_csv_cell``/``_table_cell``);
    csv writes them as they are and ``table`` lays them out with the
    command's own head and foot lines.  JSON is the document itself."""

    help: str
    n_models: int
    positionals: tuple[tuple[str, str], ...]  # (name, help)
    document: Callable  # (args, cfg, models, raws) -> (doc, message if nothing ran)
    rows: Callable  # doc -> (header, rows)
    table: Callable  # (doc, rows) -> text


def _skip_reason(raw: RawSynset, outcome: ResolutionOutcome) -> str:
    if outcome.status == STATUS_TOO_SMALL:
        surviving = len(raw.words) - len(outcome.dropped_words)
        return (
            f"only {surviving} of {len(raw.words)} words resolved "
            f"(need {MIN_SYNSET_SIZE})"
        )
    oov = sum(reason == DROP_OOV for _, reason in outcome.dropped_words)
    return f"{oov} word(s) out of vocabulary under skip-synset policy"


def _dropped_docs(outcome: ResolutionOutcome) -> list[dict]:
    return [{"token": t, "reason": r} for t, r in outcome.dropped_words]


def _analyze_side(raw: RawSynset, model: EmbeddingModel, cfg: RunConfig) -> _Side:
    outcome = resolve(raw, model, cfg.oov)
    if outcome.status != STATUS_RESOLVED:
        return _Side(outcome.status, outcome, None, _skip_reason(raw, outcome))
    try:
        report = analyze_synset(
            outcome.resolved, eps=cfg.eps, max_size=cfg.max_synset_size
        )
    except (SynsetSizeError, DegenerateGeometryError) as exc:
        return _Side("error", outcome, None, str(exc))
    return _Side("analyzed", outcome, report, None)


def _run(raws, models, cfg: RunConfig) -> list[tuple[RawSynset, list[_Side]]]:
    """Every synset resolved and analyzed under every model, in file order."""
    return [(raw, [_analyze_side(raw, model, cfg) for model in models]) for raw in raws]


def _one_model_run(raws, models, cfg: RunConfig):
    """(raw, side) of every synset under the one model, the skipped ones'
    entries, and the counts analyze and audit both summarize."""
    sides = [(raw, side) for raw, (side,) in _run(raws, models, cfg)]
    skipped = [{"id": raw.id, **_skip_doc(side)} for raw, side in sides if not side.report]
    counts = {"total": len(sides), "analyzed": len(sides) - len(skipped), "skipped": len(skipped)}
    return sides, skipped, counts


def _synset_doc(side: _Side) -> dict:
    report, resolved = side.report, side.outcome.resolved
    model_keys = dict(zip(resolved.tokens, resolved.model_keys))
    return {
        "id": report.synset_id,
        "n": report.n,
        "source_size": resolved.source_size,
        "partition_count": report.words[0].partition_count,
        "interior": sorted(report.interior),
        "words": [
            {
                "token": w.token,
                "model_key": model_keys[w.token],
                "rank": _rank_value(w.rank_doubled),
                "centrality": _fixed(w.centrality, 4),
                "in_interior": w.in_interior,
            }
            for w in report.words
        ],
        "dropped": _dropped_docs(side.outcome),
    }


def _skip_doc(side: _Side) -> dict:
    return {
        "status": side.status,
        "reason": side.reason,
        "dropped": _dropped_docs(side.outcome),
    }


def _skipped_lines(doc) -> list[str]:
    if not doc["skipped"]:
        return []
    return ["skipped:"] + [
        f"  {sk['id']}: {sk['status']}: {sk['reason']}" for sk in doc["skipped"]
    ]


def _summary_line(doc) -> str:
    return " ".join(f"{key}={value}" for key, value in doc["summary"].items())


def _emit(cfg: RunConfig, text: str) -> None:
    """Write ``text`` as UTF-8 to ``--out`` or stdout, whatever the locale."""
    if not text.endswith("\n"):
        text += "\n"
    data = text.encode("utf-8")
    if cfg.out_path:
        with open(cfg.out_path, "wb") as fout:
            fout.write(data)
    else:
        sys.stdout.flush()
        sys.stdout.buffer.write(data)
        sys.stdout.buffer.flush()


def _render(command: _Command, doc, output: str) -> str:
    """JSON straight from the document; csv and table from the command's rows."""
    if output == "json":
        return _render_json(doc)
    header, rows = command.rows(doc)
    if output == "table":
        return command.table(doc, rows)
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows([_csv_cell(cell) for cell in row] for row in rows)
    return buf.getvalue().rstrip("\n")


def _execute(args) -> int:
    """Load, parse, build the command's document, render and emit it."""
    cfg = _config_from_args(args)
    models = [_load_model(p) for p in cfg.model_paths]
    raws = parse_synsets(cfg.synsets_path, cfg.synset_format)
    command = _COMMANDS[args.command]
    doc, nothing = command.document(args, cfg, models, raws)
    _emit(cfg, _render(command, doc, cfg.output))
    if nothing:
        print(nothing, file=sys.stderr)
        return EXIT_NOTHING
    return EXIT_OK


# ---------------------------------------------------------------------------
# analyze


def _analyze_doc(args, cfg: RunConfig, models, raws):
    """The analyze document and, when nothing was analyzed, the message."""
    sides, skipped, counts = _one_model_run(raws, models, cfg)
    analyzed = [_synset_doc(side) for _, side in sides if side.report]
    doc = {"synsets": analyzed, "skipped": skipped, "summary": counts}
    return doc, None if analyzed else "no synsets analyzed"


def _analyze_rows(doc):
    """One row per word of every analyzed synset."""
    header = ("synset_id", "token", "model_key", "rank", "centrality", "in_interior")
    return header, [
        (s["id"], w["token"], w["model_key"], w["rank"], f"{w['centrality']:.4f}",
         w["in_interior"])
        for s in doc["synsets"]
        for w in s["words"]
    ]


def _analyze_table(doc, rows) -> str:
    lines, words = [], iter(rows)
    for s in doc["synsets"]:
        lines.append(
            f"synset {s['id']}  n={s['n']}  partitions/word={s['partition_count']}"
            f"  interior: {', '.join(s['interior']) or '(empty)'}"
        )
        own = [next(words)[1:] for _ in s["words"]]
        lines += _align([("token", "model_key", "rank", "centrality", "interior"), *own], "  ")
        lines += [f"  dropped: {d['token']} ({d['reason']})" for d in s["dropped"]]
        lines.append("")
    if doc["skipped"]:
        lines += _skipped_lines(doc) + [""]
    lines.append(_summary_line(doc))
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# partitions


def _partitions_doc(args, cfg: RunConfig, models, raws):
    """One row per partition of the focus word, and totals from the same
    table, so they equal what analyze reports for that word."""
    raw = next((r for r in raws if r.id == args.synset_id), None)
    if raw is None:
        raise SynsetGeomError(
            f"synset id {args.synset_id!r} not found in {cfg.synsets_path}"
        )
    outcome = resolve(raw, models[0], cfg.oov)
    if outcome.status != STATUS_RESOLVED:
        raise SynsetGeomError(
            f"synset {raw.id!r} did not resolve: {_skip_reason(raw, outcome)}"
        )
    synset = outcome.resolved
    tokens = synset.tokens
    if args.token not in tokens:
        raise SynsetGeomError(
            f"word {args.token!r} is not in synset {raw.id!r} "
            f"(resolved words: {', '.join(tokens)})"
        )
    focus = tokens.index(args.token)
    table = partition_outcomes(synset, focus, eps=cfg.eps, max_size=cfg.max_synset_size)
    totals = _attributes(args.token, table, cfg.eps)
    remaining = tokens[:focus] + tokens[focus + 1 :]
    columns = zip(*(column.tolist() for column in table))
    rows = [
        {
            "index": i,
            "s1": [t for j, t in enumerate(remaining) if mask >> j & 1],
            "s2": [t for j, t in enumerate(remaining) if not mask >> j & 1],
            "sim": _fixed(sim, 6),
            "sim1": _fixed(sim1, 6),
            "sim2": _fixed(sim2, 6),
            "delta_rank": _rank_value(r_doubled),
            "delta_centrality": _fixed(delta, 4),
        }
        for i, (mask, sim, sim1, sim2, r_doubled, delta) in enumerate(columns, start=1)
    ]
    doc = {
        "id": raw.id,
        "focus": args.token,
        "n": synset.n,
        "partition_count": totals.partition_count,
        "partitions": rows,
        "totals": {
            "rank": _rank_value(totals.rank_doubled),
            "centrality": _fixed(totals.centrality, 4),
            "in_interior": totals.in_interior,
        },
    }
    return doc, None


def _partitions_rows(doc):
    """One row per partition, then the totals row."""
    header = ("index", "s1", "s2", "sim", "sim1", "sim2", "delta_rank", "delta_centrality")
    rows = [
        (p["index"], p["s1"], p["s2"], f"{p['sim']:.6f}", f"{p['sim1']:.6f}",
         f"{p['sim2']:.6f}", p["delta_rank"], f"{p['delta_centrality']:.4f}")
        for p in doc["partitions"]
    ]
    t = doc["totals"]
    rows.append(("total", "", "", "", "", "", t["rank"], f"{t['centrality']:.4f}"))
    return header, rows


def _partitions_table(doc, rows) -> str:
    rank, centrality = rows[-1][-2:]
    interior = "member of interior" if doc["totals"]["in_interior"] else "not in interior"
    head = ("#", "s1", "s2", "sim", "sim1", "sim2", "Δrank", "Δcentrality")
    return "\n".join([
        f"synset {doc['id']}  focus={doc['focus']}  n={doc['n']}"
        f"  partitions={doc['partition_count']}",
        *_align([head, *rows[:-1]], indent="  "),
        f"totals: rank={rank} centrality={centrality} ({interior})",
    ])


# ---------------------------------------------------------------------------
# compare


# an analyzed side's keys, in order, which are also its csv columns
_COMPARE_FIELDS = ("status", "n", "interior_size", "interior", "words")


def _compare_side(side: _Side) -> dict:
    if not side.report:
        return _skip_doc(side)
    report = side.report
    words = [w.token for w in report.words]
    values = ("analyzed", report.n, len(report.interior), sorted(report.interior), words)
    return dict(zip(_COMPARE_FIELDS, values))


def _compare_doc(args, cfg: RunConfig, models, raws):
    """The compare document and, when no synset was compared, the message."""
    results = _run(raws, models, cfg)
    rows = []
    compared = differing = 0
    for raw, sides in results:
        differs = None
        if all(side.report for side in sides):
            compared += 1
            differs = len(sides[0].report.interior) != len(sides[1].report.interior)
            differing += differs
        rows.append({"id": raw.id, "models": [_compare_side(s) for s in sides],
                     "differs": differs})
    doc = {
        "synsets": rows,
        "summary": {
            "total": len(results),
            "compared": compared,
            "skipped": len(results) - compared,
            "differing": differing,
        },
    }
    return doc, None if compared else "no synsets compared"


def _compare_rows(doc):
    """One row per synset: each model's side (a skipped one fills only its
    status), then whether they differ."""
    header = ("synset_id", *(f"{k}_{i}" for i in (1, 2) for k in _COMPARE_FIELDS), "differs")
    return header, [
        (r["id"], *(side.get(k, "") for side in r["models"] for k in _COMPARE_FIELDS),
         r["differs"])
        for r in doc["synsets"]
    ]


def _compare_table(doc, rows) -> str:
    """One paragraph per synset; a skipped side shows the reason the csv
    leaves out, so this reads the document rather than the rows."""
    lines = []
    for r in doc["synsets"]:
        flag = " *interior size differs*" if r["differs"] else ""
        lines.append(f"synset {r['id']}{flag}")
        for i, side in enumerate(r["models"], start=1):
            if side["status"] == "analyzed":
                lines.append(
                    f"  model {i}: n={side['n']}  |interior|={side['interior_size']}"
                    f"  interior: {', '.join(side['interior']) or '(empty)'}"
                )
                lines.append(f"    order: {', '.join(side['words'])}")
            else:
                lines.append(f"  model {i}: {side['status']}: {side['reason']}")
        lines.append("")
    lines.append(_summary_line(doc))
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# audit


def _audit_doc(args, cfg: RunConfig, models, raws):
    """The audit document; audit succeeds even when nothing was analyzed."""
    sides, skipped, counts = _one_model_run(raws, models, cfg)
    weak = [
        {"id": raw.id, "n": side.report.n, "words": [w.token for w in side.report.words]}
        for raw, side in sides
        if side.report and not side.report.interior
    ]
    doc = {"weak": weak, "skipped": skipped, "summary": {**counts, "weak": len(weak)}}
    return doc, None


def _audit_rows(doc):
    return ("synset_id", "n", "words"), [(w["id"], w["n"], w["words"]) for w in doc["weak"]]


def _audit_table(doc, rows) -> str:
    lines = ["weak synsets (empty interior):"] if rows else ["no weak synsets"]
    lines += [f"  {synset_id}  n={n}  words: {', '.join(words)}" for synset_id, n, words in rows]
    lines += _skipped_lines(doc)
    lines.append(_summary_line(doc))
    return "\n".join(lines)


# ---------------------------------------------------------------------------


_COMMANDS = {
    "analyze": _Command("rank, centrality and interior per word", 1, (),
                        _analyze_doc, _analyze_rows, _analyze_table),
    "partitions": _Command("per-partition detail for one word of one synset", 1,
                           (("synset_id", "synset id from the synset file"),
                            ("token", "the focus word (surface form from the synset)")),
                           _partitions_doc, _partitions_rows, _partitions_table),
    "compare": _Command("interiors under two models, side by side", 2, (),
                        _compare_doc, _compare_rows, _compare_table),
    "audit": _Command("find synsets with an empty interior", 1, (),
                      _audit_doc, _audit_rows, _audit_table),
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        return _execute(parser.parse_args(argv))
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_FATAL
    except (SynsetGeomError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FATAL
    except MemoryError as exc:
        detail = f": {exc}" if str(exc) else ""
        print(f"error: out of memory{detail}", file=sys.stderr)
        return EXIT_FATAL


if __name__ == "__main__":
    sys.exit(main())
