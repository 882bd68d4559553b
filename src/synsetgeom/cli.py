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
from typing import NamedTuple

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


def _build_parser() -> _Parser:
    parser = _Parser(
        prog="synsetgeom",
        description="Geometric significance attributes of synonym sets "
        "over word embeddings.",
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")

    def add_common(p, models_required):
        p.add_argument(
            "--model",
            action="append",
            required=True,
            metavar="PATH",
            help="embedding model in word2vec format; .bin/.bin.gz is read as "
            "binary, anything else as text"
            + (" (give this flag twice)" if models_required == 2 else ""),
        )
        p.add_argument(
            "--synsets", required=True, metavar="PATH", help="synset file"
        )
        p.add_argument(
            "--format",
            choices=("tsv", "jsonl"),
            default=None,
            help="synset file format (default: by extension, tsv unless .jsonl)",
        )
        p.add_argument(
            "--output",
            choices=OUTPUT_FORMATS,
            default="table",
            help="rendering (default: table); json is the machine format",
        )
        p.add_argument(
            "--eps",
            type=float,
            default=DEFAULT_EPS,
            help=f"equality band for similarity comparisons (default {DEFAULT_EPS})",
        )
        p.add_argument(
            "--oov",
            choices=OOV_MODES,
            default="drop-word",
            help="policy for words missing from the model (default drop-word)",
        )
        p.add_argument(
            "--tag-suffixes",
            default=",".join(DEFAULT_TAG_SUFFIXES),
            metavar="CSV",
            help="lookup suffixes for POS-tagged vocabularies "
            f"(default {','.join(DEFAULT_TAG_SUFFIXES)}; pass '' for none)",
        )
        p.add_argument(
            "--lowercase-fallback",
            action="store_true",
            help="also try lowercased lookups",
        )
        p.add_argument(
            "--max-synset-size",
            type=int,
            default=DEFAULT_MAX_SYNSET_SIZE,
            help=f"refuse synsets larger than this (default {DEFAULT_MAX_SYNSET_SIZE})",
        )
        p.add_argument(
            "--out", default=None, metavar="PATH", help="write output here instead of stdout"
        )

    p = sub.add_parser("analyze", help="rank, centrality and interior per word")
    add_common(p, 1)
    p.set_defaults(n_models=1)

    p = sub.add_parser(
        "partitions", help="per-partition detail for one word of one synset"
    )
    p.add_argument("synset_id", help="synset id from the synset file")
    p.add_argument("token", help="the focus word (surface form from the synset)")
    add_common(p, 1)
    p.set_defaults(n_models=1)

    p = sub.add_parser("compare", help="interiors under two models, side by side")
    add_common(p, 2)
    p.set_defaults(n_models=2)

    p = sub.add_parser("audit", help="find synsets with an empty interior")
    add_common(p, 1)
    p.set_defaults(n_models=1)

    return parser


def _config_from_args(args) -> RunConfig:
    models = tuple(args.model)
    if len(models) != args.n_models:
        raise _UsageError(
            f"{args.command} needs exactly {args.n_models} --model flag(s), "
            f"got {len(models)}"
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


def _csv_text(header, rows) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue().rstrip("\n")


def _align(rows, indent="") -> list[str]:
    widths = [max(len(r[i]) for r in rows) for i in range(len(rows[0]))]
    return [
        indent + "  ".join(cell.ljust(w) for cell, w in zip(r, widths)).rstrip()
        for r in rows
    ]


def _bool_str(b: bool) -> str:
    return "true" if b else "false"


def _cent_str(v: float) -> str:
    return f"{v:.4f}"


def _sim_str(v: float) -> str:
    return f"{v:.6f}"


# ---------------------------------------------------------------------------
# shared pipeline


class _Side(NamedTuple):
    """One synset under one model: the report when analyzed, otherwise the
    resolution status (or 'error') and the reason."""

    status: str
    outcome: ResolutionOutcome
    report: SynsetReport | None
    reason: str | None


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


def _execute(args) -> int:
    """Load, parse, build the command's document, render and emit it."""
    cfg = _config_from_args(args)
    models = [_load_model(p) for p in cfg.model_paths]
    raws = parse_synsets(cfg.synsets_path, cfg.synset_format)
    if args.command == "partitions":
        doc, nothing = _partitions_doc(args, cfg, models[0], raws), None
    else:
        doc, nothing = _PROJECTIONS[args.command](_run(raws, models, cfg))
    render = _RENDERERS[args.command].get(cfg.output, _render_json)
    _emit(cfg, render(doc))
    if nothing:
        print(nothing, file=sys.stderr)
        return EXIT_NOTHING
    return EXIT_OK


# ---------------------------------------------------------------------------
# analyze


def _analyze_doc(results):
    """The analyze document and, when nothing was analyzed, the message."""
    sides = [(raw, side) for raw, (side,) in results]
    analyzed = [_synset_doc(side) for _, side in sides if side.report]
    skipped = [{"id": raw.id, **_skip_doc(side)} for raw, side in sides if not side.report]
    doc = {
        "synsets": analyzed,
        "skipped": skipped,
        "summary": {
            "total": len(sides),
            "analyzed": len(analyzed),
            "skipped": len(skipped),
        },
    }
    return doc, None if analyzed else "no synsets analyzed"


def _analyze_csv(doc) -> str:
    rows = [
        (
            s["id"],
            w["token"],
            w["model_key"],
            str(w["rank"]),
            _cent_str(w["centrality"]),
            _bool_str(w["in_interior"]),
        )
        for s in doc["synsets"]
        for w in s["words"]
    ]
    return _csv_text(
        ("synset_id", "token", "model_key", "rank", "centrality", "in_interior"), rows
    )


def _analyze_table(doc) -> str:
    lines = []
    for s in doc["synsets"]:
        interior = ", ".join(s["interior"]) if s["interior"] else "(empty)"
        lines.append(
            f"synset {s['id']}  n={s['n']}"
            f"  partitions/word={s['partition_count']}  interior: {interior}"
        )
        rows = [("token", "model_key", "rank", "centrality", "interior")]
        for w in s["words"]:
            rows.append(
                (
                    w["token"],
                    w["model_key"],
                    str(w["rank"]),
                    _cent_str(w["centrality"]),
                    "+" if w["in_interior"] else "-",
                )
            )
        lines.extend(_align(rows, indent="  "))
        for d in s["dropped"]:
            lines.append(f"  dropped: {d['token']} ({d['reason']})")
        lines.append("")
    if doc["skipped"]:
        lines.extend(_skipped_lines(doc) + [""])
    sm = doc["summary"]
    lines.append(
        f"total={sm['total']} analyzed={sm['analyzed']} skipped={sm['skipped']}"
    )
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# partitions


def _partitions_doc(args, cfg: RunConfig, model: EmbeddingModel, raws) -> dict:
    """One row per partition of the focus word, and totals from the same
    table, so they equal what analyze reports for that word."""
    raw = next((r for r in raws if r.id == args.synset_id), None)
    if raw is None:
        raise SynsetGeomError(
            f"synset id {args.synset_id!r} not found in {cfg.synsets_path}"
        )
    outcome = resolve(raw, model, cfg.oov)
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
    return {
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


def _partition_cells(p) -> tuple[str, ...]:
    """The similarity and contribution cells of one partition row."""
    sims = (_sim_str(p["sim"]), _sim_str(p["sim1"]), _sim_str(p["sim2"]))
    return sims + (str(p["delta_rank"]), _cent_str(p["delta_centrality"]))


def _partitions_csv(doc) -> str:
    rows = [
        (str(p["index"]), "|".join(p["s1"]), "|".join(p["s2"]), *_partition_cells(p))
        for p in doc["partitions"]
    ]
    t = doc["totals"]
    rows.append(
        ("total", "", "", "", "", "", str(t["rank"]), _cent_str(t["centrality"]))
    )
    return _csv_text(
        ("index", "s1", "s2", "sim", "sim1", "sim2", "delta_rank", "delta_centrality"),
        rows,
    )


def _partitions_table(doc) -> str:
    lines = [
        f"synset {doc['id']}  focus={doc['focus']}  n={doc['n']}"
        f"  partitions={doc['partition_count']}"
    ]
    rows = [("#", "s1", "s2", "sim", "sim1", "sim2", "Δrank", "Δcentrality")]
    for p in doc["partitions"]:
        blocks = ("{" + ", ".join(p["s1"]) + "}", "{" + ", ".join(p["s2"]) + "}")
        rows.append((str(p["index"]), *blocks, *_partition_cells(p)))
    lines.extend(_align(rows, indent="  "))
    t = doc["totals"]
    interior = "member of interior" if t["in_interior"] else "not in interior"
    lines.append(
        f"totals: rank={t['rank']} centrality={_cent_str(t['centrality'])} ({interior})"
    )
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# compare


def _compare_side(side: _Side) -> dict:
    if not side.report:
        return _skip_doc(side)
    report = side.report
    return {
        "status": "analyzed",
        "n": report.n,
        "interior_size": len(report.interior),
        "interior": sorted(report.interior),
        "words": [w.token for w in report.words],
    }


def _compare_doc(results):
    """The compare document and, when no synset was compared, the message."""
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


def _compare_csv(doc) -> str:
    rows = []
    for r in doc["synsets"]:
        cells = [r["id"]]
        for side in r["models"]:
            if side["status"] == "analyzed":
                cells += [
                    side["status"],
                    str(side["n"]),
                    str(side["interior_size"]),
                    "|".join(side["interior"]),
                    "|".join(side["words"]),
                ]
            else:
                cells += [side["status"], "", "", "", ""]
        cells.append("" if r["differs"] is None else _bool_str(r["differs"]))
        rows.append(tuple(cells))
    header = ("synset_id",) + tuple(
        f"{name}_{i}"
        for i in (1, 2)
        for name in ("status", "n", "interior_size", "interior", "words")
    ) + ("differs",)
    return _csv_text(header, rows)


def _compare_table(doc) -> str:
    lines = []
    for r in doc["synsets"]:
        flag = " *interior size differs*" if r["differs"] else ""
        lines.append(f"synset {r['id']}{flag}")
        for i, side in enumerate(r["models"], start=1):
            if side["status"] == "analyzed":
                interior = ", ".join(side["interior"]) if side["interior"] else "(empty)"
                lines.append(
                    f"  model {i}: n={side['n']}  |interior|={side['interior_size']}"
                    f"  interior: {interior}"
                )
                lines.append(f"    order: {', '.join(side['words'])}")
            else:
                lines.append(f"  model {i}: {side['status']}: {side['reason']}")
        lines.append("")
    sm = doc["summary"]
    lines.append(
        f"total={sm['total']} compared={sm['compared']} "
        f"skipped={sm['skipped']} differing={sm['differing']}"
    )
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# audit


def _audit_doc(results):
    """The audit document; audit succeeds even when nothing was analyzed."""
    sides = [(raw, side) for raw, (side,) in results]
    weak = [
        {"id": raw.id, "n": side.report.n, "words": [w.token for w in side.report.words]}
        for raw, side in sides
        if side.report and not side.report.interior
    ]
    skipped = [{"id": raw.id, **_skip_doc(side)} for raw, side in sides if not side.report]
    doc = {
        "weak": weak,
        "skipped": skipped,
        "summary": {
            "total": len(sides),
            "analyzed": len(sides) - len(skipped),
            "skipped": len(skipped),
            "weak": len(weak),
        },
    }
    return doc, None


def _audit_csv(doc) -> str:
    rows = [(w["id"], str(w["n"]), "|".join(w["words"])) for w in doc["weak"]]
    return _csv_text(("synset_id", "n", "words"), rows)


def _audit_table(doc) -> str:
    lines = []
    if doc["weak"]:
        lines.append("weak synsets (empty interior):")
        for w in doc["weak"]:
            lines.append(f"  {w['id']}  n={w['n']}  words: {', '.join(w['words'])}")
    else:
        lines.append("no weak synsets")
    lines.extend(_skipped_lines(doc))
    sm = doc["summary"]
    lines.append(
        f"total={sm['total']} analyzed={sm['analyzed']} "
        f"skipped={sm['skipped']} weak={sm['weak']}"
    )
    return "\n".join(lines)


# ---------------------------------------------------------------------------


_PROJECTIONS = {"analyze": _analyze_doc, "compare": _compare_doc, "audit": _audit_doc}
_RENDERERS = {
    "analyze": {"csv": _analyze_csv, "table": _analyze_table},
    "partitions": {"csv": _partitions_csv, "table": _partitions_table},
    "compare": {"csv": _compare_csv, "table": _compare_table},
    "audit": {"csv": _audit_csv, "table": _audit_table},
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
