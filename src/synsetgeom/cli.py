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
import math
import sys
from dataclasses import dataclass

from .embeddings import EmbeddingModel, load_binary_model, load_text_model
from .errors import DegenerateGeometryError, SynsetGeomError, SynsetSizeError
from .geometry import (
    DEFAULT_EPS,
    DEFAULT_MAX_SYNSET_SIZE,
    SynsetReport,
    analyze_synset,
    partition_outcomes,
)
from .ingestion import (
    DEFAULT_TAG_SUFFIXES,
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
    p.set_defaults(handler=_cmd_analyze, n_models=1)

    p = sub.add_parser(
        "partitions", help="per-partition detail for one word of one synset"
    )
    p.add_argument("synset_id", help="synset id from the synset file")
    p.add_argument("token", help="the focus word (surface form from the synset)")
    add_common(p, 1)
    p.set_defaults(handler=_cmd_partitions, n_models=1)

    p = sub.add_parser("compare", help="interiors under two models, side by side")
    add_common(p, 2)
    p.set_defaults(handler=_cmd_compare, n_models=2)

    p = sub.add_parser("audit", help="find synsets with an empty interior")
    add_common(p, 1)
    p.set_defaults(handler=_cmd_audit, n_models=1)

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


def _skip_reason(raw: RawSynset, outcome: ResolutionOutcome) -> str:
    surviving = len(raw.words) - len(outcome.dropped_words)
    if outcome.status == STATUS_TOO_SMALL:
        return (
            f"only {surviving} of {len(raw.words)} words resolved "
            f"(need {MIN_SYNSET_SIZE})"
        )
    return (
        f"{len(outcome.dropped_words)} word(s) out of vocabulary "
        "under skip-synset policy"
    )


def _dropped_docs(outcome: ResolutionOutcome) -> list[dict]:
    return [{"token": t, "reason": r} for t, r in outcome.dropped_words]


def _analyze_raw(raw: RawSynset, model: EmbeddingModel, cfg: RunConfig):
    """One synset against one model.

    Returns ('analyzed', outcome, report) or (status, outcome, reason) where
    status is the resolution status or 'error'.
    """
    outcome = resolve(raw, model, cfg.oov)
    if outcome.status != STATUS_RESOLVED:
        return outcome.status, outcome, _skip_reason(raw, outcome)
    try:
        report = analyze_synset(
            outcome.resolved, eps=cfg.eps, max_size=cfg.max_synset_size
        )
    except (SynsetSizeError, DegenerateGeometryError) as exc:
        return "error", outcome, str(exc)
    return "analyzed", outcome, report


def _synset_doc(outcome: ResolutionOutcome, report: SynsetReport) -> dict:
    model_keys = dict(outcome.matched_keys)
    return {
        "id": report.synset_id,
        "n": report.n,
        "source_size": outcome.resolved.source_size,
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
        "dropped": _dropped_docs(outcome),
    }


def _skip_doc(raw: RawSynset, status: str, outcome: ResolutionOutcome, reason: str) -> dict:
    return {
        "id": raw.id,
        "status": status,
        "reason": reason,
        "dropped": _dropped_docs(outcome),
    }


def _emit(cfg: RunConfig, text: str) -> None:
    if not text.endswith("\n"):
        text += "\n"
    if cfg.out_path:
        with open(cfg.out_path, "w", encoding="utf-8", newline="\n") as fout:
            fout.write(text)
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------------------
# analyze


def _cmd_analyze(args) -> int:
    cfg = _config_from_args(args)
    model = _load_model(cfg.model_paths[0])
    raws = parse_synsets(cfg.synsets_path, cfg.synset_format)
    analyzed, skipped = [], []
    for raw in raws:
        status, outcome, payload = _analyze_raw(raw, model, cfg)
        if status == "analyzed":
            analyzed.append(_synset_doc(outcome, payload))
        else:
            skipped.append(_skip_doc(raw, status, outcome, payload))
    doc = {
        "synsets": analyzed,
        "skipped": skipped,
        "summary": {
            "total": len(raws),
            "analyzed": len(analyzed),
            "skipped": len(skipped),
        },
    }
    renderers = {"json": _render_json, "csv": _analyze_csv, "table": _analyze_table}
    _emit(cfg, renderers[cfg.output](doc))
    if not analyzed:
        print("no synsets analyzed", file=sys.stderr)
        return EXIT_NOTHING
    return EXIT_OK


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
        lines.append("skipped:")
        for sk in doc["skipped"]:
            lines.append(f"  {sk['id']}: {sk['status']}: {sk['reason']}")
        lines.append("")
    sm = doc["summary"]
    lines.append(
        f"total={sm['total']} analyzed={sm['analyzed']} skipped={sm['skipped']}"
    )
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# partitions


def _cmd_partitions(args) -> int:
    cfg = _config_from_args(args)
    model = _load_model(cfg.model_paths[0])
    raws = parse_synsets(cfg.synsets_path, cfg.synset_format)
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
    outcomes = partition_outcomes(synset, focus, eps=cfg.eps, max_size=cfg.max_synset_size)
    rank_doubled = sum(po.r_doubled for po in outcomes)
    remaining = [t for i, t in enumerate(tokens) if i != focus]
    rows = []
    for i, po in enumerate(outcomes, start=1):
        i1, i2 = po.partition.split_indices(len(remaining))
        rows.append(
            {
                "index": i,
                "s1": [remaining[j] for j in i1],
                "s2": [remaining[j] for j in i2],
                "sim": _fixed(po.sim, 6),
                "sim1": _fixed(po.sim1, 6),
                "sim2": _fixed(po.sim2, 6),
                "delta_rank": _rank_value(po.r_doubled),
                "delta_centrality": _fixed(po.centrality_delta, 4),
            }
        )
    doc = {
        "id": raw.id,
        "focus": args.token,
        "n": synset.n,
        "partition_count": len(outcomes),
        "partitions": rows,
        "totals": {
            "rank": _rank_value(rank_doubled),
            "centrality": _fixed(math.fsum(po.centrality_delta for po in outcomes), 4),
            # interior <=> every split contributes +1 on both sides
            "in_interior": rank_doubled == 2 * len(outcomes),
        },
    }
    renderers = {
        "json": _render_json,
        "csv": _partitions_csv,
        "table": _partitions_table,
    }
    _emit(cfg, renderers[cfg.output](doc))
    return EXIT_OK


def _partitions_csv(doc) -> str:
    rows = [
        (
            str(p["index"]),
            "|".join(p["s1"]),
            "|".join(p["s2"]),
            _sim_str(p["sim"]),
            _sim_str(p["sim1"]),
            _sim_str(p["sim2"]),
            str(p["delta_rank"]),
            _cent_str(p["delta_centrality"]),
        )
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
        rows.append(
            (
                str(p["index"]),
                "{" + ", ".join(p["s1"]) + "}",
                "{" + ", ".join(p["s2"]) + "}",
                _sim_str(p["sim"]),
                _sim_str(p["sim1"]),
                _sim_str(p["sim2"]),
                str(p["delta_rank"]),
                _cent_str(p["delta_centrality"]),
            )
        )
    lines.extend(_align(rows, indent="  "))
    t = doc["totals"]
    interior = "member of interior" if t["in_interior"] else "not in interior"
    lines.append(
        f"totals: rank={t['rank']} centrality={_cent_str(t['centrality'])} ({interior})"
    )
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# compare


def _compare_side(raw: RawSynset, model: EmbeddingModel, cfg: RunConfig) -> dict:
    status, outcome, payload = _analyze_raw(raw, model, cfg)
    if status != "analyzed":
        return {"status": status, "reason": payload, "dropped": _dropped_docs(outcome)}
    report = payload
    return {
        "status": "analyzed",
        "n": report.n,
        "interior_size": len(report.interior),
        "interior": sorted(report.interior),
        "words": [w.token for w in report.words],
    }


def _cmd_compare(args) -> int:
    cfg = _config_from_args(args)
    models = [_load_model(p) for p in cfg.model_paths]
    raws = parse_synsets(cfg.synsets_path, cfg.synset_format)
    rows = []
    compared = differing = 0
    for raw in raws:
        sides = [_compare_side(raw, model, cfg) for model in models]
        comparable = all(s["status"] == "analyzed" for s in sides)
        differs = None
        if comparable:
            compared += 1
            differs = sides[0]["interior_size"] != sides[1]["interior_size"]
            differing += differs
        rows.append({"id": raw.id, "models": sides, "differs": differs})
    doc = {
        "synsets": rows,
        "summary": {
            "total": len(raws),
            "compared": compared,
            "skipped": len(raws) - compared,
            "differing": differing,
        },
    }
    renderers = {"json": _render_json, "csv": _compare_csv, "table": _compare_table}
    _emit(cfg, renderers[cfg.output](doc))
    if not compared:
        print("no synsets compared", file=sys.stderr)
        return EXIT_NOTHING
    return EXIT_OK


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


def _cmd_audit(args) -> int:
    cfg = _config_from_args(args)
    model = _load_model(cfg.model_paths[0])
    raws = parse_synsets(cfg.synsets_path, cfg.synset_format)
    weak, skipped = [], []
    analyzed = 0
    for raw in raws:
        status, outcome, payload = _analyze_raw(raw, model, cfg)
        if status != "analyzed":
            skipped.append(_skip_doc(raw, status, outcome, payload))
            continue
        analyzed += 1
        report = payload
        if not report.interior:
            weak.append(
                {"id": raw.id, "n": report.n, "words": [w.token for w in report.words]}
            )
    doc = {
        "weak": weak,
        "skipped": skipped,
        "summary": {
            "total": len(raws),
            "analyzed": analyzed,
            "skipped": len(skipped),
            "weak": len(weak),
        },
    }
    renderers = {"json": _render_json, "csv": _audit_csv, "table": _audit_table}
    _emit(cfg, renderers[cfg.output](doc))
    return EXIT_OK


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
    if doc["skipped"]:
        lines.append("skipped:")
        for sk in doc["skipped"]:
            lines.append(f"  {sk['id']}: {sk['status']}: {sk['reason']}")
    sm = doc["summary"]
    lines.append(
        f"total={sm['total']} analyzed={sm['analyzed']} "
        f"skipped={sm['skipped']} weak={sm['weak']}"
    )
    return "\n".join(lines)


# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return args.handler(args)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_FATAL
    except SynsetGeomError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FATAL
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FATAL
    except MemoryError as exc:
        detail = f": {exc}" if str(exc) else ""
        print(f"error: out of memory{detail}", file=sys.stderr)
        return EXIT_FATAL


if __name__ == "__main__":
    sys.exit(main())
