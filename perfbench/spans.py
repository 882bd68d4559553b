"""Traced CLI run and the per-layer metrics derived from it.

Run as a script, this is the traced child:

    python spans.py SPANS.json CLI-ARGS...

It imports ``synsetgeom.cli``, wraps the layer functions that ``cli`` calls
through its own namespace, runs ``cli.main(CLI-ARGS)`` and writes the spans
once at exit.  A wrapped name that no longer exists is reported as missing
instead of failing the run, so the benchmark survives renames it may not
follow.  Imported as a module, ``layer_metrics`` turns the spans into the
per-layer metrics.
"""

from __future__ import annotations

import json
import os
import statistics
import sys
import time

# layer -> the names in synsetgeom.cli that enter it
LAYERS = {
    "embeddings": ("load_text_model", "load_binary_model"),
    "ingestion": ("parse_synsets", "resolve"),
    "geometry": ("analyze_synset", "partition_outcomes", "rank_and_centrality"),
}
ANALYZE_SIZES = (3, 4, 5, 6, 7, 8, 12, 13, 14, 15, 16)


def _loader_attrs(args, kwargs, result):
    path = str(args[0] if args else kwargs["path"])
    return {"file_bytes": os.path.getsize(path), "rows": len(result)}


def _resolve_attrs(args, kwargs, result):
    matched = getattr(result, "matched_keys", ())
    return {
        "resolved": getattr(result, "resolved", None) is not None,
        "oov": sum(r == "out-of-vocabulary" for _, r in getattr(result, "dropped_words", ())),
        "exact": sum(t == k for t, k in matched),
        "fallback": sum(t != k for t, k in matched),
    }


def _synset_attrs(args, kwargs, result):
    synset = args[0] if args else kwargs["synset"]
    n = getattr(synset, "n", None)
    return {"n": n if isinstance(n, int) else len(synset.tokens)}


_ATTRS = {
    "load_text_model": _loader_attrs,
    "load_binary_model": _loader_attrs,
    "parse_synsets": lambda a, k, r: {"synsets": len(r)},
    "resolve": _resolve_attrs,
    "analyze_synset": _synset_attrs,
    "partition_outcomes": _synset_attrs,
    "rank_and_centrality": _synset_attrs,
}


class Tracer:
    def __init__(self):
        self.run = f"{os.getpid()}-{time.time_ns()}"
        self.spans: list[dict] = []
        self._stack: list[int] = []

    def wrap(self, name, fn, attrs=None):
        def traced(*args, **kwargs):
            span = {"id": len(self.spans), "name": name, "run": self.run,
                    "parent": self._stack[-1] if self._stack else None}
            self.spans.append(span)
            self._stack.append(span["id"])
            span["start"] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span["error"] = type(exc).__name__
                raise
            finally:
                span["end"] = time.perf_counter()
                self._stack.pop()
            if attrs is not None:
                try:
                    span["attrs"] = attrs(args, kwargs, result)
                except Exception as exc:  # a changed result type must not fail the run
                    span["attrs_error"] = repr(exc)
            return result

        return traced


def _child(spans_path, argv):
    import synsetgeom.cli as cli

    tracer = Tracer()
    missing = []
    for names in LAYERS.values():
        for name in names:
            fn = getattr(cli, name, None)
            if callable(fn):
                setattr(cli, name, tracer.wrap(name, fn, _ATTRS[name]))
            else:
                missing.append(name)
    rc = 1
    try:
        rc = tracer.wrap("cli.main", cli.main)(argv)
    finally:
        sys.stdout.flush()
        with open(spans_path, "w", encoding="utf-8") as f:
            json.dump({"run": tracer.run, "rc": rc, "missing": missing, "spans": tracer.spans}, f)
    return rc


# ---------------------------------------------------------------------------
# parent side


def missing_layers(doc) -> dict[str, list[str]]:
    """layer -> its missing names, for layers with any name missing."""
    return {
        layer: [n for n in names if n in doc["missing"]]
        for layer, names in LAYERS.items()
        if any(n in doc["missing"] for n in names)
    }


def layer_metrics(doc, wall_median: float, traced_wall: float, output_bytes: int) -> dict:
    """Per-layer metric values (units in BENCHMARK.json) from one traced run."""
    spans = doc["spans"]
    by: dict[str, list[dict]] = {}
    for s in spans:
        by.setdefault(s["name"], []).append(s)

    def dur(s):
        return s["end"] - s["start"]

    def busy(*names):
        return sum(dur(s) for n in names for s in by.get(n, ()))

    def attr(names, key):
        return sum(s.get("attrs", {}).get(key, 0) for n in names for s in by.get(n, ()))

    loaders = LAYERS["embeddings"]
    load_s = busy(*loaders)
    file_mb = attr(loaders, "file_bytes") / 1e6
    resolves = by.get("resolve", [])
    analyses = [s for s in by.get("analyze_synset", []) if "error" not in s]
    singles = [s for n in ("partition_outcomes", "rank_and_centrality") for s in by.get(n, ())]
    geometry_s = busy(*LAYERS["geometry"])
    partitions = sum(
        s["attrs"]["n"] * ((1 << (s["attrs"]["n"] - 2)) - 1) for s in analyses if "attrs" in s
    ) + sum((1 << (s["attrs"]["n"] - 2)) - 1 for s in singles if "attrs" in s and "error" not in s)
    main = by["cli.main"][0]
    direct = sum(dur(s) for s in spans if s["parent"] == main["id"])
    m = {
        "embeddings.load_s": load_s,
        "embeddings.load_calls": len([s for n in loaders for s in by.get(n, ())]),
        "embeddings.rows": attr(loaders, "rows"),
        "embeddings.file_mb": file_mb,
        "embeddings.mb_per_s": file_mb / load_s if load_s else 0.0,
        "ingestion.parse_s": busy("parse_synsets"),
        "ingestion.resolve_s": busy("resolve"),
        "ingestion.resolve_calls": len(resolves),
        "ingestion.resolved_ratio": (
            attr(["resolve"], "resolved") / len(resolves) if resolves else 0.0
        ),
        "ingestion.oov_words": attr(["resolve"], "oov"),
        "ingestion.exact_matches": attr(["resolve"], "exact"),
        "ingestion.fallback_matches": attr(["resolve"], "fallback"),
        "geometry.analyze_s": busy("analyze_synset"),
        "geometry.analyze_calls": len(by.get("analyze_synset", [])),
        "geometry.errors": sum("error" in s for n in LAYERS["geometry"] for s in by.get(n, ())),
        "geometry.partitions": partitions,
        "geometry.partitions_per_s": partitions / geometry_s if geometry_s else 0.0,
    }
    for k in ANALYZE_SIZES:
        ms = [dur(s) * 1e3 for s in analyses if s.get("attrs", {}).get("n") == k]
        m[f"geometry.analyze_ms.n{k}"] = statistics.median(ms) if ms else 0.0
    m["geometry.partition_outcomes_s"] = busy("partition_outcomes")
    m["geometry.rank_and_centrality_s"] = busy("rank_and_centrality")
    m["cli.main_s"] = dur(main)
    m["cli.self_s"] = dur(main) - direct
    m["cli.output_mb"] = output_bytes / 1e6
    m["trace.overhead_frac"] = (traced_wall - wall_median) / wall_median
    return m


if __name__ == "__main__":
    sys.exit(_child(sys.argv[1], sys.argv[2:]))
