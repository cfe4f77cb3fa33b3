"""Per-layer tracing of one featureclock CLI run.

Run as a script, it wraps the public functions at each module boundary of
the package, calls ``featureclock.cli.main`` in-process and writes the spans
as JSON when the run ends:

    python3 bench/tracer.py SPANS.json -- <featureclock arguments>

The wrappers replace the functions by name in every featureclock module that
imported them, so ``src/`` is traced unchanged. A function that no longer
exists is listed under ``missing`` instead of failing the run, and the
metrics that need it read 0.

``layer_metrics`` turns a span file into the per-layer metrics; it needs no
import of the package.
"""

from __future__ import annotations

import importlib
import json
import sys
import time

# module -> functions traced there; "Class.method" wraps a method.
TRACED = {
    "featureclock.ingest": ["load_dataset"],
    "featureclock.numstats": ["ols_fit", "standardize_columns", "center_columns"],
    "featureclock.clockcore": ["build_clock"],
    "featureclock.grouping": ["from_labels", "kmeans", "dbscan", "mst_over_centers"],
    "featureclock.intergroup": ["build_intergroup_clocks", "logistic_fit"],
    "featureclock.render": [
        "render_scatter", "render_clock", "render_intergroup", "render_circles", "Scene.to_svg",
    ],
    "featureclock.cli": ["format_report", "main"],
}

# Per-layer metrics in report order, with their units.
PER_LAYER = {
    "ingest.load_s": "s",
    "ingest.cells_per_s": "1/s",
    "numstats.ols_fit_s": "s",
    "numstats.ols_fit_calls_per_clock": "count",
    "numstats.standardize_s": "s",
    "clockcore.build_clock_s": "s",
    "clockcore.build_clock_self_s": "s",
    "grouping.kmeans_s": "s",
    "grouping.dbscan_s": "s",
    "grouping.from_labels_s": "s",
    "grouping.mst_s": "s",
    "intergroup.build_s": "s",
    "intergroup.logistic_fit_s": "s",
    "intergroup.irls_iterations": "count",
    "intergroup.converged_ratio": "ratio",
    "render.scatter_s": "s",
    "render.glyphs_s": "s",
    "render.to_svg_s": "s",
    "cli.format_report_s": "s",
    "cli.json_bytes": "bytes",
    "cli.main_self_s": "s",
    "trace.overhead_s": "s",
}


def _span_name(module: str, name: str) -> str:
    return f"{module.rsplit('.', 1)[-1]}.{name.rsplit('.', 1)[-1]}"


def _observe(name: str, result) -> dict:
    """Counts taken from a traced call's result, at the same boundary as its span.

    A result without the expected fields, after a refactor, gives no counts.
    """
    try:
        return _counts(name, result)
    except (AttributeError, TypeError):
        return {}


def _counts(name: str, result) -> dict:
    if name == "ingest.load_dataset":
        return {"cells": int(result.X.size + result.Y.size)}
    if name == "intergroup.logistic_fit":
        return {"iterations": int(result.iterations), "converged": bool(result.converged)}
    if name in ("grouping.kmeans", "grouping.dbscan"):
        return {"labels": [int(v) for v in result.labels]}
    if name == "cli.format_report":
        return {"bytes": len(result.encode("utf-8"))}
    return {}


class Tracer:
    """Spans of one run, kept in memory: [name, parent, start, end, counts]."""

    def __init__(self):
        self.spans: list[list] = []
        self._open: list[int] = []
        self.missing: list[str] = []

    def wrap(self, name: str, fn):
        def traced(*args, **kwargs):
            index = len(self.spans)
            parent = self._open[-1] if self._open else -1
            self.spans.append([name, parent, time.perf_counter(), None, {}])
            self._open.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.spans[index][3] = time.perf_counter()
                self._open.pop()
            self.spans[index][4] = _observe(name, result)
            return result

        return traced

    def install(self) -> None:
        """Wrap every traced function in its module and wherever it was imported."""
        importlib.import_module("featureclock.cli")
        modules = [m for key, m in sys.modules.items() if key.split(".")[0] == "featureclock"]
        for module_name, names in TRACED.items():
            module = sys.modules.get(module_name)
            for name in names:
                span = _span_name(module_name, name)
                owner = module
                attr = name
                if "." in name:
                    cls, attr = name.split(".")
                    owner = getattr(module, cls, None)
                original = getattr(owner, attr, None)
                if original is None:
                    self.missing.append(span)
                    continue
                wrapped = self.wrap(span, original)
                setattr(owner, attr, wrapped)
                for mod in modules:
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, key, wrapped)


def _durations(spans: list[list]) -> tuple[list[float], list[float]]:
    """Inclusive and self time of every span; children of one span never overlap."""
    inclusive = [end - start for _name, _parent, start, end, _counts in spans]
    self_time = list(inclusive)
    for i, span in enumerate(spans):
        if span[1] >= 0:
            self_time[span[1]] -= inclusive[i]
    return inclusive, self_time


def layer_metrics(dump: dict, traced_cpu_s: float, run_s: float) -> dict:
    """Per-layer metrics of one traced run, keyed as in PER_LAYER."""
    spans = dump["spans"]
    inclusive, self_time = _durations(spans)

    def total(*names, own=False):
        times = self_time if own else inclusive
        return float(sum(t for span, t in zip(spans, times) if span[0] in names))

    def calls(name):
        return [span[4] for span in spans if span[0] == name]

    cells = sum(c.get("cells", 0) for c in calls("ingest.load_dataset"))
    load_s = total("ingest.load_dataset")
    clocks = len(calls("clockcore.build_clock"))
    fits = calls("intergroup.logistic_fit")
    return {
        "ingest.load_s": load_s,
        "ingest.cells_per_s": cells / load_s if load_s > 0 else 0.0,
        "numstats.ols_fit_s": total("numstats.ols_fit", own=True),
        "numstats.ols_fit_calls_per_clock": len(calls("numstats.ols_fit")) / clocks if clocks else 0.0,
        "numstats.standardize_s": total("numstats.standardize_columns", "numstats.center_columns"),
        "clockcore.build_clock_s": total("clockcore.build_clock"),
        "clockcore.build_clock_self_s": total("clockcore.build_clock", own=True),
        "grouping.kmeans_s": total("grouping.kmeans"),
        "grouping.dbscan_s": total("grouping.dbscan"),
        "grouping.from_labels_s": total("grouping.from_labels"),
        "grouping.mst_s": total("grouping.mst_over_centers"),
        "intergroup.build_s": total("intergroup.build_intergroup_clocks"),
        "intergroup.logistic_fit_s": total("intergroup.logistic_fit"),
        "intergroup.irls_iterations": sum(f.get("iterations", 0) for f in fits),
        "intergroup.converged_ratio": sum(bool(f.get("converged")) for f in fits) / len(fits) if fits else 0.0,
        "render.scatter_s": total("render.render_scatter"),
        "render.glyphs_s": total("render.render_clock", "render.render_intergroup", "render.render_circles"),
        "render.to_svg_s": total("render.to_svg"),
        "cli.format_report_s": total("cli.format_report"),
        "cli.json_bytes": sum(c.get("bytes", 0) for c in calls("cli.format_report")),
        "cli.main_self_s": total("cli.main", own=True),
        "trace.overhead_s": traced_cpu_s - run_s,
    }


def traced_labels(dump: dict, name: str) -> list[int] | None:
    """Labels returned by the first traced call of a grouping function."""
    for span in dump["spans"]:
        if span[0] == name:
            return span[4].get("labels")
    return None


def _main(spans_path: str, argv: list[str]) -> int:
    tracer = Tracer()
    tracer.install()
    cli = sys.modules["featureclock.cli"]
    try:
        code = cli.main(argv)
    finally:
        with open(spans_path, "w", encoding="utf-8") as handle:
            json.dump({"spans": tracer.spans, "missing": tracer.missing}, handle)
    return code


if __name__ == "__main__":
    if len(sys.argv) < 3 or sys.argv[2] != "--":
        sys.exit("usage: tracer.py SPANS.json -- <featureclock arguments>")
    sys.exit(_main(sys.argv[1], sys.argv[3:]))
