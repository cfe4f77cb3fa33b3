"""Command-line frontend: compute clocks from CSV inputs, write SVG and JSON.

Each view command (global, local, intergroup) runs one pipeline: read the
flags and files, group the points, build the clocks, render and report.
``demo`` runs those three commands on the bundled iris fixture.

Exit codes: 0 success, 2 bad input (flags, or files missing, unreadable or
malformed), 3 computation failure. Warnings go to stderr, before the error
line when a run fails, and are echoed in the JSON report. Reports are
key-sorted with floats trimmed to 12 significant digits, so identical runs
produce identical bytes.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
import warnings
from contextlib import contextmanager
from importlib import resources
from pathlib import Path

from . import __version__
from .clockcore import Clock, build_global_clock, build_local_clocks
from .errors import ClockWarning, ComputationError, InputDataError
from .grouping import GroupingResult, dbscan, from_labels, kmeans, mst_over_centers
from .ingest import CLUSTER_SPACES, SIGNIFICANCE_RULES, Dataset, RunConfig, load_dataset, validate_config
from .intergroup import IntergroupClock, build_intergroup_clocks
from .render import render_circles, render_clock, render_intergroup, render_scatter

SCHEMA_VERSION = 4


@contextmanager
def _capture_warnings(sink: list[str]):
    """Append the block's ClockWarning messages to ``sink`` in order, also when the block raises."""
    try:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            yield
    finally:
        for item in caught:
            if issubclass(item.category, ClockWarning):
                sink.append(str(item.message))
            else:  # not ours to report: hand it back to the caller's filters
                warnings.warn_explicit(item.message, item.category, item.filename, item.lineno,
                                       source=item.source)


def _parse_canvas(text: str) -> tuple[str, str]:
    """--canvas's two sides as text, for RunConfig's canvas rule to read."""
    w, sep, h = text.lower().partition("x")
    if not sep:
        raise InputDataError(f"canvas must look like 900x600, got {text!r}")
    return w, h


_CLUSTERINGS = {"kmeans": ("kmeans:<k>", ("cluster_k",)),
                "dbscan": ("dbscan:<eps>,<min_pts>", ("cluster_eps", "cluster_min_pts"))}


def _parse_cluster(text: str) -> dict:
    """--cluster's method, and its values as text under the names of the RunConfig fields that check them."""
    head, _, tail = text.partition(":")
    method = head.strip().lower()
    if method not in _CLUSTERINGS:
        raise InputDataError(f"unknown clustering {text!r}; use kmeans:<k> or dbscan:<eps>,<min_pts>")
    syntax, names = _CLUSTERINGS[method]
    values = tail.split(",")
    if len(values) != len(names):
        raise InputDataError(f"expected {syntax}, got {text!r}")
    return {"cluster_method": method, **dict(zip(names, values))}


def _add_common_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--x", required=True, help="CSV of high-dimensional features")
    parser.add_argument("--y", required=True, help="CSV of 2D embedding coordinates")
    parser.add_argument("--labels", default=None, help="CSV of per-point labels")
    parser.add_argument("--cluster", default=None,
                        help="kmeans:<k> or dbscan:<eps>,<min_pts> (local and intergroup only)")
    parser.add_argument("--cluster-on", dest="cluster_on", choices=CLUSTER_SPACES, default=None,
                        help="space to cluster in, with --cluster (default: x)")
    # the numbers stay text: RunConfig converts and checks them, as it does --cluster's values
    parser.add_argument("--alpha", default=None, help="significance level (default 0.05)")
    parser.add_argument("--top-k", dest="top_k", default=None, help="keep only the k strongest arrows")
    parser.add_argument("--no-standardize-x", dest="standardize_x", action="store_const",
                        const=False, default=None, help="skip feature standardization")
    parser.add_argument("--significance-rule", dest="significance_rule", choices=SIGNIFICANCE_RULES,
                        default=None, help="axis p-value combination (default or)")
    parser.add_argument("--circles", action="store_const", const=True, default=None,
                        help="draw each feature's coefficient circle instead of its arrow")
    parser.add_argument("--scale", dest="clock_scale", default=None, help="clock radius multiplier (default 1)")
    parser.add_argument("--seed", default=None,
                        help="k-means seed, with --cluster kmeans (default 0)")
    parser.add_argument("--canvas", default=None, help="canvas size as WIDTHxHEIGHT (default 900x600)")
    parser.add_argument("--out-dir", dest="out_dir", default=".", help="output directory")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="featureclock",
        description="Explain a 2D embedding with clock glyphs of feature contributions.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    for view, help_text in (
        ("global", "one clock over all points"),
        ("local", "one clock per group"),
        ("intergroup", "clocks along the MST between group centers"),
    ):
        p_view = sub.add_parser(view, help=help_text)
        _add_common_flags(p_view)
        p_view.set_defaults(handler=_cmd_view)

    p_demo = sub.add_parser("demo", help="run all three clocks on the bundled iris fixture")
    p_demo.add_argument("--out-dir", dest="out_dir", default="demo_out")
    p_demo.set_defaults(handler=_cmd_demo)

    return parser


# Per view, the flags it never reads (by destination) and the message that rejects each.
_UNREAD = {
    "global": {"cluster": "--cluster applies to local and intergroup only; "
                          "color the global view with --labels",
               "seed": "--seed applies to local and intergroup only",
               "cluster_on": "--cluster-on applies to local and intergroup only"},
    "intergroup": {
        dest: f"{flag} applies to global and local only"
        for dest, flag in (("standardize_x", "--no-standardize-x"),
                           ("significance_rule", "--significance-rule"), ("circles", "--circles"),
                           ("clock_scale", "--scale"))
    },
}


def _config_from_args(args: argparse.Namespace) -> RunConfig:
    """Every RunConfig field from the flag of that name; an unset flag is None (the default)."""
    raw = {field.name: getattr(args, field.name, None) for field in dataclasses.fields(RunConfig)}
    if args.canvas is not None:
        raw["canvas"] = _parse_canvas(args.canvas)
    if args.cluster is not None and args.labels is not None:
        raise InputDataError("--labels and --cluster are exclusive; pass one of them")
    for dest, message in _UNREAD.get(args.command, {}).items():
        if getattr(args, dest) is not None:
            raise InputDataError(message)
    if args.cluster is not None:
        raw.update(_parse_cluster(args.cluster))
    if args.cluster_on is not None and args.cluster is None:
        raise InputDataError("--cluster-on applies with --cluster only")
    if args.seed is not None and raw["cluster_method"] != "kmeans":
        raise InputDataError("--seed applies with --cluster kmeans:<k> only")
    return validate_config(raw)


def _resolve_grouping(args: argparse.Namespace, dataset: Dataset, config: RunConfig) -> GroupingResult | None:
    """Groups from --labels or --cluster; the global view colors by labels only."""
    if dataset.labels is not None:
        return from_labels(dataset)
    if args.command == "global":
        return None
    if config.cluster_method == "kmeans":
        return kmeans(dataset, config.cluster_k, config.seed, on=config.cluster_on)
    if config.cluster_method == "dbscan":
        return dbscan(dataset, config.cluster_eps, config.cluster_min_pts, on=config.cluster_on)
    raise InputDataError("a grouping source is required: --labels or --cluster")


def _normalize_floats(obj):
    if isinstance(obj, float):
        return float(f"{obj:.12g}")
    if isinstance(obj, dict):
        return {key: _normalize_floats(value) for key, value in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_normalize_floats(value) for value in obj]
    return obj


def format_report(report: dict) -> str:
    return json.dumps(_normalize_floats(report), sort_keys=True, indent=2) + "\n"


def _clock_record(clock: Clock) -> dict:
    return {
        "variant": clock.variant,
        "group": clock.group,
        "member_count": clock.member_count,
        "anchor": clock.anchor,
        "scale": clock.scale,
        "arrows": [dataclasses.asdict(a) for a in clock.arrows],
    }


def _intergroup_record(clock: IntergroupClock) -> dict:
    return {
        "variant": "intergroup",
        "edge": {"a": clock.edge_names[0], "b": clock.edge_names[1]},
        "centers": clock.centers,
        "anchor": clock.anchor,
        "axis_angle_deg": clock.axis_angle_deg,
        "converged": clock.converged,
        "arrows": [dataclasses.asdict(a) for a in clock.arrows],
    }


def _report(args: argparse.Namespace, config: RunConfig, dataset: Dataset, clock_records, notes) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "tool": "featureclock",
        "tool_version": __version__,
        "command": args.command,
        "inputs": {
            "x": Path(args.x).name,
            "y": Path(args.y).name,
            "labels": Path(args.labels).name if args.labels else None,
            "rows": dataset.X.shape[0],
            "features": len(dataset.feature_names),
        },
        "config": dataclasses.asdict(config),
        "clocks": clock_records,
        "warnings": list(notes),
    }


def _write_outputs(out_dir, stem: str, scene, report: dict) -> None:
    out = Path(out_dir)
    try:
        out.mkdir(parents=True, exist_ok=True)
        with open(out / f"{stem}.svg", "w", encoding="utf-8") as svg:
            scene.to_svg(svg)
        (out / f"{stem}.json").write_text(format_report(report), encoding="utf-8")
    except OSError as exc:
        raise InputDataError(f"{out}: cannot write outputs: {exc.strerror or exc}") from None


def _cmd_view(args: argparse.Namespace, notes: list[str], stem: str = "clock") -> None:
    """Run one view command and write its ``<stem>.svg`` and ``<stem>.json``.

    ``args.command`` is ``global``, ``local`` or ``intergroup``. Warnings
    raised while the flags are read, the files loaded, the points grouped and
    the clocks built are appended to ``notes``, also when one of these steps
    fails, and echoed in the report.
    """
    view = args.command
    first = len(notes)
    with _capture_warnings(notes):
        config = _config_from_args(args)
        dataset = load_dataset(args.x, args.y, args.labels)
        grouping = _resolve_grouping(args, dataset, config)
        if view == "global":
            clocks = [build_global_clock(dataset, config)]
        elif view == "local":
            clocks = build_local_clocks(dataset, grouping, config)
        else:
            mst = mst_over_centers(grouping)
            clocks = build_intergroup_clocks(dataset, grouping, mst, config)
    scene = render_scatter(dataset, grouping, canvas=config.canvas)
    if view == "intergroup":
        render_intergroup(scene, clocks)
        report = _report(args, config, dataset, [_intergroup_record(c) for c in clocks], notes[first:])
        by_id = {g.id: g.name for g in grouping.groups}
        report["mst"] = [[by_id[a], by_id[b], length] for a, b, length in mst]
    else:
        glyph = render_circles if config.circles else render_clock
        for clock in clocks:
            glyph(scene, clock, clock_scale=config.clock_scale)
        report = _report(args, config, dataset, [_clock_record(c) for c in clocks], notes[first:])
    _write_outputs(args.out_dir, stem, scene, report)


def demo_paths() -> tuple[Path, Path, Path]:
    """Paths of the bundled iris fixture (features, embedding, labels)."""
    data = resources.files("featureclock") / "data"
    return (
        Path(str(data / "iris_features.csv")),
        Path(str(data / "iris_embedding.csv")),
        Path(str(data / "iris_labels.csv")),
    )


def _cmd_demo(args: argparse.Namespace, notes: list[str]) -> None:
    """Run the three view commands on the bundled iris fixture with ``--labels`` and default flags."""
    x, y, labels = (str(path) for path in demo_paths())
    for view, stem in (
        ("global", "global_clock"),
        ("local", "local_clocks"),
        ("intergroup", "intergroup_clocks"),
    ):
        argv = [view, "--x", x, "--y", y, "--labels", labels, f"--out-dir={args.out_dir}"]
        _cmd_view(build_parser().parse_args(argv), notes, stem)


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    notes: list[str] = []
    code, error = 0, None
    try:
        args.handler(args, notes)
    except InputDataError as exc:
        code, error = 2, exc
    except ComputationError as exc:
        code, error = 3, exc
    for note in notes:
        print(f"warning: {note}", file=sys.stderr)
    if error is not None:
        print(f"error: {error}", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
