"""featureclock benchmark: the CLI end to end, plus a traced per-layer run.

Run from the root of a featureclock checkout:

    python3 bench/run.py                      # every workload, traced, seed 0
    python3 bench/run.py --workload global-wide --seed 3 --seconds 20 --trace 0

One run generates the workload's inputs from the seed and makes one untimed
reference invocation, whose outputs the checks in ``checks.py`` read. It then
repeats rounds of operations for about ``--seconds`` seconds:
``featureclock --version`` (setup_s) and one CLI invocation (run_s,
peak_rss_mb, svg_bytes), each in a fresh process. An operation fails when it
exits non-zero, when its outputs differ from the reference invocation's, or
when the reference outputs fail the checks. With ``--trace 1`` one more,
traced invocation gives the per-layer metrics (``tracer.py``).

The last line of standard output is one JSON object: correct, attempted,
failed and metrics (end-to-end with ``--trace 0``, per-layer with
``--trace 1``).
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

import checks
import tracer
import workloads

BENCH = Path(__file__).resolve().parent
END_TO_END = {"run_s": "s", "setup_s": "s", "peak_rss_mb": "MB", "svg_bytes": "bytes"}


def _child_env(root: Path) -> dict:
    """The package from the checkout's src/, with single-threaded BLAS.

    Two BLAS threads made global-wide no faster at 2 cores (6.6-7.7 s against
    6.5-6.8 s) while doubling its CPU time, and 9-12 s slow while another
    process was busy on the second core.
    """
    return dict(
        os.environ,
        PYTHONPATH=str(root / "src"),
        OPENBLAS_NUM_THREADS="1",
        OMP_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
        PYTHONHASHSEED="0",
    )


def run_workload(root: Path, name: str, seed: int, seconds: int, trace: bool) -> dict:
    work = root / ".bench_work" / f"{name}-{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        data = workloads.generate(name, seed)
        workloads.write_inputs(data, work / "inputs")
        plan = {
            "python": sys.executable,
            "env": _child_env(root),
            "args": workloads.cli_args(name, work / "inputs"),
            "work": str(work),
            "seconds": seconds,
            "trace": trace,
            "tracer": str(BENCH / "tracer.py"),
        }
        (work / "plan.json").write_text(json.dumps(plan), encoding="utf-8")
        subprocess.run(
            [sys.executable, str(BENCH / "timing.py"), str(work / "plan.json"), str(work / "timing.json")],
            check=True,
        )
        timing = json.loads((work / "timing.json").read_text(encoding="utf-8"))
        first = work / "first"  # the reference invocation's outputs
        if (first / "clock.svg").is_file() and (first / "clock.json").is_file():
            problems, groups = checks.check_outputs(
                name, data,
                (first / "clock.svg").read_text(encoding="utf-8"),
                (first / "clock.json").read_text(encoding="utf-8"),
            )
            svg_bytes = (first / "clock.svg").stat().st_size
        else:
            problems, groups, svg_bytes = ["the reference invocation wrote no clock.svg and clock.json"], None, 0
        spans = {"spans": [], "missing": []}
        if (work / "spans.json").is_file():
            spans = json.loads((work / "spans.json").read_text(encoding="utf-8"))
            shutil.copy(work / "spans.json", work.parent / f"spans-{name}-seed{seed}.json")
    finally:
        shutil.rmtree(work, ignore_errors=True)

    rounds = timing["rounds"]
    first_run = timing["reference"]
    reference = first_run["digest"]
    checked = not problems
    if first_run["exit"] != 0:
        problems.append(f"reference invocation: exit {first_run['exit']}: {first_run.get('log', '')}")
    failed = int(first_run["exit"] != 0 or not checked)
    for number, entry in enumerate(rounds):
        run = entry["run"]
        for probe in entry["probes"]:
            if probe["exit"] != 0 or not probe["stdout"].startswith("featureclock "):
                failed += 1
                problems.append(f"round {number}: --version exited {probe['exit']}: {probe['stdout'][:200]}")
        if run["exit"] != 0:
            problems.append(f"round {number}: exit {run['exit']}: {run.get('log', '')}")
        elif run["digest"] != reference:
            problems.append(f"round {number}: outputs differ from the reference invocation's")
        failed += run["exit"] != 0 or run["digest"] != reference or not checked

    probes = [probe for entry in rounds for probe in entry["probes"]]
    result = {
        "rounds": len(rounds),
        "attempted": 1 + sum(len(entry["probes"]) + 1 for entry in rounds),
        "failed": failed,
        "problems": problems,
        "trace_problems": [],
        "end_to_end": {
            "run_s": statistics.median(entry["run"]["cpu_s"] for entry in rounds),
            "setup_s": statistics.median(probe["cpu_s"] for probe in probes),
            "peak_rss_mb": statistics.median(entry["run"]["maxrss_kb"] for entry in rounds) / 1024.0,
            "svg_bytes": svg_bytes,
        },
        # Wall times, shown for reference: they also count the time the
        # hypervisor gave the CPU to other guests.
        "wall": {
            "run_wall_s": statistics.median(entry["run"]["wall_s"] for entry in rounds),
            "setup_wall_s": statistics.median(probe["wall_s"] for probe in probes),
        },
    }
    if trace:
        traced = timing["traced"]
        result["per_layer"] = tracer.layer_metrics(spans, traced["cpu_s"], result["end_to_end"]["run_s"])
        result["missing"] = spans["missing"]
        if traced["exit"] != 0:
            result["trace_problems"].append(f"traced run exited {traced['exit']}: {traced.get('log', '')}")
        elif traced["digest"] != reference:
            result["trace_problems"].append("traced run wrote other outputs than the untraced runs")
        for function in ("grouping.kmeans", "grouping.dbscan"):
            labels = tracer.traced_labels(spans, function)
            if labels is not None and groups is not None and not checks.same_grouping(labels, groups):
                result["trace_problems"].append(f"traced {function} grouping differs from the SVG's groups")
    return result


def _print_metrics(name: str, values: dict, units: dict) -> None:
    for metric, unit in units.items():
        value = values[metric]
        shown = f"{value:>16.6g}" if isinstance(value, float) else f"{value:>16d}"
        print(f"{name:18s} {metric:34s} {shown} {unit}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", choices=("all", *workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=30, help="length of the measured loop per workload")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=1,
                        help="1 adds the traced run and reports per-layer metrics")
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "featureclock" / "cli.py").is_file():
        print(f"error: {root} is not the root of a featureclock checkout (no src/featureclock)", file=sys.stderr)
        return 2
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    trace = bool(args.trace)

    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        result = run_workload(root, name, args.seed, args.seconds, trace)
        print(f"{name}: seed {args.seed}, {result['rounds']} rounds, "
              f"attempted {result['attempted']}, failed {result['failed']}")
        _print_metrics(name, result["end_to_end"], END_TO_END)
        _print_metrics(name, result["wall"], dict.fromkeys(result["wall"], "s (wall, not reported)"))
        reported = {metric: (value, END_TO_END[metric]) for metric, value in result["end_to_end"].items()}
        if trace:
            _print_metrics(name, result["per_layer"], tracer.PER_LAYER)
            if result["missing"]:
                print(f"{name}: missing (traced function no longer exists): {', '.join(result['missing'])}")
            reported = {metric: (value, tracer.PER_LAYER[metric]) for metric, value in result["per_layer"].items()}
        for problem in result["problems"][:20] + result["trace_problems"]:
            print(f"{name}: FAILED CHECK: {problem}", file=sys.stderr)
        summary["correct"] = summary["correct"] and not result["trace_problems"]
        summary["attempted"] += result["attempted"]
        summary["failed"] += result["failed"]
        prefix = f"{name}/" if len(names) > 1 else ""
        for metric, (value, unit) in reported.items():
            summary["metrics"][prefix + metric] = {"value": value, "unit": unit}
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
