"""Timed featureclock invocations for one benchmark run; standard library only.

    python3 bench/timing.py PLAN.json RESULT.json

The plan names the interpreter, the child environment, the CLI arguments,
the output directory, the run length and whether to add one traced run.
Every CLI process is started from this process, one at a time.

Before timing starts, one untimed invocation writes the reference outputs
that the checks read and that every timed invocation must reproduce byte for
byte. It also fills the page and bytecode caches; at this commit the first
invocation after the inputs were written was the slowest of its run in 7 of
8 runs. A round is not started when the previous round's length says that it
would end past the deadline, so a run measures about ``seconds`` and never
less than one round.

Peak memory comes from ``os.wait4``. On Linux a child's ``ru_maxrss`` also
counts the memory of the process that started it, up to the ``exec``, so the
children are started from here, a process that never loads numpy, and not
from the runner, which holds the generated inputs.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

# One start-up probe per round: the median over the run's rounds is setup_s.
PROBES_PER_ROUND = 1


def _spawn(argv: list[str], env: dict, log: Path) -> dict:
    """Run one child to its end: wall time from spawn to exit, exit code, peak RSS."""
    with open(log, "wb") as out:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, env=env, stdin=subprocess.DEVNULL, stdout=out, stderr=subprocess.STDOUT)
        _pid, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {"wall_s": wall, "cpu_s": usage.ru_utime + usage.ru_stime, "exit": proc.returncode,
            "maxrss_kb": usage.ru_maxrss}


def _digest(out_dir: Path) -> dict:
    result = {}
    for name in ("clock.svg", "clock.json"):
        path = out_dir / name
        result[name] = hashlib.sha256(path.read_bytes()).hexdigest() if path.is_file() else None
    return result


def main(plan_path: str, result_path: str) -> None:
    plan = json.loads(Path(plan_path).read_text(encoding="utf-8"))
    python, env, args = plan["python"], plan["env"], plan["args"]
    work = Path(plan["work"])
    out_dir = work / "out"
    log = work / "child.log"
    version = [python, "-m", "featureclock.cli", "--version"]
    cli = [python, "-m", "featureclock.cli", *args, "--out-dir", str(out_dir)]

    _spawn(version, env, log)  # warm-up: writes the bytecode cache, fills the page cache
    reference = _spawn(cli, env, log)
    reference["digest"] = _digest(out_dir)
    if reference["exit"] != 0:
        reference["log"] = log.read_text(encoding="utf-8", errors="replace")[-2000:]
    if out_dir.is_dir():
        shutil.copytree(out_dir, work / "first", dirs_exist_ok=True)

    rounds = []
    start = time.perf_counter()
    last_round = 0.0
    while not rounds or time.perf_counter() - start + last_round <= plan["seconds"]:
        round_start = time.perf_counter()
        probes = []
        for _ in range(PROBES_PER_ROUND):
            probes.append(_spawn(version, env, log))
            probes[-1]["stdout"] = log.read_text(encoding="utf-8", errors="replace").strip()
        shutil.rmtree(out_dir, ignore_errors=True)
        run = _spawn(cli, env, log)
        run["digest"] = _digest(out_dir)
        if run["exit"] != 0:
            run["log"] = log.read_text(encoding="utf-8", errors="replace")[-2000:]
        rounds.append({"probes": probes, "run": run})
        last_round = time.perf_counter() - round_start

    traced = None
    if plan["trace"]:
        traced_dir = work / "traced"
        traced = _spawn(
            [python, plan["tracer"], str(work / "spans.json"), "--", *args, "--out-dir", str(traced_dir)],
            env, log,
        )
        traced["digest"] = _digest(traced_dir)
        if traced["exit"] != 0:
            traced["log"] = log.read_text(encoding="utf-8", errors="replace")[-2000:]
    result = {"reference": reference, "rounds": rounds, "traced": traced}
    Path(result_path).write_text(json.dumps(result), encoding="utf-8")


if __name__ == "__main__":
    main(sys.argv[1], sys.argv[2])
