#!/usr/bin/env python3
"""Self-test of the benchmark itself (not of the engine).

Usage, from the root of a checkout::

    python3 perfbench/selftest.py

It checks that

* ``BENCHMARK.json`` names exactly the metrics ``harness.py`` reports;
* every workload (the three BENCHMARK.json lists and the report-only
  ``serve``) runs at a tiny size in both modes, exits 0, answers
  everything correctly and prints every named metric with its unit;
* a planted wrong expected answer is caught, in every workload, and makes
  ``run.py`` print ``"correct": false`` and exit 1;
* without the engine sources ``run.py`` exits non-zero and prints no result.

It takes about a minute.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import subprocess
import sys
from pathlib import Path
from typing import Any, Dict

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SCRATCH = ROOT / ".perfbench" / "selftest"
TINY = {"seconds": "1", "elements": "300"}
#: the workloads BENCHMARK.json lists; serve runs only for reports
GATED = ("adhoc", "small", "live")
ALL = GATED + ("serve",)


def fail(message: str) -> None:
    raise SystemExit(f"selftest FAILED: {message}")


def run_cli(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [
            sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
            "--seconds", TINY["seconds"], "--trace", str(trace),
            "--elements", TINY["elements"],
            "--report", str(SCRATCH / f"{workload}-trace{trace}.json"),
        ],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=600,
    )


def check_declared(harness: Any) -> Dict[str, Dict[str, str]]:
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    expected = {
        "end_to_end": dict(harness.END_TO_END),
        "per_layer": dict(harness.PER_LAYER),
    }
    for section, metrics in expected.items():
        listed = {entry["name"]: entry["unit"] for entry in declared[section]}
        if listed != metrics:
            fail(f"BENCHMARK.json {section} differs from harness.py: {listed} vs {metrics}")
    workloads = [entry["name"] for entry in declared["workloads"]]
    if sorted(workloads) != sorted(GATED):
        fail(f"unexpected workloads {workloads}")
    return expected


def check_runs(expected: Dict[str, Dict[str, str]]) -> None:
    for workload in ALL:
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            done = run_cli(workload, trace)
            if done.returncode != 0:
                fail(f"{workload} trace={trace} exited {done.returncode}:\n{done.stdout[-3000:]}{done.stderr[-3000:]}")
            result = json.loads(done.stdout.strip().splitlines()[-1])
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                fail(f"{workload}: result keys {sorted(result)}")
            if not result["correct"] or result["failed"] or result["attempted"] < 1:
                fail(f"{workload} trace={trace}: {result}")
            got = {name: entry["unit"] for name, entry in result["metrics"].items()}
            if got != expected[section]:
                fail(f"{workload} trace={trace} metrics {got} != {expected[section]}")
            for name, entry in result["metrics"].items():
                if not isinstance(entry["value"], (int, float)):
                    fail(f"{workload} {name} is not a number: {entry}")
                if section == "end_to_end" and entry["value"] <= 0:
                    fail(f"{workload} {name} is not positive: {entry}")
            print(f"ok  {workload:<6} trace={trace} attempted={result['attempted']}")


def plant(workload: str, inputs: Any) -> None:
    """Corrupt one expected answer that a timed operation will be checked against."""
    if workload == "adhoc":
        _, text = inputs.sequence[0]
        inputs.expected[text] = inputs.expected[text] + (10**9,)
    elif workload == "small":
        case = inputs.cases[0]
        case.expected = (case.expected[0] + (10**9,),) + case.expected[1:]
    elif workload == "live":
        import live

        cycle = len(inputs.scripts)
        query = live.HOT_SET[live.hot_positions(cycle, timed=True)[0]]
        inputs.expected[cycle][query] = inputs.expected[cycle][query] + (10**9,)
    else:
        key = tuple(inputs.requests[0])
        inputs.expected[key] = inputs.expected[key] + (10**9,)


def check_planted() -> None:
    import run

    for workload in ALL:
        module = __import__(workload)
        original = module.prepare

        def planted(seed: int, seconds: int, elements: int, _original=original, _w=workload):
            inputs = _original(seed, seconds, elements)
            plant(_w, inputs)
            return inputs

        module.prepare = planted
        out = io.StringIO()
        try:
            with contextlib.redirect_stdout(out):
                code = run.main(
                    [
                        "--workload", workload, "--seed", "3", "--seconds", TINY["seconds"],
                        "--elements", TINY["elements"],
                        "--report", str(SCRATCH / f"{workload}-planted.json"),
                    ]
                )
        finally:
            module.prepare = original
        result = json.loads(out.getvalue().strip().splitlines()[-1])
        if code != 1 or result["correct"] or result["failed"] < 1:
            fail(f"planted wrong answer in {workload} was not caught: code={code} {result}")
        print(f"ok  {workload:<6} planted wrong answer caught (failed={result['failed']})")


def check_bare() -> None:
    bare = SCRATCH / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    done = run_cli("adhoc", 0, cwd=bare)
    lines = done.stdout.strip().splitlines()
    if done.returncode == 0 or (lines and lines[-1].startswith("{")):
        fail(f"run without engine sources did not fail cleanly: {done.returncode} {lines[-1:]}")
    shutil.rmtree(bare)
    print("ok  bare checkout refused")


def main() -> int:
    SCRATCH.mkdir(parents=True, exist_ok=True)
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    import harness

    expected = check_declared(harness)
    check_bare()
    check_runs(expected)
    check_planted()
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
