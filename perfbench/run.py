#!/usr/bin/env python3
"""Run one workload of the benchmark; the last stdout line is the JSON result.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload adhoc --seed 1 --seconds 15 --trace 0

Workloads (see ``BENCHMARK.json`` for why each exists):

* ``adhoc`` — distinct cold queries over one 10^4-element cross-DTD document;
* ``small`` — fuzz-style cases: random DTD, ~140-element document, 4 queries;
* ``live``  — mutation scripts through ``update_document`` plus hot-set re-reads;
* ``serve`` — ``repro serve`` under a closed loop of ``POST /answer`` requests.
  Report-only: ``BENCHMARK.json`` does not list it, because on a 2-vCPU
  host its figures spread far beyond any regression bound.

Every run does a fixed amount of work: ``--seconds`` sets the operation
count (not a deadline), so the same arguments always run the same seeded
operation sequence.  Inputs and expected answers are built before any
timer starts; every answer is checked and a wrong one fails the run.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs the same
untraced pass and then replays it stage by stage, printing the per-layer
metrics.  ``--elements`` sets the document size of ``adhoc``/``live``.
A run record (host, versions, seed, sizes, operation counts, steal share,
host-gauge readings, and the spans of a traced pass) is written to
``.perfbench/`` unless ``--report`` names another file.
"""

from __future__ import annotations

import argparse
import importlib
import json
import sys
from pathlib import Path
from typing import Any, Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("adhoc", "small", "live", "serve")


def parse_args(argv: Optional[List[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True, help="sets the fixed op count")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--elements", type=int, default=10_000, help="adhoc/live document budget"
    )
    parser.add_argument("--report", type=Path, default=None, help="run record path")
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be >= 1")
    return args


def main(argv: Optional[List[str]] = None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(
            f"perfbench: no engine sources at {ROOT / 'src' / 'repro'}; "
            "run from the root of a full checkout",
            file=sys.stderr,
        )
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    if str(HERE) not in sys.path:
        sys.path.insert(0, str(HERE))
    from harness import END_TO_END, PER_LAYER, HostGauge, Ledger, Tracer, clock, host_record

    workload = importlib.import_module(args.workload)
    ledger = Ledger()
    gauge = HostGauge()
    started = clock()
    inputs = workload.prepare(args.seed, args.seconds, args.elements)
    prepare_s = clock() - started
    outcome = workload.run(inputs, ledger, gauge)
    gauge.close()
    wanted = PER_LAYER if args.trace else END_TO_END
    tracer = None
    layers: Dict[str, float] = {}
    if args.trace:
        tracer = Tracer()
        layers = workload.trace(inputs, outcome, ledger, tracer)
        # A workload that never reaches a layer counted nothing there.
        measured = {name: layers.get(name, 0.0) for name, _ in PER_LAYER}
    else:
        measured = outcome.metrics
    metrics = {name: {"value": measured[name], "unit": unit} for name, unit in wanted}

    record: Dict[str, Any] = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "elements": args.elements,
        "host": host_record(),
        "host_gauge": gauge.record(),
        "prepare_s": prepare_s,
        "total_s": clock() - started,
        "attempted": ledger.attempted,
        "errors": ledger.errors,
        "mismatched": ledger.mismatched,
        "problems": ledger.samples,
        "run": outcome.record,
        "metrics": metrics,
        # Every end-to-end figure the untraced pass produced, named or not.
        "end_to_end": outcome.metrics,
        # Every layer figure the traced pass produced, named or not.
        "layers": layers,
    }
    if tracer is not None:
        record["spans"] = tracer.to_json()
    report = args.report or (
        ROOT / ".perfbench" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    )
    report.parent.mkdir(parents=True, exist_ok=True)
    report.write_text(json.dumps(record, indent=1, default=str))

    for line in getattr(workload, "summary", lambda *_: [])(outcome, layers):
        print(line)
    print(
        f"{args.workload}: seed={args.seed} attempted={ledger.attempted} "
        f"errors={ledger.errors} mismatched={ledger.mismatched} "
        f"steal={outcome.record.get('steal_share', 0.0):.3f} "
        f"gauge={record['host_gauge']['mean_ms']:.3f}ms "
        f"prepare={prepare_s:.1f}s total={record['total_s']:.1f}s record={report}"
    )
    for problem in ledger.samples:
        print(f"  {problem}")
    for name, value in metrics.items():
        print(f"  {name:<36} {value['value']:>14.4f} {value['unit']}")
    extras = layers if args.trace else outcome.metrics
    for name in sorted(set(extras) - set(metrics)):
        print(f"  {name:<36} {extras[name]:>14.4f} (run record only)")
    print(
        json.dumps(
            {
                "correct": ledger.correct,
                "attempted": ledger.attempted,
                "failed": ledger.failed,
                "metrics": metrics,
            }
        )
    )
    return 0 if ledger.correct else 1


if __name__ == "__main__":
    sys.exit(main())
