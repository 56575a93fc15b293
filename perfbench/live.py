"""live: mutation scripts against the adhoc document, each followed by re-reads.

The document is the adhoc recipe.  A fixed sequence of 4-mutation scripts
(``RandomMutationGenerator``, seeded by the benchmark seed) goes through
``QueryService.update_document`` on both backends; after each script the
client re-reads one query of a 4-query hot set, rotating through it.  Plans stay cached across updates while
results do not, so each re-read is a warm-plan, cold-result execution.
The scripts and the answers expected after each one are produced before
timing by rehearsing the scripts on a private copy of the document.

The first script is a warm-up (the store builds its mutator on the first
update); it is verified but not timed.  As in adhoc, the heap is
collected outside the timers before every timed op, and one set-up
sample (a registration on each backend) is taken before every cycle.
"""

from __future__ import annotations

import gc
import random
from dataclasses import dataclass
from typing import Any, Dict, List, Tuple

import adhoc
from harness import (
    BACKENDS,
    HostGauge,
    Ledger,
    Outcome,
    Tracer,
    clock,
    cpu_times,
    landing_family,
    median,
    peak_rss_mb,
    percentile,
    rate,
    stage_coverage,
    steal_share,
)
from stages import STAGE_PREFIXES, StagedStack, stage_metrics
from repro.dtd.model import DTD
from repro.dtd.samples import cross_dtd
from repro.live.fuzzer import MutationGenConfig, RandomMutationGenerator
from repro.live.mutations import DocumentMutator, Mutation
from repro.relational.schema import DOC_ORDER
from repro.xmltree.tree import XMLTree

#: A non-recursive query, two recursive ones of one cost class (``a//d``
#: and ``a//b`` cost the same on each backend) and a dearer recursive one:
#: the read median falls inside the middle class, not between two.
HOT_SET = ("a//d", "a//b", "a//c/d", "a/b/c/d")
MUTATIONS_PER_SCRIPT = 4
#: Each timed cycle re-reads one hot-set query, rotating through the set.
#: A cycle (update + re-read on both backends) takes ~0.8 s.  An update
#: costs 30-160 ms depending on where its edits land (they renumber
#: DOC_ORDER from the first edit on), so a run needs many of them for a
#: median that does not move with the seed.
READS_PER_CYCLE = 1
CYCLES_PER_SECOND = 2.0
#: a set-up sample (registration on each backend) every this many cycles
SETUP_EVERY = 4
DOCUMENT_ID = adhoc.DOCUMENT_ID


@dataclass
class Inputs:
    dtd: DTD
    tree: XMLTree
    #: scripts[0] is the warm-up script
    scripts: List[Tuple[Mutation, ...]]
    #: expected[i]: hot-set answers after scripts[:i] were applied
    expected: List[Dict[str, Tuple[int, ...]]]


def prepare(seed: int, seconds: int, elements: int) -> Inputs:
    dtd = cross_dtd()
    tree = adhoc.make_document(dtd, elements)
    cycles = max(1, round(seconds * CYCLES_PER_SECOND))
    # One long rehearsed sequence cut into consecutive scripts: each script
    # is valid in the state its predecessors leave, exactly as if generated
    # one by one, and the generator's per-call set-up is paid once.
    generator = RandomMutationGenerator(
        dtd,
        random.Random(seed),
        MutationGenConfig(mutations=MUTATIONS_PER_SCRIPT * (cycles + 1)),
    )
    sequence = generator.script(tree)
    scripts = [
        tuple(sequence[start : start + MUTATIONS_PER_SCRIPT])
        for start in range(0, len(sequence), MUTATIONS_PER_SCRIPT)
    ]
    rehearsal = tree.copy()
    mutator = DocumentMutator(rehearsal, dtd)

    def answers() -> Dict[str, Tuple[int, ...]]:
        return {query: adhoc.expected_ids(rehearsal, query) for query in HOT_SET}

    expected = [answers()]
    for script in scripts:
        mutator.apply_script(script)
        expected.append(answers())
    return Inputs(dtd, tree, scripts, expected)


def hot_positions(cycle: int, timed: bool) -> List[int]:
    """Hot-set positions re-read after ``cycle``'s update (all of them untimed)."""
    if not timed:
        return list(range(len(HOT_SET)))
    first = cycle * READS_PER_CYCLE
    return [(first + offset) % len(HOT_SET) for offset in range(READS_PER_CYCLE)]


def run(inputs: Inputs, ledger: Ledger, gauge: HostGauge) -> Outcome:
    registrar = adhoc.Registrar(inputs.dtd, lambda backend: inputs.tree.copy(), gauge)
    services = registrar.bring_up()
    updates: Dict[str, List[float]] = {backend: [] for backend in BACKENDS}
    reads: Dict[str, List[float]] = {backend: [] for backend in BACKENDS}
    by_query: Dict[str, Dict[str, List[float]]] = {
        backend: {query: [] for query in HOT_SET} for backend in BACKENDS
    }
    # An op is one refresh cycle per backend: the update and its re-read.
    cycle_times: Dict[str, Dict[int, float]] = {backend: {} for backend in BACKENDS}
    scaled: Dict[str, Dict[int, float]] = {backend: {} for backend in BACKENDS}

    def account(backend: str, cycle: int, elapsed: float) -> None:
        cycle_times[backend][cycle] = cycle_times[backend].get(cycle, 0.0) + elapsed
        scaled[backend][cycle] = scaled[backend].get(cycle, 0.0) + gauge.scaled(elapsed)

    answers: Dict[Any, Tuple[int, ...]] = {}
    latencies: Dict[Any, float] = {}
    try:

        def read_hot_set(cycle: int, timed: bool) -> None:
            for position in hot_positions(cycle, timed):
                query = HOT_SET[position]
                for backend in BACKENDS:
                    gc.collect()
                    if timed:
                        gauge.sample()
                    start = clock()
                    try:
                        nodes = services[backend].answer(query, DOCUMENT_ID)
                    except Exception as exc:  # counted, and the run fails
                        ledger.error(f"cycle {cycle} {backend} {query}", exc)
                        continue
                    elapsed = clock() - start
                    ids = tuple(node.node_id for node in nodes)
                    ledger.check(
                        f"cycle {cycle} {backend} {query}", ids, inputs.expected[cycle][query]
                    )
                    if timed:
                        account(backend, cycle, elapsed)
                        reads[backend].append(elapsed)
                        by_query[backend][query].append(elapsed)
                        answers[("read", cycle, backend, position)] = ids
                        latencies[("read", cycle, backend, position)] = elapsed

        def update(cycle: int, timed: bool) -> None:
            script = list(inputs.scripts[cycle - 1])
            for backend in BACKENDS:
                gc.collect()
                if timed:
                    gauge.sample()
                start = clock()
                try:
                    services[backend].update_document(script, DOCUMENT_ID)
                except Exception as exc:
                    ledger.error(f"cycle {cycle} {backend} update", exc)
                    continue
                elapsed = clock() - start
                ledger.attempted += 1
                if timed:
                    account(backend, cycle, elapsed)
                    updates[backend].append(elapsed)
                    latencies[("update", cycle, backend)] = elapsed

        read_hot_set(0, timed=False)
        update(1, timed=False)
        read_hot_set(1, timed=False)
        plan_before = {b: services[b].cache_info() for b in BACKENDS}
        result_before = {b: services[b].result_cache_info() for b in BACKENDS}
        cpu_before = cpu_times()
        for cycle in range(2, len(inputs.scripts) + 1):
            if cycle % SETUP_EVERY == 0:
                registrar.sample()
            update(cycle, timed=True)
            read_hot_set(cycle, timed=True)
        steal = steal_share(cpu_before, cpu_times())
        plan_misses = {
            b: services[b].cache_info().misses - plan_before[b].misses for b in BACKENDS
        }
        result_hits = {
            b: services[b].result_cache_info().hits - result_before[b].hits
            for b in BACKENDS
        }
    finally:
        for service in services.values():
            service.close()

    metrics: Dict[str, float] = {"peak_rss_mb": peak_rss_mb(), **registrar.metrics()}
    landing: Dict[str, Any] = {}
    for backend in BACKENDS:
        cycles = list(cycle_times[backend].values())
        metrics[f"ops_per_s.{backend}"] = rate(cycles)
        metrics[f"ops_per_s_norm.{backend}"] = rate(list(scaled[backend].values()))
        metrics[f"op_ms_p50.{backend}"] = percentile(cycles, 0.5) * 1000.0
        p50 = percentile(reads[backend], 0.5)
        metrics[f"read_ms_p50.{backend}"] = p50 * 1000.0
        landing[f"read_ms_p50.{backend}"] = landing_family(p50, by_query[backend])
    timed_reads = {b: len(reads[b]) for b in BACKENDS}
    record = {
        "document_elements": inputs.tree.size(),
        "timed_updates_per_backend": len(inputs.scripts) - 1,
        "timed_reads_per_backend": timed_reads,
        "mutations_per_script": MUTATIONS_PER_SCRIPT,
        "setup_samples": registrar.record(),
        "steal_share": steal,
        "plan_hit_ratio": {b: 1.0 - plan_misses[b] / timed_reads[b] for b in BACKENDS},
        "result_hit_ratio": {b: result_hits[b] / timed_reads[b] for b in BACKENDS},
        "update_ms_p50": {b: percentile(updates[b], 0.5) * 1000.0 for b in BACKENDS},
        "update_ms": {b: sorted(round(t * 1000.0, 3) for t in updates[b]) for b in BACKENDS},
        "read_ms_by_query": {
            b: {q: sorted(round(t * 1000.0, 3) for t in v) for q, v in by_query[b].items()}
            for b in BACKENDS
        },
        "p50_lands_in_query": landing,
    }
    return Outcome(metrics, record, answers, latencies)


def trace(inputs: Inputs, outcome: Outcome, ledger: Ledger, tracer: Tracer) -> Dict[str, float]:
    stacks = {backend: StagedStack(inputs.dtd, backend, tracer) for backend in BACKENDS}
    mutators: Dict[str, DocumentMutator] = {}
    delta_rows: List[int] = []
    order_rows = 0
    try:
        for backend, stack in stacks.items():
            for repeat in range(3):
                tree = inputs.tree.copy()
                gc.collect()
                with tracer.span("register", ("register", backend, repeat)):
                    stack.register(("register", backend, repeat), tree)
            mutators[backend] = DocumentMutator(
                stack.shredded.tree, inputs.dtd, mapping=stack.translator.mapping
            )
            for cycle in (0, 1):
                if cycle:
                    stack.backend.apply_delta(
                        mutators[backend].apply_script(list(inputs.scripts[0]))
                    )
                for query, ids in zip(HOT_SET, stack.warm_up(HOT_SET)):
                    ledger.check(
                        f"staged warm-up {backend} {query}", ids, inputs.expected[cycle][query]
                    )
        for cycle in range(2, len(inputs.scripts) + 1):
            script = list(inputs.scripts[cycle - 1])
            for backend, stack in stacks.items():
                op = ("update", cycle, backend)
                gc.collect()
                with tracer.span("update", op):
                    delta = tracer.call("live.mutate", op, mutators[backend].apply_script, script)
                    tracer.call(f"backends.apply_delta.{backend}", op, stack.backend.apply_delta, delta)
                rows = delta.delete_count() + delta.insert_count()
                delta_rows.append(rows)
                order_rows += len(delta.deletes.get(DOC_ORDER, ())) + len(
                    delta.inserts.get(DOC_ORDER, ())
                )
            for position in hot_positions(cycle, timed=True):
                query = HOT_SET[position]
                for backend, stack in stacks.items():
                    op = ("read", cycle, backend, position)
                    if op not in outcome.answers:
                        continue
                    gc.collect()
                    with tracer.span("read", op):
                        ids = stack.answer(op, query)
                    ledger.check(f"staged cycle {cycle} {backend} {query}", ids, outcome.answers[op])
    finally:
        for stack in stacks.values():
            stack.close()
    metrics = stage_metrics(tracer, stacks.values())
    update_time = tracer.durations("update")

    def share(stage: str, backend: str) -> float:
        """Median over updates of the stage's self time ÷ the update's time."""
        own = tracer.per_op(stage)
        return median(
            [own[op] / update_time[op] for op in own if op[2] == backend and update_time[op] > 0]
        )

    metrics["live.mutate_ms"] = tracer.median_ms("live.mutate")
    metrics["live.mutate_share"] = median(
        [share("live.mutate", backend) for backend in BACKENDS]
    )
    for backend in BACKENDS:
        metrics[f"backends.apply_delta_ms.{backend}"] = tracer.median_ms(
            f"backends.apply_delta.{backend}"
        )
        metrics[f"backends.apply_delta_share.{backend}"] = share(
            f"backends.apply_delta.{backend}", backend
        )
    metrics["live.delta_rows"] = median(delta_rows)
    metrics["live.order_share"] = order_rows / sum(delta_rows) if delta_rows else 0.0
    metrics["core.plan_hit_ratio"] = median(list(outcome.record["plan_hit_ratio"].values()))
    metrics["service.result_hit_ratio"] = median(
        list(outcome.record["result_hit_ratio"].values())
    )
    metrics.update(
        stage_coverage(tracer, ("update", "read"), STAGE_PREFIXES, outcome.latencies)
    )
    return metrics


def summary(outcome: Outcome, measured: Dict[str, float]) -> List[str]:
    record = outcome.record
    lines = [
        f"live: {record['timed_updates_per_backend']} timed updates, "
        f"reads {record['timed_reads_per_backend']} per backend",
    ]
    for backend in BACKENDS:
        lines.append(f"  update ms {backend}: {record['update_ms'][backend]}")
        for query, samples in record["read_ms_by_query"][backend].items():
            lines.append(f"  read ms {backend} {query}: {samples}")
    for metric, query in record["p50_lands_in_query"].items():
        where = f"inside query {query}" if query else "IN A GAP between queries"
        lines.append(f"rule (c): {metric} = {outcome.metrics[metric]:.1f} ms lands {where}")
    return lines
