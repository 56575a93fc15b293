"""adhoc: one client asking distinct (cold) queries over one large document.

The document is the paper's cross-cycle DTD (Fig. 11a) generated at
``x_l=30, x_r=10`` with a 10^4-element budget (10,224 elements at the
default size).  The queries come from the paper's experiment families —
Exp-1 Qa–Qd, Exp-2 Qe/Qf and Exp-3 ``a//d`` (``Qs``) — and every text is
made distinct by a rotating ``text() = "x-k"`` constant, so no plan,
prepared-program, result or columnar-temporaries cache can answer a read:
each read translates, prepares and executes.  The root constants never
equal the root's own value, so they do not change a family's answer.
Both backends answer the same sequence, interleaved query by query.

Set-up samples (a registration on each backend) are taken before every
round, so they span the same stretch of the run as the reads.

Memory-backend reads at this size allocate enough to trigger full garbage
collections, and a collection's cost depends on what earlier reads left
behind.  So that a read's latency does not depend on its place in the
sequence, the heap is collected (outside the timers) before every timed
read and registration; each op still pays the collections its own
allocations trigger.
"""

from __future__ import annotations

import gc
import random
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Tuple

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
from stages import STAGE_PREFIXES, StagedStack, engine_config, stage_metrics
from repro.dtd.model import DTD
from repro.dtd.samples import cross_dtd
from repro.service import QueryService
from repro.xmltree.generator import generate_document
from repro.xmltree.tree import XMLTree
from repro.xpath.evaluator import evaluate_xpath
from repro.xpath.parser import parse_xpath

#: family -> (query template, label whose text the constant names)
FAMILIES: Dict[str, Tuple[str, str]] = {
    "Qa": ('a[not text() = "a-{k}"]/b//c/d', "a"),
    "Qb": ('a[//c and not text() = "a-{k}"]//d', "a"),
    "Qc": ('a[not //c or text() = "a-{k}"]', "a"),
    "Qd": ('a[not //c or (b and //d) or text() = "a-{k}"]', "a"),
    "Qe": ('a/b[text() = "b-{k}"]//c/d', "b"),
    "Qf": ('a/b//c/d[text() = "d-{k}"]', "d"),
    "Qs": ('a[not text() = "a-{k}"]//d', "a"),
}

#: One round: every family once, and Qs (the Exp-3 query) a second time.
#: On memory the cheap families (Qe < Qc < Qd < Qs < Qb) hold the read
#: median; the second Qs puts it in the middle of Qs's samples, not on the
#: edge of one family's few.  On sqlite it falls among Qd and Qb, one cost
#: class.
ROUND = tuple(FAMILIES) + ("Qs",)

#: The document recipe shared with the live workload (seed 11 gives 10,224
#: elements at the default budget).  It is fixed so that every seed runs on
#: the same data; the benchmark seed picks the constants and the order.
DOC_SEED = 11
DISTINCT_VALUES = 100
DOCUMENT_ID = "doc"

#: One round asks every family once on each backend (~7 s on a 2-CPU
#: host).  An odd round count puts the read median on the middle sample of
#: one family instead of on the edge between two.
ROUNDS_PER_SECOND = 0.2
#: set-up samples taken before each round (plus the stack the reads use)
SETUP_SAMPLES_PER_ROUND = 3


def make_document(dtd: DTD, elements: int) -> XMLTree:
    return generate_document(
        dtd,
        x_l=30,
        x_r=10,
        max_elements=elements,
        seed=DOC_SEED,
        distinct_values=DISTINCT_VALUES,
    )


def expected_ids(tree: XMLTree, query: str) -> Tuple[int, ...]:
    """The answer per the direct XPath evaluator (the paper's Q(T))."""
    return tuple(node.node_id for node in evaluate_xpath(tree, parse_xpath(query)))


@dataclass
class Inputs:
    dtd: DTD
    tree: XMLTree
    #: backend -> (family, query) pairs read before timing (verified, untimed):
    #: every family on memory, whose first reads build join structures, and
    #: the cheapest one on sqlite
    warmup: Dict[str, List[Tuple[str, str]]]
    sequence: List[Tuple[str, str]]
    expected: Dict[str, Tuple[int, ...]]


def prepare(seed: int, seconds: int, elements: int) -> Inputs:
    dtd = cross_dtd()
    tree = make_document(dtd, elements)
    rng = random.Random(seed)
    rounds = max(1, round(seconds * ROUNDS_PER_SECOND))
    root_k = int(str(tree.root.value).rsplit("-", 1)[1])
    # Qe's cost hinges on its constant: ~2 ms on memory when no child b of
    # the root holds it (the selection empties the recursion's seed), ~600 ms
    # when one does.  Its constants avoid those children, so the family
    # keeps one cost class, and the memory read median falls well inside
    # the cheap families rather than at their edge.
    held = {int(str(child.value).rsplit("-", 1)[1]) for child in tree.root.children}
    constants: Dict[str, List[int]] = {}
    for family, (_, label) in FAMILIES.items():
        excluded = {root_k} if label == "a" else held if family == "Qe" else set()
        candidates = [k for k in range(DISTINCT_VALUES) if k not in excluded]
        constants[family] = rng.sample(candidates, ROUND.count(family) * rounds + 1)

    def query(family: str) -> Tuple[str, str]:
        return family, FAMILIES[family][0].format(k=constants[family].pop())

    warmup = {"memory": [query(family) for family in FAMILIES]}
    warmup["sqlite"] = [pair for pair in warmup["memory"] if pair[0] == "Qs"]
    sequence: List[Tuple[str, str]] = []
    for _ in range(rounds):
        order = list(ROUND)
        rng.shuffle(order)
        sequence.extend(query(family) for family in order)
    expected = {text: expected_ids(tree, text) for _, text in warmup["memory"] + sequence}
    return Inputs(dtd, tree, warmup, sequence, expected)


class Registrar:
    """Brings the two-backend stack up and times each registration.

    Set-up samples are taken throughout the timed phase, not all before
    it, so each run's median spans the same stretch of host time as the
    reads.  ``setup_s`` sums the registrations rescaled by ``gauge``, like
    the rates; ``register_ms`` keeps them as timed.  ``document(backend)``
    supplies the tree to register (a private copy when the workload
    mutates documents).
    """

    def __init__(
        self, dtd: DTD, document: Callable[[str], XMLTree], gauge: HostGauge
    ) -> None:
        self.dtd = dtd
        self.document = document
        self.gauge = gauge
        self.register: Dict[str, List[float]] = {backend: [] for backend in BACKENDS}
        self.setups: List[float] = []

    def bring_up(self) -> Dict[str, QueryService]:
        built: Dict[str, QueryService] = {}
        total = 0.0
        for backend in BACKENDS:
            document = self.document(backend)
            service = QueryService(self.dtd, config=engine_config(backend))
            gc.collect()
            self.gauge.sample()
            start = clock()
            service.register_document(DOCUMENT_ID, document)
            elapsed = clock() - start
            self.register[backend].append(elapsed)
            total += self.gauge.scaled(elapsed)
            built[backend] = service
        self.setups.append(total)
        return built

    def sample(self) -> None:
        """One more set-up sample on a throwaway stack."""
        for service in self.bring_up().values():
            service.close()

    def record(self) -> Dict[str, Any]:
        return {
            "setup_s": self.setups,
            "register_ms": {b: [t * 1000.0 for t in self.register[b]] for b in BACKENDS},
        }

    def metrics(self) -> Dict[str, float]:
        metrics = {"setup_s": median(self.setups)}
        for backend in BACKENDS:
            metrics[f"register_ms_p50.{backend}"] = median(self.register[backend]) * 1000.0
        return metrics


def run(inputs: Inputs, ledger: Ledger, gauge: HostGauge) -> Outcome:
    registrar = Registrar(inputs.dtd, lambda backend: inputs.tree, gauge)
    services = registrar.bring_up()
    try:
        for backend in BACKENDS:
            for family, text in inputs.warmup[backend]:
                ids = tuple(n.node_id for n in services[backend].answer(text, DOCUMENT_ID))
                ledger.check(f"warmup {backend} {text}", ids, inputs.expected[text])
        plan_before = {b: services[b].cache_info() for b in BACKENDS}
        result_before = {b: services[b].result_cache_info() for b in BACKENDS}
        times: Dict[str, List[float]] = {backend: [] for backend in BACKENDS}
        scaled: Dict[str, List[float]] = {backend: [] for backend in BACKENDS}
        by_family: Dict[str, Dict[str, List[float]]] = {
            backend: {family: [] for family in FAMILIES} for backend in BACKENDS
        }
        answers: Dict[Any, Tuple[int, ...]] = {}
        latencies: Dict[Any, float] = {}
        gc.collect()
        cpu_before = cpu_times()
        for index, (family, text) in enumerate(inputs.sequence):
            if index % len(ROUND) == 0:
                for _ in range(SETUP_SAMPLES_PER_ROUND):
                    registrar.sample()
            for backend in BACKENDS:
                op = (index, backend)
                gc.collect()
                gauge.sample()
                start = clock()
                try:
                    nodes = services[backend].answer(text, DOCUMENT_ID)
                except Exception as exc:  # counted, and the run fails
                    ledger.error(f"{backend} {text}", exc)
                    continue
                elapsed = clock() - start
                ids = tuple(node.node_id for node in nodes)
                ledger.check(f"{backend} {text}", ids, inputs.expected[text])
                times[backend].append(elapsed)
                scaled[backend].append(gauge.scaled(elapsed))
                by_family[backend][family].append(elapsed)
                answers[op] = ids
                latencies[op] = elapsed
        steal = steal_share(cpu_before, cpu_times())
        reads = len(inputs.sequence)
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
        samples = times[backend]
        p50 = percentile(samples, 0.5) * 1000.0
        metrics[f"ops_per_s.{backend}"] = rate(samples)
        metrics[f"ops_per_s_norm.{backend}"] = rate(scaled[backend])
        metrics[f"op_ms_p50.{backend}"] = p50
        metrics[f"read_ms_p50.{backend}"] = p50
        landing[f"read_ms_p50.{backend}"] = landing_family(
            p50 / 1000.0, by_family[backend]
        )
    record = {
        "document_elements": inputs.tree.size(),
        "reads_per_backend": reads,
        "warmup_reads": {b: len(inputs.warmup[b]) for b in BACKENDS},
        "setup_samples": registrar.record(),
        "steal_share": steal,
        "plan_hit_ratio": {b: 1.0 - plan_misses[b] / reads for b in BACKENDS},
        "result_hit_ratio": {b: result_hits[b] / reads for b in BACKENDS},
        "family_ms": {
            backend: {
                family: sorted(round(t * 1000.0, 3) for t in samples)
                for family, samples in by_family[backend].items()
            }
            for backend in BACKENDS
        },
        "p50_lands_in_family": landing,
    }
    return Outcome(metrics, record, answers, latencies)


def trace(inputs: Inputs, outcome: Outcome, ledger: Ledger, tracer: Tracer) -> Dict[str, float]:
    stacks = {backend: StagedStack(inputs.dtd, backend, tracer) for backend in BACKENDS}
    try:
        for backend, stack in stacks.items():
            for repeat in range(3):
                gc.collect()
                with tracer.span("register", ("register", backend, repeat)):
                    stack.register(("register", backend, repeat), inputs.tree)
        for backend, stack in stacks.items():
            stack.warm_up(text for _, text in inputs.warmup[backend])
        for index, (family, text) in enumerate(inputs.sequence):
            for backend, stack in stacks.items():
                op = (index, backend)
                if op not in outcome.answers:
                    continue
                gc.collect()
                with tracer.span("read", op):
                    ids = stack.answer(op, text)
                ledger.check(f"staged {backend} {text}", ids, outcome.answers[op])
    finally:
        for stack in stacks.values():
            stack.close()
    metrics = stage_metrics(tracer, stacks.values())
    family_of = {index: family for index, (family, _) in enumerate(inputs.sequence)}
    for family in FAMILIES:
        for backend in BACKENDS:
            metrics[f"backends.execute_ms.{family}.{backend}"] = tracer.median_ms(
                f"backends.execute.{backend}",
                ops=lambda op, f=family: family_of.get(op[0]) == f,
            )
    metrics["core.plan_hit_ratio"] = median(
        list(outcome.record["plan_hit_ratio"].values())
    )
    metrics["service.result_hit_ratio"] = median(
        list(outcome.record["result_hit_ratio"].values())
    )
    metrics.update(stage_coverage(tracer, ("read",), STAGE_PREFIXES, outcome.latencies))
    return metrics


def summary(outcome: Outcome, per_layer: Dict[str, float]) -> List[str]:
    """Per family and backend: end-to-end median and range, traced execute median."""
    lines = [
        f"{'family':<7}{'backend':<8}{'e2e p50 ms':>12}{'e2e min':>10}{'e2e max':>10}"
        f"{'exec ms':>10}  query shape",
    ]
    family_ms = outcome.record["family_ms"]
    for family, (template, _) in FAMILIES.items():
        for backend in BACKENDS:
            samples = family_ms[backend][family]
            if not samples:
                continue
            lines.append(
                f"{family:<7}{backend:<8}{median(samples):>12.1f}{samples[0]:>10.1f}"
                f"{samples[-1]:>10.1f}"
                f"{per_layer.get(f'backends.execute_ms.{family}.{backend}', 0.0):>10.1f}"
                f"  {template.format(k='k')}"
            )
    for metric, family in outcome.record["p50_lands_in_family"].items():
        where = f"inside family {family}" if family else "IN A GAP between families"
        lines.append(f"rule (c): {metric} = {outcome.metrics[metric]:.1f} ms lands {where}")
    return lines
