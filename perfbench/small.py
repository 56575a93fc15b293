"""small: many tiny fuzz-style cases, each answered by a cold engine.

A case is a random DTD (``repro.fuzz.dtd_gen.generate_dtd``), a document
of ~140 elements generated from it (``x_l=8, x_r=3``) and 4 distinct
schema-guided random queries (``RandomXPathGenerator``).  Per case and
backend the client builds an ``Engine``, opens a session on the document,
answers the 4 queries and closes everything, so translation and per-document
cold start (shredding, loading, executor routing for tiny databases)
dominate, not execution.  The case list comes from the benchmark seed.
"""

from __future__ import annotations

import gc
from dataclasses import dataclass
from typing import Any, Dict, List, Tuple

from harness import (
    BACKENDS,
    HostGauge,
    Ledger,
    Outcome,
    Tracer,
    clock,
    cpu_times,
    median,
    peak_rss_mb,
    percentile,
    rate,
    samples_beyond,
    stage_coverage,
    steal_share,
)
from stages import STAGE_PREFIXES, StagedStack, engine_config, stage_metrics
from repro.api import Engine
from repro.dtd.model import DTD
from repro.fuzz.cases import DocumentSpec
from repro.fuzz.dtd_gen import generate_dtd
from repro.fuzz.xpath_gen import RandomXPathGenerator, XPathGenConfig
from repro.xmltree.tree import XMLTree
from repro.xpath.evaluator import evaluate_xpath
from repro.xpath.parser import parse_xpath

CASES_PER_SECOND = 25
QUERIES_PER_CASE = 4
#: set-up is measured by bringing up the first cases' engines and sessions
SETUP_CASES = 16
SETUP_REPEATS = 9
DOCUMENT_ID = "doc"


@dataclass
class Case:
    seed: int
    dtd: DTD
    tree: XMLTree
    queries: Tuple[str, ...]
    expected: Tuple[Tuple[int, ...], ...]


def make_case(case_seed: int) -> Case:
    dtd = generate_dtd(case_seed)
    tree = DocumentSpec(x_l=8, x_r=3, max_elements=150, seed=case_seed).generate(dtd)
    generator = RandomXPathGenerator(dtd, XPathGenConfig(seed=case_seed))
    queries: List[str] = []
    seen = set()
    # Distinct canonical texts: no read of a case is a plan or result cache hit.
    for _ in range(16 * QUERIES_PER_CASE):
        query = generator.generate()
        canonical = str(parse_xpath(query))
        if canonical not in seen:
            seen.add(canonical)
            queries.append(query)
            if len(queries) == QUERIES_PER_CASE:
                break
    expected = tuple(
        tuple(node.node_id for node in evaluate_xpath(tree, parse_xpath(query)))
        for query in queries
    )
    return Case(case_seed, dtd, tree, tuple(queries), expected)


@dataclass
class Inputs:
    cases: List[Case]


def prepare(seed: int, seconds: int, elements: int) -> Inputs:
    count = max(2, round(seconds * CASES_PER_SECOND))
    return Inputs([make_case(seed * 100_003 + index) for index in range(count)])


def bring_up(case: Case, backend: str) -> Tuple[Engine, Any]:
    engine = Engine(case.dtd, engine_config(backend))
    return engine, engine.open_session({DOCUMENT_ID: case.tree})


def setup_sample(inputs: Inputs, gauge: HostGauge) -> float:
    """Bring up (and close) the first cases' engines and sessions on both
    backends; the bring-up times, rescaled by ``gauge``, summed."""
    total = 0.0
    for case in inputs.cases[:SETUP_CASES]:
        for backend in BACKENDS:
            gauge.sample()
            start = clock()
            engine, _ = bring_up(case, backend)
            total += gauge.scaled(clock() - start)
            engine.close()
    return total


def run(inputs: Inputs, ledger: Ledger, gauge: HostGauge) -> Outcome:
    setups: List[float] = []
    # Set-up samples are spread over the timed phase, like the cases.
    setup_every = max(1, len(inputs.cases) // SETUP_REPEATS)

    case_times: Dict[str, List[float]] = {backend: [] for backend in BACKENDS}
    scaled: Dict[str, List[float]] = {backend: [] for backend in BACKENDS}
    register: Dict[str, List[float]] = {backend: [] for backend in BACKENDS}
    reads: Dict[str, List[float]] = {backend: [] for backend in BACKENDS}
    plan_misses = {backend: 0 for backend in BACKENDS}
    answers: Dict[Any, Tuple[int, ...]] = {}
    latencies: Dict[Any, float] = {}
    gc.collect()
    cpu_before = cpu_times()
    for index, case in enumerate(inputs.cases):
        if index % setup_every == 0 and len(setups) < SETUP_REPEATS:
            setups.append(setup_sample(inputs, gauge))
        for backend in BACKENDS:
            gauge.sample()
            start = clock()
            try:
                engine, session = bring_up(case, backend)
            except Exception as exc:  # counted, and the run fails
                for query in case.queries:
                    ledger.error(f"case {case.seed} {backend} register", exc)
                continue
            registered = clock()
            for position, (query, expected) in enumerate(zip(case.queries, case.expected)):
                read_start = clock()
                try:
                    nodes = session.answer(query).nodes()
                except Exception as exc:
                    ledger.error(f"case {case.seed} {backend} {query}", exc)
                    continue
                reads[backend].append(clock() - read_start)
                ids = tuple(node.node_id for node in nodes)
                ledger.check(f"case {case.seed} {backend} {query}", ids, expected)
                answers[(index, backend, position)] = ids
            plan_misses[backend] += engine.plan_cache.cache_info().misses
            engine.close()
            elapsed = clock() - start
            case_times[backend].append(elapsed)
            scaled[backend].append(gauge.scaled(elapsed))
            register[backend].append(registered - start)
            latencies[(index, backend)] = elapsed
    steal = steal_share(cpu_before, cpu_times())

    metrics: Dict[str, float] = {"setup_s": median(setups), "peak_rss_mb": peak_rss_mb()}
    for backend in BACKENDS:
        metrics[f"ops_per_s.{backend}"] = rate(case_times[backend])
        metrics[f"ops_per_s_norm.{backend}"] = rate(scaled[backend])
        metrics[f"op_ms_p50.{backend}"] = percentile(case_times[backend], 0.5) * 1000.0
        metrics[f"read_ms_p50.{backend}"] = percentile(reads[backend], 0.5) * 1000.0
        metrics[f"register_ms_p50.{backend}"] = percentile(register[backend], 0.5) * 1000.0
    read_count = {backend: len(reads[backend]) for backend in BACKENDS}
    record = {
        "cases": len(inputs.cases),
        "reads_per_backend": read_count,
        "document_elements_median": median([case.tree.size() for case in inputs.cases]),
        "setup_cases": SETUP_CASES,
        "setup_repeats": SETUP_REPEATS,
        "steal_share": steal,
        "plan_hit_ratio": {
            b: 1.0 - plan_misses[b] / max(1, read_count[b]) for b in BACKENDS
        },
        "read_ms_p90": {
            b: percentile(reads[b], 0.9) * 1000.0 for b in BACKENDS if reads[b]
        },
        "read_samples_beyond_p90": {
            b: samples_beyond(read_count[b], 0.9) for b in BACKENDS
        },
    }
    return Outcome(metrics, record, answers, latencies)


def trace(inputs: Inputs, outcome: Outcome, ledger: Ledger, tracer: Tracer) -> Dict[str, float]:
    stacks: List[StagedStack] = []
    gc.collect()
    for index, case in enumerate(inputs.cases):
        for backend in BACKENDS:
            op = (index, backend)
            if op not in outcome.latencies:
                continue
            with tracer.span("case", op):
                stack = tracer.call("api.engine", op, StagedStack, case.dtd, backend, tracer)
                stack.register(op, case.tree)
                for position, query in enumerate(case.queries):
                    read = (index, backend, position)
                    if read not in outcome.answers:
                        continue
                    with tracer.span("read", read):
                        ids = stack.answer(read, query)
                    ledger.check(f"staged case {case.seed} {backend} {query}", ids, outcome.answers[read])
                stack.close()
            stacks.append(stack)
    metrics = stage_metrics(tracer, stacks)
    metrics["core.plan_hit_ratio"] = median(list(outcome.record["plan_hit_ratio"].values()))
    metrics.update(stage_coverage(tracer, ("case",), STAGE_PREFIXES, outcome.latencies))
    return metrics


def summary(outcome: Outcome, measured: Dict[str, float]) -> List[str]:
    record = outcome.record
    return [
        f"small: {record['cases']} cases, reads per backend {record['reads_per_backend']}, "
        f"median document {record['document_elements_median']} elements",
        f"read p90 (report only) {record['read_ms_p90']} ms with "
        f"{record['read_samples_beyond_p90']} samples beyond it",
    ]
