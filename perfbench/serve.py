"""serve (report-only): ``repro serve`` under a closed loop of ``POST /answer``.

``BENCHMARK.json`` does not list this workload: across ten seeds on a
2-vCPU VM its request rate spread by 46-58% and its median latency by
36-41% (interquartile range over the median), far past the 25% a
regression bound may allow, because four processes hand every request
across two virtual CPUs.  It stays runnable for reports and is the one
place the serving tier's layers (``service.answer_ms``,
``pool.answer_ms``, ``http.request_ms``) are traced.

For each backend the benchmark launches ``repro serve cross --strategy auto
--workers 2 --documents 4 --elements 2000`` as its own process and drives
it from one asyncio client with 2 keep-alive connections, each sending its
next request only after the previous one returned.  The request mix is 16
seeded random queries over the 4 documents; one warm-up pass over every
(document, query) pair runs first, so timed requests are answered from the
workers' result caches and the hot path is HTTP parsing, thread hand-off,
pool IPC and serialization.  Every response is checked against the XPath
evaluator run on locally regenerated copies of the documents.

Both servers stay up and the timed requests alternate between them in
windows, so a slow spell of the host lands on both backends alike.  More
servers are launched (and stopped) between windows; their launch-to-ready
times, with the first launch's, give ``register_ms_p50`` and ``setup_s``.
"""

from __future__ import annotations

import asyncio
import json
import os
import random
import re
import select
import signal
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

from harness import (
    BACKENDS,
    HostGauge,
    Ledger,
    Outcome,
    Tracer,
    children_of,
    clock,
    cpu_times,
    median,
    peak_rss_mb,
    percentile,
    samples_beyond,
    steal_share,
)
from stages import StagedStack, engine_config
from repro.dtd.model import DTD
from repro.dtd.samples import cross_dtd
from repro.fuzz.cases import DocumentSpec
from repro.fuzz.xpath_gen import RandomXPathGenerator, XPathGenConfig
from repro.service import ProcessQueryService, QueryService
from repro.xmltree.tree import XMLTree
from repro.xpath.evaluator import evaluate_xpath
from repro.xpath.parser import parse_xpath

ROOT = Path(__file__).resolve().parent.parent
HOST = "127.0.0.1"
WORKERS = 2
DOCUMENTS = 4
ELEMENTS = 2000
QUERIES = 16
CONNECTIONS = 2
#: timed requests per backend per --seconds (~550 requests/s at HEAD)
REQUESTS_PER_SECOND = 300
#: requests per ops_per_s window
RATE_WINDOW = 250
SETUP_REPEATS = 5
READY_TIMEOUT_S = 60.0
REQUEST_TIMEOUT_S = 30.0


@dataclass
class Inputs:
    dtd: DTD
    specs: List[DocumentSpec]
    trees: Dict[str, XMLTree]
    warmup: List[Tuple[str, str]]
    requests: List[Tuple[str, str]]
    expected: Dict[Tuple[str, str], Tuple[int, ...]]


def document_id(index: int) -> str:
    return f"doc{index}"


def prepare(seed: int, seconds: int, elements: int) -> Inputs:
    dtd = cross_dtd()
    # The recipe `repro serve` registers: doc<i> is generated with seed i.
    specs = [DocumentSpec(x_l=8, x_r=3, max_elements=ELEMENTS, seed=i) for i in range(DOCUMENTS)]
    trees = {document_id(i): spec.generate(dtd) for i, spec in enumerate(specs)}
    queries = RandomXPathGenerator(dtd, XPathGenConfig(seed=seed)).queries(QUERIES)
    rng = random.Random(seed)
    documents = sorted(trees)
    warmup = [(doc, query) for doc in documents for query in queries]
    count = max(CONNECTIONS, round(seconds * REQUESTS_PER_SECOND))
    requests = [(rng.choice(documents), rng.choice(queries)) for _ in range(count)]
    expected = {
        (doc, query): tuple(
            node.node_id for node in evaluate_xpath(trees[doc], parse_xpath(query))
        )
        for doc, query in warmup
    }
    return Inputs(dtd, specs, trees, warmup, requests, expected)


# -- the server process -------------------------------------------------------------


class Server:
    """One ``repro serve`` process (plus its pool workers)."""

    def __init__(self, backend: str) -> None:
        self.backend = backend
        self.process: Optional[subprocess.Popen] = None
        self.port = 0
        self._log = None

    def start(self) -> float:
        """Launch and wait until the server reports ready; returns the seconds."""
        command = [
            sys.executable, "-m", "repro", "serve", "cross",
            "--strategy", "auto", "--backend", self.backend,
            "--workers", str(WORKERS), "--documents", str(DOCUMENTS),
            "--elements", str(ELEMENTS), "--host", HOST, "--port", "0",
        ]
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        log_dir = ROOT / ".perfbench"
        log_dir.mkdir(exist_ok=True)
        self._log = open(log_dir / f"serve-{self.backend}.log", "ab")
        start = clock()
        self.process = subprocess.Popen(
            command,
            cwd=ROOT,
            env=env,
            stdout=subprocess.PIPE,
            stderr=self._log,
            stdin=subprocess.DEVNULL,
            start_new_session=True,
        )
        assert self.process.stdout is not None
        deadline = start + READY_TIMEOUT_S
        while True:
            remaining = deadline - clock()
            if remaining <= 0:
                raise RuntimeError(f"repro serve ({self.backend}) not ready in time")
            readable, _, _ = select.select([self.process.stdout], [], [], remaining)
            if not readable:
                continue
            line = self.process.stdout.readline().decode("utf-8", "replace")
            if not line:
                raise RuntimeError(f"repro serve ({self.backend}) exited before ready")
            match = re.search(r"ready: http://[^:]+:(\d+)", line)
            if match:
                self.port = int(match.group(1))
                return clock() - start

    def peak_rss_mb(self) -> float:
        """Summed ``VmHWM`` of the server and its pool workers."""
        assert self.process is not None
        pid = self.process.pid
        return peak_rss_mb(pid) + sum(peak_rss_mb(child) for child in children_of(pid))

    def stop(self) -> None:
        """Stop the server and its workers, and wait until all have ended.

        SIGINT, not SIGTERM: the server prints its ready line before it
        installs its signal handlers, and in that window only SIGINT (as
        KeyboardInterrupt) still runs the shutdown that stops the workers.
        """
        process, self.process = self.process, None
        if process is not None:
            if process.poll() is None:
                process.send_signal(signal.SIGINT)
                try:
                    process.wait(timeout=20)
                except subprocess.TimeoutExpired:
                    process.kill()
                    process.wait()
            # Workers share the server's process group; reap any straggler.
            stragglers = [pid for pid in group_members(process.pid)]
            for pid in stragglers:
                try:
                    os.kill(pid, signal.SIGKILL)
                except ProcessLookupError:
                    pass
            deadline = clock() + 10.0
            while stragglers and clock() < deadline:
                stragglers = [pid for pid in stragglers if os.path.exists(f"/proc/{pid}")]
                time.sleep(0.05)
            if process.stdout is not None:
                process.stdout.close()
        if self._log is not None:
            self._log.close()
            self._log = None


def group_members(pgid: int) -> List[int]:
    """Live pids in process group ``pgid``."""
    members = []
    for entry in os.listdir("/proc"):
        if entry.isdigit():
            try:
                if os.getpgid(int(entry)) == pgid:
                    members.append(int(entry))
            except ProcessLookupError:
                pass
    return members


# -- the client ---------------------------------------------------------------------


class Connection:
    """One keep-alive HTTP/1.1 connection posting JSON."""

    def __init__(self, port: int) -> None:
        self.port = port
        self.reader: Optional[asyncio.StreamReader] = None
        self.writer: Optional[asyncio.StreamWriter] = None

    async def open(self) -> None:
        self.reader, self.writer = await asyncio.wait_for(
            asyncio.open_connection(HOST, self.port), REQUEST_TIMEOUT_S
        )

    async def post(self, path: str, payload: Dict[str, Any]) -> Tuple[int, Any]:
        assert self.reader is not None and self.writer is not None
        body = json.dumps(payload).encode("utf-8")
        self.writer.write(
            (
                f"POST {path} HTTP/1.1\r\nHost: {HOST}:{self.port}\r\n"
                f"Content-Type: application/json\r\nContent-Length: {len(body)}\r\n"
                "Connection: keep-alive\r\n\r\n"
            ).encode("latin-1")
            + body
        )
        await self.writer.drain()
        status_line = await self.reader.readline()
        if not status_line:
            raise ConnectionError("server closed the connection")
        status = int(status_line.split()[1])
        length = 0
        while True:
            header = await self.reader.readline()
            if header in (b"\r\n", b"\n", b""):
                break
            name, _, value = header.decode("latin-1").partition(":")
            if name.strip().lower() == "content-length":
                length = int(value)
        data = await self.reader.readexactly(length)
        return status, json.loads(data) if data else None

    async def close(self) -> None:
        if self.writer is not None:
            self.writer.close()
            try:
                await self.writer.wait_closed()
            except ConnectionError:
                pass


#: (node ids or None, latency s, completion time, error or None)
Result = Tuple[Optional[Tuple[int, ...]], float, float, Optional[str]]


async def drive(port: int, requests: List[Tuple[str, str]], connections: int) -> Tuple[List[Result], float]:
    """Closed loop: each connection sends its next request when one returns.

    Returns one :data:`Result` per request and the loop's start time.
    """
    results: List[Result] = [(None, 0.0, 0.0, "not sent")] * len(requests)
    next_index = 0

    async def loop(connection: Connection) -> None:
        nonlocal next_index
        while next_index < len(requests):
            index = next_index
            next_index += 1
            doc, query = requests[index]
            start = clock()
            try:
                status, body = await asyncio.wait_for(
                    connection.post(
                        "/answer", {"query": query, "document": doc, "include_nodes": False}
                    ),
                    REQUEST_TIMEOUT_S,
                )
            except (OSError, asyncio.TimeoutError, ValueError) as exc:
                end = clock()
                results[index] = (None, end - start, end, f"{type(exc).__name__}: {exc}")
                await connection.close()
                await connection.open()
                continue
            end = clock()
            if status != 200:
                results[index] = (None, end - start, end, f"HTTP {status}: {body}")
            else:
                results[index] = (tuple(body["node_ids"]), end - start, end, None)

    pool = [Connection(port) for _ in range(connections)]
    try:
        for connection in pool:
            await connection.open()
        start = clock()
        await asyncio.gather(*(loop(connection) for connection in pool))
    finally:
        for connection in pool:
            await connection.close()
    return results, start


def account(
    ledger: Ledger, inputs: Inputs, backend: str, requests: List[Tuple[str, str]], results: List[Result]
) -> None:
    for (doc, query), (ids, _, _, error) in zip(requests, results):
        label = f"{backend} {doc} {query}"
        if error is not None:
            ledger.error(label, RuntimeError(error))
        else:
            ledger.check(label, ids, inputs.expected[(doc, query)])


# -- the workload -------------------------------------------------------------------


def run(inputs: Inputs, ledger: Ledger, gauge: HostGauge) -> Outcome:
    ready: Dict[str, List[float]] = {backend: [] for backend in BACKENDS}
    scaled_ready: Dict[str, List[float]] = {backend: [] for backend in BACKENDS}
    servers: Dict[str, Server] = {}
    results: Dict[str, List[Result]] = {backend: [] for backend in BACKENDS}
    rates: Dict[str, List[float]] = {backend: [] for backend in BACKENDS}
    scaled_rates: Dict[str, List[float]] = {backend: [] for backend in BACKENDS}
    peak = 0.0

    def launch(keep: bool) -> None:
        for backend in BACKENDS:
            server = Server(backend)
            try:
                gauge.sample()
                ready[backend].append(server.start())
                scaled_ready[backend].append(gauge.scaled(ready[backend][-1]))
            finally:
                if keep:
                    servers[backend] = server
                else:
                    server.stop()

    windows = list(range(0, len(inputs.requests), RATE_WINDOW))
    # Extra launches are spread over the timed phase, like the requests.
    launch_every = max(1, len(windows) // SETUP_REPEATS)
    try:
        launch(keep=True)
        for backend, server in servers.items():
            warm, _ = asyncio.run(drive(server.port, inputs.warmup, CONNECTIONS))
            account(ledger, inputs, backend, inputs.warmup, warm)
        cpu_before = cpu_times()
        for window, first in enumerate(windows):
            if window % launch_every == launch_every - 1 and len(ready[BACKENDS[0]]) < SETUP_REPEATS:
                launch(keep=False)
            chunk = inputs.requests[first : first + RATE_WINDOW]
            order = BACKENDS if window % 2 == 0 else BACKENDS[::-1]
            for backend in order:
                gauge.sample()
                done, started = asyncio.run(drive(servers[backend].port, chunk, CONNECTIONS))
                results[backend].extend(done)
                elapsed = max(end for _, _, end, _ in done) - started
                rates[backend].append(len(done) / elapsed)
                scaled_rates[backend].append(len(done) / gauge.scaled(elapsed))
        steal = steal_share(cpu_before, cpu_times())
        peak = max(server.peak_rss_mb() for server in servers.values())
    finally:
        for server in servers.values():
            server.stop()

    metrics: Dict[str, float] = {
        "setup_s": median([sum(pair) for pair in zip(*(scaled_ready[b] for b in BACKENDS))]),
        "peak_rss_mb": peak,
    }
    answers: Dict[Any, Tuple[int, ...]] = {}
    latencies: Dict[Any, float] = {}
    p90: Dict[str, float] = {}
    for backend in BACKENDS:
        account(ledger, inputs, backend, inputs.requests, results[backend])
        timed = []
        for index, (ids, latency, _, error) in enumerate(results[backend]):
            if error is None:
                answers[(backend, index)] = ids  # type: ignore[assignment]
                latencies[(backend, index)] = latency
                timed.append(latency)
        p50 = percentile(timed, 0.5) * 1000.0
        metrics[f"ops_per_s.{backend}"] = median(rates[backend])
        metrics[f"ops_per_s_norm.{backend}"] = median(scaled_rates[backend])
        metrics[f"op_ms_p50.{backend}"] = p50
        metrics[f"read_ms_p50.{backend}"] = p50
        metrics[f"register_ms_p50.{backend}"] = median(ready[backend]) * 1000.0
        p90[backend] = percentile(timed, 0.9) * 1000.0
    record = {
        "documents": DOCUMENTS,
        "document_elements": {doc: tree.size() for doc, tree in inputs.trees.items()},
        "queries": QUERIES,
        "connections": CONNECTIONS,
        "workers": WORKERS,
        "timed_requests_per_backend": len(inputs.requests),
        "warmup_requests_per_backend": len(inputs.warmup),
        "rate_window": RATE_WINDOW,
        "setup_samples": len(ready[BACKENDS[0]]),
        "steal_share": steal,
        "ready_s": ready,
        "window_rates": rates,
        "read_ms_p90": p90,
        "samples_beyond_p90": samples_beyond(len(inputs.requests), 0.9),
    }
    return Outcome(metrics, record, answers, latencies)


def trace(inputs: Inputs, outcome: Outcome, ledger: Ledger, tracer: Tracer) -> Dict[str, float]:
    """Replay the memory backend's requests one layer at a time.

    The same requests go to an in-process ``QueryService``, to a
    ``ProcessQueryService`` and over HTTP to a fresh server, one at a time;
    their medians differ by the pool's IPC and the HTTP front end's self
    time.  Registration is traced stage by stage on both backends.
    """
    dtd, requests = inputs.dtd, inputs.requests
    config = engine_config("memory")
    stacks = []
    for backend in BACKENDS:
        stack = StagedStack(dtd, backend, tracer)
        for doc, tree in inputs.trees.items():
            with tracer.span("register", ("register", backend, doc)):
                stack.register(("register", backend, doc), tree)
        stack.close()
        stacks.append(stack)

    def replay(name: str, answer) -> None:
        for index, (doc, query) in enumerate(requests):
            if ("memory", index) not in outcome.answers:
                continue
            with tracer.span(name, index):
                ids = answer(doc, query)
            ledger.check(f"{name} {doc} {query}", ids, outcome.answers[("memory", index)])

    service = QueryService(dtd, config=config)
    try:
        for doc, tree in inputs.trees.items():
            service.register_document(doc, tree)
        for doc, query in inputs.warmup:
            service.answer(query, doc)
        plan_before, result_before = service.cache_info(), service.result_cache_info()
        replay(
            "service.answer",
            lambda doc, query: tuple(n.node_id for n in service.answer(query, doc)),
        )
        plan_misses = service.cache_info().misses - plan_before.misses
        result_hits = service.result_cache_info().hits - result_before.hits
    finally:
        service.close()

    with ProcessQueryService(
        dtd, config=config, workers=WORKERS, replicas=WORKERS, warmup=[dtd.root]
    ) as pool:
        for index, spec in enumerate(inputs.specs):
            pool.register_generated(document_id(index), spec)
        for doc, query in inputs.warmup:
            pool.answer(query, doc, include_nodes=False)
        replay(
            "pool.answer",
            lambda doc, query: tuple(pool.answer(query, doc, include_nodes=False).node_ids),
        )

    server = Server("memory")
    try:
        server.start()
        warm, _ = asyncio.run(drive(server.port, inputs.warmup, 1))
        account(ledger, inputs, "memory", inputs.warmup, warm)
        results, _ = asyncio.run(drive(server.port, requests, 1))
    finally:
        server.stop()
    base = clock()
    for index, (ids, latency, _, error) in enumerate(results):
        if error is not None:
            ledger.error(f"http.request {requests[index]}", RuntimeError(error))
            continue
        # The client timed each request; lay the spans end to end.
        tracer.add("http.request", index, base, base + latency)
        base += latency
        if ("memory", index) in outcome.answers:
            ledger.check(f"http.request {requests[index]}", ids, outcome.answers[("memory", index)])

    timed = [index for index in range(len(requests)) if ("memory", index) in outcome.latencies]
    http = tracer.durations("http.request")
    traced_total = sum(http[index] for index in timed)
    untraced_total = sum(outcome.latencies[("memory", index)] for index in timed)
    metrics: Dict[str, float] = {
        "shredding.shred_ms": tracer.median_ms("shredding.shred"),
        "shredding.rows": median([n for stack in stacks for n in stack.shred_rows]),
        "service.answer_ms": tracer.median_ms("service.answer"),
        "pool.answer_ms": tracer.median_ms("pool.answer"),
        "http.request_ms": tracer.median_ms("http.request"),
        "core.plan_hit_ratio": 1.0 - plan_misses / len(requests),
        "service.result_hit_ratio": result_hits / len(requests),
        # Sequential layer-by-layer replay against the 2-connection loop.
        "trace.coverage": traced_total / untraced_total,
        "trace.overhead_ms": (traced_total - untraced_total) / len(timed) * 1000.0,
    }
    for backend in BACKENDS:
        metrics[f"backends.load_ms.{backend}"] = tracer.median_ms(f"backends.load.{backend}")
    return metrics


def summary(outcome: Outcome, measured: Dict[str, float]) -> List[str]:
    record = outcome.record
    return [
        f"serve: {record['timed_requests_per_backend']} timed requests per backend over "
        f"{record['connections']} connections, launch-to-ready s {record['ready_s']}",
        f"read p90 (report only) {record['read_ms_p90']} ms with "
        f"{record['samples_beyond_p90']} samples beyond it",
    ]
