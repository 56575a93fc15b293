"""Shared machinery of the benchmark: metric names, statistics, spans, run record.

Everything here is workload-agnostic.  The workload modules (``adhoc``,
``small``, ``live``, ``serve``) build their inputs, drive the engine's
public API and hand back an :class:`Outcome`; ``run.py`` turns that into
the one-line JSON result.
"""

from __future__ import annotations

import gc
import math
import os
import platform
import random
import sqlite3
import statistics
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence, Tuple

clock = time.perf_counter

BACKENDS = ("memory", "sqlite")

#: The ``--trace 0`` metrics: every workload reports every one of them.
#: An "op" is the workload's unit of work (adhoc: a read, small: a case,
#: live: an update and its re-read, serve: a request).  ``ops_per_s_norm``
#: is ops ÷ their summed times and ``setup_s`` a median of set-up times,
#: each time rescaled by the :class:`HostGauge` readings around it, i.e.
#: as a host of the reference speed would measure them: a shared host
#: drifts by up to 1.5x over minutes, which no run length averages away.
#: The unscaled rate (``ops_per_s.*``) and the workloads' medians
#: (``read_ms_p50.*``, ``op_ms_p50.*``, ``register_ms_p50.*``) stay in the
#: run record, ungated: they spread with the host past the 25% a
#: regression bound may allow.
END_TO_END: Tuple[Tuple[str, str], ...] = (
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("ops_per_s_norm.memory", "1/s"),
    ("ops_per_s_norm.sqlite", "1/s"),
)

#: The ``--trace 1`` metrics.  Every one is exercised by every workload
#: or is a count or ratio, which is 0 where a workload does not reach the
#: layer (no rows mutated, no cache hits).  Layer figures only some
#: workloads produce (per-family execute times, absolute update stage
#: times, the serving tier's layers) go to the run record instead.
PER_LAYER: Tuple[Tuple[str, str], ...] = (
    ("xpath.parse_ms", "ms"),
    ("core.strategy_ms", "ms"),
    ("core.extend_ms", "ms"),
    ("core.lower_ms", "ms"),
    ("core.optimize_ms", "ms"),
    ("core.operators", "count"),
    ("core.plan_hit_ratio", "ratio"),
    ("shredding.shred_ms", "ms"),
    ("shredding.rows", "count"),
    ("shredding.decode_ms", "ms"),
    ("backends.load_ms.memory", "ms"),
    ("backends.load_ms.sqlite", "ms"),
    ("backends.prepare_ms.memory", "ms"),
    ("backends.prepare_ms.sqlite", "ms"),
    ("backends.execute_ms.memory", "ms"),
    ("backends.execute_ms.sqlite", "ms"),
    ("backends.rows_out.memory", "count"),
    ("backends.rows_out.sqlite", "count"),
    ("backends.statements.sqlite", "count"),
    ("live.mutate_share", "ratio"),
    ("backends.apply_delta_share.memory", "ratio"),
    ("backends.apply_delta_share.sqlite", "ratio"),
    ("live.delta_rows", "count"),
    ("live.order_share", "ratio"),
    ("service.result_hit_ratio", "ratio"),
    ("trace.coverage", "ratio"),
    ("trace.overhead_ms", "ms"),
)


# -- statistics ------------------------------------------------------------------


def percentile(values: Sequence[float], fraction: float) -> float:
    """Nearest-rank percentile: always one of the measured samples."""
    if not values:
        raise ValueError("percentile of no samples")
    ordered = sorted(values)
    rank = max(1, math.ceil(fraction * len(ordered)))
    return ordered[rank - 1]


def rate(seconds: Sequence[float]) -> float:
    """Ops per second over a set of per-op timings."""
    if not seconds:
        raise ValueError("rate of no samples")
    return len(seconds) / sum(seconds)


def samples_beyond(count: int, fraction: float) -> int:
    """How many of ``count`` samples lie above the nearest-rank percentile."""
    return count - max(1, math.ceil(fraction * count))


def median(values: Sequence[float]) -> float:
    return statistics.median(values) if values else 0.0


def landing_family(
    value: float, samples_by_family: Dict[str, Sequence[float]]
) -> Optional[str]:
    """The family whose [min, max] sample range holds ``value`` (rule (c)).

    ``None`` means the percentile sits in a gap between two families'
    cost ranges, where it would swing with every small shift in either.
    """
    for family, samples in samples_by_family.items():
        if samples and min(samples) <= value <= max(samples):
            return family
    return None


# -- answer accounting -----------------------------------------------------------


@dataclass
class Ledger:
    """Counts verified operations; any error or wrong answer fails the run."""

    attempted: int = 0
    errors: int = 0
    mismatched: int = 0
    samples: List[str] = field(default_factory=list)

    def check(self, label: str, got: Sequence[int], expected: Sequence[int]) -> bool:
        self.attempted += 1
        if tuple(got) == tuple(expected):
            return True
        self.mismatched += 1
        if len(self.samples) < 10:
            self.samples.append(
                f"mismatch {label}: got {len(got)} ids {tuple(got)[:8]}..., "
                f"expected {len(expected)} ids {tuple(expected)[:8]}..."
            )
        return False

    def error(self, label: str, exc: BaseException) -> None:
        self.attempted += 1
        self.errors += 1
        if len(self.samples) < 10:
            self.samples.append(f"error {label}: {type(exc).__name__}: {exc}")

    @property
    def failed(self) -> int:
        return self.errors + self.mismatched

    @property
    def correct(self) -> bool:
        return self.failed == 0


@dataclass
class Outcome:
    """What one untraced pass of a workload produced."""

    metrics: Dict[str, float]
    record: Dict[str, Any]
    #: op id -> node ids answered; the traced pass must reproduce them.
    answers: Dict[Any, Tuple[int, ...]]
    #: op id -> untraced latency in seconds (for coverage and overhead).
    latencies: Dict[Any, float]


# -- spans -----------------------------------------------------------------------


class Tracer:
    """In-memory spans recorded around calls into the engine's layers.

    A span is ``[name, start, end, parent index, op id]``.  Spans stay in
    memory until the pass ends; :meth:`to_json` writes them out.
    """

    def __init__(self) -> None:
        self.spans: List[List[Any]] = []
        self._stack: List[int] = []
        self._self_times: Optional[List[Tuple[str, Any, float, float]]] = None

    @contextmanager
    def span(self, name: str, op: Any = None) -> Iterator[None]:
        parent = self._stack[-1] if self._stack else -1
        index = len(self.spans)
        self.spans.append([name, clock(), 0.0, parent, op])
        self._stack.append(index)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[index][2] = clock()

    def add(self, name: str, op: Any, start: float, end: float) -> None:
        """Record a span timed elsewhere (e.g. by a client in another process)."""
        self.spans.append([name, start, end, -1, op])

    def call(self, name: str, op: Any, func: Callable[..., Any], *args: Any) -> Any:
        with self.span(name, op):
            return func(*args)

    def self_times(self) -> List[Tuple[str, Any, float, float]]:
        """``(name, op, self seconds, duration seconds)`` per span.

        Computed once, after the pass: spans must not be added afterwards.
        """
        if self._self_times is not None:
            return self._self_times
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        self._self_times = [
            (name, op, (end - start) - child_time[index], end - start)
            for index, (name, start, end, _, op) in enumerate(self.spans)
        ]
        return self._self_times

    def per_op(self, name: str) -> Dict[Any, float]:
        """Summed self time (s) of spans called ``name``, per op id."""
        totals: Dict[Any, float] = {}
        for span_name, op, own, _ in self.self_times():
            if span_name == name:
                totals[op] = totals.get(op, 0.0) + own
        return totals

    def median_ms(self, name: str, ops: Optional[Callable[[Any], bool]] = None) -> float:
        """Median over ops of a stage's self time, in ms (0 when never run)."""
        values = [
            seconds
            for op, seconds in self.per_op(name).items()
            if ops is None or ops(op)
        ]
        return median(values) * 1000.0

    def durations(self, name: str) -> Dict[Any, float]:
        return {
            op: duration
            for span_name, op, _, duration in self.self_times()
            if span_name == name
        }

    def to_json(self) -> List[List[Any]]:
        return [
            [name, start, end, parent, repr(op)]
            for name, start, end, parent, op in self.spans
        ]


def stage_coverage(
    tracer: Tracer,
    op_spans: Sequence[str],
    stage_prefixes: Sequence[str],
    untraced: Dict[Any, float],
) -> Dict[str, float]:
    """``trace.coverage`` and ``trace.overhead_ms`` over the traced ops.

    An op is a span named in ``op_spans`` whose op id also has an untraced
    latency.  Coverage is the summed self time of the stage spans nested
    in those ops divided by the untraced time of the same ops; overhead is
    the traced minus the untraced time per op.
    """
    names = set(op_spans)
    prefixes = tuple(stage_prefixes)
    enclosing: List[int] = []
    for index, (name, _, _, parent, _) in enumerate(tracer.spans):
        if name in names:
            enclosing.append(index)
        else:
            enclosing.append(enclosing[parent] if parent >= 0 else -1)
    timed = {
        index
        for index, (name, _, _, _, op) in enumerate(tracer.spans)
        if name in names and op in untraced
    }
    if not timed:
        return {"trace.coverage": 0.0, "trace.overhead_ms": 0.0}
    stage_total = 0.0
    for index, (name, _, own, _) in enumerate(tracer.self_times()):
        if enclosing[index] in timed and name.startswith(prefixes):
            stage_total += own
    traced_total = sum(tracer.spans[i][2] - tracer.spans[i][1] for i in timed)
    untraced_total = sum(untraced[tracer.spans[i][4]] for i in timed)
    return {
        "trace.coverage": stage_total / untraced_total,
        "trace.overhead_ms": (traced_total - untraced_total) / len(timed) * 1000.0,
    }


# -- host and process facts --------------------------------------------------------


def cpu_times() -> Tuple[int, int]:
    """``(steal, total)`` jiffies of all CPUs from ``/proc/stat``."""
    try:
        with open("/proc/stat", encoding="ascii") as handle:
            fields = handle.readline().split()[1:]
    except OSError:
        return (0, 0)
    values = [int(value) for value in fields]
    steal = values[7] if len(values) > 7 else 0
    # guest time is already counted inside user time
    return steal, sum(values[:8])


def steal_share(before: Tuple[int, int], after: Tuple[int, int]) -> float:
    total = after[1] - before[1]
    return (after[0] - before[0]) / total if total > 0 else 0.0


def peak_rss_mb(pid: Any = "self") -> float:
    """``VmHWM`` of a process in MB (0 when unreadable, e.g. it exited)."""
    try:
        with open(f"/proc/{pid}/status", encoding="ascii") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return 0.0


def children_of(pid: int) -> List[int]:
    """Direct child pids of ``pid`` (scans ``/proc``)."""
    found = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", encoding="ascii", errors="replace") as handle:
                stat = handle.read()
        except OSError:
            continue
        # the command name may hold spaces; fields resume after its ')'
        fields = stat[stat.rfind(")") + 2 :].split()
        if len(fields) > 1 and int(fields[1]) == pid:
            found.append(int(entry))
    return found


#: The fixed scale of the gauge-scaled figures (``ops_per_s_norm``,
#: ``setup_s``): they are what a host whose :class:`HostGauge` task takes
#: this long would measure.  It is near what the gauge reads on a quiet
#: 2-vCPU x86-64 VM; only its constancy matters.
GAUGE_REFERENCE_S = 0.5e-3


class HostGauge:
    """Times a fixed task that uses no engine code, around each timed op.

    On a shared host the speed of the same code drifts by up to 1.5x over
    minutes, in stretches longer than any one run, and the interpreter and
    SQLite slow together.  The gauge task mixes what the engine spends its
    time on: dict probes, tuple unpacking, small-object allocation and one
    small SQLite query, over a working set of a few hundred KB.  A workload
    samples the gauge right before a timed op and hands the op's time to
    :meth:`scaled`, which samples it again right after and rescales the
    time to a host whose gauge takes :data:`GAUGE_REFERENCE_S`.  A sample
    runs the task once untimed, so what the engine left in the CPU caches
    does not reach the gauge, then takes the median of three timed runs,
    with the collector off so the engine's heap is not walked inside the
    gauge.  The engine never runs inside the gauge, so a slower engine
    still shows in full.
    """

    KEYS = 1_000
    REPEATS = 3

    def __init__(self) -> None:
        rng = random.Random(0)
        self._keys = [rng.randrange(1 << 30) for _ in range(self.KEYS)]
        self._table = {key: (key & 0xFFFF, str(key)) for key in self._keys}
        self._db = sqlite3.connect(":memory:")
        self._db.execute("CREATE TABLE t (a INTEGER, b INTEGER)")
        self._db.executemany(
            "INSERT INTO t VALUES (?, ?)", ((i, i * 7 % 1000) for i in range(2000))
        )
        self.samples: List[float] = []
        for _ in range(20):  # settle, then forget the samples
            self.sample()
        self.samples.clear()

    def _task(self) -> int:
        total = 0
        table = self._table
        made = []
        for key in self._keys:
            value, text = table[key]
            total += value + len(text)
            made.append((value, [text], {"v": value}))
        query = "SELECT sum(b) FROM t WHERE a % 7 = ?"
        return total + len(made) + self._db.execute(query, (total % 7,)).fetchone()[0]

    def sample(self) -> None:
        """Read the host's current speed (call right before a timed op)."""
        enabled = gc.isenabled()
        gc.disable()
        try:
            self._task()
            runs = []
            for _ in range(self.REPEATS):
                start = clock()
                self._task()
                runs.append(clock() - start)
        finally:
            if enabled:
                gc.enable()
        self.samples.append(statistics.median(runs))

    def scaled(self, seconds: float) -> float:
        """An op's ``seconds``, timed since the last :meth:`sample`, at the
        reference speed: divided by the mean gauge reading around the op."""
        before = self.samples[-1]
        self.sample()
        return seconds * GAUGE_REFERENCE_S * 2.0 / (before + self.samples[-1])

    def record(self) -> Dict[str, Any]:
        """The readings for the run record (``slowdown`` > 1: slower than the reference)."""
        mean = statistics.fmean(self.samples) if self.samples else 0.0
        return {
            "samples": len(self.samples),
            "mean_ms": mean * 1000.0,
            "min_ms": min(self.samples, default=0.0) * 1000.0,
            "slowdown": mean / GAUGE_REFERENCE_S,
        }

    def close(self) -> None:
        self._db.close()


def host_record() -> Dict[str, Any]:
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "sqlite": sqlite3.sqlite_version,
        "platform": platform.platform(),
    }
