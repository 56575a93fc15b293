"""The traced pass's stack: one backend assembled from each layer's entry point.

Where the untraced pass answers through :class:`repro.service.QueryService`
or :class:`repro.api.Engine`, the traced pass calls the same layers one by
one — parse, strategy, extended XPath, lowering, optimizer, prepare,
execute, decode — and records one span per call.  Every stage-built answer
is compared with the answer the untraced pass returned for the same op.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, List, Optional, Tuple

from harness import Tracer, median
from repro.api.config import EngineConfig
from repro.backends import Backend, create_backend
from repro.core.optimize import ProgramOptimizer
from repro.core.pipeline import XPathToSQLTranslator
from repro.dtd.model import DTD
from repro.shredding.shredder import ShreddedDocument, shred_document
from repro.xmltree.tree import XMLTree
from repro.xpath.parser import parse_xpath

#: Span-name prefixes that count as engine stages (not benchmark glue).
STAGE_PREFIXES = ("xpath.", "core.", "shredding.", "backends.", "live.", "api.")


def engine_config(backend: str) -> EngineConfig:
    """The one configuration every workload runs: ``auto`` strategy, defaults
    otherwise (memory = columnar executor, sqlite = ``multi`` emission)."""
    return EngineConfig(strategy="auto", backend=backend)


class StagedStack:
    """One backend's stack, driven stage by stage under a :class:`Tracer`."""

    def __init__(self, dtd: DTD, backend: str, tracer: Tracer) -> None:
        self.dtd = dtd
        self.backend_name = backend
        self.tracer = tracer
        self.config = engine_config(backend)
        self.translator = XPathToSQLTranslator(dtd, config=self.config)
        self.optimizer = ProgramOptimizer(
            dtd=dtd,
            mapping=self.translator.mapping,
            level=self.translator.optimize_level,
        )
        self.shredded: Optional[ShreddedDocument] = None
        self.backend: Optional[Backend] = None
        self.shred_rows: List[int] = []
        self.operators: List[int] = []
        self.rows_out: List[int] = []
        self.statements: List[int] = []

    def register(self, op: Any, tree: XMLTree) -> None:
        """Shred ``tree`` and load it into a fresh backend (replacing any)."""
        tracer = self.tracer
        shredded = tracer.call(
            "shredding.shred", op, shred_document, tree, self.dtd, self.translator.mapping
        )
        backend = tracer.call(
            f"backends.load.{self.backend_name}",
            op,
            create_backend,
            self.config,
            shredded.database,
        )
        self.close()
        self.shredded, self.backend = shredded, backend
        self.shred_rows.append(shredded.database.total_rows())

    def answer(self, op: Any, query: str) -> Tuple[int, ...]:
        """Answer ``query`` stage by stage; returns node ids in document order."""
        tracer, translator, name = self.tracer, self.translator, self.backend_name
        assert self.backend is not None and self.shredded is not None
        path = tracer.call("xpath.parse", op, parse_xpath, query)
        tracer.call("core.strategy", op, translator.resolve_strategy, path)
        extended = tracer.call("core.extend", op, translator.to_extended, path)
        program = tracer.call("core.lower", op, translator.lower_extended, extended)
        program = tracer.call("core.optimize", op, self.optimizer.run, program)
        prepared = tracer.call(f"backends.prepare.{name}", op, self.backend.prepare, program)
        result = tracer.call(
            f"backends.execute.{name}", op, self.backend.execute_prepared, prepared
        )
        nodes = tracer.call(
            "shredding.decode", op, self.shredded.nodes_for_ids, result.node_ids()
        )
        self.operators.append(program.operator_profile().total)
        self.rows_out.append(result.row_count)
        statements = getattr(prepared.payload, "statements", None)
        if statements is not None:
            self.statements.append(len(statements))
        return tuple(node.node_id for node in nodes)

    def warm_up(self, queries: Iterable[str]) -> List[Tuple[int, ...]]:
        """Answer ``queries`` untraced and uncounted (the first-use set-up
        the untraced pass also does before timing)."""
        tracer, self.tracer = self.tracer, Tracer()
        counts = (self.operators, self.rows_out, self.statements)
        self.operators, self.rows_out, self.statements = [], [], []
        try:
            return [self.answer(None, query) for query in queries]
        finally:
            self.tracer = tracer
            self.operators, self.rows_out, self.statements = counts

    def close(self) -> None:
        if self.backend is not None:
            self.backend.close()
            self.backend = None


def stage_metrics(tracer: Tracer, stacks: Iterable[StagedStack]) -> Dict[str, float]:
    """Per-layer medians of the staged calls (per op, self time, in ms)."""
    by_backend: Dict[str, List[StagedStack]] = {}
    for stack in stacks:
        by_backend.setdefault(stack.backend_name, []).append(stack)

    def pooled(field: str, backend: Optional[str] = None) -> float:
        return median(
            [
                value
                for name, group in by_backend.items()
                if backend is None or name == backend
                for stack in group
                for value in getattr(stack, field)
            ]
        )

    metrics = {
        "xpath.parse_ms": tracer.median_ms("xpath.parse"),
        "core.strategy_ms": tracer.median_ms("core.strategy"),
        "core.extend_ms": tracer.median_ms("core.extend"),
        "core.lower_ms": tracer.median_ms("core.lower"),
        "core.optimize_ms": tracer.median_ms("core.optimize"),
        "shredding.shred_ms": tracer.median_ms("shredding.shred"),
        "shredding.decode_ms": tracer.median_ms("shredding.decode"),
        "core.operators": pooled("operators"),
        "shredding.rows": pooled("shred_rows"),
    }
    for name in by_backend:
        metrics[f"backends.load_ms.{name}"] = tracer.median_ms(f"backends.load.{name}")
        metrics[f"backends.prepare_ms.{name}"] = tracer.median_ms(f"backends.prepare.{name}")
        metrics[f"backends.execute_ms.{name}"] = tracer.median_ms(f"backends.execute.{name}")
        metrics[f"backends.rows_out.{name}"] = pooled("rows_out", name)
        statements = pooled("statements", name)
        if statements:
            metrics[f"backends.statements.{name}"] = statements
    return metrics
