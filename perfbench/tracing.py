"""Spans recorded around the program's public entry points, from outside.

:func:`install` replaces each layer's entry point with a wrapper that
records one span per call: ``(id, parent id, name, start, end, count)``.
Parents come from a :class:`contextvars.ContextVar`, and the server's
worker pool is swapped for one that runs each job in a copy of the
submitting task's context, so work done on a pool thread is the child
of the request that submitted it.  Spans stay in memory and are written
as JSON when the process ends (:func:`dump`).

Nothing under ``src/`` changes: the wrappers are installed by the
benchmark's launcher before it hands over to the program.
"""

from __future__ import annotations

import contextvars
import functools
import itertools
import json
import time
from concurrent.futures import ThreadPoolExecutor
from typing import Any, Callable, Dict, List, Optional, Tuple

Span = Tuple[int, Optional[int], str, float, float, int]

_SPANS: List[Span] = []
_IDS = itertools.count(1)
_CURRENT: contextvars.ContextVar[Optional[int]] = contextvars.ContextVar(
    "perfbench_span", default=None
)


def _open() -> Tuple[int, Optional[int], contextvars.Token]:
    span_id = next(_IDS)
    parent = _CURRENT.get()
    return span_id, parent, _CURRENT.set(span_id)


def _close(
    opened: Tuple[int, Optional[int], contextvars.Token],
    name: str,
    start: float,
    count: int,
) -> None:
    end = time.perf_counter()
    span_id, parent, token = opened
    _CURRENT.reset(token)
    _SPANS.append((span_id, parent, name, start, end, count))


def _record(
    name: str, call: Callable[[], Any], count: Callable[[Any], int]
) -> Any:
    opened = _open()
    start = time.perf_counter()
    result = None
    try:
        result = call()
        return result
    finally:
        _close(opened, name, start, 0 if result is None else count(result))


def _no_count(_: Any) -> int:
    return 0


def wrap(
    name: str,
    fn: Callable[..., Any],
    *,
    count: Callable[[Any], int] = _no_count,
    materialize: bool = False,
) -> Callable[..., Any]:
    """A recording wrapper of a synchronous callable.

    *materialize* turns a returned iterator into a tuple inside the
    span, so lazy encoders are timed for the work they do.
    """

    @functools.wraps(fn)
    def wrapper(*args: Any, **kwargs: Any) -> Any:
        if materialize:
            return _record(name, lambda: tuple(fn(*args, **kwargs)), count)
        return _record(name, lambda: fn(*args, **kwargs), count)

    return wrapper


def wrap_by_class(prefix: str, fn: Callable[..., Any]) -> Callable[..., Any]:
    """Like :func:`wrap`, naming the span by the request class argument."""
    classes = {
        "TrajectoryQuery": "Q1",
        "CompareQuery": "Q2",
        "RecommendQuery": "Q3",
        "ContentQuery": "Q5",
    }

    @functools.wraps(fn)
    def wrapper(self: Any, query: Any) -> Any:
        label = classes.get(type(query).__name__, "other")
        return _record(f"{prefix}.{label}", lambda: fn(self, query), _no_count)

    return wrapper


def wrap_async(name: str, fn: Callable[..., Any]) -> Callable[..., Any]:
    """A recording wrapper of a coroutine function."""

    @functools.wraps(fn)
    async def wrapper(*args: Any, **kwargs: Any) -> Any:
        opened = _open()
        start = time.perf_counter()
        try:
            return await fn(*args, **kwargs)
        finally:
            _close(opened, name, start, 0)

    return wrapper


class ContextPool(ThreadPoolExecutor):
    """A thread pool whose jobs run in the submitter's context copy."""

    def submit(self, fn: Callable[..., Any], /, *args: Any, **kwargs: Any):  # type: ignore[override]
        context = contextvars.copy_context()
        return super().submit(context.run, fn, *args, **kwargs)


def install() -> None:
    """Wrap every traced entry point (call once, before serving)."""
    import gzip

    import repro.cli as cli
    import repro.core.builder as builder
    import repro.serve.gateway as gateway
    import repro.service.service as service
    from repro.core.builder import TaraKnowledgeBase
    from repro.core.explorer import TaraExplorer
    from repro.core.incremental import IncrementalTara
    from repro.core.lazykb import LazyTaraKnowledgeBase
    from repro.mining import MINERS
    from repro.serve.gateway import QueryGateway
    from repro.service import keys
    from repro.service.service import TaraService

    # serve
    setattr(QueryGateway, "dispatch_wire",
           wrap_async("serve.request", QueryGateway.dispatch_wire))
    setattr(gateway, "ThreadPoolExecutor", ContextPool)
    setattr(gateway, "encode_answer_bytes",
           wrap("serve.encode", gateway.encode_answer_bytes, materialize=True))
    setattr(gzip, "compress", wrap("serve.gzip", gzip.compress))
    # service
    canonicalize = wrap("service.canonicalize", keys.canonicalize)
    for module in (keys, gateway, service):
        setattr(module, "canonicalize", canonicalize)
    setattr(TaraService, "execute_on",
           wrap("service.execute", TaraService.execute_on))
    # core
    setattr(TaraExplorer, "execute",
           wrap_by_class("core.explorer", TaraExplorer.execute))
    setattr(IncrementalTara, "publish",
           wrap("core.publish", IncrementalTara.publish))
    for cls in (TaraKnowledgeBase, LazyTaraKnowledgeBase):
        setattr(cls, "clone", wrap("core.clone", cls.__dict__["clone"]))
    setattr(builder.TaraBuilder, "_index_window",
           wrap("core.merge", builder.TaraBuilder._index_window))
    # mining
    for miner in list(MINERS):
        MINERS[miner] = wrap("mining.itemsets", MINERS[miner])
    setattr(builder, "derive_rules",
           wrap("mining.rules", builder.derive_rules, count=len))
    # storage
    setattr(cli, "save_knowledge_base",
           wrap("storage.save", cli.save_knowledge_base))
    setattr(cli, "load_knowledge_base",
           wrap("storage.load", cli.load_knowledge_base))
    setattr(LazyTaraKnowledgeBase, "slice",
           wrap("storage.slice", LazyTaraKnowledgeBase.slice))


def dump(path: str) -> None:
    """Write every recorded span as JSON rows."""
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(_SPANS, handle)


# ----------------------------------------------------------------------
# reading spans back
# ----------------------------------------------------------------------
def load(path: str) -> List[Span]:
    with open(path, encoding="utf-8") as handle:
        return [tuple(row) for row in json.load(handle)]  # type: ignore[misc]


def self_times(spans: List[Span]) -> Dict[int, float]:
    """Each span's duration minus the time its children cover."""
    covered: Dict[int, List[Tuple[float, float]]] = {}
    for _, parent, _, start, end, _ in spans:
        if parent is not None:
            covered.setdefault(parent, []).append((start, end))
    result: Dict[int, float] = {}
    for span_id, _, _, start, end, _ in spans:
        busy = 0.0
        cursor = start
        for lo, hi in sorted(covered.get(span_id, ())):
            lo, hi = max(lo, cursor), min(hi, end)
            if hi > lo:
                busy += hi - lo
                cursor = hi
        result[span_id] = (end - start) - busy
    return result


def request_trees(spans: List[Span], root: str) -> Dict[int, List[Span]]:
    """Spans grouped under their ``root``-named ancestor."""
    by_id = {span[0]: span for span in spans}
    roots: Dict[int, List[Span]] = {}
    for span in spans:
        cursor: Optional[Span] = span
        while cursor is not None and cursor[2] != root:
            parent = cursor[1]
            cursor = by_id.get(parent) if parent is not None else None
        if cursor is not None:
            roots.setdefault(cursor[0], []).append(span)
    return roots
