"""The single-node query service: the front door over one shard.

The Q System is a *continuously operating* middleware: "we do not
discard the query plan graph and its state; rather, we take subsequent
queries and attempt to graft them onto the existing graph."
:class:`QService` serves it on one engine.  It is not a second
implementation: it is the front door
(:class:`~repro.service.sharding.ShardedQService`) over exactly one
in-process :class:`~repro.service.shard.Shard`, so every topology
serves through the same code -- the answer cache, handle table and
trace roots at the front door; admission, coalescing, deferral,
deadlines and the engine in the shard.  With one shard there is no
routing: the report has the shard's own shape and the metrics carry no
``shard`` label.  The engine-side state lives on
``service.workers[0]``.

Typical use::

    service = QService(federation, ExecutionConfig(mode=SharingMode.ATC_FULL))
    handle = service.submit(kq)                   # -> QueryHandle
    for answer in handle.results():               # streams progressively
        show(answer)
    report = service.drain()                      # finish everything else
    print(report.render())
"""

from __future__ import annotations

from repro.common.clock import Clock
from repro.common.config import ExecutionConfig
from repro.data.database import Federation
from repro.data.inverted import InvertedIndex
from repro.service.shard import ServiceConfig
from repro.service.sharding import ShardedQService

__all__ = [
    "QService",
    "ServiceConfig",
]


class QService(ShardedQService):
    """The front door over one in-process shard."""

    def __init__(self, federation: Federation, config: ExecutionConfig,
                 service: ServiceConfig | None = None, *,
                 index: InvertedIndex | None = None,
                 tracer=None,
                 clock: Clock | None = None) -> None:
        super().__init__(federation, config, n_shards=1, service=service,
                         index=index, tracer=tracer, clock=clock)
