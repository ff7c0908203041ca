"""The shard-worker wire protocol.

The sharded front door used to call its workers' Python methods
directly; running a worker in its own OS process means every
interaction must cross a pipe instead.  This module defines that
boundary as an explicit, *serializable* message protocol: one small
frozen dataclass per operation -- submit / cancel / step-to / drain /
pump / cache-put / telemetry-snapshot / trace-dump / shutdown -- with
a versioned, pickle-free JSON wire encoding.

One rule decides which requests exist: a worker changes state only
while serving a request, and every reply reports what changed (a
:class:`WorkerUpdate`), so a request that only reads state the last
reply already reported does not exist -- answers-so-far ride the
handle events, and in-flight leadership is read off the front door's
proxies -- and a request that changes nothing the front door reads
(:class:`CachePut`) gets no reply.

Design rules:

* **Versioned.**  Every frame carries :data:`WIRE_VERSION`; a decoder
  seeing a version (or kind) it does not know raises
  :class:`ProtocolError` instead of guessing.  A worker binary can
  therefore never silently misread a newer front door's frames.
* **Pickle-free.**  Frames are UTF-8 JSON over ``Connection.
  send_bytes``: floats round-trip exactly (Python's ``repr``-based
  shortest-form encoding), and a worker can be driven by anything that
  speaks the frame format -- no Python object graphs on the wire.
* **Canonical answers.**  Ranked answers travel in the same canonical
  form the differential digest functions already consume
  (:func:`repro.service.http.answer_payload`): ordered score sequence
  plus sorted ``[alias, rel, tid]`` provenance rows, extended with the
  owning ``uq`` id so the in-memory :class:`~repro.keyword.queries.
  RankedAnswer` can be rebuilt bit-for-bit.
* **Clock by message.**  There is no shared clock object across the
  process boundary; every request carries the fleet's ``now`` and
  every reply carries the worker's, so the fleet's single-"now"
  invariant (PR 7) holds at message granularity: a worker observes
  every fleet instant no later than its next request, and the front
  door observes a worker's progress at the reply.
"""

from __future__ import annotations

import json
from dataclasses import MISSING, dataclass, fields
from typing import Any, ClassVar

from repro.keyword.queries import RankedAnswer

__all__ = [
    "WIRE_VERSION",
    "ProtocolError",
    "Message",
    "SubmitQuery",
    "CancelQuery",
    "StepTo",
    "DrainShard",
    "PumpQuery",
    "CachePut",
    "TelemetrySnapshot",
    "TraceDump",
    "Shutdown",
    "HandleState",
    "SubmitReply",
    "BoolReply",
    "AnswersReply",
    "SnapshotReply",
    "TraceReply",
    "Ack",
    "WorkerUpdate",
    "encode",
    "decode",
    "encode_answer",
    "decode_answer",
    "encode_answers",
    "decode_answers",
    "wire_schema",
]

#: The wire format version stamped on (and demanded of) every frame.
#: Any change to a message's field names, types, or defaults is a
#: protocol change and MUST bump this number, then regenerate the
#: golden snapshot (``python scripts/update_protocol_schema.py``) that
#: ``tests/test_protocol_schema.py`` locks the schema against.
WIRE_VERSION = 3


class ProtocolError(ValueError):
    """A frame that cannot be decoded: unknown version, unknown kind,
    or a field set that does not match the message dataclass."""


# -- canonical answer encoding ------------------------------------------------

def encode_answer(answer: RankedAnswer) -> dict:
    """One ranked answer in the digest functions' canonical form
    (ordered rows, plan-independent identity) plus the ``uq`` id."""
    return {
        "uq": answer.uq_id,
        "cq": answer.cq_id,
        "score": answer.score,
        "rows": tuple((alias, rel, tid)
                      for alias, rel, tid in sorted(answer.provenance)),
    }


def decode_answer(payload: dict) -> RankedAnswer:
    return RankedAnswer(
        uq_id=payload["uq"],
        cq_id=payload["cq"],
        score=payload["score"],
        provenance=frozenset(
            (alias, rel, tid) for alias, rel, tid in payload["rows"]),
    )


def encode_answers(answers) -> tuple[dict, ...] | None:
    if answers is None:
        return None
    return tuple(encode_answer(a) for a in answers)


def decode_answers(payloads) -> list[RankedAnswer] | None:
    if payloads is None:
        return None
    return [decode_answer(p) for p in payloads]


# -- the messages -------------------------------------------------------------

_KINDS: dict[str, type] = {}
#: Each registered kind's field names, in declaration order.
_FIELDS: dict[type, tuple[str, ...]] = {}


def _register(cls):
    kind = cls.__name__
    cls.kind = kind
    _KINDS[kind] = cls
    _FIELDS[cls] = tuple(f.name for f in fields(cls))
    return cls


@dataclass(frozen=True)
class Message:
    """Common surface: every message knows its kind tag."""

    kind: ClassVar[str]


@_register
@dataclass(frozen=True)
class HandleState(Message):
    """One query handle's observable state, as the worker last saw it.

    The worker reports these both as direct replies (submit) and as
    *events* piggy-backed on every reply (:class:`WorkerUpdate`), so
    the front door's proxy handles track the worker's without any
    polling.  ``emitted`` holds the answers the handle's rank-merge
    emitted since its previous state (a delta: emission is
    append-only), so the proxy's answers-so-far need no request of
    their own.  ``answers`` is ``None`` until the handle is terminal;
    a terminal state carries the final (possibly partial) answer list
    in canonical form.
    """

    kq_id: str
    status: str
    via: str | None = None
    uq_id: str | None = None
    answers: tuple[dict, ...] | None = None
    completed_at: float | None = None
    reason: str = ""
    deadline: float | None = None
    arrival: float = 0.0
    emitted: tuple[dict, ...] = ()


@_register
@dataclass(frozen=True)
class WorkerUpdate(Message):
    """Piggy-backed worker state carried on every reply: the worker's
    clock, its load gauges, and the handle-state events since the last
    message.  Harvest, in protocol terms, *is* this update: the front
    door never polls for completions or answers, they ride the next
    reply."""

    now: float = 0.0
    in_flight: int = 0
    events: tuple[HandleState, ...] = ()


# requests --------------------------------------------------------------------

@_register
@dataclass(frozen=True)
class SubmitQuery(Message):
    """Admit one keyword query on the worker (the front door already
    performed the authoritative cache lookup and routing)."""

    now: float
    kq_id: str
    keywords: tuple[str, ...]
    k: int
    arrival: float
    user: str = "anon"
    deadline: float | None = None


@_register
@dataclass(frozen=True)
class CancelQuery(Message):
    now: float
    kq_id: str


@_register
@dataclass(frozen=True)
class StepTo(Message):
    """Advance the worker's service to ``until`` (execute, harvest,
    sweep deadlines, retry deferred)."""

    now: float
    until: float


@_register
@dataclass(frozen=True)
class DrainShard(Message):
    """Finish every admitted query on the worker."""

    now: float


@_register
@dataclass(frozen=True)
class PumpQuery(Message):
    """Drive the worker on ``kq_id`` (the streaming ``results()``
    engine) until it ends or stalls -- but no further than its first
    answer if it had none, and one batch window if it is deferred.
    The reply's events carry every answer emitted, often several."""

    now: float
    kq_id: str


@_register
@dataclass(frozen=True)
class CachePut(Message):
    """Mirror one authoritative-cache insertion into the worker's
    local answer cache, so deferred retries and worker-side lookups
    observe fleet-wide completions just as a shared in-process cache
    would.  One-way: it changes nothing the front door reads, so the
    worker sends no reply."""

    now: float
    keywords: tuple[str, ...]
    k: int
    answers: tuple[dict, ...]
    stored_at: float


@_register
@dataclass(frozen=True)
class TelemetrySnapshot(Message):
    """Request the worker's observability snapshot
    (:class:`SnapshotReply`)."""

    now: float


@_register
@dataclass(frozen=True)
class TraceDump(Message):
    """Request the worker's recorded trace spans (JSONL lines), for
    one query (``kq_id``) or all of them (``None``)."""

    now: float
    kq_id: str | None = None


@_register
@dataclass(frozen=True)
class Shutdown(Message):
    now: float = 0.0


# replies ---------------------------------------------------------------------

@_register
@dataclass(frozen=True)
class SubmitReply(Message):
    update: WorkerUpdate
    handle: HandleState


@_register
@dataclass(frozen=True)
class BoolReply(Message):
    update: WorkerUpdate
    value: bool


@_register
@dataclass(frozen=True)
class AnswersReply(Message):
    """No worker sends this: answers ride :attr:`HandleState.emitted`.
    It stays registered only because the end-to-end benchmark's codec
    micro-measurement (``benchmarks/e2e/reduce.py``) encodes one per
    query; it goes when that measurement moves to a live kind."""

    update: WorkerUpdate
    answers: tuple[dict, ...]


@_register
@dataclass(frozen=True)
class SnapshotReply(Message):
    """The shard's registry in :meth:`~repro.obs.instruments.
    MetricsRegistry.state` form -- every counter it keeps crosses the
    wire once, here -- and the :meth:`~repro.service.telemetry.
    Telemetry.samples` that no instrument holds."""

    update: WorkerUpdate
    registry: dict
    samples: dict


@_register
@dataclass(frozen=True)
class TraceReply(Message):
    update: WorkerUpdate
    lines: tuple[str, ...]


@_register
@dataclass(frozen=True)
class Ack(Message):
    update: WorkerUpdate


# -- schema introspection -----------------------------------------------------

def wire_schema() -> dict:
    """The protocol's full shape as plain data: version plus, per
    message kind, the ordered field list with annotation and default.

    This is the single source both the golden snapshot
    (``tests/golden/protocol_schema.json``, regenerated by
    ``scripts/update_protocol_schema.py``) and its lock test consume,
    so a field edit that forgets the :data:`WIRE_VERSION` bump fails
    the build instead of silently shipping two incompatible builds
    that claim the same version.
    """
    messages: dict[str, list[dict]] = {}
    for kind in sorted(_KINDS):
        entries = []
        for f in fields(_KINDS[kind]):
            entry: dict[str, Any] = {"name": f.name, "type": f.type}
            if f.default is not MISSING:
                entry["default"] = repr(f.default)
            entries.append(entry)
        messages[kind] = entries
    return {"protocol_version": WIRE_VERSION, "messages": messages}


# -- wire encoding ------------------------------------------------------------

def _message_fields(value: Any) -> dict:
    """``json.dumps``'s hook for what JSON cannot hold: a message
    becomes its kind tag, then its fields in declaration order."""
    if type(value) not in _FIELDS:
        raise TypeError(f"{type(value).__name__} is not wire-encodable")
    return {"__msg__": value.kind,
            **{name: getattr(value, name) for name in _FIELDS[type(value)]}}


def _tuples(items: list) -> tuple:
    return tuple(_tuples(v) if type(v) is list else v for v in items)


def _decode_object(obj: dict) -> Any:
    """``json.loads``'s hook, called innermost object first: lists
    become tuples, and an object tagged ``__msg__`` its message."""
    for key, value in obj.items():
        if type(value) is list:
            obj[key] = _tuples(value)
    if "__msg__" not in obj:
        return obj
    kind = obj.pop("__msg__")
    cls = _KINDS.get(kind) if isinstance(kind, str) else None
    if cls is None:
        raise ProtocolError(f"unknown message kind {kind!r}")
    try:   # an unknown field is an unexpected keyword argument
        return cls(**obj)
    except TypeError as exc:
        raise ProtocolError(
            f"bad field set for message kind {kind!r}: {exc}") from exc


def encode(msg: Message) -> bytes:
    """One message as a self-describing, versioned wire frame."""
    return json.dumps({"v": WIRE_VERSION, "msg": msg}, separators=(",", ":"),
                      default=_message_fields).encode("utf-8")


def decode(data: bytes) -> Message:
    """Decode one frame; :class:`ProtocolError` on anything this
    version of the protocol does not understand."""
    try:
        frame = json.loads(data.decode("utf-8"), object_hook=_decode_object)
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ProtocolError(f"undecodable frame: {exc}") from exc
    if not isinstance(frame, dict) or "v" not in frame or "msg" not in frame:
        raise ProtocolError("frame missing version or message body")
    if frame["v"] != WIRE_VERSION:
        raise ProtocolError(
            f"unsupported wire version {frame['v']!r} "
            f"(this build speaks {WIRE_VERSION})")
    msg = frame["msg"]
    if not isinstance(msg, Message):
        raise ProtocolError("frame body is not a message")
    return msg
