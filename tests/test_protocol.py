"""Property-based tests (hypothesis) for the worker wire protocol.

The process-per-shard transport (``repro.service.workers``) speaks the
versioned, pickle-free JSON protocol of ``repro.service.protocol``.
These tests pin its two core guarantees:

* **round-trip identity**: for every message kind, ``decode(encode(m))
  == m`` -- the frozen dataclasses compare field-by-field, so any
  list/tuple drift or dropped field on the wire fails loudly;
* **strictness**: frames from the future (unknown version), unknown
  kinds, unknown fields, and garbage bytes raise ``ProtocolError``
  instead of half-decoding.

Answers get their own codec (``encode_answer``/``decode_answer``): the
canonical plan-independent form the digest functions consume, with
frozenset provenance rebuilt exactly.
"""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.keyword.queries import RankedAnswer
from repro.service.protocol import (
    WIRE_VERSION,
    Ack,
    AnswersReply,
    BoolReply,
    CachePut,
    CancelQuery,
    DrainShard,
    HandleState,
    ProtocolError,
    PumpQuery,
    Shutdown,
    SnapshotReply,
    StepTo,
    SubmitQuery,
    SubmitReply,
    TelemetrySnapshot,
    TraceDump,
    TraceReply,
    WorkerUpdate,
    decode,
    decode_answer,
    decode_answers,
    encode,
    encode_answer,
    encode_answers,
)

# JSON-safe building blocks: no surrogates in strings, no NaN/inf in
# floats (`nan != nan` would break the equality oracle, and the wire
# uses strict JSON).
texts = st.text(
    alphabet=st.characters(blacklist_categories=("Cs",)), max_size=12)
ids = st.text(alphabet="abcdefgh0123456789-", min_size=1, max_size=8)
finites = st.floats(allow_nan=False, allow_infinity=False,
                    min_value=-1e9, max_value=1e9)
opt_finites = st.none() | finites
counts = st.integers(min_value=0, max_value=1 << 16)

keywords = st.lists(texts, min_size=1, max_size=4).map(tuple)

answer_payloads = st.builds(
    lambda uq, cq, score, rows: {
        "uq": uq, "cq": cq, "score": score, "rows": tuple(rows)},
    ids, ids, finites,
    st.lists(st.tuples(ids, ids, counts), max_size=3, unique=True),
)
answer_tuples = st.lists(answer_payloads, max_size=3).map(tuple)

handle_states = st.builds(
    HandleState,
    kq_id=ids,
    status=st.sampled_from(
        ["in_flight", "deferred", "done", "cancelled", "expired",
         "rejected", "failed"]),
    via=st.none() | st.sampled_from(["engine", "cache", "coalesced"]),
    uq_id=st.none() | ids,
    answers=st.none() | answer_tuples,
    completed_at=opt_finites,
    reason=texts,
    deadline=opt_finites,
    arrival=finites,
    emitted=answer_tuples,
)

updates = st.builds(
    WorkerUpdate,
    now=finites,
    in_flight=counts,
    deferred=counts,
    events=st.lists(handle_states, max_size=3).map(tuple),
)

# Flat JSON-able dicts, the shape of every snapshot section.
stat_dicts = st.dictionaries(ids, finites, max_size=4)

MESSAGES = {
    "HandleState": handle_states,
    "WorkerUpdate": updates,
    "SubmitQuery": st.builds(
        SubmitQuery, now=finites, kq_id=ids, keywords=keywords,
        k=st.integers(min_value=1, max_value=64), arrival=finites,
        user=texts, deadline=opt_finites),
    "CancelQuery": st.builds(CancelQuery, now=finites, kq_id=ids),
    "StepTo": st.builds(StepTo, now=finites, until=finites),
    "DrainShard": st.builds(DrainShard, now=finites),
    "PumpQuery": st.builds(PumpQuery, now=finites, kq_id=ids),
    "CachePut": st.builds(
        CachePut, now=finites, keywords=keywords,
        k=st.integers(min_value=1, max_value=64),
        answers=answer_tuples, stored_at=finites),
    "TelemetrySnapshot": st.builds(TelemetrySnapshot, now=finites),
    "TraceDump": st.builds(
        TraceDump, now=finites, kq_id=st.none() | ids),
    "Shutdown": st.builds(Shutdown, now=finites),
    "SubmitReply": st.builds(
        SubmitReply, update=updates, handle=handle_states),
    "BoolReply": st.builds(
        BoolReply, update=updates, value=st.booleans()),
    "AnswersReply": st.builds(
        AnswersReply, update=updates, answers=answer_tuples),
    "SnapshotReply": st.builds(
        SnapshotReply, update=updates, telemetry=stat_dicts,
        cache=stat_dicts, admission=stat_dicts, engine=stat_dicts,
        registry=st.dictionaries(ids, stat_dicts, max_size=2)),
    "TraceReply": st.builds(
        TraceReply, update=updates,
        lines=st.lists(texts, max_size=3).map(tuple)),
    "Ack": st.builds(Ack, update=updates),
}

any_message = st.one_of(*MESSAGES.values())


@pytest.mark.parametrize("kind", sorted(MESSAGES))
def test_round_trip_identity_per_kind(kind):
    """Every registered message kind has a round-trip strategy, and a
    concrete example survives the wire unchanged."""

    @settings(max_examples=50, deadline=None)
    @given(MESSAGES[kind])
    def check(msg):
        wire = encode(msg)
        assert isinstance(wire, bytes)
        back = decode(wire)
        assert back == msg
        assert type(back) is type(msg)

    check()


@settings(max_examples=200, deadline=None)
@given(any_message)
def test_round_trip_identity(msg):
    assert decode(encode(msg)) == msg


@settings(max_examples=100, deadline=None)
@given(any_message)
def test_frames_are_versioned_json(msg):
    frame = json.loads(encode(msg).decode("utf-8"))
    assert frame["v"] == WIRE_VERSION
    assert frame["msg"]["__msg__"] == type(msg).__name__


@settings(max_examples=50, deadline=None)
@given(any_message, st.integers().filter(lambda v: v != WIRE_VERSION))
def test_unknown_version_rejected(msg, version):
    frame = json.loads(encode(msg).decode("utf-8"))
    frame["v"] = version
    with pytest.raises(ProtocolError):
        decode(json.dumps(frame).encode("utf-8"))


@settings(max_examples=50, deadline=None)
@given(any_message)
def test_unknown_kind_rejected(msg):
    frame = json.loads(encode(msg).decode("utf-8"))
    frame["msg"]["__msg__"] = "NoSuchMessage"
    with pytest.raises(ProtocolError):
        decode(json.dumps(frame).encode("utf-8"))


@settings(max_examples=50, deadline=None)
@given(any_message)
def test_unknown_field_rejected(msg):
    frame = json.loads(encode(msg).decode("utf-8"))
    frame["msg"]["no_such_field"] = 1
    with pytest.raises(ProtocolError):
        decode(json.dumps(frame).encode("utf-8"))


@settings(max_examples=50, deadline=None)
@given(st.binary(max_size=64))
def test_garbage_rejected(data):
    try:
        payload = json.loads(data.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError):
        payload = None
    if isinstance(payload, dict) and "v" in payload and "msg" in payload:
        return   # astronomically unlikely: a valid frame
    with pytest.raises(ProtocolError):
        decode(data)


def test_missing_required_field_rejected():
    frame = json.loads(encode(
        SubmitQuery(now=0.0, kq_id="q", keywords=("a",), k=3,
                    arrival=0.0)).decode("utf-8"))
    del frame["msg"]["kq_id"]
    with pytest.raises(ProtocolError):
        decode(json.dumps(frame).encode("utf-8"))


# -- the answer codec --------------------------------------------------------

ranked_answers = st.builds(
    RankedAnswer,
    uq_id=ids, cq_id=ids, score=finites,
    provenance=st.frozensets(st.tuples(ids, ids, counts), max_size=4),
)


@settings(max_examples=100, deadline=None)
@given(ranked_answers)
def test_answer_codec_round_trip(answer):
    assert decode_answer(encode_answer(answer)) == answer


@settings(max_examples=50, deadline=None)
@given(st.none() | st.lists(ranked_answers, max_size=3))
def test_answers_codec_none_passthrough(answers):
    payloads = encode_answers(answers)
    back = decode_answers(payloads)
    if answers is None:
        assert payloads is None and back is None
    else:
        assert back == answers


@settings(max_examples=100, deadline=None)
@given(ranked_answers)
def test_answer_payload_survives_message_wire(answer):
    """An answer embedded in a terminal HandleState comes back in the
    exact canonical form (tuple rows, not lists)."""
    msg = HandleState(kq_id="q", status="done",
                      answers=(encode_answer(answer),))
    back = decode(encode(msg))
    assert back.answers == (encode_answer(answer),)
    assert decode_answer(back.answers[0]) == answer
