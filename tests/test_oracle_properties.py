"""Property-based tests (hypothesis): brute force is the judge.

The paper's claim is that every sharing mode returns the top-k the
unshared evaluation would.  Every other differential check in the suite
compares the engine with itself; here :mod:`repro.reference` decides.
Each example draws a tiny seeded GUS corpus, a keyword schedule whose
arrivals overlap, repeat and miss, a sharing mode, a ``k``, a state
budget that is off or small, a single service or a two-shard in-process
fleet, and optional cancellations and deadlines -- then serves the
schedule on the virtual clock and checks three things:

* every DONE handle's score vector is the brute-force top-k, and the
  rows above its cutoff score are the brute-force rows (rows tied at
  the cutoff are interchangeable members of any top-k); a cancelled or
  expired handle's partial answers are a prefix of that top-k;
* every handle reaches exactly one terminal disposition;
* after ``drain()`` every engine's per-query tables and its outbox of
  terminal records are empty.

Run more examples with ``HYPOTHESIS_PROFILE=deep``
(see ``tests/conftest.py``).
"""

from __future__ import annotations

import functools
import itertools

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.common.config import DelayModel, ExecutionConfig, SharingMode
from repro.common.errors import QueryError
from repro.data.gus import GUSConfig, gus_federation
from repro.data.inverted import InvertedIndex
from repro.keyword.candidates import CandidateNetworkGenerator
from repro.keyword.queries import KeywordQuery
from repro.reference import brute_force_topk
from repro.service import QService, QueryStatus, ServiceConfig, ShardedQService

#: Corpus seeds: few enough that every federation is built once, and
#: picked for joins that share and recover (four hubs).
SEEDS = (1, 2, 4)
#: Keyword sets are the one- and two-term subsets of the first four
#: terms of each corpus's vocabulary, so they recur and overlap (cache
#: hits, coalescing, shared operators), plus one term no relation
#: contains.
WINDOW = 4
MISSING = "zzyzx"
KEYSETS = [(i,) for i in range(WINDOW)] \
    + list(itertools.combinations(range(WINDOW), 2)) + [(WINDOW,)]


@functools.cache
def corpus(seed: int):
    federation = gus_federation(GUSConfig(
        n_hubs=4, links_per_extra_hub=1, synonym_every=2,
        satellites_per_hub=1, n_sites=2, min_rows=12, max_rows=40,
        domain_factor=0.5, seed=seed))
    index = InvertedIndex(federation)
    return federation, index, index.vocabulary()[:WINDOW] + (MISSING,)


@functools.cache
def truth(seed: int, keywords: tuple[str, ...], k: int):
    """The brute-force top-k as (score vector, rows above the cutoff)."""
    federation, index, _terms = corpus(seed)
    generator = CandidateNetworkGenerator(
        federation, index=index, max_cqs=ExecutionConfig().max_cqs_per_uq)
    try:
        uq = generator.generate(KeywordQuery("oracle", keywords, k=k))
    except QueryError:
        return [], []
    return answer_key([(score, tup.provenance)
                       for score, _cq, tup in brute_force_topk(federation, uq)])


def answer_key(scored) -> tuple[list[float], list]:
    """Scores in rank order, plus the sorted (score, rows) bag of the
    answers strictly above the cutoff score -- alias names depend on
    plan labelling, so rows are (relation, tid) pairs."""
    scores = [round(score, 9) for score, _prov in scored]
    cutoff = min(scores, default=0.0)
    rows = sorted(
        (round(score, 9), sorted((rel, tid) for _alias, rel, tid in prov))
        for score, prov in scored if round(score, 9) > cutoff)
    return scores, rows


#: Network delays 25 times the paper's, so that one query executes for
#: about as long as the one-second batch window: later arrivals graft
#: onto running graphs, and steps, cancels and deadlines land
#: mid-execution.
DELAYS = DelayModel(stream_read_mean=0.05, random_probe_mean=0.05,
                    cpu_probe=0.0005, cpu_insert=0.00025)
#: Inter-arrival gaps around the batch window: arrivals share a batch,
#: join a running graph, or come back after it settled.
gaps = st.sampled_from((0.0, 0.1, 0.4, 1.0, 1.5, 1.5, 6.0))
#: Relative deadlines: in the batcher, mid-execution, or late.
deadlines = st.one_of(st.none(), st.sampled_from((0.0, 0.5, 1.2, 1.6,
                                                  2.5, 8.0)))


@st.composite
def schedules(draw):
    """A client session: submits from a pool of one to three keyword
    sets, cancels and bare steps, each after a gap -- closed by a repeat
    of the first set once its batch has closed, so every session
    revisits state an earlier execution left."""
    pool = draw(st.lists(st.sampled_from(KEYSETS), min_size=1, max_size=3))
    submits = st.tuples(st.just("submit"), st.sampled_from(pool), gaps,
                        deadlines)
    cancels = st.tuples(st.just("cancel"), st.integers(min_value=0), gaps,
                        st.none())
    steps = st.tuples(st.just("step"), st.none(), gaps, st.none())
    ops = draw(st.lists(st.one_of(submits, submits, cancels, steps),
                        max_size=10))
    repeat = ("submit", pool[0], draw(st.sampled_from((1.5, 6.0))),
              draw(deadlines))
    return [draw(submits)] + ops + [repeat]


postures = st.builds(
    ServiceConfig,
    cache_ttl=st.sampled_from((1e-9, 1e-9, 2.0, 300.0)),
    max_in_flight=st.sampled_from((None, 2)),
    admission_policy=st.sampled_from(("reject", "defer")),
    coalesce=st.sampled_from((False, False, True)),
    default_deadline=st.sampled_from((None, None, 1.6, 4.0)))


def serve(seed, schedule, mode, k, budget, posture, sharded):
    federation, index, terms = corpus(seed)
    config = ExecutionConfig(mode=mode, k=k, batch_window=1.0,
                             optimizer_time_scale=0.0, seed=11,
                             delays=DELAYS, memory_budget_tuples=budget)
    if sharded:
        service = ShardedQService(federation, config, n_shards=2,
                                  service=posture, index=index)
        engines = [worker.engine for worker in service.workers]
    else:
        service = QService(federation, config, posture, index=index)
        engines = [service.workers[0].engine]
    handles = []
    now = 0.0
    for i, (kind, arg, gap, deadline) in enumerate(schedule):
        now += gap
        if kind == "submit":
            keywords = tuple(terms[t] for t in arg)
            handles.append(service.submit(
                KeywordQuery(f"KQ{i}", keywords, k=k, arrival=now),
                deadline=None if deadline is None else now + deadline))
        elif kind == "cancel" and handles:
            service.step(now)
            handles[arg % len(handles)].cancel()
        else:
            service.step(now)
    report = service.drain()
    return handles, report, engines


class TestBruteForceIsTheJudge:
    @given(seed=st.sampled_from(SEEDS), schedule=schedules(),
           # The modes that reuse state across queries, more often.
           mode=st.sampled_from(list(SharingMode)
                                + [SharingMode.ATC_FULL] * 2
                                + [SharingMode.ATC_CL]),
           k=st.integers(1, 12),
           budget=st.sampled_from((None, 1, 40, 150)),
           posture=postures, sharded=st.sampled_from((False, False, True)))
    @settings(deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_served_answers_are_the_brute_force_topk(
            self, seed, schedule, mode, k, budget, posture, sharded):
        handles, report, engines = serve(seed, schedule, mode, k, budget,
                                         posture, sharded)

        for handle in handles:
            assert handle.terminal, handle
            want_scores, want_rows = truth(seed, handle.keywords, k)
            got = answer_key([(a.score, a.provenance)
                              for a in handle.answers or []])
            if handle.status is QueryStatus.DONE:
                assert got == (want_scores, want_rows), handle
            else:
                # Emission is in rank order and only of answers already
                # certain to be in the top-k.
                assert got[0] == want_scores[:len(got[0])], handle

        tel = report.telemetry
        statuses = [handle.status for handle in handles]
        assert len(statuses) == tel.submitted
        assert statuses.count(QueryStatus.DONE) == tel.completed
        assert statuses.count(QueryStatus.CANCELLED) == tel.cancelled
        assert statuses.count(QueryStatus.EXPIRED) == tel.expired
        assert statuses.count(QueryStatus.REJECTED) == tel.rejected

        for engine in engines:
            qs = engine.qs
            assert qs.uq_graphs == {}
            assert all(not g.rank_merges for g in qs.graphs.values())
            assert all(not plans for plans in qs.cq_plans.values())
            assert engine._deadlines == {}
            assert qs.outbox == []
