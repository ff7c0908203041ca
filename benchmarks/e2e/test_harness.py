"""Tests of the benchmark's own machinery.

Collected only by ``python -m pytest benchmarks/e2e`` (tier-1's
``testpaths`` is ``tests``).  The last test is a miniature end-to-end
run of all four workloads through the real command.
"""

from __future__ import annotations

import json
import math
import os
import pathlib
import subprocess
import sys
import time

import pytest

import harness
import reduce
import workloads

HERE = pathlib.Path(__file__).resolve().parent
REPO = HERE.parents[1]


@pytest.fixture(scope="module")
def vocabulary() -> tuple[str, ...]:
    return harness.vocabulary(harness.corpus())


# -- workload generators -----------------------------------------------------

@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_generators_are_pure_functions_of_the_seed(vocabulary, name):
    make = workloads.GENERATORS[name]
    assert make(vocabulary, 7, 20) == make(vocabulary, 7, 20)
    assert make(vocabulary, 7, 20).timed != make(vocabulary, 11, 20).timed


@pytest.mark.parametrize("name", ["cold_distinct", "burst_shared",
                                  "cold_sharded"])
@pytest.mark.parametrize("seed", [7, 11])
def test_cold_keys_are_unique_and_disjoint_from_warmup(vocabulary, name, seed):
    workload = workloads.GENERATORS[name](vocabulary, seed, 20)
    keys = [q.key for q in workload.queries()]
    assert len(keys) == len(set(keys))
    ids = [q.qid for q in workload.queries()]
    assert len(ids) == len(set(ids))
    warm = {q.key for op in workload.warmup for q in op}
    assert not warm & {q.key for op in workload.timed for q in op}


def test_cold_distinct_runs_every_pair_of_its_head(vocabulary):
    a = workloads.cold_distinct(vocabulary, 7, 112)
    b = workloads.cold_distinct(vocabulary, 11, 112)
    assert len(a.timed) == len(b.timed) == 16 * 15 // 2 - workloads.COLD_WARMUP
    # The seed permutes the set; it does not change it.
    assert {q.key for q in a.queries()} == {q.key for q in b.queries()}


def test_cold_sharded_replays_cold_distinct(vocabulary):
    plain = workloads.cold_distinct(vocabulary, 7, 60)
    sharded = workloads.cold_sharded(vocabulary, 7, 60)
    assert (sharded.warmup, sharded.timed) == (plain.warmup, plain.timed)
    assert sharded.server_args == ("--shards", "2", "--workers", "process")
    assert workloads.OPS_PER_SECOND["cold_sharded"] \
        == workloads.OPS_PER_SECOND["cold_distinct"]


@pytest.mark.parametrize("seed", [7, 11])
def test_bursts_are_five_queries_over_four_keywords(vocabulary, seed):
    workload = workloads.burst_shared(vocabulary, seed, 21)
    assert len(workload.timed) == 21
    for op in workload.warmup + workload.timed:
        assert len(op) == workloads.BURST_SIZE
        assert len({kw for q in op for kw in q.keywords}) <= 4


def test_hot_repeat_only_repeats_its_warmup(vocabulary):
    workload = workloads.hot_repeat(vocabulary, 7, 500)
    warm = {q.key for op in workload.warmup for q in op}
    assert len(warm) == workloads.HOT_TEMPLATES
    assert {q.key for op in workload.timed for q in op} <= warm


def test_singles_split_bursts_without_changing_queries(vocabulary):
    workload = workloads.burst_shared(vocabulary, 7, 4)
    single = workloads.singles(workload)
    assert all(len(op) == 1 for op in single.timed)
    assert single.queries() == workload.queries()


# -- reductions --------------------------------------------------------------

def test_percentile_interpolates():
    assert reduce.percentile([1.0, 2.0, 3.0, 4.0, 5.0], 50) == 3.0
    assert reduce.percentile([10.0, 20.0], 90) == pytest.approx(19.0)
    assert reduce.percentile([5.0], 90) == 5.0
    with pytest.raises(ValueError):
        reduce.percentile([], 50)


def test_median_across_passes_is_per_op():
    passes = [[1.0, 50.0, 3.0], [2.0, 5.0, 300.0], [9.0, 6.0, 4.0]]
    assert reduce.median_across_passes(passes) == [2.0, 6.0, 4.0]
    with pytest.raises(ValueError):
        reduce.median_across_passes([[1.0], [1.0, 2.0]])


def test_self_times_give_awaited_time_to_whoever_ran():
    spans = [
        # A connection open 0..10 whose own service call ran 1..3 ...
        ["http.conn", 0.0, 10.0, -1, None, 0],
        ["server.submit", 1.0, 3.0, 0, "q", 0],
        ["cache.get", 1.5, 2.0, 1, None, 0],
        # ... and, while it awaited, the tick's step ran 5..9.
        ["server.step", 5.0, 9.0, -1, None, 0],
    ]
    own = reduce.self_times(spans)
    assert own == pytest.approx([4.0, 1.5, 0.5, 4.0])
    assert sum(own) == pytest.approx(10.0)


# -- failure accounting ------------------------------------------------------

def test_a_dead_server_fails_the_rest_of_the_pass_without_trying(vocabulary):
    class DeadClient:
        calls = 0

        def submit(self, *_args, **_kwargs):
            self.calls += 1
            raise ConnectionRefusedError("nobody listening")

    client = DeadClient()
    ops = workloads.cold_distinct(vocabulary, 7, 20).timed
    samples = harness.run_ops(client, ops, {})
    assert len(samples) == len(ops) and not any(s.ok for s in samples)
    assert client.calls == harness.MAX_FAILURE_STREAK
    assert "ConnectionRefusedError" in samples[0].error
    assert "not tried" in samples[-1].error


# -- /metrics ----------------------------------------------------------------

SHARDED = """\
# HELP repro_answer_cache_insertions_total complete result sets admitted
# TYPE repro_answer_cache_insertions_total counter
repro_answer_cache_insertions_total 3
repro_answer_cache_insertions_total{shard="0"} 3
repro_answer_cache_insertions_total{shard="1"} 3
repro_engine_probes_total{mode="ATC-FULL",shard="0"} 3
repro_engine_probes_total{mode="ATC-FULL",shard="1"} 8
repro_plan_repository_misses_total{layer="plan"} 0
repro_plan_repository_misses_total{layer="plan",shard="0"} 2
repro_plan_repository_misses_total{layer="plan",shard="1"} 1
repro_plan_repository_misses_total{layer="template",shard="0"} 40
repro_router_routed_total{shard="0"} 2
repro_router_routed_total{shard="1"} 1
repro_router_spillovers_total 0
"""


def test_scrape_never_adds_front_door_and_worker_series():
    scrape = harness.Scrape(SHARDED)
    # Three completions, not nine: the workers' caches mirror the front.
    assert scrape.front("repro_answer_cache_insertions_total") == 3
    assert scrape.workers("repro_answer_cache_insertions_total") == 6
    assert scrape.workers("repro_engine_probes_total") == 11
    assert scrape.workers("repro_plan_repository_misses_total",
                          layer="plan") == 3
    assert scrape.front("repro_plan_repository_misses_total",
                        layer="plan") == 0
    assert scrape.per_shard("repro_router_routed_total") \
        == {"0": 2.0, "1": 1.0}
    assert scrape.front("repro_no_such_metric") == 0


def test_scrape_unsharded_series_belong_to_the_one_service():
    scrape = harness.Scrape(
        'repro_engine_probes_total{mode="ATC-FULL"} 5\n'
        "repro_answer_cache_hits_total 7\n")
    assert scrape.workers("repro_engine_probes_total") == 5
    assert scrape.front("repro_answer_cache_hits_total") == 7


# -- /proc -------------------------------------------------------------------

def test_process_tree_sees_grandchildren_and_their_cost():
    script = ("import subprocess, sys, time\n"
              "child = subprocess.Popen([sys.executable, '-c', "
              "'import time; time.sleep(30)'])\n"
              "print(child.pid, flush=True)\n"
              "x = 0\n"
              "while True: x += 1\n")
    parent = subprocess.Popen([sys.executable, "-c", script],
                              stdout=subprocess.PIPE, text=True,
                              start_new_session=True)
    try:
        grandchild = int(parent.stdout.readline())
        time.sleep(0.3)
        tree = harness.process_tree(parent.pid)
        assert tree[0] == parent.pid and grandchild in tree
        assert os.getpid() not in tree
        assert harness.tree_cpu_seconds(parent.pid) > 0.1
        rss, hwm = harness.tree_memory_kb(parent.pid)
        assert 0 < rss <= hwm
    finally:
        os.killpg(parent.pid, 9)
        parent.wait()
    assert harness.process_tree(parent.pid) == []


# -- the contract ------------------------------------------------------------

def test_benchmark_json_lists_the_metrics_the_code_reports():
    spec = json.loads((REPO / "BENCHMARK.json").read_text())
    assert spec["paths"] == ["benchmarks/e2e"]
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"], m["better"])
            for m in spec["end_to_end"]] == list(reduce.END_TO_END)
    assert [(m["name"], m["unit"], m["better"])
            for m in spec["per_layer"]] == list(reduce.PER_LAYER)
    assert all(0 < m["bound"] <= 0.25 for m in spec["end_to_end"])
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])


def test_miniature_run_reports_every_metric_of_every_workload():
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--seed", "5",
         "--seconds", "3"], cwd=REPO, capture_output=True, text=True,
        timeout=300.0)
    assert out.returncode == 0, out.stderr[-2000:]
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 4 * 3 * 4
    for name in workloads.WORKLOADS:
        for metric, unit, _better in reduce.END_TO_END + reduce.PER_LAYER:
            got = result["metrics"][f"{name}:{metric}"]
            assert got["unit"] == unit
            assert math.isfinite(got["value"]), (name, metric)
        for metric, _unit, _better in reduce.END_TO_END:
            assert result["metrics"][f"{name}:{metric}"]["value"] > 0
    hot = result["metrics"]["hot_repeat:cache.hit_ratio"]["value"]
    assert hot == 1.0
    for name in ("cold_distinct", "burst_shared", "cold_sharded"):
        assert result["metrics"][f"{name}:cache.hit_ratio"]["value"] == 0.0
    assert result["metrics"][
        "burst_shared:batcher.queries_per_batch"]["value"] == 5.0
    assert result["metrics"][
        "cold_distinct:batcher.queries_per_batch"]["value"] == 1.0
