"""Spawn, pin, drive and reap one ``repro serve --http`` per pass.

Everything that keeps the numbers repeatable lives here, in the
benchmark's own process, and none of it in the program:

* the server's process tree is pinned to one CPU and this process (the
  load generator) to another, so neither floats;
* one closed-loop client, one connection at a time;
* every pass gets a freshly spawned server and replays the identical
  op list, so counters and RSS compare pass to pass;
* a per-op timeout and a ``finally`` that kills the server's process
  group turn a hung server into failed ops, not a hung benchmark.
"""

from __future__ import annotations

import gc
import http.client
import os
import pathlib
import re
import select
import signal
import subprocess
import sys
import threading
import time
from collections.abc import Iterable
from dataclasses import dataclass, field

from repro.common.clock import VirtualClock
from repro.common.config import ExecutionConfig, SharingMode
from repro.data.gus import GUSConfig, gus_federation
from repro.data.inverted import InvertedIndex
from repro.keyword.queries import KeywordQuery
from repro.service import (
    HttpQueryClient,
    QService,
    ServiceConfig,
    answers_digest,
    handles_digest,
)

from workloads import K, Op, Workload

HERE = pathlib.Path(__file__).resolve().parent
REPO = HERE.parents[1]
SRC = REPO / "src"

#: The corpus seed is pinned: ``--seed`` of the benchmark drives the
#: workload only, so every seed queries the same database.
CORPUS_SEED = 7
SERVE_ARGS = ("serve", "--http", "--corpus", "gus", "--seed",
              str(CORPUS_SEED), "--port", "0")
OP_TIMEOUT_S = 10.0
#: After this many failed ops in a row the server is taken for hung or
#: dead and the rest of the pass fails without being tried, so that a
#: wedged server costs a pass 20 s, not 112 timeouts.
MAX_FAILURE_STREAK = 2
_LISTENING = re.compile(r"listening on http://[\d.]+:(\d+)")
_TICKS = os.sysconf("SC_CLK_TCK")


# -- CPU placement -----------------------------------------------------------

def plan_cpus() -> tuple[int, int]:
    """``(server_cpu, generator_cpu)``: distinct when the host has two."""
    cpus = sorted(os.sched_getaffinity(0))
    return (cpus[-1], cpus[0])


# -- /proc -------------------------------------------------------------------

def _stat_fields(pid: int) -> list[str] | None:
    """``/proc/<pid>/stat`` after the ``(comm)`` field, which may
    itself hold spaces and parentheses; ``None`` once the pid is gone."""
    try:
        text = pathlib.Path(f"/proc/{pid}/stat").read_text()
    except OSError:
        return None
    return text[text.rindex(")") + 2:].split()


def process_tree(root: int) -> list[int]:
    """``root`` and every live descendant, parents first."""
    parent_of: dict[int, int] = {}
    for entry in os.listdir("/proc"):
        if entry.isdigit():
            fields = _stat_fields(int(entry))
            if fields is not None:
                parent_of[int(entry)] = int(fields[1])
    tree = [root] if root in parent_of else []
    for pid in tree:            # grows while it is walked
        tree.extend(sorted(c for c, p in parent_of.items() if p == pid))
    return tree


def tree_cpu_seconds(root: int) -> float:
    """utime + stime summed over the tree."""
    ticks = 0
    for pid in process_tree(root):
        fields = _stat_fields(pid)
        if fields is not None:
            ticks += int(fields[11]) + int(fields[12])
    return ticks / _TICKS


def tree_memory_kb(root: int) -> tuple[int, int]:
    """``(VmRSS, VmHWM)`` in KiB, each summed over the tree."""
    rss = hwm = 0
    for pid in process_tree(root):
        try:
            status = pathlib.Path(f"/proc/{pid}/status").read_text()
        except OSError:
            continue
        for line in status.splitlines():
            if line.startswith("VmRSS:"):
                rss += int(line.split()[1])
            elif line.startswith("VmHWM:"):
                hwm += int(line.split()[1])
    return rss, hwm


# -- /metrics ----------------------------------------------------------------

_SERIES = re.compile(r"^([A-Za-z_:][\w:]*)(?:\{(.*)\})?\s+(\S+)$")
_LABEL = re.compile(r'(\w+)="((?:[^"\\]|\\.)*)"')


class Scrape:
    """One ``GET /metrics`` body, parsed.

    A sharded fleet publishes the front door's own series unlabelled
    and each worker's with a ``shard`` label.  They are different
    owners, never parts of one sum: a worker's answer cache mirrors the
    front door's, so adding them would count every insertion three
    times.  :meth:`workers` reads a component the workers own and
    :meth:`front` one the front door owns; neither adds the two.
    """

    def __init__(self, text: str) -> None:
        self.series: list[tuple[str, dict[str, str], float]] = []
        for line in text.splitlines():
            if line.startswith("#"):
                continue
            match = _SERIES.match(line.strip())
            if match is None:
                continue
            name, labels, value = match.groups()
            self.series.append(
                (name, dict(_LABEL.findall(labels or "")), float(value)))

    def _select(self, name: str, want: dict[str, str]
                ) -> list[tuple[dict[str, str], float]]:
        return [(labels, value) for n, labels, value in self.series
                if n == name
                and all(labels.get(k) == v for k, v in want.items())]

    def workers(self, name: str, **labels: str) -> float:
        """The sum over ``shard=`` series; on an unsharded server,
        where the one service owns everything, its unlabelled series."""
        found = self._select(name, labels)
        sharded = [v for lab, v in found if "shard" in lab]
        return sum(sharded) if sharded \
            else sum(v for _lab, v in found)

    def front(self, name: str, **labels: str) -> float:
        """The series without a ``shard`` label only."""
        return sum(v for lab, v in self._select(name, labels)
                   if "shard" not in lab)

    def per_shard(self, name: str) -> dict[str, float]:
        return {lab["shard"]: v for lab, v in self._select(name, {})
                if "shard" in lab}


# -- the server subprocess ---------------------------------------------------

class Server:
    """One server process tree, pinned to ``cpu`` from its first
    instruction (the child inherits the affinity this process holds at
    the moment of the fork, and its workers inherit the child's)."""

    def __init__(self, extra_args: Iterable[str], cpu: int,
                 generator_cpu: int, log_path: pathlib.Path,
                 span_path: pathlib.Path | None = None) -> None:
        if span_path is None:
            argv = [sys.executable, "-m", "repro.cli"]
        else:
            argv = [sys.executable, str(HERE / "traced_server.py"),
                    str(span_path)]
        self.argv = argv + list(SERVE_ARGS) + list(extra_args)
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(SRC)] + [p for p in env.get("PYTHONPATH", "").split(
                os.pathsep) if p])
        self._log = open(log_path, "w")
        os.sched_setaffinity(0, {cpu})
        try:
            self.proc = subprocess.Popen(
                self.argv, env=env, cwd=REPO, stdout=subprocess.PIPE,
                stderr=self._log, text=True, start_new_session=True)
        finally:
            os.sched_setaffinity(0, {generator_cpu})
        self.pid = self.proc.pid

    def wait_listening(self, timeout: float = 60.0) -> int:
        """The ephemeral port, parsed off the ``listening on`` line."""
        deadline = time.monotonic() + timeout
        assert self.proc.stdout is not None
        while True:
            left = deadline - time.monotonic()
            if left <= 0:
                raise TimeoutError(
                    f"server printed no 'listening on' line in {timeout}s")
            ready, _, _ = select.select([self.proc.stdout], [], [], left)
            if not ready:
                continue
            line = self.proc.stdout.readline()
            if not line:
                raise RuntimeError(
                    f"server exited with code {self.proc.wait()} before "
                    f"listening; see {self._log.name}")
            match = _LISTENING.search(line)
            if match is not None:
                return int(match.group(1))

    def stop(self, client: HttpQueryClient | None) -> None:
        """Ask for a clean shutdown (the traced server writes its spans
        on the way out), then make sure the whole tree is gone."""
        tree = process_tree(self.pid)
        try:
            if client is not None and self.proc.poll() is None:
                client.shutdown()
                report, _ = self.proc.communicate(timeout=20.0)
                self._log.write(report)
        except (OSError, http.client.HTTPException,
                subprocess.TimeoutExpired):
            pass
        finally:
            try:
                os.killpg(self.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            self.proc.wait()
            if self.proc.stdout is not None:
                self.proc.stdout.close()
            self._log.close()
            deadline = time.monotonic() + 10.0
            while time.monotonic() < deadline and any(
                    (f := _stat_fields(pid)) is not None and f[0] != "Z"
                    for pid in tree):
                time.sleep(0.01)


# -- the closed-loop client --------------------------------------------------

@dataclass
class OpSample:
    """One op as the client saw it; instants are ``perf_counter``
    readings, comparable with the traced server's spans."""

    started: float
    first_answer: float
    ended: float
    client_cpu_s: float
    events: int
    ok: bool
    error: str = ""

    @property
    def latency_ms(self) -> float:
        return (self.ended - self.started) * 1e3

    @property
    def ttfa_ms(self) -> float:
        return (self.first_answer - self.started) * 1e3


def run_op(client: HttpQueryClient, op: Op,
           answers: dict[str, list[dict]]) -> OpSample:
    """POST every query of the op, then stream each to its ``end``."""
    cpu0 = time.thread_time()
    started = time.perf_counter()
    first = None
    events = 0
    ok, error = True, ""
    try:
        for query in op:
            client.submit(query.keywords, k=K, query_id=query.qid)
        for query in op:
            got: list[dict] = []
            end = None
            for event, payload in client.events(query.qid):
                events += 1
                if event == "answer":
                    if first is None:
                        first = time.perf_counter()
                    got.append(payload)
                elif event == "end":
                    end = payload
                if time.perf_counter() - started > OP_TIMEOUT_S:
                    raise TimeoutError(
                        f"{query.qid}: no end event in {OP_TIMEOUT_S}s")
            answers[query.qid] = got
            if end is None:
                raise RuntimeError(f"{query.qid}: stream closed without end")
            if end["disposition"] != "done":
                raise RuntimeError(
                    f"{query.qid}: disposition {end['disposition']!r}")
    except (OSError, RuntimeError, ValueError,
            http.client.HTTPException) as exc:
        ok, error = False, f"{type(exc).__name__}: {exc}"
    ended = time.perf_counter()
    return OpSample(started=started, first_answer=first or ended,
                    ended=ended,
                    client_cpu_s=time.thread_time() - cpu0,
                    events=events, ok=ok, error=error)


def run_ops(client: HttpQueryClient, ops: Iterable[Op],
            answers: dict[str, list[dict]]) -> list[OpSample]:
    samples: list[OpSample] = []
    streak = 0
    for op in ops:
        if streak >= MAX_FAILURE_STREAK:
            now = time.perf_counter()
            samples.append(OpSample(
                started=now, first_answer=now, ended=now,
                client_cpu_s=0.0, events=0, ok=False,
                error="not tried: the server had stopped answering"))
            continue
        sample = run_op(client, op, answers)
        streak = 0 if sample.ok else streak + 1
        samples.append(sample)
    return samples


class HealthProber(threading.Thread):
    """``GET /healthz`` every 50 ms on a second connection: how long
    the event loop keeps a bystander waiting while it serves the op
    (ROADMAP 3b).  Traced pass only -- it costs the timed passes 3 %."""

    PERIOD_S = 0.05

    def __init__(self, port: int) -> None:
        super().__init__(name="e2e-healthz-prober", daemon=True)
        self._client = HttpQueryClient("127.0.0.1", port, timeout=10.0)
        self._stop_event = threading.Event()
        self.samples_ms: list[float] = []

    def run(self) -> None:
        while not self._stop_event.wait(self.PERIOD_S):
            t0 = time.perf_counter()
            try:
                self._client.healthz()
            except (OSError, http.client.HTTPException):
                continue
            self.samples_ms.append((time.perf_counter() - t0) * 1e3)

    def stop(self) -> None:
        self._stop_event.set()
        self.join(timeout=15.0)


@dataclass
class PassResult:
    """Everything one server lifetime produced."""

    server_argv: list[str]
    setup_s: float
    wall_s: float
    cpu_s: float
    rss_start_kb: int
    rss_end_kb: int
    hwm_end_kb: int
    before: Scrape
    after: Scrape
    warmup: list[OpSample]
    timed: list[OpSample]
    answers: dict[str, list[dict]]
    probe_ms: list[float] = field(default_factory=list)
    span_path: pathlib.Path | None = None

    @property
    def samples(self) -> list[OpSample]:
        return self.warmup + self.timed


def run_pass(workload: Workload, cpus: tuple[int, int],
             log_path: pathlib.Path,
             span_path: pathlib.Path | None = None,
             probe: bool = False) -> PassResult:
    """One server lifetime: spawn, warm up, time the ops, reap.

    ``setup_s`` runs from the spawn to the last warm-up op's ``end``;
    the timed wall covers the timed ops only -- both ``/metrics``
    scrapes and the ``/proc`` reads sit outside it."""
    server_cpu, generator_cpu = cpus
    answers: dict[str, list[dict]] = {}
    # The generator keeps every answer for the digest check; with the
    # cyclic collector on, its full collections over that growing heap
    # swung hot_repeat by 10 % from pass to pass.  Nothing here makes
    # cycles, so reference counting frees the rest.
    gc.collect()
    gc.disable()
    spawned = time.perf_counter()
    server = Server(workload.server_args, server_cpu, generator_cpu,
                    log_path, span_path)
    client = None
    try:
        port = server.wait_listening()
        client = HttpQueryClient("127.0.0.1", port, timeout=OP_TIMEOUT_S)
        client.healthz()
        warmup = run_ops(client, workload.warmup, answers)
        setup_s = time.perf_counter() - spawned

        before = Scrape(client.metrics())
        rss_start, _ = tree_memory_kb(server.pid)
        prober = HealthProber(port) if probe else None
        if prober is not None:
            prober.start()
        cpu0 = tree_cpu_seconds(server.pid)
        t0 = time.perf_counter()
        timed = run_ops(client, workload.timed, answers)
        wall_s = time.perf_counter() - t0
        cpu_s = tree_cpu_seconds(server.pid) - cpu0
        if prober is not None:
            prober.stop()
        rss_end, hwm_end = tree_memory_kb(server.pid)
        try:
            after = Scrape(client.metrics())
        except (OSError, http.client.HTTPException):
            after = before      # a dead server: its ops already failed
    finally:
        gc.enable()
        server.stop(client)
    return PassResult(
        server_argv=server.argv, setup_s=setup_s, wall_s=wall_s,
        cpu_s=cpu_s, rss_start_kb=rss_start, rss_end_kb=rss_end,
        hwm_end_kb=hwm_end, before=before, after=after, warmup=warmup,
        timed=timed, answers=answers,
        probe_ms=prober.samples_ms if prober is not None else [],
        span_path=span_path)


# -- the oracle --------------------------------------------------------------

def corpus():
    """The federation ``repro serve --corpus gus --seed 7`` builds
    (``cli.cmd_serve`` has no public constructor for it; the digests
    fail every op if the two ever drift apart)."""
    return gus_federation(GUSConfig(
        n_hubs=8, links_per_extra_hub=2, synonym_every=3,
        satellites_per_hub=1, n_sites=4, min_rows=80, max_rows=260,
        domain_factor=0.45, seed=CORPUS_SEED))


def vocabulary(federation) -> tuple[str, ...]:
    return InvertedIndex(federation).vocabulary()


def oracle_replay(federation, workload: Workload) -> dict:
    """Replay the ops through an in-process ``QService`` on a
    ``VirtualClock`` -- the repo's own correctness oracle -- and return
    every query's terminal handle by id.  Runs once per workload and
    seed, outside every timed section."""
    service = QService(
        federation,
        ExecutionConfig(mode=SharingMode.ATC_FULL, k=K, batch_window=2.0,
                        seed=CORPUS_SEED, cluster_jaccard=0.7),
        ServiceConfig(), clock=VirtualClock())
    handles = {}
    for op in workload.warmup + workload.timed:
        for query in op:
            handles[query.qid] = service.submit(
                KeywordQuery(query.qid, query.keywords, k=K))
        service.drain()
    return handles


def oracle_digests(oracle: dict) -> dict[str, str]:
    return {qid: handles_digest([handle]) for qid, handle in oracle.items()}


def check_answers(p: PassResult, workload: Workload,
                  expected: dict[str, str]) -> tuple[int, list[str]]:
    """``(ops attempted, why each failed op failed)`` for one pass: an
    op fails on a transport error, a missing ``end``, a disposition
    other than ``done``, a timeout, or answers whose digest differs
    from the oracle handle's."""
    reasons: list[str] = []
    for op, sample in zip(workload.warmup + workload.timed, p.samples):
        error = sample.error
        if sample.ok:
            wrong = [q.qid for q in op if answers_digest(
                {q.qid: p.answers[q.qid]}) != expected[q.qid]]
            if wrong:
                error = f"answers differ from the oracle: {wrong}"
        if error:
            reasons.append(error)
    return len(p.samples), reasons
