"""The end-to-end benchmark's contract with ``src/``, checked in tier-1.

``benchmarks/e2e`` (see ``BENCHMARK.json``) drives ``repro serve``
from outside and, on its traced pass, patches the serving classes at
class level -- so a rename under ``src/`` that every test under
``tests/`` survives can still break the pipeline with an
``ImportError``/``AttributeError``, or silently zero a per-layer
metric.  ``testpaths`` does not collect the benchmark's own tests;
this one pins what the benchmark uses of the program:

* ``traced_server.install()`` finds every class and method it wraps;
* every name ``harness.py``, ``reduce.py`` and ``workloads.py`` import
  from ``repro`` exists;
* the oracle's ``QService(...)`` call shape still serves a query;
* every ``repro_*`` metric name ``reduce.py`` reads is exposed by
  ``metrics_registry().render_prometheus()`` of a single-node or a
  sharded service.

It runs in a subprocess because ``install()`` patches process-wide.
"""

import os
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
E2E = REPO / "benchmarks" / "e2e"

SCRIPT = r'''
import ast
import importlib
import importlib.util
import pathlib
import re
import sys

e2e = pathlib.Path(sys.argv[1])
sys.path.insert(0, str(e2e))        # harness imports its siblings by name

spec = importlib.util.spec_from_file_location(
    "traced_server", e2e / "traced_server.py")
traced = importlib.util.module_from_spec(spec)
spec.loader.exec_module(traced)
traced.install()

for source in ("harness.py", "reduce.py", "workloads.py"):
    for node in ast.parse((e2e / source).read_text()).body:
        if isinstance(node, ast.ImportFrom) and node.module \
                and node.module.split(".")[0] == "repro":
            module = importlib.import_module(node.module)
            for alias in node.names:
                getattr(module, alias.name)

import harness
from workloads import Query, Workload

federation = harness.corpus()
first, second = harness.vocabulary(federation)[:2]
handles = harness.oracle_replay(federation, Workload(
    "contract", warmup=(), timed=((Query("q0", (first, second)),),)))
assert handles["q0"].done, handles["q0"]
assert traced.SPANS, "the class-level patches recorded no span"

from repro.common.config import ExecutionConfig
from repro.service import QService, ShardedQService

config = ExecutionConfig(k=harness.K)
exposed = set()
for service in (QService(federation, config),
                ShardedQService(federation, config, n_shards=2)):
    text = service.metrics_registry().render_prometheus()
    exposed.update(re.findall(r"^(repro_\w+?)(?:_bucket|_sum|_count)?[{ ]",
                              text, flags=re.MULTILINE))
read = set(re.findall(r'"(repro_\w+)"', (e2e / "reduce.py").read_text()))
assert read, "reduce.py names no metric: this test reads it wrongly"
missing = sorted(read - exposed)
assert not missing, f"reduce.py reads metrics nothing exposes: {missing}"
print("contract ok")
'''


def test_benchmark_pipeline_finds_what_it_uses_of_the_program():
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT, str(E2E)],
        capture_output=True, text=True, timeout=300,
        env={**os.environ, "PYTHONPATH": str(REPO / "src")})
    assert proc.returncode == 0, proc.stderr[-4000:]
    assert proc.stdout.strip().endswith("contract ok")
