"""The package exports load on first use.

``repro`` and ``repro.service`` name their public API in ``__all__``
and import each name from its defining module when it is first read
(PEP 562), so a worker process that imports the engine does not load
the HTTP front end, ``asyncio``, ``ssl`` or the CLI.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
import repro.service

SRC = Path(repro.__file__).resolve().parent.parent


def test_a_worker_import_leaves_the_front_end_out():
    front_end = ("asyncio", "ssl", "repro.service.http", "repro.cli")
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, repro.service.workers; "
         f"print([m for m in {front_end!r} if m in sys.modules])"],
        capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": str(SRC)})
    assert proc.returncode == 0, proc.stderr[-4000:]
    assert proc.stdout.strip() == "[]"


@pytest.mark.parametrize("package", [repro, repro.service],
                         ids=lambda p: p.__name__)
def test_every_exported_name_resolves_and_is_listed(package):
    for name in package.__all__:
        assert getattr(package, name) is not None, name
    assert set(package.__all__) <= set(dir(package))
    with pytest.raises(AttributeError, match="no_such_name"):
        package.no_such_name


@pytest.mark.parametrize("package", [repro, repro.service],
                         ids=lambda p: p.__name__)
def test_a_star_import_binds_every_exported_name(package):
    scope: dict = {}
    exec(f"from {package.__name__} import *", scope)
    assert set(package.__all__) <= set(scope)

