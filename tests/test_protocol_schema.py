"""The protocol schema lock.

``tests/golden/protocol_schema.json`` is a checked-in snapshot of every
wire message's field names, types, and defaults, stamped with the
``WIRE_VERSION`` it was generated under.  The lock holds the one rule
the process-worker transport's compatibility story rests on: *any*
field change is a protocol change and must bump ``WIRE_VERSION``
(a worker binary that does not recognise a frame's version refuses it
instead of guessing -- but only if versions actually move).
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

from repro.service.protocol import _KINDS, wire_schema

REPO = Path(__file__).resolve().parent.parent
GOLDEN = REPO / "tests" / "golden" / "protocol_schema.json"

BUMP_RULE = (
    "Message fields changed without a WIRE_VERSION bump.  Any change to "
    "a wire message's field names, types, or defaults is a protocol "
    "change: bump WIRE_VERSION in src/repro/service/protocol.py, then "
    "regenerate the golden with `python scripts/update_protocol_schema.py`."
)
STALE_RULE = (
    "WIRE_VERSION was bumped but the golden snapshot was not "
    "regenerated: run `python scripts/update_protocol_schema.py` and "
    "commit tests/golden/protocol_schema.json."
)


def load_golden() -> dict:
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


class TestSchemaLock:
    def test_golden_is_checked_in(self):
        assert GOLDEN.exists(), (
            "tests/golden/protocol_schema.json is missing -- generate "
            "it with `python scripts/update_protocol_schema.py`")

    def test_every_message_kind_is_locked(self):
        golden = load_golden()
        assert sorted(golden["messages"]) == sorted(_KINDS), (
            "message kinds added/removed without regenerating the "
            "schema lock")

    def test_fields_match_golden_or_version_was_bumped(self):
        golden = load_golden()
        live = wire_schema()
        if live["messages"] != golden["messages"]:
            # A changed schema under an unchanged version is the bug
            # this lock exists for; a changed schema under a bumped
            # version just forgot the regeneration step.
            if live["protocol_version"] == golden["protocol_version"]:
                diff = sorted(
                    kind for kind in
                    set(live["messages"]) | set(golden["messages"])
                    if live["messages"].get(kind)
                    != golden["messages"].get(kind))
                raise AssertionError(
                    f"{BUMP_RULE}  (changed kinds: {', '.join(diff)})")
            raise AssertionError(STALE_RULE)
        assert live["protocol_version"] == golden["protocol_version"], \
            STALE_RULE

    def test_updater_check_mode_agrees(self):
        """The regeneration script's --check mode is the CI entry
        point; it must agree with this test."""
        proc = subprocess.run(
            [sys.executable, str(REPO / "scripts" /
                                 "update_protocol_schema.py"), "--check"],
            capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr or proc.stdout


class TestLockCatchesDrift:
    """The lock must actually fire, not just pass on the happy path."""

    def test_field_edit_without_bump_is_caught(self):
        golden = load_golden()
        live = wire_schema()
        # Simulate editing SubmitQuery: rename a field in the live view.
        live["messages"]["SubmitQuery"][1]["name"] = "kq_identifier"
        assert live["messages"] != golden["messages"]
        assert live["protocol_version"] == golden["protocol_version"]

    def test_updater_refuses_unversioned_field_change(self, tmp_path,
                                                      monkeypatch):
        """Drive the real script against a golden whose fields differ
        under the same version: it must refuse to overwrite."""
        import importlib.util

        spec = importlib.util.spec_from_file_location(
            "update_protocol_schema",
            REPO / "scripts" / "update_protocol_schema.py")
        mod = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(mod)
        drifted = wire_schema()
        drifted["messages"]["SubmitQuery"] = \
            drifted["messages"]["SubmitQuery"][:-1]
        fake_golden = tmp_path / "protocol_schema.json"
        fake_golden.write_text(json.dumps(drifted), encoding="utf-8")
        monkeypatch.setattr(mod, "GOLDEN", fake_golden)
        assert mod.main([]) == 1            # refused
        assert json.loads(fake_golden.read_text()) == drifted  # untouched
        assert mod.main(["--allow-unversioned"]) == 0  # explicit override
        assert json.loads(fake_golden.read_text()) == wire_schema()
