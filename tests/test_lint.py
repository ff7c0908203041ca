"""repro-lint: fixture corpus, suppression grammar, self-lint.

Three layers:

* **Fixtures** -- for every rule, a ``bad/`` file that must trigger it
  (and only it) and a ``good/`` counterpart that must stay clean under
  the *full* rule set.  The corpus sits behind a ``.lint-skip`` marker
  so recursive discovery never trips over it.
* **Suppression grammar** -- the ``# repro: allow[rule-id] -- reason``
  round-trip (hypothesis), the mandatory reason, and unknown-rule
  rejection.
* **Self-lint** -- ``repro lint src tests`` over this very repository
  exits 0, with every suppression carrying a reason.  This is the test
  that makes the invariants *enforced* rather than documented.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.lint import cli as lint_cli
from repro.lint.framework import (
    LintError,
    all_rules,
    format_suppression,
    get_rules,
    iter_python_files,
    parse_suppression,
    run_lint,
)

REPO = Path(__file__).resolve().parent.parent
FIXTURES = REPO / "tests" / "lint_fixtures"


def lint_file(path: Path, rules: list[str] | None = None):
    return run_lint([path], rule_ids=rules, root=REPO)


# -- per-rule fixtures --------------------------------------------------------

#: (fixture stem, rule id it must trigger, exact violation count).
BAD_CASES = [
    ("clock_discipline.py", "clock-discipline", 5),
    ("rng_discipline.py", "rng-discipline", 5),
    ("wire_no_pickle.py", "wire-no-pickle", 3),
    ("service/protocol.py", "wire-message-shape", 3),
    ("optimizer/det_order.py", "det-order", 5),
]

GOOD_FILES = sorted(
    p.relative_to(FIXTURES / "good").as_posix()
    for p in (FIXTURES / "good").rglob("*.py"))


class TestRuleFixtures:
    @pytest.mark.parametrize("stem,rule,count", BAD_CASES,
                             ids=[c[1] for c in BAD_CASES])
    def test_bad_fixture_triggers_exactly_its_rule(self, stem, rule, count):
        report = lint_file(FIXTURES / "bad" / stem)
        assert {v.rule for v in report.violations} == {rule}
        assert len(report.violations) == count
        assert report.exit_code == 1

    @pytest.mark.parametrize("stem", GOOD_FILES)
    def test_good_fixture_is_clean_under_all_rules(self, stem):
        report = lint_file(FIXTURES / "good" / stem)
        assert report.violations == []
        assert report.exit_code == 0

    def test_every_registered_rule_has_a_bad_fixture(self):
        covered = {rule for _, rule, _ in BAD_CASES}
        assert covered == set(all_rules()), (
            "a rule without a bad fixture is a rule nothing proves "
            "can fire -- add one under tests/lint_fixtures/bad/")

    def test_violations_carry_locations_and_advice(self):
        report = lint_file(FIXTURES / "bad" / "clock_discipline.py")
        for v in report.violations:
            assert v.line > 0
            assert "clock" in v.message.lower()
        rendered = report.violations[0].render()
        assert "clock_discipline.py" in rendered
        assert ":" in rendered


# -- suppressions -------------------------------------------------------------

class TestSuppressions:
    def test_missing_reason_is_itself_a_violation(self):
        report = lint_file(FIXTURES / "bad" / "suppression_missing_reason.py")
        rules = sorted(v.rule for v in report.violations)
        # The malformed allow is reported AND fails to suppress.
        assert rules == ["clock-discipline", "lint-suppression"]
        supp = next(v for v in report.violations
                    if v.rule == "lint-suppression")
        assert "reason" in supp.message

    def test_unknown_rule_id_in_allow_is_reported(self):
        report = lint_file(FIXTURES / "bad" / "suppression_unknown_rule.py")
        assert [v.rule for v in report.violations] == ["lint-suppression"]
        assert "unknown rule id" in report.violations[0].message

    def test_stale_allow_is_reported_on_full_runs_only(self):
        path = FIXTURES / "bad" / "suppression_stale.py"
        full = lint_file(path)
        assert [v.rule for v in full.violations] == ["lint-suppression"]
        assert "stale" in full.violations[0].message
        # A filtered run must not cry stale: the allow may belong to a
        # rule that simply was not selected.
        filtered = lint_file(path, rules=["clock-discipline"])
        assert filtered.violations == []

    def test_reasoned_allow_suppresses_and_is_recorded(self):
        report = lint_file(FIXTURES / "good" / "suppressed_ok.py")
        assert report.violations == []
        assert len(report.suppressed) == 1
        violation, supp = report.suppressed[0]
        assert violation.rule == "clock-discipline"
        assert supp.reason == "fixture: a real sleep is the point"


_REASON_CHARS = st.characters(min_codepoint=32, max_codepoint=126)


class TestSuppressionGrammar:
    def test_unclaimed_comments_are_ignored(self):
        assert parse_suppression("# a plain comment") is None
        assert parse_suppression("# noqa: E501") is None
        assert parse_suppression("# type: ignore") is None

    def test_claimed_but_malformed_raises(self):
        with pytest.raises(ValueError, match="malformed"):
            parse_suppression("# repro: allwo[clock-discipline] -- typo")
        with pytest.raises(ValueError, match="malformed"):
            parse_suppression("# repro: allow clock-discipline -- no brackets")

    def test_reason_is_mandatory(self):
        with pytest.raises(ValueError, match="reason"):
            parse_suppression("# repro: allow[clock-discipline]")
        with pytest.raises(ValueError, match="reason"):
            parse_suppression("# repro: allow[clock-discipline] --   ")

    @settings(max_examples=200)
    @given(
        rule=st.from_regex(r"[A-Za-z0-9_-]+", fullmatch=True),
        reason=st.text(_REASON_CHARS, min_size=1)
        .map(str.strip).filter(bool),
        module_level=st.booleans(),
    )
    def test_format_parse_round_trip(self, rule, reason, module_level):
        comment = format_suppression(rule, reason, module_level)
        supp = parse_suppression(comment, line=7)
        assert supp is not None
        assert supp.rule == rule
        assert supp.reason == reason
        assert supp.module_level == module_level
        assert supp.line == 7

    @settings(max_examples=50)
    @given(rule=st.from_regex(r"[A-Za-z0-9_-]+", fullmatch=True))
    def test_unknown_rule_ids_are_rejected(self, rule):
        if rule in all_rules():
            return
        with pytest.raises(LintError, match="unknown rule id"):
            get_rules([rule])

    def test_known_rule_ids_resolve(self):
        for rule_id in all_rules():
            [rule] = get_rules([rule_id])
            assert rule.id == rule_id
            assert rule.summary and rule.contract


# -- discovery ----------------------------------------------------------------

class TestDiscovery:
    def test_skip_marker_excludes_the_fixture_corpus(self):
        files = list(iter_python_files([REPO / "tests"]))
        assert files, "discovery found no test files at all"
        assert not any("lint_fixtures" in f.parts for f in files)

    def test_explicit_paths_beat_the_marker(self):
        explicit = FIXTURES / "bad" / "wire_no_pickle.py"
        assert list(iter_python_files([explicit])) == [explicit]

    def test_non_python_and_missing_paths_are_usage_errors(self):
        with pytest.raises(LintError):
            list(iter_python_files([FIXTURES / "README.md"]))
        with pytest.raises(LintError):
            list(iter_python_files([REPO / "no" / "such" / "dir"]))


# -- the CLI contract ---------------------------------------------------------

class TestCli:
    def test_exit_zero_on_clean(self, capsys):
        rc = lint_cli.main(
            [str(FIXTURES / "good" / "clock_discipline.py")])
        assert rc == 0
        assert "0 violations" in capsys.readouterr().out

    def test_exit_one_on_violations(self, capsys):
        rc = lint_cli.main([str(FIXTURES / "bad" / "wire_no_pickle.py")])
        assert rc == 1
        assert "wire-no-pickle" in capsys.readouterr().out

    def test_exit_two_on_usage_error(self, capsys):
        rc = lint_cli.main(["--rules", "no-such-rule",
                            str(FIXTURES / "good" / "wire_no_pickle.py")])
        assert rc == 2
        assert "unknown rule id" in capsys.readouterr().err

    def test_json_format_is_machine_readable(self, capsys, tmp_path):
        out_file = tmp_path / "lint.json"
        rc = lint_cli.main([
            "--format", "json", "--output", str(out_file),
            str(FIXTURES / "bad" / "rng_discipline.py")])
        assert rc == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["exit_code"] == 1
        assert payload["files_checked"] == 1
        assert {v["rule"] for v in payload["violations"]} \
            == {"rng-discipline"}
        assert all({"rule", "path", "line", "col", "message"}
                   <= set(v) for v in payload["violations"])
        assert json.loads(out_file.read_text()) == payload

    def test_list_rules_names_every_rule(self, capsys):
        assert lint_cli.main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule_id in all_rules():
            assert rule_id in out
        assert "allow[rule-id] -- reason" in out


# -- the point of the exercise ------------------------------------------------

class TestSelfLint:
    def test_repository_is_lint_clean(self):
        """``repro lint src tests`` over this repo: zero violations,
        every suppression reasoned.  A new violation lands here first;
        fix it or add a reasoned allow."""
        report = run_lint([REPO / "src", REPO / "tests"], root=REPO)
        assert report.violations == [], "\n".join(
            v.render() for v in report.violations)
        assert report.files_checked > 100
        for violation, supp in report.suppressed:
            assert supp.reason.strip(), (
                f"reasonless allow covering {violation.render()}")
