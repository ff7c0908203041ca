"""The repro-lint rule framework.

Every differential guarantee this reproduction makes -- byte-identical
answers across inproc/process workers, virtual-vs-wall clock modes, and
cache on/off -- rests on a handful of invariants (time flows through
:class:`~repro.common.clock.Clock`, randomness through
``common/rng.py``, the wire stays pickle-free, telemetry counters never
drift from the registry).  They used to be enforced by convention; this
package enforces them mechanically with a stdlib-``ast`` static pass.

The framework half (this module) provides:

* :class:`LintModule` -- one parsed source file with the services every
  rule needs: resolved import aliases (``from time import monotonic``
  still resolves to ``time.monotonic``), parent pointers, enclosing
  function spans, and the set of AST nodes that live inside type
  annotations (so ``rng: random.Random`` is never mistaken for a call
  site);
* :class:`Rule` -- the visitor-style base class; concrete rules live in
  :mod:`repro.lint.rules` and register themselves via :func:`register`;
* suppression handling -- ``# repro: allow[rule-id] -- reason``
  comments, parsed from the token stream (never from string literals).
  A reason is *mandatory*: an allow without one is itself a violation,
  as is an allow naming an unknown rule or one that no longer
  suppresses anything;
* :func:`run_lint` -- file discovery (directories carrying a
  ``.lint-skip`` marker, e.g. the known-bad fixture corpus, are only
  linted when named explicitly), rule execution, suppression
  application, and the :class:`LintReport` the CLI renders.

Exit-code contract (enforced by :mod:`repro.lint.cli`): ``0`` clean,
``1`` violations, ``2`` usage error.
"""

from __future__ import annotations

import ast
import io
import re
import tokenize
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterable, Iterator

__all__ = [
    "ALLOW_RE",
    "LintError",
    "LintModule",
    "LintReport",
    "Rule",
    "Suppression",
    "Violation",
    "all_rules",
    "format_suppression",
    "get_rules",
    "parse_suppression",
    "register",
    "run_lint",
    "SKIP_MARKER",
]

#: A directory containing this marker file is skipped during recursive
#: discovery (the known-bad lint fixtures live behind one); explicitly
#: named files are always linted.
SKIP_MARKER = ".lint-skip"


class LintError(Exception):
    """A usage error (unknown rule id, unreadable path): exit code 2."""


@dataclass(frozen=True)
class Violation:
    """One rule breach at one source location."""

    rule: str
    path: str
    line: int
    col: int
    message: str
    #: Suppression attachment span: the enclosing statement's lines
    #: plus its lead comment block, so an allow comment above, inside,
    #: or trailing a multi-line statement all count (not part of the
    #: violation's identity).
    end_line: int = 0
    attach_line: int = 0

    def as_dict(self) -> dict:
        return {"rule": self.rule, "path": self.path, "line": self.line,
                "col": self.col, "message": self.message}

    def render(self) -> str:
        return f"{self.path}:{self.line}:{self.col} {self.rule}: {self.message}"


@dataclass
class Suppression:
    """One parsed ``# repro: allow[rule-id] -- reason`` comment."""

    rule: str
    reason: str
    line: int
    module_level: bool = False
    used: bool = False


# A comment carrying the _CLAIM_RE marker belongs to the linter; one
# that then fails the allow grammar (including a missing reason) is a
# malformed suppression and reported as such.
_CLAIM_RE = re.compile(r"#\s*repro\s*:")
ALLOW_RE = re.compile(
    r"#\s*repro\s*:\s*(?P<scope>allow-module|allow)"
    r"\[(?P<rule>[A-Za-z0-9_-]+)\]"
    r"(?:\s*--\s*(?P<reason>.*\S))?\s*$"
)


def format_suppression(rule: str, reason: str,
                       module_level: bool = False) -> str:
    """Render the canonical allow comment (the round-trip inverse of
    :func:`parse_suppression`)."""
    scope = "allow-module" if module_level else "allow"
    return f"# repro: {scope}[{rule}] -- {reason}"


def parse_suppression(comment: str, line: int = 0) -> Suppression | None:
    """Parse one comment string into a :class:`Suppression`.

    Returns ``None`` for comments the linter does not claim.  Raises
    :class:`ValueError` for a claimed-but-malformed comment (bad
    grammar, or a missing/empty reason -- every allow must say *why*).
    """
    if not _CLAIM_RE.search(comment):
        return None
    match = ALLOW_RE.search(comment)
    if match is None:
        raise ValueError(
            "malformed repro-lint comment (expected "
            "'# repro: allow[rule-id] -- reason'): " + comment.strip())
    reason = match.group("reason")
    if not reason:
        raise ValueError(
            f"suppression for [{match.group('rule')}] is missing its "
            "reason ('# repro: allow[rule-id] -- reason'); an allow "
            "without a written justification is itself a violation")
    return Suppression(rule=match.group("rule"), reason=reason, line=line,
                       module_level=match.group("scope") == "allow-module")


class LintModule:
    """One parsed file plus the analyses every rule shares."""

    def __init__(self, path: Path, display: str, source: str) -> None:
        self.path = path
        self.display = display
        self.source = source
        self.lines = source.splitlines()
        self.tree = ast.parse(source)
        self.suppressions: list[Suppression] = []
        #: Malformed allow comments, as ready-made violations.
        self.suppression_problems: list[Violation] = []
        self._collect_suppressions()
        self.imports = self._collect_imports()
        self._parents: dict[int, ast.AST] = {}
        for parent in ast.walk(self.tree):
            for child in ast.iter_child_nodes(parent):
                self._parents[id(child)] = parent
        self._annotation_ids = self._collect_annotation_nodes()
        #: (lead comment start, def line, body end) per function: an
        #: allow on the def line or in the comment block directly above
        #: it covers the whole function.
        self.function_spans: list[tuple[int, int, int]] = [
            (self.comment_lead_start(node.lineno), node.lineno,
             getattr(node, "end_lineno", node.lineno) or node.lineno)
            for node in ast.walk(self.tree)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        ]

    # -- shared analyses -----------------------------------------------------

    def _collect_suppressions(self) -> None:
        try:
            tokens = tokenize.generate_tokens(
                io.StringIO(self.source).readline)
            for tok in tokens:
                if tok.type != tokenize.COMMENT:
                    continue
                try:
                    supp = parse_suppression(tok.string, line=tok.start[0])
                except ValueError as exc:
                    self.suppression_problems.append(Violation(
                        rule="lint-suppression", path=self.display,
                        line=tok.start[0], col=tok.start[1],
                        message=str(exc), end_line=tok.start[0]))
                    continue
                if supp is not None:
                    self.suppressions.append(supp)
        except tokenize.TokenError:  # pragma: no cover - ast.parse catches
            pass

    def _collect_imports(self) -> dict[str, str]:
        """Local name -> dotted origin, so rules match ``from time
        import monotonic`` and ``import time as t`` alike."""
        out: dict[str, str] = {}
        for node in ast.walk(self.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    local = alias.asname or alias.name.split(".")[0]
                    out[local] = alias.name if alias.asname else \
                        alias.name.split(".")[0]
            elif isinstance(node, ast.ImportFrom):
                prefix = ("." * node.level) + (node.module or "")
                for alias in node.names:
                    if alias.name == "*":
                        continue
                    local = alias.asname or alias.name
                    out[local] = f"{prefix}.{alias.name}" if prefix \
                        else alias.name
        return out

    def _collect_annotation_nodes(self) -> set[int]:
        """ids of every AST node inside a type annotation: rules skip
        them (``rng: random.Random`` is a type, not a call site)."""
        roots: list[ast.AST] = []
        for node in ast.walk(self.tree):
            if isinstance(node, ast.AnnAssign):
                roots.append(node.annotation)
            elif isinstance(node, ast.arg) and node.annotation is not None:
                roots.append(node.annotation)
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) \
                    and node.returns is not None:
                roots.append(node.returns)
        ids: set[int] = set()
        for root in roots:
            for sub in ast.walk(root):
                ids.add(id(sub))
        return ids

    def in_annotation(self, node: ast.AST) -> bool:
        return id(node) in self._annotation_ids

    def parent(self, node: ast.AST) -> ast.AST | None:
        return self._parents.get(id(node))

    def ancestors(self, node: ast.AST) -> Iterator[ast.AST]:
        cur = self.parent(node)
        while cur is not None:
            yield cur
            cur = self.parent(cur)

    def resolve(self, node: ast.AST) -> str | None:
        """Dotted name of a ``Name``/``Attribute`` chain with import
        aliases folded in, or ``None`` for anything else."""
        parts: list[str] = []
        while isinstance(node, ast.Attribute):
            parts.append(node.attr)
            node = node.value
        if isinstance(node, ast.Name):
            parts.append(self.imports.get(node.id, node.id))
            return ".".join(reversed(parts))
        return None

    def comment_lead_start(self, lineno: int) -> int:
        """First line of the contiguous comment block directly above
        ``lineno`` (or ``lineno`` itself with no such block)."""
        start = lineno
        while start > 1 and self.lines[start - 2].lstrip().startswith("#"):
            start -= 1
        return start

    def _statement_span(self, node: ast.AST) -> tuple[int, int]:
        stmt: ast.AST = node
        if not isinstance(stmt, ast.stmt):
            for anc in self.ancestors(node):
                if isinstance(anc, ast.stmt):
                    stmt = anc
                    break
        lineno = getattr(stmt, "lineno", 1)
        end = getattr(stmt, "end_lineno", None) or lineno
        return self.comment_lead_start(lineno), end

    def violation(self, rule: str, node: ast.AST, message: str) -> Violation:
        attach_lo, attach_hi = self._statement_span(node)
        return Violation(
            rule=rule, path=self.display,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0),
            message=message,
            end_line=attach_hi, attach_line=attach_lo)


class Rule:
    """Base class for one invariant check.

    Concrete rules set ``id`` (kebab-case, the suppression handle),
    ``summary`` (one line), and ``contract`` (which differential
    guarantee the rule protects -- surfaced by ``--list-rules`` and the
    docs), override :meth:`check`, and optionally narrow
    :meth:`applies_to`.
    """

    id: str = ""
    summary: str = ""
    contract: str = ""

    def applies_to(self, module: LintModule) -> bool:
        return True

    def check(self, module: LintModule) -> Iterable[Violation]:
        raise NotImplementedError


_REGISTRY: dict[str, Rule] = {}


def register(cls: type[Rule]) -> type[Rule]:
    """Class decorator: instantiate and index the rule by id."""
    rule = cls()
    if not rule.id:
        raise ValueError(f"rule {cls.__name__} has no id")
    if rule.id in _REGISTRY:
        raise ValueError(f"duplicate rule id {rule.id!r}")
    _REGISTRY[rule.id] = rule
    return cls


def all_rules() -> dict[str, Rule]:
    # Importing the rules package populates the registry exactly once.
    from repro.lint import rules  # noqa: F401
    return dict(_REGISTRY)


def get_rules(rule_ids: Iterable[str] | None = None) -> list[Rule]:
    registry = all_rules()
    if rule_ids is None:
        return list(registry.values())
    out = []
    for rule_id in rule_ids:
        if rule_id not in registry:
            known = ", ".join(sorted(registry))
            raise LintError(f"unknown rule id {rule_id!r} (known: {known})")
        out.append(registry[rule_id])
    return out


# -- file discovery -----------------------------------------------------------

_SKIP_DIRS = {"__pycache__", ".git", ".hypothesis", ".pytest_cache"}


def iter_python_files(paths: Iterable[str | Path]) -> Iterator[Path]:
    for raw in paths:
        path = Path(raw)
        if path.is_file():
            if path.suffix == ".py":
                yield path
            else:
                raise LintError(f"not a python file: {path}")
        elif path.is_dir():
            yield from _walk(path)
        else:
            raise LintError(f"no such file or directory: {path}")


def _walk(root: Path) -> Iterator[Path]:
    if (root / SKIP_MARKER).exists():
        return
    entries = sorted(root.iterdir(), key=lambda p: p.name)
    for entry in entries:
        if entry.name.startswith(".") or entry.name in _SKIP_DIRS:
            continue
        if entry.is_dir():
            yield from _walk(entry)
        elif entry.suffix == ".py":
            yield entry


# -- the runner ---------------------------------------------------------------

@dataclass
class LintReport:
    """Everything one lint run produced, for both output formats."""

    files_checked: int
    violations: list[Violation]
    suppressed: list[tuple[Violation, Suppression]] = field(
        default_factory=list)

    @property
    def exit_code(self) -> int:
        return 1 if self.violations else 0

    def as_dict(self) -> dict:
        return {
            "version": 1,
            "files_checked": self.files_checked,
            "exit_code": self.exit_code,
            "violations": [v.as_dict() for v in self.violations],
            "suppressed": [
                {**v.as_dict(), "reason": s.reason}
                for v, s in self.suppressed
            ],
        }


def _display_path(path: Path, root: Path) -> str:
    try:
        return str(path.resolve().relative_to(root.resolve()))
    except ValueError:
        return str(path)


def _match_suppression(module: LintModule,
                       violation: Violation) -> Suppression | None:
    """The allow that covers ``violation``, if any.

    Line-level allows attach anywhere in the offending statement's
    span, including the comment block directly above it; an allow on a
    ``def`` line (or in the comments directly above it) covers that
    whole function -- for dedicated helpers that are only ever called
    under a guard; ``allow-module`` covers the file.
    """
    lo = violation.attach_line or violation.line
    hi = max(violation.end_line, violation.line)
    def_ranges = [
        (lead, def_line) for lead, def_line, end in module.function_spans
        if def_line <= violation.line <= end
    ]
    for supp in module.suppressions:
        if supp.rule != violation.rule:
            continue
        if supp.module_level:
            return supp
        if lo <= supp.line <= hi:
            return supp
        if any(lead <= supp.line <= def_line
               for lead, def_line in def_ranges):
            return supp
    return None


def run_lint(paths: Iterable[str | Path],
             rule_ids: Iterable[str] | None = None,
             root: Path | None = None,
             source_loader: Callable[[Path], str] | None = None,
             ) -> LintReport:
    """Lint ``paths`` with the selected rules (default: all).

    When the full rule set runs, stale allows (suppressing nothing) are
    reported too; a filtered run skips that check, since a suppression
    for an unselected rule would look spuriously unused.
    """
    rules = get_rules(rule_ids)
    full_run = rule_ids is None
    known_ids = set(all_rules()) | {"lint-parse", "lint-suppression"}
    root = root if root is not None else Path.cwd()
    violations: list[Violation] = []
    suppressed: list[tuple[Violation, Suppression]] = []
    files = 0
    for path in iter_python_files(paths):
        files += 1
        display = _display_path(path, root)
        source = source_loader(path) if source_loader is not None \
            else path.read_text(encoding="utf-8")
        try:
            module = LintModule(path, display, source)
        except SyntaxError as exc:
            violations.append(Violation(
                rule="lint-parse", path=display, line=exc.lineno or 1,
                col=exc.offset or 0, message=f"file does not parse: {exc.msg}",
                end_line=exc.lineno or 1))
            continue
        violations.extend(module.suppression_problems)
        for supp in module.suppressions:
            if supp.rule not in known_ids:
                violations.append(Violation(
                    rule="lint-suppression", path=display, line=supp.line,
                    col=0, end_line=supp.line,
                    message=f"suppression names unknown rule id "
                            f"{supp.rule!r}"))
                supp.used = True  # don't double-report as unused
        for rule in rules:
            if not rule.applies_to(module):
                continue
            for violation in rule.check(module):
                supp = _match_suppression(module, violation)
                if supp is not None:
                    supp.used = True
                    suppressed.append((violation, supp))
                else:
                    violations.append(violation)
        if full_run:
            for supp in module.suppressions:
                if not supp.used:
                    violations.append(Violation(
                        rule="lint-suppression", path=display,
                        line=supp.line, col=0, end_line=supp.line,
                        message=f"stale suppression: allow[{supp.rule}] "
                                f"matches no violation -- remove it "
                                f"(reason was: {supp.reason})"))
    violations.sort(key=lambda v: (v.path, v.line, v.col, v.rule))
    suppressed.sort(key=lambda vs: (vs[0].path, vs[0].line, vs[0].col))
    return LintReport(files_checked=files, violations=violations,
                      suppressed=suppressed)
