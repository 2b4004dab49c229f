"""`repro lint` engine: enforce this codebase's own invariants.

The repo's correctness rests on conventions that no general-purpose
linter knows about — no-pickle serialization, strict-JSON serving
responses, tmp+fsync+rename publication of manifests, fork-re-armed
locks, deterministic fingerprint payloads. This module compiles those
conventions into an executable static-analysis pass so they are
machine-checked on every push instead of reviewer-checked.

Architecture (zero dependencies, stdlib ``ast`` only):

* :class:`ModuleInfo` — one parsed source file plus the derived context
  checkers need (parent links, dotted-name resolution, comment-derived
  annotations).
* checkers — callables registered via :func:`register`; each yields
  :class:`Finding` records for one rule (see ``checkers.py``).
* waivers — ``# lint: allow(<rule>) -- reason`` comments suppress a
  finding on their own line (or, for a standalone comment line, on the
  next line). A waiver **must** carry a reason; a reasonless or unused
  waiver is itself a finding, so the waiver set can only shrink along
  with the findings it explains. A waiver is the only way to accept a
  finding: every finding left after waivers fails the run.
"""

from __future__ import annotations

import ast
import os
import re
import tokenize
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Tuple

#: waiver comments: ``lint: allow(rule-a, rule-b) -- reason`` after a
#: hash mark (the reason is mandatory, but matched optionally so a
#: missing one can be reported as a finding instead of silently ignored)
_WAIVER_RE = re.compile(
    r"#\s*lint:\s*allow\(\s*([a-z0-9_,\s-]+?)\s*\)"
    r"(?:\s*--\s*(?P<reason>\S.*?))?\s*$"
)


@dataclass(frozen=True)
class Finding:
    """One rule violation at a source location."""

    rule: str
    severity: str  # "error" | "warning"
    path: str  # package-relative posix path, e.g. "repro/serve/fleet.py"
    line: int
    col: int
    message: str
    context: str = ""  # stripped source line

    def to_dict(self) -> dict:
        return {
            "rule": self.rule,
            "severity": self.severity,
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "message": self.message,
            "context": self.context,
        }

    def render(self) -> str:
        return (
            f"{self.path}:{self.line}:{self.col}: "
            f"{self.severity}[{self.rule}] {self.message}"
        )


@dataclass
class Waiver:
    """One parsed ``# lint: allow(...)`` comment."""

    rules: Tuple[str, ...]
    line: int  # line the waiver suppresses findings on
    comment_line: int  # line the comment physically sits on
    reason: Optional[str]
    used: bool = False


class ModuleInfo:
    """A parsed source file plus the context checkers share."""

    def __init__(self, abs_path: str, rel_path: str, source: str):
        self.abs_path = abs_path
        self.path = rel_path.replace(os.sep, "/")
        self.source = source
        self.lines = source.splitlines()
        self.tree = ast.parse(source, filename=abs_path)
        self._parents: Dict[ast.AST, ast.AST] = {}
        for parent in ast.walk(self.tree):
            for child in ast.iter_child_nodes(parent):
                self._parents[child] = parent
        self.waivers = _parse_waivers(source)

    # ------------------------------------------------------------------
    def line_text(self, lineno: int) -> str:
        if 1 <= lineno <= len(self.lines):
            return self.lines[lineno - 1].strip()
        return ""

    def parent(self, node: ast.AST) -> Optional[ast.AST]:
        return self._parents.get(node)

    def ancestors(self, node: ast.AST) -> Iterator[ast.AST]:
        current = self._parents.get(node)
        while current is not None:
            yield current
            current = self._parents.get(current)

    def enclosing_function(
        self, node: ast.AST
    ) -> Optional[ast.FunctionDef]:
        for ancestor in self.ancestors(node):
            if isinstance(ancestor, (ast.FunctionDef, ast.AsyncFunctionDef)):
                return ancestor
        return None

    def at_module_level(self, node: ast.AST) -> bool:
        """True if no function/class scope encloses ``node`` (top-level
        ``if``/``try`` blocks still count as module level)."""
        for ancestor in self.ancestors(node):
            if isinstance(
                ancestor,
                (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.Lambda),
            ):
                return False
        return True

    def finding(
        self,
        rule: str,
        node: ast.AST,
        message: str,
        severity: str = "error",
    ) -> Finding:
        line = getattr(node, "lineno", 1)
        col = getattr(node, "col_offset", 0)
        return Finding(
            rule=rule,
            severity=severity,
            path=self.path,
            line=line,
            col=col,
            message=message,
            context=self.line_text(line),
        )


def dotted_name(node: ast.AST) -> Optional[str]:
    """``a.b.c`` for Name/Attribute chains, else ``None``."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def call_name(call: ast.Call) -> Optional[str]:
    return dotted_name(call.func)


def keyword_arg(call: ast.Call, name: str) -> Optional[ast.expr]:
    for keyword in call.keywords:
        if keyword.arg == name:
            return keyword.value
    return None


def is_constant(node: Optional[ast.AST], value) -> bool:
    return isinstance(node, ast.Constant) and node.value is value


def _parse_waivers(source: str) -> List[Waiver]:
    """Extract waivers via the tokenizer, so strings that merely *look*
    like waiver comments can never suppress a finding."""
    waivers: List[Waiver] = []
    lines = source.splitlines()
    try:
        tokens = list(
            tokenize.generate_tokens(iter(source.splitlines(True)).__next__)
        )
    except (tokenize.TokenError, IndentationError):  # torn file: no waivers
        return waivers
    for token in tokens:
        if token.type != tokenize.COMMENT:
            continue
        match = _WAIVER_RE.search(token.string)
        if match is None:
            continue
        comment_line = token.start[0]
        before = lines[comment_line - 1][: token.start[1]].strip()
        if before:
            # a trailing comment waives its own line
            target = comment_line
        else:
            # a comment on its own line waives the next *code* line, so a
            # reason may flow over further comment lines below the waiver
            target = comment_line + 1
            while (
                target <= len(lines) and lines[target - 1].strip().startswith("#")
            ):
                target += 1
        rules = tuple(
            rule.strip() for rule in match.group(1).split(",") if rule.strip()
        )
        waivers.append(
            Waiver(
                rules=rules,
                line=target,
                comment_line=comment_line,
                reason=match.group("reason"),
            )
        )
    return waivers


# ----------------------------------------------------------------------
# checker registry
# ----------------------------------------------------------------------
@dataclass
class Checker:
    name: str
    description: str
    check: Callable[[ModuleInfo], Iterable[Finding]]


_CHECKERS: List[Checker] = []


def register(name: str, description: str):
    """Decorator: add ``fn(module) -> Iterable[Finding]`` to the registry."""

    def wrap(fn: Callable[[ModuleInfo], Iterable[Finding]]) -> Callable:
        if any(checker.name == name for checker in _CHECKERS):
            raise ValueError(f"duplicate checker name {name!r}")
        _CHECKERS.append(Checker(name=name, description=description, check=fn))
        return fn

    return wrap


def registered_checkers() -> List[Checker]:
    _ensure_builtin_checkers()
    return list(_CHECKERS)


def _ensure_builtin_checkers() -> None:
    from . import checkers  # noqa: F401  (import registers them)


# ----------------------------------------------------------------------
# the run
# ----------------------------------------------------------------------
@dataclass
class LintReport:
    """Everything one lint pass produced."""

    findings: List[Finding] = field(default_factory=list)
    files_checked: int = 0
    checkers_run: int = 0

    def to_dict(self) -> dict:
        return {
            "files_checked": self.files_checked,
            "checkers_run": self.checkers_run,
            "findings": [finding.to_dict() for finding in self.findings],
        }


def iter_source_files(root: str) -> Iterator[str]:
    for dirpath, dirnames, filenames in os.walk(root):
        dirnames[:] = sorted(
            d for d in dirnames if d != "__pycache__" and not d.startswith(".")
        )
        for filename in sorted(filenames):
            if filename.endswith(".py"):
                yield os.path.join(dirpath, filename)


def lint_paths(
    root: str,
    select: Optional[Iterable[str]] = None,
    rel_prefix: Optional[str] = None,
) -> LintReport:
    """Run every (or the selected) checker over ``root``.

    ``root`` is a package directory (typically ``.../src/repro``); paths
    in findings are reported relative to its parent so they read as
    ``repro/serve/fleet.py`` wherever the package is installed.
    ``rel_prefix`` overrides that base name (tests use it to get stable
    fixture paths like ``serve/mod.py``).
    """
    checkers = registered_checkers()
    if select is not None:
        wanted = set(select)
        unknown = wanted - {checker.name for checker in checkers}
        if unknown:
            raise ValueError(f"unknown checker(s): {', '.join(sorted(unknown))}")
        checkers = [c for c in checkers if c.name in wanted]
    report = LintReport(checkers_run=len(checkers))
    root = os.path.abspath(root)
    base = os.path.dirname(root) if rel_prefix is None else root
    for abs_path in iter_source_files(root):
        rel_path = os.path.relpath(abs_path, base)
        if rel_prefix is not None:
            rel_path = os.path.join(rel_prefix, rel_path) if rel_prefix else rel_path
        with open(abs_path, encoding="utf-8") as handle:
            source = handle.read()
        try:
            module = ModuleInfo(abs_path, rel_path, source)
        except SyntaxError as error:
            report.findings.append(
                Finding(
                    rule="parse-error",
                    severity="error",
                    path=rel_path.replace(os.sep, "/"),
                    line=error.lineno or 1,
                    col=error.offset or 0,
                    message=f"file does not parse: {error.msg}",
                )
            )
            report.files_checked += 1
            continue
        report.files_checked += 1
        raw: List[Finding] = []
        for checker in checkers:
            raw.extend(checker.check(module))
        report.findings.extend(_apply_waivers(module, raw))
    report.findings.sort(key=lambda f: (f.path, f.line, f.col, f.rule))
    return report


def _apply_waivers(module: ModuleInfo, raw: List[Finding]) -> List[Finding]:
    """Suppress waived findings; report bad or unused waivers as findings."""
    kept: List[Finding] = []
    by_line: Dict[int, List[Waiver]] = {}
    for waiver in module.waivers:
        by_line.setdefault(waiver.line, []).append(waiver)
    for finding in raw:
        waived = False
        for waiver in by_line.get(finding.line, []):
            if finding.rule in waiver.rules:
                waiver.used = True
                if waiver.reason:  # reasonless waivers do not suppress
                    waived = True
        if not waived:
            kept.append(finding)
    for waiver in module.waivers:
        rules = ", ".join(waiver.rules)
        if not waiver.reason:
            kept.append(
                Finding(
                    rule="waiver-syntax",
                    severity="error",
                    path=module.path,
                    line=waiver.comment_line,
                    col=0,
                    message=(
                        f"waiver for ({rules}) has no reason; write "
                        f"'# lint: allow({rules}) -- <why this is safe>'"
                    ),
                    context=module.line_text(waiver.comment_line),
                )
            )
        elif not waiver.used:
            kept.append(
                Finding(
                    rule="unused-waiver",
                    severity="error",
                    path=module.path,
                    line=waiver.comment_line,
                    col=0,
                    message=(
                        f"waiver for ({rules}) suppresses nothing on line "
                        f"{waiver.line}; delete it"
                    ),
                    context=module.line_text(waiver.comment_line),
                )
            )
    return kept
