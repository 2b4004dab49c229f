"""Project-native static analysis: ``repro lint``.

A zero-dependency, stdlib-``ast`` engine plus the checkers that compile
this repo's own invariants (no-pickle serialization, strict-JSON
serving, crash-safe metadata writes, fork-safe locks, deterministic
fingerprints, declared lock discipline, observable failures, versioned
wire shapes) into a machine-checked pass. See ``INVARIANTS.md`` at the
repository root for the rule catalog and waiver syntax.
"""

from .checkers import CHECKER_NAMES
from .engine import (
    Checker,
    Finding,
    LintReport,
    ModuleInfo,
    lint_paths,
    register,
    registered_checkers,
)

__all__ = [
    "CHECKER_NAMES",
    "Checker",
    "Finding",
    "LintReport",
    "ModuleInfo",
    "lint_paths",
    "register",
    "registered_checkers",
]
