"""Self-application: the shipped tree must satisfy its own linter.

This is the acceptance gate the CI ``lint`` job enforces; keeping it in
the test suite too means a plain ``pytest`` run catches an invariant
regression (or an undocumented waiver) without needing the CLI.
"""

import os

import pytest

import repro
from repro.analysis.lint import lint_paths

# repro is a namespace package (no src/repro/__init__.py), so the package
# directory comes from __path__, not __file__
PACKAGE_ROOT = os.path.abspath(list(repro.__path__)[0])


@pytest.fixture(scope="module")
def report():
    return lint_paths(PACKAGE_ROOT)

def test_whole_package_is_lint_clean(report):
    rendered = "\n".join(f.render() for f in report.findings)
    assert report.findings == [], f"lint findings in src/repro:\n{rendered}"


def test_run_covers_the_codebase(report):
    assert report.checkers_run >= 8
    assert report.files_checked >= 50


def test_analysis_package_lints_itself_clean():
    lint_root = os.path.join(PACKAGE_ROOT, "analysis", "lint")
    sub = lint_paths(lint_root, rel_prefix="repro/analysis/lint")
    rendered = "\n".join(f.render() for f in sub.findings)
    assert sub.findings == [], f"the linter fails its own rules:\n{rendered}"


def test_every_waiver_in_tree_carries_a_reason():
    # _apply_waivers turns reasonless waivers into waiver-syntax findings,
    # so a clean run already implies this; assert it directly anyway so
    # the guarantee survives engine refactors
    from repro.analysis.lint.engine import _WAIVER_RE

    violations = []
    for dirpath, _, filenames in os.walk(PACKAGE_ROOT):
        for filename in filenames:
            if not filename.endswith(".py"):
                continue
            path = os.path.join(dirpath, filename)
            with open(path, encoding="utf-8") as handle:
                for lineno, line in enumerate(handle, 1):
                    match = _WAIVER_RE.search(line)
                    if match and "#" in line.split("lint:")[0]:
                        if not match.group("reason"):
                            violations.append(f"{path}:{lineno}")
    assert violations == [], f"reasonless waivers: {violations}"

