"""Lint engine mechanics: waivers, reporting, the ``repro lint`` exit contract.

The checkers themselves are covered in ``test_lint_checkers.py``; these
tests pin down the engine contracts every checker relies on — a waiver
without a reason suppresses nothing, an unused waiver is itself a
finding, and any finding left after waivers fails the command.
"""

import json

import pytest

from repro.analysis.lint import lint_paths
from repro.cli import main

SILENT = (
    "def f(g):\n"
    "    try:\n"
    "        g()\n"
    "    except OSError:\n"
    "        pass\n"
)


def write_package(tmp_path, files):
    pkg = tmp_path / "pkg"
    for rel, source in files.items():
        target = pkg / rel
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(source)
    return pkg


def run_lint(tmp_path, files, select=("silent-except",)):
    pkg = write_package(tmp_path, files)
    return lint_paths(
        str(pkg), select=list(select) if select else None, rel_prefix=""
    )


class TestWaivers:
    def test_unwaived_finding_fires(self, tmp_path):
        report = run_lint(tmp_path, {"mod.py": SILENT})
        assert [f.rule for f in report.findings] == ["silent-except"]
        finding = report.findings[0]
        assert finding.path == "mod.py"
        assert finding.line == 4
        assert finding.render().startswith("mod.py:4:")
        assert "error[silent-except]" in finding.render()

    def test_trailing_waiver_suppresses(self, tmp_path):
        src = SILENT.replace(
            "except OSError:",
            "except OSError:  # lint: allow(silent-except) -- fine here",
        )
        report = run_lint(tmp_path, {"mod.py": src})
        assert report.findings == []

    def test_standalone_waiver_targets_next_code_line(self, tmp_path):
        src = SILENT.replace(
            "    except OSError:",
            "    # lint: allow(silent-except) -- reason starts here\n"
            "    # and flows over a continuation comment line\n"
            "    except OSError:",
        )
        report = run_lint(tmp_path, {"mod.py": src})
        assert report.findings == []

    def test_reasonless_waiver_reports_and_does_not_suppress(self, tmp_path):
        src = SILENT.replace(
            "except OSError:",
            "except OSError:  # lint: allow(silent-except)",
        )
        report = run_lint(tmp_path, {"mod.py": src})
        rules = sorted(f.rule for f in report.findings)
        assert rules == ["silent-except", "waiver-syntax"]

    def test_unused_waiver_is_a_finding(self, tmp_path):
        src = "x = 1  # lint: allow(silent-except) -- nothing to waive\n"
        report = run_lint(tmp_path, {"mod.py": src})
        assert [f.rule for f in report.findings] == ["unused-waiver"]

    def test_waiver_for_other_rule_does_not_suppress(self, tmp_path):
        src = SILENT.replace(
            "except OSError:",
            "except OSError:  # lint: allow(no-pickle) -- wrong rule",
        )
        report = run_lint(tmp_path, {"mod.py": src})
        rules = sorted(f.rule for f in report.findings)
        assert rules == ["silent-except", "unused-waiver"]

    def test_multi_rule_waiver(self, tmp_path):
        src = SILENT.replace(
            "except OSError:",
            "except OSError:  "
            "# lint: allow(silent-except, no-print) -- both intended",
        )
        report = run_lint(
            tmp_path, {"mod.py": src}, select=("silent-except", "no-print")
        )
        assert report.findings == []

    def test_waiver_inside_string_literal_is_ignored(self, tmp_path):
        src = SILENT.replace(
            "        g()\n",
            '        g("# lint: allow(silent-except) -- not a comment")\n',
        )
        report = run_lint(tmp_path, {"mod.py": src})
        assert [f.rule for f in report.findings] == ["silent-except"]


class TestEngine:
    def test_parse_error_is_a_finding(self, tmp_path):
        report = run_lint(tmp_path, {"mod.py": "def broken(:\n"})
        assert [f.rule for f in report.findings] == ["parse-error"]

    def test_unknown_checker_selection_raises(self, tmp_path):
        with pytest.raises(ValueError, match="no-such-rule"):
            run_lint(tmp_path, {"mod.py": "x = 1\n"}, select=("no-such-rule",))

    def test_findings_sorted_by_location(self, tmp_path):
        report = run_lint(
            tmp_path, {"b.py": SILENT, "a.py": SILENT, "sub/c.py": SILENT}
        )
        assert [f.path for f in report.findings] == [
            "a.py", "b.py", "sub/c.py",
        ]
        assert report.files_checked == 3


class TestLintCommand:
    def test_finding_fails_the_command(self, tmp_path, capsys):
        pkg = write_package(tmp_path, {"mod.py": SILENT})
        assert main(["lint", "--root", str(pkg)]) == 1
        out = capsys.readouterr().out
        assert "error[silent-except]" in out
        assert "pkg/mod.py:4:" in out
        assert out.splitlines()[-1].startswith("FAIL: 1 files")

    def test_clean_package_passes(self, tmp_path, capsys):
        pkg = write_package(tmp_path, {"mod.py": "x = 1\n"})
        assert main(["lint", "--root", str(pkg)]) == 0
        assert capsys.readouterr().out.startswith("ok: 1 files")

    def test_json_report(self, tmp_path, capsys):
        pkg = write_package(tmp_path, {"mod.py": SILENT})
        assert main(["lint", "--root", str(pkg), "--json"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["ok"] is False
        assert payload["files_checked"] == 1
        assert [f["rule"] for f in payload["findings"]] == ["silent-except"]

    def test_baseline_option_is_gone(self, tmp_path):
        with pytest.raises(SystemExit) as excinfo:
            main(["lint", "--root", str(tmp_path), "--baseline", "x.json"])
        assert excinfo.value.code == 2

    @pytest.mark.parametrize(
        "option",
        [["--write-baseline", "x.json"], ["--strict"]],
        ids=["write-baseline", "strict"],
    )
    def test_other_baseline_options_are_gone(self, tmp_path, option):
        with pytest.raises(SystemExit) as excinfo:
            main(["lint", "--root", str(tmp_path), *option])
        assert excinfo.value.code == 2
