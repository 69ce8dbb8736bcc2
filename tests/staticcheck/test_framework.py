"""Framework-level tests: suppression parsing and scoping, and the CLI
contract (exit codes, output formats) the CI gate depends on."""

import textwrap

import pytest

from repro.staticcheck import ModuleSource, check_module, run_paths
from repro.staticcheck.cli import main
from repro.staticcheck.core import MiniStaticError


def module(source, rel_path="src/repro/fixture.py"):
    return ModuleSource("fixture.py", textwrap.dedent(source), rel_path=rel_path)


BAD_HANDLER = """\
    def swallow():
        try:
            return risky()
        except Exception:
            return None
"""


# ---------------------------------------------------------- suppressions


def test_suppression_parses_rules_and_reason():
    mod = module(
        """\
        def swallow():
            try:
                return risky()
            except Exception:  # staticcheck: ignore[broad-except,cond-wait] — known-safe fixture
                return None
        """
    )
    (sup,) = mod.suppressions
    assert sup.rules == ("broad-except", "cond-wait")
    assert sup.reason == "known-safe fixture"
    assert sup.covers("broad-except", sup.line)
    assert not sup.covers("guarded-by", sup.line)


@pytest.mark.parametrize("separator", ["—", "–", "--", "-"])
def test_suppression_accepts_dash_variants(separator):
    mod = module(
        f"""\
        x = 1  # staticcheck: ignore[broad-except] {separator} some reason
        """
    )
    (sup,) = mod.suppressions
    assert sup.reason == "some reason"


def test_reasonless_suppression_is_itself_a_finding():
    mod = module(
        """\
        def swallow():
            try:
                return risky()
            except Exception:  # staticcheck: ignore[broad-except]
                return None
        """
    )
    result = check_module(mod)
    rules = [f.rule for f in result.findings]
    assert "suppression-format" in rules
    # the malformed suppression still silences its target (the gate fails
    # on the format finding instead, which points at the same line)
    assert "broad-except" not in rules


def test_standalone_suppression_covers_next_line():
    mod = module(
        """\
        def swallow():
            try:
                return risky()
            # staticcheck: ignore[broad-except] — standalone comment form
            except Exception:
                return None
        """
    )
    result = check_module(mod)
    assert [f.rule for f in result.findings] == []
    assert [f.rule for f in result.suppressed] == ["broad-except"]


def test_def_level_suppression_covers_whole_body():
    mod = module(
        """\
        # staticcheck: ignore[broad-except] — every handler in here is deliberate
        def swallow():
            try:
                first()
            except Exception:
                pass
            try:
                second()
            except Exception:
                pass
        """
    )
    result = check_module(mod)
    assert result.findings == []
    assert len(result.suppressed) == 2


def test_def_level_suppression_does_not_leak_to_siblings():
    mod = module(
        """\
        # staticcheck: ignore[broad-except] — covered
        def covered():
            try:
                first()
            except Exception:
                pass

        def uncovered():
            try:
                second()
            except Exception:
                pass
        """
    )
    result = check_module(mod)
    assert len(result.findings) == 1
    assert result.findings[0].context == "uncovered"


# ------------------------------------------------------------ run_paths


def test_run_paths_unknown_rule_is_an_error(tmp_path):
    target = tmp_path / "mod.py"
    target.write_text("x = 1\n")
    with pytest.raises(MiniStaticError):
        run_paths([str(target)], root=str(tmp_path), rules=["no-such-rule"])


def test_run_paths_syntax_error_becomes_finding(tmp_path):
    target = tmp_path / "broken.py"
    target.write_text("def f(:\n")
    result = run_paths([str(target)], root=str(tmp_path))
    assert [f.rule for f in result.findings] == ["parse-error"]


# ------------------------------------------------------------------ CLI


@pytest.fixture
def workdir(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    return tmp_path


def write_fixture(workdir, source=BAD_HANDLER, name="mod.py"):
    target = workdir / name
    target.write_text(textwrap.dedent(source))
    return name


def test_cli_clean_exits_zero(workdir, capsys):
    name = write_fixture(workdir, "x = 1\n")
    assert main([name]) == 0
    assert "0 finding(s)" in capsys.readouterr().out


def test_cli_findings_exit_one(workdir, capsys):
    name = write_fixture(workdir)
    assert main([name]) == 1
    out = capsys.readouterr().out
    assert "[broad-except]" in out
    assert "mod.py:4" in out


def test_cli_github_format(workdir, capsys):
    name = write_fixture(workdir)
    assert main([name, "--format", "github"]) == 1
    out = capsys.readouterr().out
    assert "::error file=mod.py,line=4,title=staticcheck[broad-except]::" in out


def test_cli_usage_errors_exit_two(workdir, capsys):
    assert main(["does/not/exist.py"]) == 2
    name = write_fixture(workdir, "x = 1\n")
    assert main([name, "--rule", "no-such-rule"]) == 2


def test_cli_rule_filter_keeps_suppression_format(workdir, capsys):
    name = write_fixture(
        workdir,
        """\
        def swallow():
            try:
                return risky()
            except Exception:  # staticcheck: ignore[broad-except]
                return None
        """,
    )
    # filtering to an unrelated rule must not hide the malformed suppression
    assert main([name, "--rule", "cond-wait"]) == 1
    assert "[suppression-format]" in capsys.readouterr().out


def test_cli_list_rules(workdir, capsys):
    assert main(["--list-rules"]) == 0
    out = capsys.readouterr().out
    for rule in (
        "guarded-by",
        "encapsulation",
        "cond-wait",
        "error-taxonomy",
        "broad-except",
    ):
        assert rule in out
