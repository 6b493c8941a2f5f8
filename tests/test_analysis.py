"""The static-analysis suite: rules, suppressions, self-check."""

from __future__ import annotations

import json
import textwrap
from pathlib import Path

import pytest

from repro.analysis import all_rules, run_check
from repro.analysis.runner import discover_files, main, repo_root

REPO_ROOT = Path(__file__).resolve().parents[1]


# --------------------------------------------------------------------- helpers
def check_snippet(tmp_path: Path, module: str, source: str):
    """Write ``source`` as ``module`` under a scratch src tree and analyze it."""
    rel = Path("src", *module.split("."))
    path = tmp_path / rel.with_suffix(".py")
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(textwrap.dedent(source), encoding="utf-8")
    return run_check([path], tmp_path)


def rules_hit(findings):
    return {f.rule for f in findings}


# ---------------------------------------------------------------- rule registry
def test_every_rule_family_registered():
    codes = {r.code for r in all_rules()}
    assert codes == {"D101", "D102", "D103", "D104", "D105", "D106"}


def test_rule_metadata_sane():
    for rule_obj in all_rules():
        assert rule_obj.severity in ("error", "warning")
        assert rule_obj.summary


# ------------------------------------------------------------------- D: determinism
def test_d101_flags_random_import_in_sim_scope(tmp_path):
    findings = check_snippet(tmp_path, "repro.network.bad", """
        import random

        def pick(xs):
            return random.choice(xs)
    """)
    assert "D101" in rules_hit(findings)


def test_d101_ignores_rng_module_and_non_sim_scope(tmp_path):
    assert not check_snippet(tmp_path, "repro.engine.rng", "import random\n")
    assert not check_snippet(tmp_path, "repro.stats.fine", "import random\n")


def test_d101_ignores_type_checking_imports(tmp_path):
    findings = check_snippet(tmp_path, "repro.network.typed", """
        from typing import TYPE_CHECKING

        if TYPE_CHECKING:
            import random
    """)
    assert "D101" not in rules_hit(findings)


def test_d102_flags_wall_clock_call(tmp_path):
    findings = check_snippet(tmp_path, "repro.engine.bad", """
        import time

        def stamp():
            return time.time()
    """)
    codes = rules_hit(findings)
    assert "D102" in codes


def test_d103_flags_uuid_everywhere_in_src(tmp_path):
    findings = check_snippet(tmp_path, "repro.stats.bad", """
        import uuid

        def ident():
            return uuid.uuid4()
    """)
    assert "D103" in rules_hit(findings)


@pytest.mark.parametrize(
    "source",
    [
        "import os\nFLAG = os.environ.get('REPRO_X', '')\n",
        "import os\nFLAG = os.getenv('REPRO_X')\n",
        "from os import environ\n",
    ],
)
def test_d103_flags_environment_reads_only_in_sim_scope(tmp_path, source):
    assert "D103" in rules_hit(check_snippet(tmp_path, "repro.engine.bad", source))
    # Runner plumbing (REPRO_WORKERS, REPRO_SCALE, ...) legitimately reads it.
    assert not check_snippet(tmp_path, "repro.experiments.fine", source)


def test_d104_flags_set_iteration_but_not_sorted(tmp_path):
    findings = check_snippet(tmp_path, "repro.stats.orders", """
        def bad(xs):
            return [x for x in set(xs)]

        def good(xs):
            return [x for x in sorted(set(xs))]

        def also_good(xs):
            return sum({x * 2 for x in xs})
    """)
    d104 = [f for f in findings if f.rule == "D104"]
    assert len(d104) == 1
    assert d104[0].line == 3


def test_d105_flags_numpy_global_rng(tmp_path):
    findings = check_snippet(tmp_path, "repro.core.bad", """
        import numpy as np

        def draw():
            return np.random.rand()
    """)
    assert "D105" in rules_hit(findings)


def test_d106_flags_builtin_hash_in_scope(tmp_path):
    findings = check_snippet(tmp_path, "repro.experiments.bad", """
        def key(spec):
            return hash(spec)
    """)
    assert "D106" in rules_hit(findings)


# ----------------------------------------------------------------- suppressions
def test_line_suppression_silences_one_rule(tmp_path):
    findings = check_snippet(tmp_path, "repro.stats.suppressed", """
        def bad(xs):
            return [x for x in set(xs)]  # repro: ignore[D104]
    """)
    assert "D104" not in rules_hit(findings)


def test_line_suppression_is_rule_specific(tmp_path):
    findings = check_snippet(tmp_path, "repro.stats.wrong_code", """
        def bad(xs):
            return [x for x in set(xs)]  # repro: ignore[D101]
    """)
    assert "D104" in rules_hit(findings)


def test_bare_ignore_silences_every_rule_on_the_line(tmp_path):
    findings = check_snippet(tmp_path, "repro.stats.bare", """
        def bad(xs):
            return [x for x in set(xs)]  # repro: ignore
    """)
    assert not findings


def test_file_scoped_suppression(tmp_path):
    findings = check_snippet(tmp_path, "repro.stats.filewide", """
        # repro: ignore-file[D104]

        def bad(xs):
            return [x for x in set(xs)]

        def worse(xs):
            return list({x for x in xs})
    """)
    assert "D104" not in rules_hit(findings)


# ------------------------------------------------------------------ runner / CLI
def test_main_exit_codes_and_json_format(tmp_path, monkeypatch, capsys):
    rel = Path("src", "repro", "stats", "legacy.py")
    target = tmp_path / rel
    target.parent.mkdir(parents=True)
    target.write_text("def bad(xs):\n    return [x for x in set(xs)]\n",
                      encoding="utf-8")
    (tmp_path / "pyproject.toml").write_text("[project]\nname='x'\n", encoding="utf-8")
    monkeypatch.chdir(tmp_path)

    assert main(["src"]) == 1
    capsys.readouterr()
    assert main(["--format", "json", "src"]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["findings"] and payload["findings"][0]["rule"] == "D104"

    target.write_text("def good(xs):\n    return sorted(set(xs))\n", encoding="utf-8")
    assert main(["src"]) == 0
    capsys.readouterr()


def test_main_reports_syntax_errors(tmp_path, monkeypatch, capsys):
    bad = tmp_path / "src" / "repro" / "broken.py"
    bad.parent.mkdir(parents=True)
    bad.write_text("def broken(:\n", encoding="utf-8")
    (tmp_path / "pyproject.toml").write_text("[project]\nname='x'\n", encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    assert main(["src"]) == 1
    assert "E999" in capsys.readouterr().out


def test_list_rules_prints_every_registered_code(capsys):
    assert main(["--list-rules"]) == 0
    listed = {line.split()[0] for line in capsys.readouterr().out.splitlines()}
    assert listed == {"D101", "D102", "D103", "D104", "D105", "D106"}


def test_discover_files_skips_caches(tmp_path):
    (tmp_path / "src" / "__pycache__").mkdir(parents=True)
    (tmp_path / "src" / "__pycache__" / "junk.py").write_text("x = 1\n")
    (tmp_path / "src" / "ok.py").write_text("x = 1\n")
    files = discover_files(tmp_path, ["src"])
    assert [f.name for f in files] == ["ok.py"]


def test_repo_root_finds_pyproject(tmp_path, monkeypatch):
    nested = tmp_path / "a" / "b"
    nested.mkdir(parents=True)
    (tmp_path / "pyproject.toml").write_text("[project]\nname='x'\n")
    monkeypatch.chdir(nested)
    assert repo_root() == tmp_path


# -------------------------------------------------------------------- self-check
def test_repo_src_is_clean_under_own_analysis():
    """The gate the repo ships with: `repro-sim check --strict src` is green."""
    files = discover_files(REPO_ROOT, ["src"])
    assert files, "no source files discovered — repo layout changed?"
    findings = run_check(files, REPO_ROOT)
    rendered = "\n".join(f.render() for f in findings)
    assert not findings, f"static analysis regressions:\n{rendered}"
