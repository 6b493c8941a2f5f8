"""The static-analysis suite: rules, suppressions, baseline, self-check."""

from __future__ import annotations

import json
import textwrap
from pathlib import Path

import pytest

from repro.analysis import all_rules, run_check
from repro.analysis.baseline import (
    Baseline,
    BaselineEntry,
    PLACEHOLDER_JUSTIFICATION,
    apply_baseline,
)
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
    assert {"D101", "D102", "D103", "D104", "D105", "D106"} <= codes
    assert {"H201", "H202", "H203", "H204", "H205"} <= codes
    assert {"S301", "S302", "S304"} <= codes
    assert {"R401", "R402", "R403", "R404"} <= codes


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


# ---------------------------------------------------------------------- H: hot path
HOT_MODULE = "repro.engine.simulator"


def test_h201_flags_try_except_in_hot_function(tmp_path):
    findings = check_snippet(tmp_path, HOT_MODULE, """
        class Simulator:
            def push(self, ev):
                try:
                    self.heap.append(ev)
                except AttributeError:
                    pass
    """)
    assert "H201" in rules_hit(findings)


def test_h201_allows_try_finally(tmp_path):
    findings = check_snippet(tmp_path, HOT_MODULE, """
        class Simulator:
            def push(self, ev):
                try:
                    self.heap.append(ev)
                finally:
                    self.dirty = True
    """)
    assert "H201" not in rules_hit(findings)


def test_h202_flags_closure_h203_kwargs_h204_print(tmp_path):
    findings = check_snippet(tmp_path, HOT_MODULE, """
        class Simulator:
            def push(self, ev, **extra):
                def on_fire():
                    return ev
                print("pushed", ev)
                return self.schedule(on_fire, **extra)
    """)
    assert {"H202", "H203", "H204"} <= rules_hit(findings)


def test_hot_rules_ignore_functions_off_the_hot_list(tmp_path):
    findings = check_snippet(tmp_path, HOT_MODULE, """
        class Simulator:
            def debug_dump(self, **extra):
                print("state", extra)
    """)
    assert not rules_hit(findings) & {"H201", "H202", "H203", "H204"}


def test_hot_rules_reach_decision_functions_but_not_their_factory(tmp_path):
    # The flat kernel's decision table: ``factory.decide`` is hot, the factory
    # that builds it (a closure definition, once per drain) is not.
    findings = check_snippet(tmp_path, "repro.engine.batch.decisions", """
        def valn(m, st):
            def decide(router, pkt, now, cur_seq):
                try:
                    return m.min_next[router][pkt[2]]
                except IndexError:
                    print("no route")
            return decide
    """)
    assert {"H201", "H204"} <= rules_hit(findings)
    assert "H202" not in rules_hit(findings)


def test_every_hot_listed_function_exists():
    """A rename must not silently take a function off the hot list."""
    from repro.analysis.core import load_module
    from repro.analysis.rules_hotpath import HOT_FUNCTIONS, _hot_functions

    for module_name, qualnames in HOT_FUNCTIONS.items():
        path = REPO_ROOT.joinpath("src", *module_name.split(".")).with_suffix(".py")
        found = {qualname for qualname, _ in _hot_functions(load_module(path, REPO_ROOT))}
        assert found == qualnames, module_name


def test_h205_flags_unguarded_probe_publish(tmp_path):
    findings = check_snippet(tmp_path, "repro.network.probes_bad", """
        class Router:
            def tick(self, now):
                self._join_log.add(0, 1, False, now)
    """)
    assert "H205" in rules_hit(findings)
    findings = check_snippet(tmp_path, "repro.network.probes_alias_bad", """
        class Router:
            def tick(self, now):
                joins = self._join_log
                joins.add(0, 1, False, now)
    """)
    assert "H205" in rules_hit(findings)


def test_h205_accepts_attribute_and_alias_guards(tmp_path):
    findings = check_snippet(tmp_path, "repro.network.probes_ok", """
        class Router:
            def tick(self, now):
                if self._join_log is not None:
                    self._join_log.add(0, 1, False, now)
                forwards = self._forward_log
                if forwards is not None:
                    forwards.add(0, now)
    """)
    assert "H205" not in rules_hit(findings)


# ----------------------------------------------------------------- S: serialization
def test_s301_flags_field_missing_from_to_dict(tmp_path):
    findings = check_snippet(tmp_path, "repro.scenarios.specs", """
        from dataclasses import dataclass

        @dataclass
        class Spec:
            alpha: float
            beta: float

            def to_dict(self):
                return {"alpha": self.alpha}

            @classmethod
            def from_dict(cls, data):
                check_keys(data, required=("alpha",), context="Spec")
                return cls(**data)
    """)
    s301 = [f for f in findings if f.rule == "S301"]
    assert len(s301) == 1
    assert "beta" in s301[0].message


def test_s301_accepts_whole_object_serialization(tmp_path):
    findings = check_snippet(tmp_path, "repro.scenarios.whole", """
        from dataclasses import dataclass, fields

        @dataclass
        class Spec:
            alpha: float
            beta: float

            def to_dict(self):
                return {f.name: getattr(self, f.name) for f in fields(self)}

            @classmethod
            def from_dict(cls, data):
                check_keys(data, required=("alpha", "beta"), context="Spec")
                return cls(**data)
    """)
    assert "S301" not in rules_hit(findings)


def test_s302_flags_lax_loader(tmp_path):
    findings = check_snippet(tmp_path, "repro.scenarios.lax", """
        class Doc:
            @classmethod
            def from_dict(cls, data):
                return cls(data["x"])
    """)
    assert "S302" in rules_hit(findings)


def test_s304_flags_one_way_serializer(tmp_path):
    findings = check_snippet(tmp_path, "repro.scenarios.oneway", """
        class Exporter:
            def to_dict(self):
                return {}
    """)
    assert "S304" in rules_hit(findings)


# --------------------------------------------------------------------- R: registry
def test_r401_r403_r404_flag_an_incomplete_registration(tmp_path):
    findings = check_snippet(tmp_path, "repro.routing.plugins", """
        class BrokenRouting:
            pass

        def register_algorithm(name, factory=None, **kw):
            pass

        register_algorithm("broken", BrokenRouting)
    """)
    codes = rules_hit(findings)
    assert {"R401", "R403", "R404"} <= codes


def test_r401_accepts_explicit_none_declaration(tmp_path):
    findings = check_snippet(tmp_path, "repro.routing.plugins_ok", """
        class FineRouting:
            name = "fine"
            supported_topologies = None

            def decide(self, router, packet, in_port):
                return 0

        def register_algorithm(name, factory=None, **kw):
            pass

        register_algorithm("fine", FineRouting)
    """)
    assert not rules_hit(findings) & {"R401", "R403", "R404"}


def test_r404_requires_a_probe_to_declare_its_logs(tmp_path):
    def probe_module(logs_line: str) -> str:
        return f"""
        class InstrumentProbe:
            logs = ()

            def summary(self, logs, ctx):
                raise NotImplementedError

        class CountProbe(InstrumentProbe):
            name = "count"
            {logs_line}

            def summary(self, logs, ctx):
                return {{"delivered": len(logs.dl_deliver)}}

        PROBE_REGISTRY.register("count", CountProbe)
    """

    findings = check_snippet(tmp_path, "repro.instrument.plugin_bad", probe_module(""))
    assert any(f.rule == "R404" and "logs" in f.message for f in findings)
    findings = check_snippet(tmp_path, "repro.instrument.plugin_ok",
                             probe_module("logs = ()"))
    assert "R404" not in rules_hit(findings)


def test_r402_flags_export_without_import(tmp_path):
    findings = check_snippet(tmp_path, "repro.routing.halfstate", """
        class HalfCheckpointable:
            def export_state(self):
                return {}
    """)
    assert "R402" in rules_hit(findings)


def test_r_rules_resolve_lazy_loaders(tmp_path):
    src = tmp_path / "src" / "repro" / "routing"
    src.mkdir(parents=True)
    (tmp_path / "src" / "repro" / "core").mkdir(parents=True)
    (src / "lazy.py").write_text(textwrap.dedent("""
        def _load_lazy():
            from repro.core.lazyimpl import LazyRouting

            return LazyRouting

        def register_algorithm(name, factory=None, loader=None, **kw):
            pass

        register_algorithm("lazy", loader=_load_lazy)
    """), encoding="utf-8")
    (tmp_path / "src" / "repro" / "core" / "lazyimpl.py").write_text(textwrap.dedent("""
        class LazyRouting:
            pass
    """), encoding="utf-8")
    findings = run_check(
        [src / "lazy.py", tmp_path / "src" / "repro" / "core" / "lazyimpl.py"],
        tmp_path,
    )
    r401 = [f for f in findings if f.rule == "R401"]
    assert r401 and "LazyRouting" in r401[0].message


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


# --------------------------------------------------------------------- baseline
def _finding_fixture(tmp_path):
    return check_snippet(tmp_path, "repro.stats.legacy", """
        def bad(xs):
            return [x for x in set(xs)]
    """)


def test_baseline_round_trip(tmp_path):
    findings = _finding_fixture(tmp_path)
    assert findings
    baseline = Baseline.from_findings(findings, justification="legacy, tracked")
    path = tmp_path / "analysis-baseline.json"
    baseline.save(path)

    loaded = Baseline.load(path)
    assert len(loaded) == len(findings)
    new, matched, stale = apply_baseline(findings, loaded)
    assert not new and not stale
    assert len(matched) == len(findings)
    assert not loaded.unjustified()


def test_baseline_matching_is_line_insensitive(tmp_path):
    findings = _finding_fixture(tmp_path)
    entry = BaselineEntry(
        rule=findings[0].rule, path=findings[0].path,
        message=findings[0].message, justification="tracked",
    )
    shifted = Baseline([entry])
    new, matched, stale = apply_baseline(findings, shifted)
    assert not new and matched


def test_baseline_reports_stale_and_unjustified_entries(tmp_path):
    ghost = BaselineEntry(rule="D104", path="src/repro/gone.py",
                          message="iteration over a set", justification="")
    baseline = Baseline([ghost])
    new, matched, stale = apply_baseline([], baseline)
    assert stale == [ghost]
    assert baseline.unjustified() == [ghost]
    assert Baseline.from_findings(
        _finding_fixture(tmp_path)).unjustified()  # placeholder text


def test_write_baseline_then_strict_check_flags_placeholder(tmp_path, monkeypatch, capsys):
    rel = Path("src", "repro", "stats", "legacy.py")
    target = tmp_path / rel
    target.parent.mkdir(parents=True)
    target.write_text("def bad(xs):\n    return [x for x in set(xs)]\n",
                      encoding="utf-8")
    (tmp_path / "pyproject.toml").write_text("[project]\nname='x'\n", encoding="utf-8")
    monkeypatch.chdir(tmp_path)

    assert main(["--baseline", "bl.json", "--write-baseline", "src"]) == 0
    # Non-strict: baselined finding passes even with the placeholder text.
    assert main(["--baseline", "bl.json", "src"]) == 0
    # Strict: the placeholder justification fails the gate.
    assert main(["--strict", "--baseline", "bl.json", "src"]) == 1

    data = json.loads((tmp_path / "bl.json").read_text(encoding="utf-8"))
    for entry in data["entries"]:
        entry["justification"] = "legacy ordering quirk, tracked in #42"
    (tmp_path / "bl.json").write_text(json.dumps(data), encoding="utf-8")
    assert main(["--strict", "--baseline", "bl.json", "src"]) == 0
    capsys.readouterr()


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
