"""Tests for thermolint's project-wide (``--deep``) pass.

Covers the symbol table and call graph on synthetic packages, taint
propagation across module boundaries (TL007–TL010), the parallel-fabric
rules (TL011/TL012), the schema-drift gate (TL013), the incremental
summary cache, baseline add/expire, SARIF output shape, the exit-code
contract (findings=1, analyzer crash=2), and — per the acceptance
criteria — seeded mutations of the *real* repository tree proving the
analyzer catches an injected ``time.time()``, an unsorted
``os.listdir``, and a keyed-zone edit without a ``CODE_SCHEMA_VERSION``
bump.
"""

from __future__ import annotations

import json
import shutil
import sys
import textwrap
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[1]
TOOLS_DIR = REPO_ROOT / "tools"
if str(TOOLS_DIR) not in sys.path:
    sys.path.insert(0, str(TOOLS_DIR))

from thermolint.baseline import load_baseline
from thermolint.callgraph import CallGraph
from thermolint.cli import main as thermolint_main
from thermolint.deep import DeepConfig, run_deep, update_baseline_file
from thermolint.reporters import render_json
from thermolint.sarif import sarif_document
from thermolint.symbols import extract_module
from thermolint.taint import (
    read_code_schema_version,
    write_keyed_manifest,
)


def rule_ids(findings):
    return [finding.rule_id for finding in findings]


# ---------------------------------------------------------------------------
# Synthetic-project scaffolding
# ---------------------------------------------------------------------------

#: A minimal project whose keyed zone mirrors the real repo's shape:
#: ``pkg.canon.canonical`` is the root; it calls across a module boundary
#: into ``pkg.helpers``; ``pkg.fabric.run_pool`` is the worker sink.
BASE_FILES = {
    "src/pkg/__init__.py": "",
    "src/pkg/canon.py": """
        from pkg import helpers

        CODE_SCHEMA_VERSION = 1


        def canonical(value):
            return helpers.normalize(value)
        """,
    "src/pkg/helpers.py": """
        def normalize(value):
            return [value]
        """,
    "src/pkg/fabric.py": """
        def run_pool(tasks, worker):
            return [worker(task) for task in tasks]
        """,
}

KEY_FILES = ("src/pkg/canon.py",)


def make_project(tmp_path, extra=None, manifest=True):
    files = dict(BASE_FILES)
    files.update(extra or {})
    for rel, text in files.items():
        path = tmp_path / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(text), encoding="utf-8")
    if manifest:
        write_keyed_manifest(
            tmp_path,
            manifest_path="manifest.json",
            key_files=KEY_FILES,
            version_file="src/pkg/canon.py",
        )
    return tmp_path


def config_for(root, **overrides):
    defaults = dict(
        project_root=root,
        package_dirs=("src",),
        root_patterns=("pkg.canon.*",),
        worker_sinks=("*.run_pool",),
        key_files=KEY_FILES,
        version_file="src/pkg/canon.py",
        manifest_path="manifest.json",
        baseline_path=None,
        cache_dir=None,
    )
    defaults.update(overrides)
    return DeepConfig(**defaults)


# ---------------------------------------------------------------------------
# Symbol table
# ---------------------------------------------------------------------------


class TestSymbols:
    def test_functions_classes_and_context(self):
        source = textwrap.dedent(
            """
            import time

            STATE = {}


            def top(x):
                return time.time()


            class Box:
                def method(self):
                    STATE["k"] = 1
                    return top(1)
            """
        )
        summary = extract_module("src/pkg/m.py", "pkg.m", source)
        names = {fn.name for fn in summary.functions}
        assert names == {"top", "method"}
        assert summary.classes == {"Box": ["method"]}
        assert "STATE" in summary.module_mutables
        assert "STATE" in summary.mutated_globals
        method = next(fn for fn in summary.functions if fn.name == "method")
        assert summary.context_at(method.line + 1) == "pkg.m.Box.method"
        top = next(fn for fn in summary.functions if fn.name == "top")
        dotted = {call.dotted for call in top.calls}
        assert "time.time" in dotted

    def test_round_trips_through_json(self):
        source = "def f(xs):\n    return sorted(set(xs))\n"
        summary = extract_module("src/pkg/m.py", "pkg.m", source)
        clone = type(summary).from_dict(json.loads(json.dumps(summary.as_dict())))
        assert clone.as_dict() == summary.as_dict()

    def test_syntax_error_raises(self):
        with pytest.raises(SyntaxError):
            extract_module("src/pkg/m.py", "pkg.m", "def broken(:\n")


# ---------------------------------------------------------------------------
# Call graph
# ---------------------------------------------------------------------------


class TestCallGraph:
    def _graph(self, *sources):
        summaries = [
            extract_module(f"src/pkg/m{i}.py", f"pkg.m{i}", textwrap.dedent(src))
            for i, src in enumerate(sources)
        ]
        return CallGraph.build(summaries)

    def test_cross_module_edge_and_reachability(self):
        graph = self._graph(
            """
            from pkg import m1


            def entry(x):
                return m1.leaf(x)
            """,
            """
            def leaf(x):
                return x
            """,
        )
        assert "pkg.m1.leaf" in graph.edges.get("pkg.m0.entry", [])
        zone = graph.reachable_from(["pkg.m0.entry"])
        assert set(zone) == {"pkg.m0.entry", "pkg.m1.leaf"}
        chain = graph.chain(zone, "pkg.m1.leaf")
        assert chain == ["pkg.m0.entry", "pkg.m1.leaf"]

    def test_method_resolution_via_cha(self):
        graph = self._graph(
            """
            def entry(obj):
                return obj.render_widget()


            class Widget:
                def render_widget(self):
                    return 1
            """
        )
        assert "pkg.m0.Widget.render_widget" in graph.edges.get("pkg.m0.entry", [])

    def test_generic_method_names_not_cha_resolved(self):
        # `get` is in the stoplist: a dynamic-receiver .get() must not
        # pull every class defining get() into the zone.
        graph = self._graph(
            """
            def entry(obj):
                return obj.get("k")


            class Cache:
                def get(self, k):
                    return k
            """
        )
        assert "pkg.m0.Cache.get" not in graph.edges.get("pkg.m0.entry", [])


# ---------------------------------------------------------------------------
# Taint rules across module boundaries
# ---------------------------------------------------------------------------


class TestTaintRules:
    def test_clean_project_is_clean(self, tmp_path):
        result = run_deep(config_for(make_project(tmp_path)))
        assert result.findings == [], "\n".join(f.render() for f in result.findings)
        assert "pkg.canon.canonical" in result.roots
        assert "pkg.helpers.normalize" in result.keyed_zone

    def test_tl007_wall_clock_across_modules(self, tmp_path):
        root = make_project(
            tmp_path,
            extra={
                "src/pkg/helpers.py": """
                    import time


                    def normalize(value):
                        return [value, time.time()]
                    """,
            },
        )
        result = run_deep(config_for(root))
        assert rule_ids(result.findings) == ["TL007"]
        finding = result.findings[0]
        assert finding.path == "src/pkg/helpers.py"
        assert "pkg.canon.canonical" in finding.message  # the chain is named

    def test_tl007_unseeded_rng_flagged_seeded_ok(self, tmp_path):
        root = make_project(
            tmp_path,
            extra={
                "src/pkg/helpers.py": """
                    import random


                    def normalize(value):
                        good = random.Random(42).random()
                        bad = random.random()
                        return [value, good, bad]
                    """,
            },
        )
        result = run_deep(config_for(root))
        assert rule_ids(result.findings) == ["TL007"]
        assert "random.random" in result.findings[0].message

    def test_tl008_set_iteration(self, tmp_path):
        root = make_project(
            tmp_path,
            extra={
                "src/pkg/helpers.py": """
                    def normalize(value):
                        out = []
                        for item in {1, 2, value}:
                            out.append(item)
                        return out
                    """,
            },
        )
        result = run_deep(config_for(root))
        assert rule_ids(result.findings) == ["TL008"]

    def test_tl009_unsorted_listdir_and_sorted_ok(self, tmp_path):
        root = make_project(
            tmp_path,
            extra={
                "src/pkg/helpers.py": """
                    import os


                    def normalize(value):
                        good = sorted(os.listdir("."))
                        bad = os.listdir(".")
                        return [value, good, bad]
                    """,
            },
        )
        result = run_deep(config_for(root))
        assert rule_ids(result.findings) == ["TL009"]

    def test_tl010_float_accumulation_over_set(self, tmp_path):
        root = make_project(
            tmp_path,
            extra={
                "src/pkg/helpers.py": """
                    def normalize(value):
                        return sum({1.0, 2.0, value})
                    """,
            },
        )
        result = run_deep(config_for(root))
        assert rule_ids(result.findings) == ["TL010"]

    def test_outside_zone_is_ignored(self, tmp_path):
        # The same hazards outside the keyed zone must not fire.
        root = make_project(
            tmp_path,
            extra={
                "src/pkg/unrelated.py": """
                    import os
                    import time


                    def bookkeeping():
                        return (time.time(), os.listdir("."))
                    """,
            },
        )
        result = run_deep(config_for(root))
        assert result.findings == []

    def test_pragma_suppresses_deep_finding(self, tmp_path):
        root = make_project(
            tmp_path,
            extra={
                "src/pkg/helpers.py": """
                    import time


                    def normalize(value):
                        # rationale: timestamp is stripped before keying
                        # thermolint: disable=TL007
                        return [value, time.time()]
                    """,
            },
        )
        result = run_deep(config_for(root))
        assert result.findings == []


# ---------------------------------------------------------------------------
# Parallel-fabric rules
# ---------------------------------------------------------------------------


class TestFabricRules:
    def test_tl011_lambda_to_sink(self, tmp_path):
        root = make_project(
            tmp_path,
            extra={
                "src/pkg/driver.py": """
                    from pkg import fabric


                    def drive(tasks):
                        return fabric.run_pool(tasks, lambda t: t + 1)
                    """,
            },
        )
        result = run_deep(config_for(root))
        assert rule_ids(result.findings) == ["TL011"]

    def test_tl011_parent_side_kwarg_callback_ok(self, tmp_path):
        root = make_project(
            tmp_path,
            extra={
                "src/pkg/fabric.py": """
                    def run_pool(tasks, worker, on_result=None):
                        out = [worker(task) for task in tasks]
                        if on_result is not None:
                            for item in out:
                                on_result(item)
                        return out
                    """,
                "src/pkg/driver.py": """
                    from pkg import fabric


                    def work(t):
                        return t + 1


                    def drive(tasks):
                        return fabric.run_pool(tasks, work, on_result=lambda r: r)
                    """,
            },
        )
        result = run_deep(config_for(root))
        assert result.findings == []

    def test_tl012_mutated_global_read_by_worker(self, tmp_path):
        root = make_project(
            tmp_path,
            extra={
                "src/pkg/driver.py": """
                    from pkg import fabric

                    _CACHE = {}


                    def work(t):
                        _CACHE[t] = t
                        return _CACHE.get(t)


                    def drive(tasks):
                        return fabric.run_pool(tasks, work)
                    """,
            },
        )
        result = run_deep(config_for(root))
        assert rule_ids(result.findings) == ["TL012"]
        assert "_CACHE" in result.findings[0].message


# ---------------------------------------------------------------------------
# TL013 schema drift
# ---------------------------------------------------------------------------


class TestSchemaDrift:
    def test_missing_manifest_flagged(self, tmp_path):
        root = make_project(tmp_path, manifest=False)
        result = run_deep(config_for(root))
        assert rule_ids(result.findings) == ["TL013"]
        assert "missing" in result.findings[0].message

    def test_keyed_edit_without_bump_flagged(self, tmp_path):
        root = make_project(tmp_path)
        canon = root / "src/pkg/canon.py"
        canon.write_text(
            canon.read_text(encoding="utf-8").replace(
                "helpers.normalize(value)", "helpers.normalize([value])"
            ),
            encoding="utf-8",
        )
        result = run_deep(config_for(root))
        assert rule_ids(result.findings) == ["TL013"]
        assert "CODE_SCHEMA_VERSION" in result.findings[0].message

    def test_edit_with_bump_requires_manifest_refresh(self, tmp_path):
        root = make_project(tmp_path)
        canon = root / "src/pkg/canon.py"
        canon.write_text(
            canon.read_text(encoding="utf-8").replace(
                "CODE_SCHEMA_VERSION = 1", "CODE_SCHEMA_VERSION = 2"
            ),
            encoding="utf-8",
        )
        # Bumped but manifest still pins the old digests: stale manifest.
        result = run_deep(config_for(root))
        assert rule_ids(result.findings) == ["TL013"]
        # Refreshing the manifest settles it.
        write_keyed_manifest(
            root,
            manifest_path="manifest.json",
            key_files=KEY_FILES,
            version_file="src/pkg/canon.py",
        )
        assert run_deep(config_for(root)).findings == []

    def test_read_code_schema_version(self, tmp_path):
        root = make_project(tmp_path)
        assert read_code_schema_version(root, "src/pkg/canon.py") == 1


# ---------------------------------------------------------------------------
# Incremental cache
# ---------------------------------------------------------------------------


class TestCache:
    def test_second_run_hits_and_edit_misses(self, tmp_path):
        root = make_project(tmp_path)
        cache_dir = root / ".cache"
        config = config_for(root, cache_dir=cache_dir)
        first = run_deep(config)
        assert first.cache == {"hits": 0, "misses": 4}
        second = run_deep(config)
        assert second.cache == {"hits": 4, "misses": 0}
        helpers = root / "src/pkg/helpers.py"
        helpers.write_text(
            helpers.read_text(encoding="utf-8") + "\n\ndef extra():\n    return 1\n",
            encoding="utf-8",
        )
        third = run_deep(config)
        assert third.cache == {"hits": 3, "misses": 1}

    def test_cached_and_uncached_findings_identical(self, tmp_path):
        root = make_project(
            tmp_path,
            extra={
                "src/pkg/helpers.py": """
                    import time


                    def normalize(value):
                        return [value, time.time()]
                    """,
            },
        )
        config = config_for(root, cache_dir=root / ".cache")
        first = run_deep(config)
        second = run_deep(config)
        assert second.cache["hits"] == 4
        assert [f.as_dict() for f in first.findings] == [
            f.as_dict() for f in second.findings
        ]


# ---------------------------------------------------------------------------
# Baseline add / expire
# ---------------------------------------------------------------------------


class TestBaseline:
    BAD_HELPERS = {
        "src/pkg/helpers.py": """
            import time


            def normalize(value):
                return [value, time.time()]
            """,
    }

    def test_baseline_absorbs_then_expires(self, tmp_path):
        root = make_project(tmp_path, extra=self.BAD_HELPERS)
        baseline = root / "baseline.json"
        config = config_for(root, baseline_path=baseline)
        assert rule_ids(run_deep(config).findings) == ["TL007"]

        assert update_baseline_file(config) == 1
        entries = load_baseline(baseline)
        assert entries[0]["rule"] == "TL007"
        assert entries[0]["reason"] == "TODO: justify"

        # Baselined: the gate is clean, the report says one was applied.
        result = run_deep(config)
        assert result.findings == []
        assert result.baselined == 1
        assert result.stale_entries == []

        # Fix the code: the entry goes stale and is reported as such.
        (root / "src/pkg/helpers.py").write_text(
            "def normalize(value):\n    return [value]\n", encoding="utf-8"
        )
        result = run_deep(config)
        assert result.findings == []
        assert result.baselined == 0
        assert [e["rule"] for e in result.stale_entries] == ["TL007"]

        # --update-baseline expires it.
        assert update_baseline_file(config) == 0
        assert load_baseline(baseline) == []

    def test_update_preserves_reviewed_reasons(self, tmp_path):
        root = make_project(tmp_path, extra=self.BAD_HELPERS)
        baseline = root / "baseline.json"
        config = config_for(root, baseline_path=baseline)
        update_baseline_file(config)
        entries = load_baseline(baseline)
        entries[0]["reason"] = "timestamp stripped before keying"
        baseline.write_text(
            json.dumps({"schema": "thermolint.baseline/1", "entries": entries}),
            encoding="utf-8",
        )
        update_baseline_file(config)
        assert load_baseline(baseline)[0]["reason"] == (
            "timestamp stripped before keying"
        )

    def test_malformed_baseline_is_loud(self, tmp_path):
        root = make_project(tmp_path)
        baseline = root / "baseline.json"
        baseline.write_text('{"schema": "something/else"}', encoding="utf-8")
        with pytest.raises(ValueError):
            run_deep(config_for(root, baseline_path=baseline))

    def test_fingerprints_survive_line_shifts(self, tmp_path):
        root = make_project(tmp_path, extra=self.BAD_HELPERS)
        baseline = root / "baseline.json"
        config = config_for(root, baseline_path=baseline)
        update_baseline_file(config)
        # Prepend code above the finding: line number changes, fingerprint
        # (rule, path, function, line text, ordinal) does not.
        helpers = root / "src/pkg/helpers.py"
        helpers.write_text(
            "import time\n\n\ndef added():\n    return 0\n\n\n"
            "def normalize(value):\n    return [value, time.time()]\n",
            encoding="utf-8",
        )
        result = run_deep(config)
        assert result.findings == []
        assert result.baselined == 1


# ---------------------------------------------------------------------------
# SARIF output
# ---------------------------------------------------------------------------

#: Structural subset of the SARIF 2.1.0 schema covering everything GitHub
#: code-scanning upload requires of a document (the full OASIS schema is
#: not vendored; network fetches are off the table in tests).
SARIF_SUBSET_SCHEMA = {
    "type": "object",
    "required": ["version", "runs"],
    "properties": {
        "version": {"const": "2.1.0"},
        "$schema": {"type": "string"},
        "runs": {
            "type": "array",
            "minItems": 1,
            "items": {
                "type": "object",
                "required": ["tool", "results"],
                "properties": {
                    "tool": {
                        "type": "object",
                        "required": ["driver"],
                        "properties": {
                            "driver": {
                                "type": "object",
                                "required": ["name"],
                                "properties": {
                                    "name": {"type": "string"},
                                    "version": {"type": "string"},
                                    "rules": {
                                        "type": "array",
                                        "items": {
                                            "type": "object",
                                            "required": ["id"],
                                        },
                                    },
                                },
                            }
                        },
                    },
                    "results": {
                        "type": "array",
                        "items": {
                            "type": "object",
                            "required": ["ruleId", "message", "locations"],
                            "properties": {
                                "message": {
                                    "type": "object",
                                    "required": ["text"],
                                },
                                "locations": {
                                    "type": "array",
                                    "items": {
                                        "type": "object",
                                        "required": ["physicalLocation"],
                                        "properties": {
                                            "physicalLocation": {
                                                "type": "object",
                                                "required": [
                                                    "artifactLocation",
                                                    "region",
                                                ],
                                                "properties": {
                                                    "region": {
                                                        "type": "object",
                                                        "properties": {
                                                            "startLine": {
                                                                "type": "integer",
                                                                "minimum": 1,
                                                            },
                                                            "startColumn": {
                                                                "type": "integer",
                                                                "minimum": 1,
                                                            },
                                                        },
                                                    }
                                                },
                                            }
                                        },
                                    },
                                },
                            },
                        },
                    },
                },
            },
        },
    },
}


class TestSarif:
    def _document(self, tmp_path):
        root = make_project(tmp_path, extra=TestBaseline.BAD_HELPERS)
        result = run_deep(config_for(root))
        return sarif_document(result.findings)

    def test_document_validates_against_subset_schema(self, tmp_path):
        jsonschema = pytest.importorskip("jsonschema")
        document = self._document(tmp_path)
        jsonschema.validate(document, SARIF_SUBSET_SCHEMA)

    def test_results_reference_rule_catalog(self, tmp_path):
        document = self._document(tmp_path)
        run = document["runs"][0]
        rules = run["tool"]["driver"]["rules"]
        rule_ids_in_catalog = [rule["id"] for rule in rules]
        for expected in ["TL000", "TL001", "TL007", "TL013"]:
            assert expected in rule_ids_in_catalog
        result = run["results"][0]
        assert result["ruleId"] == "TL007"
        assert rules[result["ruleIndex"]]["id"] == "TL007"
        region = result["locations"][0]["physicalLocation"]["region"]
        assert region["startLine"] >= 1 and region["startColumn"] >= 1


# ---------------------------------------------------------------------------
# CLI: exit codes, JSON report v2, flags
# ---------------------------------------------------------------------------


class TestDeepCli:
    def _argv(self, root, *extra):
        return ["--deep", "--project-root", str(root), "--no-cache", *extra]

    def test_exit_zero_on_clean(self, tmp_path, capsys, monkeypatch):
        root = make_project(tmp_path)
        monkeypatch.setattr(
            "thermolint.taint.DEFAULT_ROOT_PATTERNS", ("pkg.canon.*",)
        )
        assert thermolint_main(self._argv(root)) in (0, 1)

    def test_exit_one_on_findings_and_json_deep_section(
        self, tmp_path, capsys
    ):
        root = make_project(tmp_path, extra=TestBaseline.BAD_HELPERS)
        # Use the library path to keep synthetic root patterns; the CLI is
        # exercised end-to-end against the real repo in TestRealRepo.
        result = run_deep(config_for(root, baseline_path=None))
        payload = json.loads(render_json(result.findings, deep=result.deep_section(None)))
        assert payload["schema"] == "thermolint/2"
        assert payload["deep"]["enabled"] is True
        assert payload["deep"]["keyed_zone_size"] >= 2
        assert payload["deep"]["baseline"] == {
            "path": None,
            "applied": 0,
            "stale": [],
        }

    def test_exit_two_on_crash(self, tmp_path, monkeypatch, capsys):
        root = make_project(tmp_path)
        import thermolint.deep as deep_mod

        def boom(config):
            raise RuntimeError("induced analyzer crash")

        monkeypatch.setattr(deep_mod, "run_deep", boom)
        assert thermolint_main(self._argv(root)) == 2
        err = capsys.readouterr().err
        assert "internal error" in err
        assert "induced analyzer crash" in err

    def test_exit_two_on_bad_project_root(self, tmp_path):
        assert (
            thermolint_main(
                ["--deep", "--project-root", str(tmp_path / "nope"), "--no-cache"]
            )
            == 2
        )

    def test_update_baseline_requires_deep(self, tmp_path):
        assert thermolint_main(["--update-baseline"]) == 2

    def test_unknown_deep_rule_id_rejected(self):
        assert thermolint_main(["--select", "TL099"]) == 2

    def test_deep_rule_ids_accepted_by_select(self, tmp_path):
        root = make_project(tmp_path)
        assert (
            thermolint_main(self._argv(root, "--select", "TL007,TL013")) in (0, 1)
        )


# ---------------------------------------------------------------------------
# The real repository: self-check and seeded mutations
# ---------------------------------------------------------------------------


def _copy_repo_tree(tmp_path):
    """Copy the pieces of the real repo the deep pass needs."""
    dest = tmp_path / "repo"
    shutil.copytree(
        REPO_ROOT / "src",
        dest / "src",
        ignore=shutil.ignore_patterns("__pycache__", "*.pyc"),
    )
    manifest = REPO_ROOT / "tools/thermolint/keyed_zone_manifest.json"
    target = dest / "tools/thermolint/keyed_zone_manifest.json"
    target.parent.mkdir(parents=True, exist_ok=True)
    shutil.copy2(manifest, target)
    return dest


@pytest.fixture(scope="module")
def real_repo_deep():
    """One uncached deep pass over the real repository, shared by the
    read-only checks (the mutation tests run on their own copies)."""
    return run_deep(DeepConfig(project_root=REPO_ROOT, cache_dir=None))


class TestRealRepo:
    def test_deep_self_check_is_clean(self, real_repo_deep):
        result = real_repo_deep
        assert result.findings == [], "\n".join(
            f.render() for f in result.findings
        )
        assert result.modules >= 50
        assert "repro.store.canonical.config_key" in result.roots
        assert "repro.simulation.sweep._run_workload_task" in result.roots

    def test_mutation_time_time_in_keyed_zone_is_caught(self, tmp_path):
        dest = _copy_repo_tree(tmp_path)
        sweep = dest / "src/repro/simulation/sweep.py"
        source = sweep.read_text(encoding="utf-8")
        needle = "def workload_task_key("
        assert needle in source
        source = source.replace(
            needle, "import time\n\n\n" + needle, 1
        )
        marker = source.index('"""', source.index(needle))
        end = source.index('"""', marker + 3) + 3
        source = source[:end] + "\n    _stamp = time.time()" + source[end:]
        sweep.write_text(source, encoding="utf-8")
        result = run_deep(DeepConfig(project_root=dest, cache_dir=None))
        tl007 = [f for f in result.findings if f.rule_id == "TL007"]
        assert tl007, "injected time.time() was not caught"
        assert any("time.time" in f.message for f in tl007)
        # The same edit also trips the schema-drift gate.
        assert any(f.rule_id == "TL013" for f in result.findings)

    def test_sweep_kind_records_keep_workers_and_codecs_rooted(self, real_repo_deep):
        # Each family names its worker, key and codec only inside its
        # SweepKind(...) record; the record is a worker sink, so they
        # stay keyed-zone roots (and TL007-TL012 keep covering them).
        result = real_repo_deep
        for name in (
            "repro.simulation.sweep._run_workload_task",
            "repro.simulation.sweep.workload_task_key",
            "repro.simulation.sweep.workload_result_to_payload",
            "repro.simulation.sweep.workload_result_from_payload",
            "repro.fleet.sweep._run_rack_task",
            "repro.fleet.sweep.fleet_task_key",
            "repro.fleet.sweep.rack_result_to_payload",
            "repro.fleet.sweep.rack_result_from_payload",
        ):
            assert name in result.roots, name

    def test_roadmap_kind_is_a_keyed_zone_root(self, real_repo_deep):
        # The Figure 2 roadmap runs through its SweepKind like every other
        # family, so its worker and derived key/codec are roots too.
        result = real_repo_deep
        for name in (
            "repro.simulation.sweep._run_roadmap_task",
            "repro.simulation.sweep.roadmap_task_key",
            "repro.simulation.sweep.roadmap_points_to_payload",
            "repro.simulation.sweep.roadmap_points_from_payload",
        ):
            assert name in result.roots, name
        assert "repro.store.canonical.record_payload" in result.keyed_zone

    def test_mutation_time_time_in_rack_worker_is_caught(self, tmp_path):
        dest = _copy_repo_tree(tmp_path)
        fleet = dest / "src/repro/fleet/sweep.py"
        source = fleet.read_text(encoding="utf-8")
        needle = "def _run_rack_task("
        assert needle in source
        source = source.replace(needle, "import time\n\n\n" + needle, 1)
        marker = source.index('"""', source.index(needle))
        end = source.index('"""', marker + 3) + 3
        source = source[:end] + "\n    _stamp = time.time()" + source[end:]
        fleet.write_text(source, encoding="utf-8")
        result = run_deep(DeepConfig(project_root=dest, cache_dir=None))
        tl007 = [f for f in result.findings if f.rule_id == "TL007"]
        assert any(
            "time.time" in f.message and f.path.endswith("fleet/sweep.py")
            for f in tl007
        ), "injected time.time() in the rack worker was not caught"

    def test_mutation_unsorted_listdir_in_keyed_zone_is_caught(self, tmp_path):
        dest = _copy_repo_tree(tmp_path)
        sweep = dest / "src/repro/simulation/sweep.py"
        source = sweep.read_text(encoding="utf-8")
        needle = "def results_document("
        assert needle in source
        marker = source.index('"""', source.index(needle))
        end = source.index('"""', marker + 3) + 3
        source = source[:end] + (
            "\n    import os\n    _names = os.listdir('.')"
        ) + source[end:]
        sweep.write_text(source, encoding="utf-8")
        result = run_deep(DeepConfig(project_root=dest, cache_dir=None))
        tl009 = [f for f in result.findings if f.rule_id == "TL009"]
        assert tl009, "injected unsorted os.listdir was not caught"

    def test_mutation_keyed_edit_without_bump_is_caught(self, tmp_path):
        dest = _copy_repo_tree(tmp_path)
        canonical = dest / "src/repro/store/canonical.py"
        source = canonical.read_text(encoding="utf-8")
        canonical.write_text(
            source + "\n\nEXTRA_CONSTANT = 7\n", encoding="utf-8"
        )
        result = run_deep(DeepConfig(project_root=dest, cache_dir=None))
        tl013 = [f for f in result.findings if f.rule_id == "TL013"]
        assert tl013, "keyed-zone edit without version bump was not caught"
        assert any("CODE_SCHEMA_VERSION" in f.message for f in tl013)
