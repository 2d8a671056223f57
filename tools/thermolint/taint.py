"""Flow-aware determinism rules (TL007–TL013) over the project call graph.

The byte-identity contract (PR 5's differential suite, PR 6's engine
equivalence) holds only if nothing nondeterministic can flow into the
**keyed zone** — the functions whose execution produces canonical store
keys, result-envelope bytes, or worker-computed results:

* everything in ``repro.store.canonical`` (key discipline itself);
* ``workload_task_key`` and the result codec / results-document builders
  in ``repro.simulation.sweep``;
* envelope construction and verification in ``repro.store.store``;
* manifest construction (``SweepRunReport.manifest``);
* every worker task function handed to the sweep executors, plus its
  transitive callees (the whole simulator, when replaying a trace).

Rules TL007–TL010 fire on hazard sites *inside* that zone; TL011/TL012
guard the parallel fabric itself; TL013 is the schema-drift gate: editing
a key-affecting module without bumping ``CODE_SCHEMA_VERSION`` silently
reuses stale cached results, so the digests of those files are pinned in
a checked-in manifest.
"""

from __future__ import annotations

import ast
import json
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from thermolint.callgraph import CallGraph, Reach, discover_roots
from thermolint.engine import Finding
from thermolint.symbols import ARG_LAMBDA, ARG_NESTED_FUNC, LISTING_ATTRS, ModuleSummary, file_digest

# ---------------------------------------------------------------------------
# Keyed-zone configuration (the defaults describe this repository; tests
# override them to analyze synthetic packages)
# ---------------------------------------------------------------------------

#: Functions whose execution defines keyed bytes: key derivation, result
#: codecs, envelope and manifest construction.
DEFAULT_ROOT_PATTERNS: Tuple[str, ...] = (
    "repro.store.canonical.*",
    "repro.simulation.sweep.workload_task_key",
    "repro.simulation.sweep.workload_result_to_payload",
    "repro.simulation.sweep.workload_result_from_payload",
    "repro.simulation.sweep.results_document",
    "repro.simulation.sweep.results_json_bytes",
    "repro.store.store.ResultStore.put",
    "repro.store.store.ResultStore.get",
    "repro.store.store.ResultStore._validate",
    "repro.simulation.resilience.SweepRunReport.manifest",
)

#: Executor front-ends: a project function passed to one of these by name
#: runs inside a worker process and is a keyed-zone root.  ``SweepKind``
#: is the sweep-family record :func:`run_kind`, the one sweep runner,
#: executes: its worker, key and codec are named there and nowhere else.
DEFAULT_WORKER_SINKS: Tuple[str, ...] = ("*.SweepKind",)

#: Files whose content defines what a store key *means*.  Editing any of
#: them without bumping CODE_SCHEMA_VERSION risks stale cache hits; their
#: digests are pinned in the keyed-zone manifest (TL013).
DEFAULT_KEY_AFFECTING_FILES: Tuple[str, ...] = (
    "src/repro/store/canonical.py",
    "src/repro/store/store.py",
    "src/repro/simulation/sweep.py",
    "src/repro/faults/models.py",
    "src/repro/fleet/sweep.py",
)

#: Where the current CODE_SCHEMA_VERSION lives (parsed statically).
DEFAULT_VERSION_FILE = "src/repro/store/canonical.py"
VERSION_SYMBOL = "CODE_SCHEMA_VERSION"

#: Schema identifier of the keyed-zone manifest document.
MANIFEST_SCHEMA = "thermolint.keyed_zone/1"

#: Default manifest location, relative to the project root.
DEFAULT_MANIFEST_PATH = "tools/thermolint/keyed_zone_manifest.json"


# ---------------------------------------------------------------------------
# Nondeterminism sources (TL007)
# ---------------------------------------------------------------------------

#: Dotted callables whose return value differs across runs/processes.
NONDET_CALLS = {
    "time.time": "wall-clock time",
    "time.time_ns": "wall-clock time",
    "time.monotonic": "monotonic clock",
    "time.monotonic_ns": "monotonic clock",
    "time.perf_counter": "performance counter",
    "time.perf_counter_ns": "performance counter",
    "time.process_time": "process clock",
    "datetime.datetime.now": "wall-clock datetime",
    "datetime.datetime.utcnow": "wall-clock datetime",
    "datetime.datetime.today": "wall-clock datetime",
    "datetime.date.today": "wall-clock date",
    "os.urandom": "OS entropy",
    "uuid.uuid1": "host/time-derived UUID",
    "uuid.uuid4": "random UUID",
    "os.getenv": "environment variable",
    "secrets.token_bytes": "OS entropy",
    "secrets.token_hex": "OS entropy",
}

#: Dotted prefixes that read the process environment (``os.environ[...]``,
#: ``os.environ.get(...)``).
ENVIRON_PREFIX = "os.environ"

#: Builtins whose value is process-local (CPython salts str/bytes hashing
#: per process unless PYTHONHASHSEED pins it; id() is an address).
NONDET_BUILTINS = {
    "id": "object identity (address, differs per process)",
    "hash": "builtin hash (str/bytes hashing is salted per process)",
}

#: Global-RNG modules: any draw is nondeterministic across workers.
GLOBAL_RNG_PREFIXES = ("random.", "numpy.random.")

#: Constructors that are deterministic exactly when given a seed.
SEEDABLE_CONSTRUCTORS = {
    "random.Random",
    "numpy.random.default_rng",
    "numpy.random.RandomState",
    "numpy.random.Generator",
}


def classify_nondet(dotted: Optional[str], seeded: bool) -> Optional[str]:
    """Human-readable hazard description of a call target, or None."""
    if dotted is None:
        return None
    if dotted in NONDET_CALLS:
        return NONDET_CALLS[dotted]
    if dotted == ENVIRON_PREFIX or dotted.startswith(ENVIRON_PREFIX + "."):
        return "environment variable"
    if dotted in NONDET_BUILTINS:
        return NONDET_BUILTINS[dotted]
    if dotted in SEEDABLE_CONSTRUCTORS:
        return None if seeded else "unseeded RNG constructor"
    for prefix in GLOBAL_RNG_PREFIXES:
        if dotted.startswith(prefix):
            # Seeding the *global* RNG (random.seed) is itself a cross-
            # worker hazard; every other global draw certainly is.
            return "global RNG state"
    return None


# ---------------------------------------------------------------------------
# The deep rule set
# ---------------------------------------------------------------------------

#: id -> one-line summary (feeds --list-rules, reporters and SARIF).
DEEP_RULE_SUMMARIES: Dict[str, str] = {
    "TL007": "nondeterminism source reachable inside the keyed zone",
    "TL008": "set-iteration-order dependence inside the keyed zone",
    "TL009": "unsorted directory listing inside the keyed zone",
    "TL010": "float accumulation over an unordered collection in the keyed zone",
    "TL011": "non-picklable callable (lambda/nested def) handed to an executor",
    "TL012": "mutated module-global read inside worker-reachable code",
    "TL013": "keyed-zone file edited without a CODE_SCHEMA_VERSION bump",
}

DEEP_RULE_IDS: Tuple[str, ...] = tuple(sorted(DEEP_RULE_SUMMARIES))


def _fmt_chain(chain: Sequence[str]) -> str:
    if len(chain) <= 1:
        return chain[0] if chain else ""
    return " -> ".join(chain)


def run_taint_rules(
    graph: CallGraph,
    zone: Dict[str, Reach],
) -> List[Finding]:
    """TL007–TL010: hazard sites inside keyed-zone functions."""
    findings: List[Finding] = []
    for qualname in sorted(zone):
        entry = graph.functions.get(qualname)
        if entry is None:
            continue
        mod, fn = entry
        chain = _fmt_chain(graph.chain(zone, qualname))
        for call in fn.calls:
            hazard = classify_nondet(call.dotted, call.seeded)
            if hazard is not None:
                findings.append(
                    Finding(
                        rule_id="TL007",
                        message=(
                            f"{call.dotted}() injects {hazard} into the keyed "
                            f"zone (keyed via {chain}); derive the value from "
                            "task inputs or move it out of the keyed path"
                        ),
                        path=mod.path,
                        line=call.line,
                        col=call.col,
                    )
                )
            if call.attr in LISTING_ATTRS and not call.wrapped_in_sorted:
                findings.append(
                    Finding(
                        rule_id="TL009",
                        message=(
                            f"{call.attr}() order is filesystem-dependent and "
                            f"this call is keyed via {chain}; wrap it in "
                            "sorted(...)"
                        ),
                        path=mod.path,
                        line=call.line,
                        col=call.col,
                    )
                )
        for site in fn.set_iterations:
            findings.append(
                Finding(
                    rule_id="TL008",
                    message=(
                        f"{site.detail} inside the keyed zone (keyed via "
                        f"{chain}); iterate sorted(...) for a stable order"
                    ),
                    path=mod.path,
                    line=site.line,
                    col=site.col,
                )
            )
        for site in fn.unordered_accumulations:
            findings.append(
                Finding(
                    rule_id="TL010",
                    message=(
                        f"{site.detail} accumulates floats in set order, which "
                        f"is unstable across processes (keyed via {chain}); "
                        "sum over sorted(...) instead"
                    ),
                    path=mod.path,
                    line=site.line,
                    col=site.col,
                )
            )
    return findings


#: Keyword names of project worker-sink parameters whose value is pickled
#: into pool processes (anything else passed by keyword is a parent-side
#: callback and may legitimately be a closure).
_PICKLED_KWARGS = frozenset({"worker", "fn", "func", "task", "initializer"})


def run_fabric_rules(
    graph: CallGraph,
    worker_zone: Dict[str, Reach],
    worker_sinks: Sequence[str] = DEFAULT_WORKER_SINKS,
) -> List[Finding]:
    """TL011/TL012: hazards of the process-pool fabric itself."""
    from thermolint.callgraph import match_patterns

    findings: List[Finding] = []
    # TL011 — lambdas / nested defs submitted to executors don't pickle
    # under the spawn start method (and capture ambient state under fork).
    # For executor.submit/map every argument crosses the process boundary;
    # for the project's SweepKind sink only the worker callable does —
    # keyword callbacks (key=..., encode=...) stay parent-side,
    # except the ones every pool pickles anyway (worker/initializer).
    for qualname in sorted(graph.functions):
        mod, fn = graph.functions[qualname]
        for call in fn.calls:
            dotted = call.dotted or ""
            is_raw_executor = call.attr in {"submit", "map"}
            is_sink = any(
                match_patterns(c, worker_sinks)
                for c in (dotted, f"{mod.module}.{dotted}")
                if c
            )
            if not (is_raw_executor or is_sink) or not call.arg_flags:
                continue
            flags = []
            for flag in call.arg_flags:
                kind, _, kwarg = flag.partition("@")
                if kwarg and not is_raw_executor and kwarg not in _PICKLED_KWARGS:
                    continue
                flags.append(kind)
            if not flags:
                continue
            kinds = []
            if ARG_LAMBDA in flags:
                kinds.append("a lambda")
            if ARG_NESTED_FUNC in flags:
                kinds.append("a nested function")
            findings.append(
                Finding(
                    rule_id="TL011",
                    message=(
                        f"{call.attr}() receives {' and '.join(kinds)}; worker "
                        "callables must be module-level to pickle under any "
                        "start method"
                    ),
                    path=mod.path,
                    line=call.line,
                    col=call.col,
                )
            )
    # TL012 — worker-reachable code reading a module-global that the
    # module also mutates: each pool process sees its own copy, so any
    # order-dependent content diverges silently between serial/parallel.
    mutated_by_module: Dict[str, set] = {}
    for mod in graph.summaries():
        mutated_by_module[mod.module] = set(mod.mutated_globals)
    for qualname in sorted(worker_zone):
        entry = graph.functions.get(qualname)
        if entry is None:
            continue
        mod, fn = entry
        mutated = mutated_by_module.get(mod.module, set())
        chain = _fmt_chain(graph.chain(worker_zone, qualname))
        seen: set = set()
        for site in fn.global_reads:
            name = site.detail
            if name not in mutated or name in seen:
                continue
            seen.add(name)
            findings.append(
                Finding(
                    rule_id="TL012",
                    message=(
                        f"module-global '{name}' is mutated in this module and "
                        f"read inside worker-reachable code ({chain}); "
                        "per-process copies can diverge — pass state through "
                        "the task or make it immutable"
                    ),
                    path=mod.path,
                    line=site.line,
                    col=site.col,
                )
            )
    return findings


# ---------------------------------------------------------------------------
# TL013 — schema drift
# ---------------------------------------------------------------------------


def read_code_schema_version(project_root: Path, version_file: str = DEFAULT_VERSION_FILE) -> Optional[int]:
    """Statically parse ``CODE_SCHEMA_VERSION = <int>`` (no import needed)."""
    path = project_root / version_file
    try:
        tree = ast.parse(path.read_text(encoding="utf-8"))
    except (OSError, SyntaxError):
        return None
    for node in tree.body:
        targets: List[ast.expr] = []
        value: Optional[ast.expr] = None
        if isinstance(node, ast.Assign):
            targets, value = node.targets, node.value
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            targets, value = [node.target], node.value
        for target in targets:
            if (
                isinstance(target, ast.Name)
                and target.id == VERSION_SYMBOL
                and isinstance(value, ast.Constant)
                and isinstance(value.value, int)
            ):
                return value.value
    return None


def build_keyed_manifest(
    project_root: Path,
    key_files: Sequence[str] = DEFAULT_KEY_AFFECTING_FILES,
    version_file: str = DEFAULT_VERSION_FILE,
) -> Dict[str, object]:
    """The manifest document pinning key-affecting file digests."""
    version = read_code_schema_version(project_root, version_file)
    files: Dict[str, str] = {}
    for rel in sorted(key_files):
        path = project_root / rel
        if path.is_file():
            files[rel] = file_digest(path.read_text(encoding="utf-8"))
    return {
        "schema": MANIFEST_SCHEMA,
        "code_schema_version": version,
        "version_file": version_file,
        "files": files,
    }


def write_keyed_manifest(
    project_root: Path,
    manifest_path: str = DEFAULT_MANIFEST_PATH,
    key_files: Sequence[str] = DEFAULT_KEY_AFFECTING_FILES,
    version_file: str = DEFAULT_VERSION_FILE,
) -> Path:
    """Regenerate the checked-in manifest (the --update-keyed-manifest path)."""
    manifest = build_keyed_manifest(project_root, key_files, version_file)
    out = project_root / manifest_path
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    return out


def check_schema_drift(
    project_root: Path,
    manifest_path: str = DEFAULT_MANIFEST_PATH,
    key_files: Sequence[str] = DEFAULT_KEY_AFFECTING_FILES,
    version_file: str = DEFAULT_VERSION_FILE,
) -> List[Finding]:
    """TL013: compare key-affecting files against the pinned manifest.

    Cases, in decreasing severity:

    * a pinned file's digest changed while ``CODE_SCHEMA_VERSION`` did
      not — the drift the rule exists for (stale cache hits);
    * the version *was* bumped but the manifest still records the old
      state — benign, but the manifest must be refreshed so the next
      edit is attributable;
    * a key-affecting file is missing from the manifest (or the manifest
      is absent/unreadable) — the gate has a hole.
    """
    manifest_file = project_root / manifest_path
    current = build_keyed_manifest(project_root, key_files, version_file)
    if not manifest_file.is_file():
        return [
            Finding(
                rule_id="TL013",
                message=(
                    f"keyed-zone manifest {manifest_path} is missing; run "
                    "thermolint --update-keyed-manifest and commit it"
                ),
                path=manifest_path,
                line=1,
                col=0,
            )
        ]
    try:
        pinned = json.loads(manifest_file.read_text(encoding="utf-8"))
    except (OSError, ValueError):
        pinned = None
    if not isinstance(pinned, dict) or pinned.get("schema") != MANIFEST_SCHEMA:
        return [
            Finding(
                rule_id="TL013",
                message=(
                    f"keyed-zone manifest {manifest_path} is unreadable or has "
                    "the wrong schema; regenerate with --update-keyed-manifest"
                ),
                path=manifest_path,
                line=1,
                col=0,
            )
        ]
    findings: List[Finding] = []
    pinned_version = pinned.get("code_schema_version")
    pinned_files = pinned.get("files", {})
    current_files = current["files"]
    assert isinstance(current_files, dict)
    version_bumped = pinned_version != current["code_schema_version"]
    for rel in sorted(set(pinned_files) | set(current_files)):
        pinned_digest = pinned_files.get(rel)
        current_digest = current_files.get(rel)
        if pinned_digest is None:
            findings.append(
                Finding(
                    rule_id="TL013",
                    message=(
                        f"key-affecting file {rel} is not pinned by the keyed-"
                        "zone manifest; refresh it with --update-keyed-manifest"
                    ),
                    path=rel,
                    line=1,
                    col=0,
                )
            )
        elif current_digest is None:
            findings.append(
                Finding(
                    rule_id="TL013",
                    message=(
                        f"pinned keyed-zone file {rel} no longer exists; "
                        "refresh the manifest with --update-keyed-manifest"
                    ),
                    path=rel,
                    line=1,
                    col=0,
                )
            )
        elif pinned_digest != current_digest:
            if version_bumped:
                findings.append(
                    Finding(
                        rule_id="TL013",
                        message=(
                            f"{rel} changed and {VERSION_SYMBOL} was bumped; "
                            "refresh the manifest with --update-keyed-manifest "
                            "to pin the new state"
                        ),
                        path=rel,
                        line=1,
                        col=0,
                    )
                )
            else:
                findings.append(
                    Finding(
                        rule_id="TL013",
                        message=(
                            f"{rel} changed without a {VERSION_SYMBOL} bump: "
                            "cached results keyed under the old semantics "
                            "would be served for the new code — bump it in "
                            f"{version_file} (or, for a provably key-neutral "
                            "edit, refresh the manifest with "
                            "--update-keyed-manifest and say why in review)"
                        ),
                        path=rel,
                        line=1,
                        col=0,
                    )
                )
    return findings


# ---------------------------------------------------------------------------
# Zone assembly (the deep runner's entry points)
# ---------------------------------------------------------------------------


def keyed_zone(
    graph: CallGraph,
    root_patterns: Sequence[str] = DEFAULT_ROOT_PATTERNS,
    worker_sinks: Sequence[str] = DEFAULT_WORKER_SINKS,
) -> Tuple[List[str], Dict[str, Reach]]:
    """(roots, closure) of the keyed zone for this graph."""
    roots = discover_roots(graph, root_patterns, worker_sinks)
    return roots, graph.reachable_from(roots)


def worker_zone(
    graph: CallGraph,
    worker_sinks: Sequence[str] = DEFAULT_WORKER_SINKS,
) -> Dict[str, Reach]:
    """Closure of just the worker-task roots (TL012's scope)."""
    roots = discover_roots(graph, (), worker_sinks)
    return graph.reachable_from(roots)
