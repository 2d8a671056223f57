"""Project call graph over :class:`~thermolint.symbols.ModuleSummary` facts.

Edges are resolved three ways, in decreasing order of confidence:

1. **Direct** — the alias-resolved dotted target names a project function
   (``repro.scaling.roadmap.thermal_roadmap``) or a method through an
   explicit receiver (``self.gc`` inside ``ResultStore`` ->
   ``repro.store.store.ResultStore.gc``).
2. **Constructor** — the dotted target names a project class; the edge
   goes to its ``__init__`` when one exists.
3. **Name matching (CHA-lite)** — a method call through a dynamic
   receiver (``spec.generate(...)``) links to every project method of
   that bare name, provided the name is *distinctive*: defined by at most
   :data:`CHA_MAX_OWNERS` classes and not in the generic-name stoplist.
   This over-approximates on purpose — for a determinism gate, a false
   edge costs a reviewed suppression, a missed edge costs a silent
   nondeterministic key.

Reachability from the keyed-zone roots is a plain BFS that records parent
pointers, so every taint finding can print the call chain that drags the
offending function into the zone.
"""

from __future__ import annotations

import fnmatch
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from thermolint.symbols import CallSite, FunctionSummary, ModuleSummary

#: A dynamic method name links only when at most this many classes define it.
CHA_MAX_OWNERS = 6

#: Ubiquitous method names that would wire the graph into a hairball —
#: container/protocol vocabulary carried by dozens of unrelated types.
CHA_STOPLIST = frozenset(
    {
        "get", "put", "add", "pop", "append", "extend", "update", "items",
        "keys", "values", "copy", "clear", "sort", "reverse", "join",
        "split", "strip", "read", "write", "open", "close", "flush",
        "encode", "decode", "format", "count", "index", "insert",
        "remove", "discard", "setdefault", "popleft", "popitem",
        "as_dict", "from_dict", "render",
    }
)


@dataclass
class Reach:
    """Why a function is in the keyed zone: its BFS parent and root."""

    parent: Optional[str]  #: caller qualname (None for roots)
    root: str  #: the root whose closure pulled this function in


@dataclass
class CallGraph:
    """Resolved project call graph plus lookup indexes."""

    #: qualname -> (module summary, function summary)
    functions: Dict[str, Tuple[ModuleSummary, FunctionSummary]] = field(
        default_factory=dict
    )
    #: caller qualname -> sorted callee qualnames
    edges: Dict[str, List[str]] = field(default_factory=dict)
    #: bare method name -> owning qualnames (for CHA diagnostics/tests)
    by_name: Dict[str, List[str]] = field(default_factory=dict)

    def summaries(self) -> List[ModuleSummary]:
        seen: Dict[str, ModuleSummary] = {}
        for mod, _fn in self.functions.values():
            seen[mod.module] = mod
        return [seen[name] for name in sorted(seen)]

    # -- construction --------------------------------------------------------

    @staticmethod
    def build(summaries: Sequence[ModuleSummary]) -> "CallGraph":
        graph = CallGraph()
        class_methods: Dict[str, List[str]] = {}  # bare name -> qualnames
        class_inits: Dict[str, str] = {}  # module.Class -> __init__ qualname
        for mod in summaries:
            for fn in mod.functions:
                graph.functions[fn.qualname] = (mod, fn)
                if fn.is_method:
                    class_methods.setdefault(fn.name, []).append(fn.qualname)
                    if fn.name == "__init__":
                        class_inits[fn.qualname.rsplit(".", 1)[0]] = fn.qualname
        graph.by_name = {
            name: sorted(quals) for name, quals in class_methods.items()
        }

        for mod in summaries:
            for fn in mod.functions:
                callees: Set[str] = set()
                for call in fn.calls:
                    callees.update(
                        _resolve_call(call, mod, graph, class_inits)
                    )
                graph.edges[fn.qualname] = sorted(callees)
        return graph

    # -- reachability --------------------------------------------------------

    def reachable_from(self, roots: Iterable[str]) -> Dict[str, Reach]:
        """BFS closure of ``roots`` through resolved edges.

        Returns {qualname: Reach} for every function in the closure,
        including the roots themselves.  Deterministic: the frontier is
        processed in sorted order, so parent attribution is stable.
        """
        zone: Dict[str, Reach] = {}
        frontier: List[str] = []
        for root in sorted(set(roots)):
            if root in self.functions and root not in zone:
                zone[root] = Reach(parent=None, root=root)
                frontier.append(root)
        while frontier:
            current = frontier.pop(0)
            for callee in self.edges.get(current, []):
                if callee not in zone:
                    zone[callee] = Reach(parent=current, root=zone[current].root)
                    frontier.append(callee)
        return zone

    def chain(self, zone: Dict[str, Reach], qualname: str) -> List[str]:
        """Root-to-function call chain (for finding messages)."""
        chain: List[str] = []
        cursor: Optional[str] = qualname
        while cursor is not None:
            chain.append(cursor)
            reach = zone.get(cursor)
            if reach is None:
                break
            cursor = reach.parent
        return list(reversed(chain))


def _resolve_call(
    call: CallSite,
    mod: ModuleSummary,
    graph: CallGraph,
    class_inits: Dict[str, str],
) -> List[str]:
    """All plausible project-internal targets of one call site."""
    targets: Set[str] = set()
    dotted = call.dotted
    if dotted is not None:
        # 1. Exact function/method qualname.
        if dotted in graph.functions:
            targets.add(dotted)
        # Bare local name: a module-level function of this module.
        local = f"{mod.module}.{dotted}"
        if "." not in dotted and local in graph.functions:
            targets.add(local)
        # 2. Class constructor.
        init = class_inits.get(dotted) or class_inits.get(local)
        if init is not None:
            targets.add(init)
        # A class without __init__ still "calls into" nothing extractable.
        if targets:
            return sorted(targets)
    # 3. CHA-lite: dynamic receiver, match by distinctive method name.
    attr = call.attr
    if attr.startswith("__") or attr in CHA_STOPLIST:
        return []
    owners = graph.by_name.get(attr, [])
    if owners and len({q.rsplit(".", 1)[0] for q in owners}) <= CHA_MAX_OWNERS:
        targets.update(owners)
    return sorted(targets)


# ---------------------------------------------------------------------------
# Root discovery
# ---------------------------------------------------------------------------


def match_patterns(qualname: str, patterns: Sequence[str]) -> bool:
    """fnmatch ``qualname`` against dotted glob patterns."""
    return any(fnmatch.fnmatch(qualname, pat) for pat in patterns)


def discover_roots(
    graph: CallGraph,
    root_patterns: Sequence[str],
    worker_sink_patterns: Sequence[str],
) -> List[str]:
    """The keyed-zone roots: explicit patterns + worker functions.

    A *worker function* is any project function passed by name to a sweep
    executor front-end (the ``worker_sink_patterns``; in this repository
    the ``SweepKind`` record that ``run_kind`` executes); those functions
    execute inside pool processes and produce the bytes the store keys,
    so they are roots whether or not a pattern names them.
    """
    roots: Set[str] = set()
    for qualname in graph.functions:
        if match_patterns(qualname, root_patterns):
            roots.add(qualname)
    for mod_fn in graph.functions.values():
        mod, fn = mod_fn
        for call in fn.calls:
            dotted = call.dotted or ""
            candidates = [dotted, f"{mod.module}.{dotted}"] if dotted else []
            if not any(
                match_patterns(c, worker_sink_patterns) for c in candidates
            ):
                continue
            for arg in call.func_args:
                for candidate in (arg, f"{mod.module}.{arg}"):
                    if candidate in graph.functions:
                        roots.add(candidate)
    return sorted(roots)
