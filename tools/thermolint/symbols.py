"""Cross-file symbol extraction for the deep (project-wide) analysis.

The deep pass never re-walks an AST twice: each source file is distilled
once into a :class:`ModuleSummary` — its functions, their call sites, and
every *candidate* determinism hazard (nondeterministic calls, set
iteration, unsorted directory listings, float accumulation over unordered
collections, mutable-global reads).  Summaries are plain JSON-shaped data,
which is what makes the incremental cache sound: a summary is a pure
function of the file's bytes, so it can be keyed by content digest and
reused across runs (see :mod:`thermolint.cache`).

The downstream stages — :mod:`thermolint.callgraph` (edge resolution,
keyed-zone reachability) and :mod:`thermolint.taint` (the TL007–TL012
rules) — consume only summaries, never ASTs.
"""

from __future__ import annotations

import ast
import hashlib
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple

#: Bump whenever summary extraction changes shape or semantics; stale
#: cache entries (written by another analyzer version) are ignored.
ANALYZER_VERSION = "thermolint-deep/1"

#: Call-site argument flags (bit names kept symbolic for JSON clarity).
ARG_LAMBDA = "lambda"
ARG_NESTED_FUNC = "nested_func"


def content_digest(path_label: str, source: str) -> str:
    """Cache key of one source file: path + content + analyzer version.

    The path participates so a file moved verbatim re-extracts (summaries
    embed path-derived qualnames); the analyzer version participates so an
    engine upgrade invalidates every entry at once.
    """
    h = hashlib.blake2b(digest_size=16)
    h.update(ANALYZER_VERSION.encode("utf-8"))
    h.update(b"\x00")
    h.update(path_label.encode("utf-8"))
    h.update(b"\x00")
    h.update(source.encode("utf-8"))
    return h.hexdigest()


def file_digest(source: str) -> str:
    """Content-only digest used by the keyed-zone schema-drift manifest."""
    return hashlib.blake2b(source.encode("utf-8"), digest_size=16).hexdigest()


@dataclass(frozen=True)
class CallSite:
    """One call expression inside a function body.

    ``dotted`` is the alias-resolved dotted target when the base of the
    call is a plain name (``np.random.random`` -> ``numpy.random.random``);
    ``attr`` is the final attribute/name, kept even when the base is a
    dynamic expression (``spec.generate(...)`` -> attr ``generate``,
    dotted ``None``) so the call graph can fall back to name matching.
    ``seeded`` is True when the call carries any argument (the TL004/TL007
    convention: RNG constructors are safe exactly when given a seed).
    ``arg_flags`` records lambda / nested-function arguments for TL011;
    ``func_args`` records plain-name arguments that resolve to local
    functions (worker functions handed to ``SweepKind``).
    ``wrapped_in_sorted`` is True when the call is directly the argument
    of a ``sorted(...)`` call (the TL009 escape hatch).
    """

    dotted: Optional[str]
    attr: str
    line: int
    col: int
    seeded: bool = False
    arg_flags: Tuple[str, ...] = ()
    func_args: Tuple[str, ...] = ()
    wrapped_in_sorted: bool = False

    def as_dict(self) -> Dict[str, Any]:
        return {
            "dotted": self.dotted,
            "attr": self.attr,
            "line": self.line,
            "col": self.col,
            "seeded": self.seeded,
            "arg_flags": list(self.arg_flags),
            "func_args": list(self.func_args),
            "sorted": self.wrapped_in_sorted,
        }

    @staticmethod
    def from_dict(data: Dict[str, Any]) -> "CallSite":
        return CallSite(
            dotted=data["dotted"],
            attr=data["attr"],
            line=data["line"],
            col=data["col"],
            seeded=data["seeded"],
            arg_flags=tuple(data["arg_flags"]),
            func_args=tuple(data["func_args"]),
            wrapped_in_sorted=data["sorted"],
        )


@dataclass(frozen=True)
class Site:
    """A plain (line, col, detail) hazard location inside a function."""

    line: int
    col: int
    detail: str = ""

    def as_dict(self) -> Dict[str, Any]:
        return {"line": self.line, "col": self.col, "detail": self.detail}

    @staticmethod
    def from_dict(data: Dict[str, Any]) -> "Site":
        return Site(line=data["line"], col=data["col"], detail=data["detail"])


@dataclass
class FunctionSummary:
    """Everything the deep rules need to know about one function."""

    qualname: str  #: fully qualified, e.g. ``repro.store.store.ResultStore.put``
    name: str  #: bare name
    line: int
    end_line: int
    col: int
    is_method: bool
    calls: List[CallSite] = field(default_factory=list)
    #: module-level names read (Name loads that are neither locals nor
    #: imports), candidates for the TL012 mutable-global rule.
    global_reads: List[Site] = field(default_factory=list)
    #: iteration over set-typed expressions (TL008).
    set_iterations: List[Site] = field(default_factory=list)
    #: ``sum``/``math.fsum`` over set-typed expressions (TL010).
    unordered_accumulations: List[Site] = field(default_factory=list)

    def as_dict(self) -> Dict[str, Any]:
        return {
            "qualname": self.qualname,
            "name": self.name,
            "line": self.line,
            "end_line": self.end_line,
            "col": self.col,
            "is_method": self.is_method,
            "calls": [c.as_dict() for c in self.calls],
            "global_reads": [s.as_dict() for s in self.global_reads],
            "set_iterations": [s.as_dict() for s in self.set_iterations],
            "unordered_accumulations": [
                s.as_dict() for s in self.unordered_accumulations
            ],
        }

    @staticmethod
    def from_dict(data: Dict[str, Any]) -> "FunctionSummary":
        return FunctionSummary(
            qualname=data["qualname"],
            name=data["name"],
            line=data["line"],
            end_line=data["end_line"],
            col=data["col"],
            is_method=data["is_method"],
            calls=[CallSite.from_dict(c) for c in data["calls"]],
            global_reads=[Site.from_dict(s) for s in data["global_reads"]],
            set_iterations=[Site.from_dict(s) for s in data["set_iterations"]],
            unordered_accumulations=[
                Site.from_dict(s) for s in data["unordered_accumulations"]
            ],
        )


@dataclass
class ModuleSummary:
    """The distilled facts of one source file."""

    module: str  #: dotted module name, e.g. ``repro.simulation.sweep``
    path: str  #: path as given to the engine (repo-relative in practice)
    digest: str  #: content-only digest (schema-drift manifest currency)
    functions: List[FunctionSummary] = field(default_factory=list)
    #: class name -> method bare names (for call-graph name matching).
    classes: Dict[str, List[str]] = field(default_factory=dict)
    #: module-level names bound to mutable containers (list/dict/set/...).
    module_mutables: List[str] = field(default_factory=list)
    #: module-level names that are *mutated* anywhere in the file
    #: (augmented assignment, subscript store, or a mutating method call).
    mutated_globals: List[str] = field(default_factory=list)

    def function(self, qualname: str) -> Optional[FunctionSummary]:
        for fn in self.functions:
            if fn.qualname == qualname:
                return fn
        return None

    def context_at(self, line: int) -> str:
        """Qualname of the innermost function containing ``line`` ('' if none)."""
        best = ""
        best_span = None
        for fn in self.functions:
            if fn.line <= line <= fn.end_line:
                span = fn.end_line - fn.line
                if best_span is None or span < best_span:
                    best, best_span = fn.qualname, span
        return best

    def as_dict(self) -> Dict[str, Any]:
        return {
            "module": self.module,
            "path": self.path,
            "digest": self.digest,
            "functions": [f.as_dict() for f in self.functions],
            "classes": {k: list(v) for k, v in self.classes.items()},
            "module_mutables": list(self.module_mutables),
            "mutated_globals": list(self.mutated_globals),
        }

    @staticmethod
    def from_dict(data: Dict[str, Any]) -> "ModuleSummary":
        return ModuleSummary(
            module=data["module"],
            path=data["path"],
            digest=data["digest"],
            functions=[FunctionSummary.from_dict(f) for f in data["functions"]],
            classes={k: list(v) for k, v in data["classes"].items()},
            module_mutables=list(data["module_mutables"]),
            mutated_globals=list(data["mutated_globals"]),
        )


# ---------------------------------------------------------------------------
# Extraction
# ---------------------------------------------------------------------------

_MUTABLE_LITERALS = (ast.List, ast.Dict, ast.Set, ast.ListComp, ast.DictComp, ast.SetComp)
_MUTABLE_CALLS = {"list", "dict", "set", "bytearray", "defaultdict", "deque", "Counter", "OrderedDict"}
_MUTATING_METHODS = {
    "append", "extend", "insert", "remove", "pop", "popleft", "popitem",
    "clear", "update", "setdefault", "add", "discard", "sort", "reverse",
}
#: Directory-listing callables whose result order is filesystem-dependent.
LISTING_ATTRS = {"listdir", "scandir", "iterdir", "glob", "iglob", "rglob"}


def _dotted_from(node: ast.expr, aliases: Dict[str, str]) -> Optional[str]:
    """Alias-resolved dotted name of an attribute chain rooted at a Name."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    parts.append(aliases.get(node.id, node.id))
    return ".".join(reversed(parts))


def _collect_aliases(tree: ast.Module) -> Dict[str, str]:
    """local name -> dotted target, over *every* import in the file.

    Function-local imports are folded into one module-wide map; genuinely
    conflicting aliases across scopes are rare enough that last-wins is an
    acceptable approximation for a linter.
    """
    aliases: Dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                aliases[alias.asname or alias.name.split(".")[0]] = alias.name
        elif isinstance(node, ast.ImportFrom) and node.module and node.level == 0:
            for alias in node.names:
                if alias.name != "*":
                    aliases[alias.asname or alias.name] = f"{node.module}.{alias.name}"
    return aliases


class _SetTracker:
    """Best-effort local type tracking: which names are bound to sets."""

    def __init__(self) -> None:
        self.set_names: set = set()

    def is_set_expr(self, node: ast.expr) -> bool:
        if isinstance(node, (ast.Set, ast.SetComp)):
            return True
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
            if node.func.id in {"set", "frozenset"}:
                return True
        if isinstance(node, ast.Name) and node.id in self.set_names:
            return True
        if isinstance(node, ast.BinOp) and isinstance(
            node.op, (ast.BitOr, ast.BitAnd, ast.Sub, ast.BitXor)
        ):
            # set algebra (a | b, a - b) preserves set-ness when either
            # side is known to be a set.
            return self.is_set_expr(node.left) or self.is_set_expr(node.right)
        return False

    def note_assign(self, target: ast.expr, value: ast.expr) -> None:
        if isinstance(target, ast.Name):
            if self.is_set_expr(value):
                self.set_names.add(target.id)
            else:
                self.set_names.discard(target.id)


def _local_names(fn: ast.AST) -> set:
    """Names bound inside a function (params, assignments, loops, withs)."""
    bound: set = set()
    assert isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
    args = fn.args
    for a in (
        list(args.posonlyargs) + list(args.args) + list(args.kwonlyargs)
    ):
        bound.add(a.arg)
    if args.vararg:
        bound.add(args.vararg.arg)
    if args.kwarg:
        bound.add(args.kwarg.arg)
    for node in ast.walk(fn):
        if isinstance(node, ast.Name) and isinstance(node.ctx, (ast.Store, ast.Del)):
            bound.add(node.id)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            if node is not fn:
                bound.add(node.name)
        elif isinstance(node, ast.ExceptHandler) and node.name:
            bound.add(node.name)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                bound.add((alias.asname or alias.name).split(".")[0])
    return bound


def _iter_functions(
    tree: ast.Module, module_name: str
) -> Iterator[Tuple[ast.AST, str, bool, Optional[str]]]:
    """Yield (node, qualname, is_method, owning class) for every def.

    Nested functions get ``outer.<locals>.inner``-free simple dotted
    qualnames (``outer.inner``) — unambiguous enough for reporting, and
    nested defs are not call-graph targets anyway.
    """

    def walk(body: Sequence[ast.stmt], prefix: str, cls: Optional[str]) -> Iterator:
        for node in body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                qual = f"{prefix}.{node.name}"
                yield node, qual, cls is not None, cls
                yield from walk(node.body, qual, None)
            elif isinstance(node, ast.ClassDef):
                yield from walk(node.body, f"{prefix}.{node.name}", node.name)

    yield from walk(tree.body, module_name, None)


def extract_module(path: str, module_name: str, source: str) -> ModuleSummary:
    """Distill one parsed source file into a :class:`ModuleSummary`.

    Raises ``SyntaxError`` on unparsable input — the caller (the deep
    runner) converts that into a TL000 finding exactly like the shallow
    engine does.
    """
    tree = ast.parse(source)
    aliases = _collect_aliases(tree)
    summary = ModuleSummary(
        module=module_name, path=path, digest=file_digest(source)
    )

    # -- module-level state ------------------------------------------------
    module_assigned: Dict[str, bool] = {}  # name -> bound to a mutable?
    for node in tree.body:
        targets: List[ast.expr] = []
        value: Optional[ast.expr] = None
        if isinstance(node, ast.Assign):
            targets, value = node.targets, node.value
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            targets, value = [node.target], node.value
        for target in targets:
            if not isinstance(target, ast.Name):
                continue
            mutable = isinstance(value, _MUTABLE_LITERALS) or (
                isinstance(value, ast.Call)
                and isinstance(value.func, ast.Name)
                and value.func.id in _MUTABLE_CALLS
            )
            # A later immutable rebind clears the flag; last wins.
            module_assigned[target.id] = mutable
    summary.module_mutables = sorted(
        name for name, mutable in module_assigned.items() if mutable
    )

    # -- mutations of module-level names (anywhere in the file) -----------
    mutated: set = set()
    mutable_set = set(summary.module_mutables)
    for node in ast.walk(tree):
        if isinstance(node, ast.AugAssign) and isinstance(node.target, ast.Name):
            if node.target.id in mutable_set:
                mutated.add(node.target.id)
        elif isinstance(node, (ast.Assign, ast.Delete)):
            targets = node.targets
            for target in targets:
                if isinstance(target, ast.Subscript) and isinstance(
                    target.value, ast.Name
                ):
                    if target.value.id in mutable_set:
                        mutated.add(target.value.id)
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            if (
                node.func.attr in _MUTATING_METHODS
                and isinstance(node.func.value, ast.Name)
                and node.func.value.id in mutable_set
            ):
                mutated.add(node.func.value.id)
    summary.mutated_globals = sorted(mutated)

    # -- classes -----------------------------------------------------------
    for node in tree.body:
        if isinstance(node, ast.ClassDef):
            methods = [
                item.name
                for item in node.body
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
            ]
            summary.classes[node.name] = methods

    # -- functions ---------------------------------------------------------
    #: (line, col) of calls that sit directly inside sorted(...).
    sorted_wrapped: set = set()
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == "sorted"
            and node.args
        ):
            inner = node.args[0]
            if isinstance(inner, ast.Call):
                sorted_wrapped.add((inner.lineno, inner.col_offset))

    for fn_node, qualname, is_method, cls in _iter_functions(tree, module_name):
        assert isinstance(fn_node, (ast.FunctionDef, ast.AsyncFunctionDef))
        fs = FunctionSummary(
            qualname=qualname,
            name=fn_node.name,
            line=fn_node.lineno,
            end_line=getattr(fn_node, "end_lineno", fn_node.lineno) or fn_node.lineno,
            col=fn_node.col_offset,
            is_method=is_method,
        )
        locals_ = _local_names(fn_node)
        tracker = _SetTracker()
        nested_defs = {
            n.name
            for n in ast.walk(fn_node)
            if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef)) and n is not fn_node
        }

        own_class = cls
        for node in ast.walk(fn_node):
            if isinstance(node, ast.Assign):
                for target in node.targets:
                    tracker.note_assign(target, node.value)
            elif isinstance(node, ast.Call):
                dotted = _dotted_from(node.func, aliases)
                attr = (
                    node.func.attr
                    if isinstance(node.func, ast.Attribute)
                    else (node.func.id if isinstance(node.func, ast.Name) else "")
                )
                if not attr:
                    continue
                # self.method() -> resolve against the owning class when
                # that class defines the method.
                if (
                    dotted is not None
                    and dotted.startswith("self.")
                    and own_class is not None
                ):
                    dotted = f"{module_name}.{own_class}.{dotted[len('self.'):]}"
                arg_flags: List[str] = []
                func_args: List[str] = []
                # Keyword args carry their name in the flag ("lambda@on_result")
                # so TL011 can exempt parent-side callbacks of project sinks.
                labeled = [(arg, "") for arg in node.args] + [
                    (kw.value, kw.arg or "**") for kw in node.keywords
                ]
                for arg, kwarg in labeled:
                    suffix = f"@{kwarg}" if kwarg else ""
                    if isinstance(arg, ast.Lambda):
                        arg_flags.append(ARG_LAMBDA + suffix)
                    elif isinstance(arg, ast.Name):
                        if arg.id in nested_defs:
                            arg_flags.append(ARG_NESTED_FUNC + suffix)
                        func_args.append(aliases.get(arg.id, arg.id))
                    elif isinstance(arg, ast.Attribute):
                        arg_dotted = _dotted_from(arg, aliases)
                        if arg_dotted is not None:
                            func_args.append(arg_dotted)
                fs.calls.append(
                    CallSite(
                        dotted=dotted,
                        attr=attr,
                        line=node.lineno,
                        col=node.col_offset,
                        seeded=bool(node.args or node.keywords),
                        arg_flags=tuple(sorted(set(arg_flags))),
                        func_args=tuple(func_args),
                        wrapped_in_sorted=(node.lineno, node.col_offset)
                        in sorted_wrapped,
                    )
                )
                # sum(...) / math.fsum(...) over an unordered collection.
                if attr in {"sum", "fsum"} and node.args:
                    if tracker.is_set_expr(node.args[0]):
                        fs.unordered_accumulations.append(
                            Site(
                                line=node.lineno,
                                col=node.col_offset,
                                detail=f"{attr}() over a set",
                            )
                        )
            elif isinstance(node, (ast.For, ast.AsyncFor)):
                if tracker.is_set_expr(node.iter):
                    fs.set_iterations.append(
                        Site(
                            line=node.lineno,
                            col=node.col_offset,
                            detail="for-loop over a set",
                        )
                    )
            elif isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)):
                for gen in node.generators:
                    if tracker.is_set_expr(gen.iter):
                        fs.set_iterations.append(
                            Site(
                                line=node.lineno,
                                col=node.col_offset,
                                detail="comprehension over a set",
                            )
                        )
            elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                if (
                    node.id not in locals_
                    and node.id not in aliases
                    and node.id in module_assigned
                ):
                    fs.global_reads.append(
                        Site(line=node.lineno, col=node.col_offset, detail=node.id)
                    )
        summary.functions.append(fs)
    return summary


# ---------------------------------------------------------------------------
# Project layout
# ---------------------------------------------------------------------------


def module_name_for(path: Path, package_root: Path) -> Optional[str]:
    """Dotted module name of ``path`` under ``package_root`` (None if outside).

    ``src/repro/simulation/sweep.py`` under package root ``src`` becomes
    ``repro.simulation.sweep``; ``__init__.py`` maps to its package.
    """
    try:
        rel = path.resolve().relative_to(package_root.resolve())
    except ValueError:
        return None
    parts = list(rel.parts)
    if not parts or not parts[-1].endswith(".py"):
        return None
    parts[-1] = parts[-1][: -len(".py")]
    if parts[-1] == "__init__":
        parts = parts[:-1]
    if not parts:
        return None
    return ".".join(parts)


def iter_project_files(package_root: Path) -> Iterator[Path]:
    """Every ``.py`` file under ``package_root``, sorted, caches skipped."""
    for candidate in sorted(package_root.rglob("*.py")):
        if any(
            part in {"__pycache__", ".git", ".thermolint_cache"}
            for part in candidate.parts
        ):
            continue
        yield candidate
