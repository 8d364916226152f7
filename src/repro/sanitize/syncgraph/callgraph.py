"""Project-wide static call graph for the hidden-sync analyzer.

The DS2xx rules need more context than one file's AST: whether a
blocking call is *reachable from the event-dispatch layer* is a
property of the whole call graph.  :func:`build_project` indexes every
parsed file once into a :class:`ProjectGraph` — functions indexed by
module-qualified name, call edges with best-effort resolution, and the
set of functions registered as simulator callbacks (the dispatch
roots).

Resolution is deliberately conservative Python static analysis:

* ``self.meth(...)`` resolves inside the enclosing class;
* imported names resolve through absolute *and* package-relative
  imports (``from ..trace import Tracer``);
* simple local aliases are tracked
  (``backend_flush = self.backend.flush_instance``);
* a bare method name that exists on exactly **one** class in the
  project resolves to that method (the unique-name fallback).

Anything else stays unresolved — an unresolved edge can never produce
a finding, so imprecision biases toward silence, not noise.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Tuple

from ..rules import qualified_name

__all__ = [
    "CallSite",
    "FunctionInfo",
    "WriteSite",
    "ProjectGraph",
    "build_project",
    "module_name_for",
]

#: Kernel/threadpool entry points whose function arguments become event
#: callbacks — the roots of the dispatch closure.
CALLBACK_REGISTRARS = frozenset({
    "schedule",
    "schedule_after",
    "schedule_at",
    "call_soon",
    "spawn",
})

#: Keyword arguments that register completion callbacks on jobs/tasks.
CALLBACK_KEYWORDS = frozenset({"on_complete", "on_done", "callback"})

#: ``X.observers.append(fn)`` / ``X.callbacks.append(fn)`` style sinks.
CALLBACK_SINKS = frozenset({"observers", "callbacks"})

#: Gate-acquiring vocabulary for the DS204 ordering analysis.
GATE_ATTRS = frozenset({"acquire", "lock", "pause", "claim", "trigger",
                        "flush_instance"})


def module_name_for(path: Path) -> str:
    """Dotted module name of *path*, walking up while ``__init__.py`` exists."""
    path = Path(path).resolve()
    parts = [path.stem] if path.stem != "__init__" else []
    parent = path.parent
    while (parent / "__init__.py").exists():
        parts.append(parent.name)
        parent = parent.parent
    return ".".join(reversed(parts)) or path.stem


@dataclass(frozen=True)
class CallSite:
    """One call expression, attributed to its enclosing function."""

    caller: str
    #: Resolved project qualname of the callee, or ``None``.
    target: Optional[str]
    #: Bare called name (``flush_instance`` for ``x.y.flush_instance()``).
    attr: str
    #: Dotted receiver text (``self.backend``), ``None`` for bare calls.
    base: Optional[str]
    path: str
    lineno: int
    col: int
    #: True when the receiver is a string/bytes literal (``", ".join``).
    literal_base: bool = False


@dataclass(frozen=True)
class WriteSite:
    """One attribute write on an object other than ``self``."""

    attr: str
    #: Writer identity: enclosing class name, else the module name.
    writer: str
    base: str
    path: str
    lineno: int
    col: int
    #: True when the write happens inside a class body (a component),
    #: False for module-level builder/helper functions.
    writer_is_class: bool = False


#: ``(gate1, gate2) -> [(function, second-acquisition site)]``.
GateOrders = Dict[Tuple[str, str], List[Tuple[str, CallSite]]]


@dataclass
class FunctionInfo:
    """One function, method, nested function or lambda in the project."""

    qualname: str
    module: str
    name: str
    cls: Optional[str]
    path: str
    lineno: int
    #: Qualname of the lexically enclosing function, if nested.
    parent: Optional[str] = None


@dataclass
class ProjectGraph:
    """The indexed project: functions, call edges, dispatch roots."""

    functions: Dict[str, FunctionInfo] = field(default_factory=dict)
    #: bare name -> sorted qualnames defining a function of that name.
    by_name: Dict[str, List[str]] = field(default_factory=dict)
    #: caller qualname -> callsites, in source order.
    calls: Dict[str, List[CallSite]] = field(default_factory=dict)
    #: Functions registered as simulator/job callbacks, with evidence
    #: ``qualname -> (path, lineno, registrar)`` of one registration.
    callback_roots: Dict[str, Tuple[str, int, str]] = field(default_factory=dict)
    #: attr name -> writes on non-``self`` receivers, project-wide.
    foreign_writes: Dict[str, List[WriteSite]] = field(default_factory=dict)
    #: Dispatch closure: callback roots plus everything they reach.
    _reachable: Optional[Dict[str, Optional[str]]] = None
    #: path -> callsites located in that file, see :meth:`calls_in`.
    _calls_by_path: Optional[Dict[str, List[CallSite]]] = None
    #: See :meth:`gate_orders`.
    _gate_orders: Optional[GateOrders] = None

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------

    def dispatch_reachable(self) -> Dict[str, Optional[str]]:
        """``qualname -> caller-on-the-chain`` for the dispatch closure.

        Roots map to ``None``; every other entry maps to the function
        through which BFS first reached it, so a full root→site chain
        can be reconstructed with :meth:`dispatch_chain`.
        """
        if self._reachable is not None:
            return self._reachable
        parent: Dict[str, Optional[str]] = {
            root: None for root in self.callback_roots
        }
        frontier = list(self.callback_roots)
        while frontier:
            current = frontier.pop()
            for site in self.calls.get(current, ()):
                if site.target is None or site.target in parent:
                    continue
                if site.target not in self.functions:
                    continue
                parent[site.target] = current
                frontier.append(site.target)
        self._reachable = parent
        return parent

    def dispatch_chain(self, qualname: str) -> List[str]:
        """Root→…→*qualname* chain inside the dispatch closure."""
        parent = self.dispatch_reachable()
        chain: List[str] = []
        cursor: Optional[str] = qualname
        while cursor is not None and cursor not in chain:
            chain.append(cursor)
            cursor = parent.get(cursor)
        return list(reversed(chain))

    def calls_in(self, path: str) -> List[CallSite]:
        """Callsites located in *path*: callers in sorted order, each
        caller's sites in source order.  The table is built once, for
        every file, on first use."""
        if self._calls_by_path is None:
            by_path: Dict[str, List[CallSite]] = {}
            for caller in sorted(self.calls):
                for site in self.calls[caller]:
                    by_path.setdefault(site.path, []).append(site)
            self._calls_by_path = by_path
        return self._calls_by_path.get(path, [])

    def gate_orders(self) -> GateOrders:
        """``(gate1, gate2) -> [(function, second-acquisition site)]``:
        every function that acquires *gate1* before *gate2*."""
        if self._gate_orders is not None:
            return self._gate_orders
        orders: GateOrders = {}
        for caller in sorted(self.calls):
            gates: List[Tuple[str, CallSite]] = []
            seen: set = set()
            for site in self.calls[caller]:
                if site.literal_base or site.attr not in GATE_ATTRS:
                    continue
                gate = _gate_id(site)
                if gate in seen:
                    continue
                seen.add(gate)
                gates.append((gate, site))
            for i, (first, _) in enumerate(gates):
                for second, second_site in gates[i + 1:]:
                    orders.setdefault((first, second), []).append(
                        (caller, second_site)
                    )
        self._gate_orders = orders
        return orders

    def unique_method(self, name: str) -> Optional[str]:
        """The single project function called *name*, if unambiguous."""
        owners = self.by_name.get(name, [])
        return owners[0] if len(owners) == 1 else None

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------

    def add_function(self, info: FunctionInfo) -> None:
        self.functions[info.qualname] = info
        self.by_name.setdefault(info.name, []).append(info.qualname)

    def add_call(self, site: CallSite) -> None:
        self.calls.setdefault(site.caller, []).append(site)


def _gate_id(site: CallSite) -> str:
    if site.attr in ("acquire", "lock", "pause") and site.base:
        return site.base.rsplit(".", 1)[-1]
    return site.attr


def _statements(tree: ast.Module) -> List[ast.AST]:
    """The tree minus every expression subtree, in ``ast.walk`` order.

    Expressions never contain statements, so this still holds every
    import, at a fraction of a full walk's cost.
    """
    nodes: List[ast.AST] = [tree]
    for node in nodes:
        nodes.extend(
            child for child in ast.iter_child_nodes(node)
            if not isinstance(child, ast.expr)
        )
    return nodes


def _import_aliases(tree: ast.Module, module: str) -> Dict[str, str]:
    """Local name -> dotted origin, resolving relative imports too."""
    aliases: Dict[str, str] = {}
    package_parts = module.split(".")[:-1]
    for node in _statements(tree):
        if isinstance(node, ast.Import):
            for item in node.names:
                local = item.asname or item.name.split(".")[0]
                aliases[local] = item.name if item.asname else item.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom):
            if node.level:
                base = package_parts[: len(package_parts) - (node.level - 1)]
                prefix = ".".join(base + ([node.module] if node.module else []))
            elif node.module:
                prefix = node.module
            else:
                continue
            for item in node.names:
                if item.name == "*":
                    continue
                aliases[item.asname or item.name] = f"{prefix}.{item.name}"
    return aliases


class _FileIndexer(ast.NodeVisitor):
    """One pass over a file: functions, calls, callback registrations."""

    def __init__(self, graph: ProjectGraph, module: str, path: str) -> None:
        self.graph = graph
        self.module = module
        self.path = path
        self.aliases: Dict[str, str] = {}
        #: (cls, func-qualname) lexical scope stack.
        self.cls: Optional[str] = None
        self.func: Optional[str] = None
        #: Per-function local aliases: name -> dotted value text.
        self.locals: Dict[str, str] = {}
        #: Deferred callsites; resolved after the whole project parses.
        self.pending: List[Tuple[CallSite, Optional[str], Optional[str]]] = []

    def index(self, tree: ast.Module) -> None:
        self.aliases = _import_aliases(tree, self.module)
        self.visit(tree)

    # -- scopes --------------------------------------------------------

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        prev = self.cls
        self.cls = node.name
        self.generic_visit(node)
        self.cls = prev

    def _visit_function(self, node, name: str) -> None:
        if self.func is not None:
            qualname = f"{self.func}.{name}"
        elif self.cls is not None:
            qualname = f"{self.module}.{self.cls}.{name}"
        else:
            qualname = f"{self.module}.{name}"
        self.graph.add_function(
            FunctionInfo(
                qualname=qualname,
                module=self.module,
                name=name,
                cls=self.cls,
                path=self.path,
                lineno=node.lineno,
                parent=self.func,
            )
        )
        prev_func, prev_locals = self.func, self.locals
        self.func, self.locals = qualname, dict(prev_locals)
        self.generic_visit(node)
        self.func, self.locals = prev_func, prev_locals

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._visit_function(node, node.name)

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        self._visit_function(node, node.name)

    def visit_Lambda(self, node: ast.Lambda) -> None:
        self._visit_function(node, f"<lambda:{node.lineno}>")

    # -- statements ----------------------------------------------------

    def visit_Assign(self, node: ast.Assign) -> None:
        if (
            self.func is not None
            and len(node.targets) == 1
            and isinstance(node.targets[0], ast.Name)
            and isinstance(node.value, (ast.Attribute, ast.Name))
        ):
            dotted = qualified_name(node.value, self.aliases)
            if dotted is not None:
                self.locals[node.targets[0].id] = dotted
        for target in node.targets:
            self._note_write(target)
        self.generic_visit(node)

    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        self._note_write(node.target)
        self.generic_visit(node)

    def _note_write(self, target: ast.AST) -> None:
        if not isinstance(target, ast.Attribute):
            return
        base = qualified_name(target.value, self.aliases)
        if base is None or base.split(".", 1)[0] in ("self", "cls"):
            return
        site = WriteSite(
            attr=target.attr,
            writer=self.cls or self.module,
            base=base,
            path=self.path,
            lineno=target.lineno,
            col=target.col_offset,
            writer_is_class=self.cls is not None,
        )
        self.graph.foreign_writes.setdefault(target.attr, []).append(site)

    # -- calls ---------------------------------------------------------

    def _caller(self) -> str:
        return self.func or f"{self.module}.<module>"

    def visit_Call(self, node: ast.Call) -> None:
        func = node.func
        attr = base = None
        literal_base = False
        if isinstance(func, ast.Name):
            attr = func.id
            dotted = self.locals.get(func.id) or self.aliases.get(func.id)
            if dotted is not None and "." in dotted:
                base, attr = dotted.rsplit(".", 1)
            elif dotted is not None:
                attr = dotted
        elif isinstance(func, ast.Attribute):
            attr = func.attr
            base = qualified_name(func.value, self.aliases)
            if base is not None and base.split(".", 1)[0] in self.locals:
                root, _, rest = base.partition(".")
                base = self.locals[root] + (f".{rest}" if rest else "")
            literal_base = isinstance(func.value, ast.Constant)
        if attr is not None:
            site = CallSite(
                caller=self._caller(),
                target=None,
                attr=attr,
                base=base,
                path=self.path,
                lineno=node.lineno,
                col=node.col_offset,
                literal_base=literal_base,
            )
            self.pending.append((site, self.cls, self.module))
            self._note_callbacks(node, attr, base)
        self.generic_visit(node)

    def _callable_name(self, arg: ast.AST) -> Optional[str]:
        """Qualname-ish text for a callback argument expression."""
        if isinstance(arg, ast.Lambda):
            return f"{self._caller()}.<lambda:{arg.lineno}>"
        if isinstance(arg, ast.Call):
            # spawn(self._loop()) registers the generator function.
            arg = arg.func
        dotted = (
            qualified_name(arg, self.aliases)
            if isinstance(arg, (ast.Attribute, ast.Name))
            else None
        )
        if dotted is None and isinstance(arg, ast.Name):
            dotted = self.locals.get(arg.id, arg.id)
        return dotted

    def _note_callbacks(self, node: ast.Call, attr: str, base: Optional[str]) -> None:
        registered: List[ast.AST] = []
        registrar = attr
        if attr in CALLBACK_REGISTRARS:
            registered.extend(node.args)
        elif attr == "append" and base is not None and (
            base.rsplit(".", 1)[-1] in CALLBACK_SINKS
        ):
            registered.extend(node.args)
            registrar = base.rsplit(".", 1)[-1]
        for kw in node.keywords:
            if kw.arg in CALLBACK_KEYWORDS:
                registered.append(kw.value)
                registrar = kw.arg
        for arg in registered:
            name = self._callable_name(arg)
            if name is None:
                continue
            self.pending.append((
                CallSite(
                    caller=f"<register:{registrar}>",
                    target=None,
                    attr=name.rsplit(".", 1)[-1],
                    base=(name.rsplit(".", 1)[0] if "." in name else None),
                    path=self.path,
                    lineno=node.lineno,
                    col=node.col_offset,
                ),
                self.cls,
                self.module,
            ))


def _resolve_site(
    graph: ProjectGraph, site: CallSite, cls: Optional[str], module: str
) -> Optional[str]:
    """Best-effort project qualname of a callsite's callee."""
    base, attr = site.base, site.attr
    if base is None:
        for candidate in (f"{module}.{attr}", attr):
            if candidate in graph.functions:
                return candidate
        return graph.unique_method(attr)
    if base == "self" or base.startswith("self."):
        if base == "self" and cls is not None:
            candidate = f"{module}.{cls}.{attr}"
            if candidate in graph.functions:
                return candidate
        return graph.unique_method(attr)
    if base.startswith("cls") and cls is not None:
        candidate = f"{module}.{cls}.{attr}"
        if candidate in graph.functions:
            return candidate
    full = f"{base}.{attr}"
    if full in graph.functions:
        return full
    # ``module.Class`` instantiation or lambda-local receiver: fall back
    # to the unique-name heuristic.
    return graph.unique_method(attr)


def build_project(
    sources: Iterable[Tuple[str, ast.Module]],
) -> ProjectGraph:
    """Index ``(path, tree)`` pairs into one :class:`ProjectGraph`.

    *sources* is consumed once, in order, and no tree is kept: a
    generator lets each tree go as soon as it is indexed.
    """
    graph = ProjectGraph()
    indexers: List[_FileIndexer] = []
    for path, tree in sources:
        indexer = _FileIndexer(graph, module_name_for(Path(path)), str(path))
        indexer.index(tree)
        indexers.append(indexer)
    registrations: List[Tuple[CallSite, Optional[str], Optional[str]]] = []
    for indexer in indexers:
        for site, cls, module in indexer.pending:
            if site.caller.startswith("<register:"):
                registrations.append((site, cls, module))
                continue
            target = _resolve_site(graph, site, cls, module)
            graph.add_call(
                CallSite(
                    caller=site.caller,
                    target=target,
                    attr=site.attr,
                    base=site.base,
                    path=site.path,
                    lineno=site.lineno,
                    col=site.col,
                    literal_base=site.literal_base,
                )
            )
    for site, cls, module in registrations:
        target = _resolve_site(graph, site, cls, module)
        if target is None and site.base is not None:
            candidate = f"{site.base}.{site.attr}"
            target = candidate if candidate in graph.functions else None
        if target is not None and target not in graph.callback_roots:
            registrar = site.caller[len("<register:"):-1]
            graph.callback_roots[target] = (site.path, site.lineno, registrar)
    graph._reachable = None
    return graph
