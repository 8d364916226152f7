"""The determinism-lint rule registry.

Every rule targets one way wall-clock time, hash order or hidden global
state can leak into the simulation and silently break the properties the
rest of the tooling depends on: the content-addressed result cache
(byte-identical reruns), soak audits and seed-driven fault shrinking.

A rule is a small AST predicate packaged with an ID, a one-line summary
and a fix hint.  Rules are registered in :data:`RULES` via the
:func:`rule` decorator and run by :mod:`repro.sanitize.lint`, which also
handles ``# repro: allow[RULE]`` inline suppressions.

The built-in rules:

``DS101 wall-clock``
    Wall-clock reads (``time.time``, ``time.monotonic``,
    ``perf_counter``, ``datetime.now`` ...).  Simulation code must use
    ``sim.now``; only the benchmark harness (``perfbench/``, outside
    the linted tree) may time real execution.
``DS102 unseeded-rng``
    Module-level ``random`` / ``numpy.random`` draws and unseeded RNG
    construction.  All randomness must route through
    :class:`repro.sim.rng.RngRegistry` or an explicitly seeded
    ``random.Random(seed)``.
``DS103 unordered-iter``
    Iteration over sets or filesystem listings, whose order is hash- or
    OS-dependent and can reach sim state or serialized output.
``DS104 mutable-default``
    Mutable default argument values, shared across calls.
``DS105 module-singleton``
    Module-level mutable objects bound to non-constant names — state
    shared across every instance and across tests in one process.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Dict, Iterator, List, Optional, Tuple

__all__ = ["Rule", "RuleContext", "RULES", "rule", "qualified_name"]


@dataclass(frozen=True)
class Rule:
    """One registered lint rule."""

    id: str
    name: str
    summary: str
    hint: str
    check: Callable[["RuleContext"], Iterator[Tuple[ast.AST, str]]]

    def matches(self, label: str) -> bool:
        """Whether *label* (from an allow-comment) names this rule."""
        return label.lower() in (self.id.lower(), self.name.lower())


#: Registry of every known rule, keyed by rule ID.
RULES: Dict[str, Rule] = {}


def rule(id: str, name: str, summary: str, hint: str):
    """Register the decorated check function as a lint rule."""

    def decorate(check):
        RULES[id] = Rule(id=id, name=name, summary=summary, hint=hint, check=check)
        return check

    return decorate


class RuleContext:
    """Per-file state shared by every rule: the tree, its nodes and its
    import aliases.

    *project* is the shared :class:`~repro.sanitize.syncgraph.callgraph.
    ProjectGraph` when linting a whole tree; the project-aware DS2xx
    rules build a single-file graph on demand when it is ``None``.
    *tree* is ``None`` only beside a *project*, for those rules alone.
    """

    def __init__(
        self, path: str, tree: Optional[ast.Module], source: str, project=None
    ) -> None:
        self.path = path
        self.tree = tree
        self.source = source
        self.project = project

    @cached_property
    def nodes(self) -> List[ast.AST]:
        """Every node of the tree in ``ast.walk`` order: the one walk
        the per-node rules share."""
        return list(ast.walk(self.tree))

    @cached_property
    def aliases(self) -> Dict[str, str]:
        """Local name -> dotted origin ("np" -> "numpy",
        "perf_counter" -> "time.perf_counter")."""
        aliases: Dict[str, str] = {}
        for node in self.nodes:
            if isinstance(node, ast.Import):
                for item in node.names:
                    local = item.asname or item.name.split(".")[0]
                    target = item.name if item.asname else item.name.split(".")[0]
                    aliases[local] = target
            elif isinstance(node, ast.ImportFrom) and node.module and not node.level:
                for item in node.names:
                    if item.name == "*":
                        continue
                    local = item.asname or item.name
                    aliases[local] = f"{node.module}.{item.name}"
        return aliases

    def resolve(self, node: ast.AST) -> Optional[str]:
        """Dotted origin of a Name/Attribute chain, or ``None``."""
        return qualified_name(node, self.aliases)


def qualified_name(node: ast.AST, aliases: Dict[str, str]) -> Optional[str]:
    """Resolve ``np.random.rand`` -> ``numpy.random.rand`` style names."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    root = aliases.get(node.id, node.id)
    parts.append(root)
    return ".".join(reversed(parts))


# ----------------------------------------------------------------------
# DS101: wall-clock time
# ----------------------------------------------------------------------

#: Real-time sources that leak host timing into results.
WALL_CLOCK_CALLS = frozenset({
    "time.time",
    "time.time_ns",
    "time.monotonic",
    "time.monotonic_ns",
    "time.perf_counter",
    "time.perf_counter_ns",
    "time.process_time",
    "time.process_time_ns",
    "datetime.datetime.now",
    "datetime.datetime.utcnow",
    "datetime.datetime.today",
    "datetime.date.today",
})


@rule(
    "DS101",
    "wall-clock",
    "wall-clock time read in simulation code",
    "use the simulator clock (sim.now); real timing belongs to the "
    "benchmark harness only",
)
def check_wall_clock(ctx: RuleContext) -> Iterator[Tuple[ast.AST, str]]:
    seen = set()
    for node in ctx.nodes:
        if not isinstance(node, (ast.Attribute, ast.Name)):
            continue
        resolved = ctx.resolve(node)
        if resolved in WALL_CLOCK_CALLS:
            key = (node.lineno, node.col_offset)
            if key in seen:
                continue
            seen.add(key)
            yield node, f"call to {resolved}()"


# ----------------------------------------------------------------------
# DS102: unseeded randomness
# ----------------------------------------------------------------------

#: ``random`` attributes that are *not* draws from the shared module RNG.
_RANDOM_SAFE = frozenset({
    "random.Random",
    # Type-only / introspection names, not draws.
    "random.Random.getstate",
})

#: numpy.random constructors that are fine *when given a seed*.
_NP_SEEDED_CTORS = frozenset({
    "numpy.random.default_rng",
    "numpy.random.Generator",
    "numpy.random.RandomState",
    "numpy.random.SeedSequence",
})


@rule(
    "DS102",
    "unseeded-rng",
    "unseeded or module-level RNG use",
    "route randomness through sim.rng (RngRegistry) or an explicitly "
    "seeded random.Random(seed)",
)
def check_unseeded_rng(ctx: RuleContext) -> Iterator[Tuple[ast.AST, str]]:
    for node in ctx.nodes:
        if not isinstance(node, ast.Call):
            continue
        resolved = ctx.resolve(node.func)
        if resolved is None:
            continue
        if resolved == "random.Random":
            if not node.args and not node.keywords:
                yield node, "random.Random() constructed without a seed"
            continue
        if resolved == "random.SystemRandom":
            yield node, "random.SystemRandom is nondeterministic by design"
            continue
        if resolved.startswith("random.") and resolved not in _RANDOM_SAFE:
            yield node, (
                f"{resolved}() draws from the shared module-level RNG"
            )
            continue
        if resolved.startswith("numpy.random."):
            if resolved in _NP_SEEDED_CTORS:
                if not node.args and not node.keywords:
                    yield node, f"{resolved}() constructed without a seed"
            else:
                yield node, (
                    f"{resolved}() uses numpy's global RNG state"
                )


# ----------------------------------------------------------------------
# DS103: unordered iteration
# ----------------------------------------------------------------------

_SET_CONSTRUCTORS = frozenset({"set", "frozenset"})
_FS_ENUMERATORS = frozenset({
    "os.listdir",
    "os.scandir",
    "glob.glob",
    "glob.iglob",
})
_FS_METHODS = frozenset({"iterdir", "glob", "rglob"})


def _unordered_reason(node: ast.AST, ctx: RuleContext) -> Optional[str]:
    """Why iterating *node* is hash-/OS-order dependent, or ``None``."""
    if isinstance(node, (ast.Set, ast.SetComp)):
        return "a set literal/comprehension"
    if isinstance(node, ast.Call):
        resolved = ctx.resolve(node.func)
        if resolved in _SET_CONSTRUCTORS:
            return f"{resolved}(...)"
        if resolved in _FS_ENUMERATORS:
            return f"{resolved}(...) (filesystem order)"
        if (
            isinstance(node.func, ast.Attribute)
            and node.func.attr in _FS_METHODS
        ):
            return f".{node.func.attr}(...) (filesystem order)"
    if isinstance(node, ast.BinOp) and isinstance(node.op, (ast.BitOr, ast.BitAnd, ast.Sub)):
        left = _unordered_reason(node.left, ctx)
        right = _unordered_reason(node.right, ctx)
        if left or right:
            return "a set expression"
    return None


@rule(
    "DS103",
    "unordered-iter",
    "iteration over an unordered collection",
    "wrap the iterable in sorted(...) so the visit order is stable",
)
def check_unordered_iter(ctx: RuleContext) -> Iterator[Tuple[ast.AST, str]]:
    iterables: List[ast.AST] = []
    for node in ctx.nodes:
        if isinstance(node, (ast.For, ast.AsyncFor)):
            iterables.append(node.iter)
        elif isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)):
            iterables.extend(gen.iter for gen in node.generators)
        elif isinstance(node, ast.Call):
            resolved = ctx.resolve(node.func)
            if resolved in ("list", "tuple", "enumerate") and node.args:
                iterables.append(node.args[0])
    for target in iterables:
        reason = _unordered_reason(target, ctx)
        if reason is not None:
            yield target, f"iterating {reason}; order is not deterministic"


# ----------------------------------------------------------------------
# DS104: mutable default arguments
# ----------------------------------------------------------------------

_MUTABLE_CONSTRUCTORS = frozenset({
    "list",
    "dict",
    "set",
    "bytearray",
    "collections.defaultdict",
    "collections.deque",
    "collections.OrderedDict",
    "collections.Counter",
})


def _is_mutable_value(node: ast.AST, ctx: RuleContext) -> bool:
    if isinstance(node, (ast.List, ast.Dict, ast.Set, ast.ListComp, ast.DictComp, ast.SetComp)):
        return True
    if isinstance(node, ast.Call):
        resolved = ctx.resolve(node.func)
        return resolved in _MUTABLE_CONSTRUCTORS
    return False


@rule(
    "DS104",
    "mutable-default",
    "mutable default argument",
    "default to None and build the object inside the function body",
)
def check_mutable_default(ctx: RuleContext) -> Iterator[Tuple[ast.AST, str]]:
    for node in ctx.nodes:
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        args = node.args
        defaults = list(args.defaults) + [d for d in args.kw_defaults if d is not None]
        for default in defaults:
            if _is_mutable_value(default, ctx):
                name = getattr(node, "name", "<lambda>")
                yield default, (
                    f"default of {name}() is mutable and shared across calls"
                )


# ----------------------------------------------------------------------
# DS105: module-level mutable singletons
# ----------------------------------------------------------------------


def _module_level_statements(tree: ast.Module) -> Iterator[ast.stmt]:
    """Module-body statements, descending into top-level if/try blocks."""
    stack: List[ast.stmt] = list(tree.body)
    while stack:
        stmt = stack.pop()
        if isinstance(stmt, ast.If):
            stack.extend(stmt.body)
            stack.extend(stmt.orelse)
        elif isinstance(stmt, ast.Try):
            stack.extend(stmt.body)
            stack.extend(stmt.orelse)
            stack.extend(stmt.finalbody)
            for handler in stmt.handlers:
                stack.extend(handler.body)
        else:
            yield stmt


def _is_constant_name(name: str) -> bool:
    """ALL_CAPS names and dunders are declared constants by convention."""
    if name.startswith("__") and name.endswith("__"):
        return True
    return name.isupper()


@rule(
    "DS105",
    "module-singleton",
    "module-level mutable singleton",
    "move the object into an instance, or rename it ALL_CAPS and treat "
    "it as an append-only registry",
)
def check_module_singleton(ctx: RuleContext) -> Iterator[Tuple[ast.AST, str]]:
    for stmt in _module_level_statements(ctx.tree):
        if isinstance(stmt, ast.Assign):
            targets = [t for t in stmt.targets if isinstance(t, ast.Name)]
            value = stmt.value
        elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
            targets = [stmt.target] if isinstance(stmt.target, ast.Name) else []
            value = stmt.value
        else:
            continue
        if not _is_mutable_value(value, ctx):
            continue
        for target in targets:
            if not _is_constant_name(target.id):
                yield stmt, (
                    f"module-level mutable {target.id!r} is shared by "
                    "every instance in the process"
                )
