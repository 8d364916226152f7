"""The DS2xx hidden-synchronization lint rules.

Registered into the same :data:`repro.sanitize.rules.RULES` registry as
the DS1xx determinism rules, so suppression (``# repro: allow[DS201]``),
selection and reporting all work unchanged.  Unlike DS1xx these rules
are *project-aware*: they consult the static call graph
(:mod:`.callgraph`) and the declared sync catalog (:mod:`.catalog`).

``DS201 hidden-blocking-call``
    A call to a blocking synchronization primitive whose caller is
    reachable from the event-dispatch layer (simulator callbacks) —
    the structural shape behind ShadowSync's long tail.  The finding
    carries the full dispatch chain as evidence.  Every such call must
    either move off the dispatch path or carry an inline allow comment
    stating why the blocking is intended.
``DS202 undeclared-sync-primitive``
    A synchronization primitive (real ``threading``/``queue`` objects,
    or sync vocabulary like ``.acquire()``/``.wait()``) that is not in
    the declared catalog — an undeclared sync point.
``DS203 unowned-shared-state``
    An attribute written on a non-``self`` receiver by two or more
    different classes without a declared ownership transfer.
``DS204 gate-order-hazard``
    Two gates acquired in opposite orders by different functions — the
    classic deadlock/convoy shape, stated statically.
``DS205 unbounded-callback-put``
    An unbounded put into a shared queue from inside an event callback:
    backlog forms invisibly on the dispatch path.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, Tuple

from ..rules import RuleContext, rule
from .callgraph import ProjectGraph, build_project
from .catalog import (
    DECLARED_SYNC_MODULES,
    OWNERSHIP_TRANSFERS,
    primitives_by_method,
)

__all__ = ["project_for"]

#: Modules whose objects synchronize for real (host-level, not simulated).
REAL_SYNC_MODULES = frozenset({
    "threading",
    "queue",
    "multiprocessing",
    "concurrent",
    "asyncio",
    "socket",
    "select",
    "selectors",
})

#: Method vocabulary that marks a call as a synchronization operation
#: even when the receiver's type is unknown.
SYNC_VOCAB = frozenset({
    "acquire",
    "release",
    "wait",
    "wait_for",
    "notify",
    "notify_all",
    "join",
    "barrier",
})

#: Fully-qualified calls that merely *look* like sync vocabulary.
BENIGN_SYNC_CALLS = frozenset({
    "os.path.join",
    "posixpath.join",
    "ntpath.join",
    "str.join",
    "bytes.join",
    "shlex.join",
})

#: Queue mutation vocabulary for DS205.
PUT_ATTRS = frozenset({"append", "appendleft", "put", "put_nowait", "extend"})

#: Receiver-name fragments that mark an attribute as a queue/backlog.
QUEUE_NAME_HINTS = ("queue", "pending", "backlog", "buffer", "inbox",
                    "mailbox", "jobs", "tasks")


class _Site:
    """Positional anchor for findings derived from callgraph records."""

    __slots__ = ("lineno", "col_offset")

    def __init__(self, lineno: int, col: int) -> None:
        self.lineno = lineno
        self.col_offset = col


def project_for(ctx: RuleContext) -> ProjectGraph:
    """The project graph for *ctx*: shared when ``lint_paths`` built
    one, else a single-file graph built (and cached) on demand."""
    project = getattr(ctx, "project", None)
    if project is None:
        project = build_project([(ctx.path, ctx.tree)])
        ctx.project = project
    return project


def _short(qualname: str) -> str:
    """Trailing ``Class.method`` (or ``module.func``) of a qualname."""
    return ".".join(qualname.split(".")[-2:])


# ----------------------------------------------------------------------
# DS201: blocking call reachable from the dispatch layer
# ----------------------------------------------------------------------


@rule(
    "DS201",
    "hidden-blocking-call",
    "blocking sync primitive reachable from an event-dispatch callback",
    "move the blocking call off the dispatch path (defer it to a pool "
    "job) or declare the edge with an allow comment stating why the "
    "block is intended",
)
def check_hidden_blocking_call(ctx: RuleContext) -> Iterator[Tuple[ast.AST, str]]:
    graph = project_for(ctx)
    blocking = {
        method: prim
        for method, prim in primitives_by_method().items()
        if prim.blocking
    }
    reachable = graph.dispatch_reachable()
    for site in graph.calls_in(ctx.path):
        if site.literal_base or site.attr not in blocking:
            continue
        if site.caller not in reachable:
            continue
        prim = blocking[site.attr]
        chain = [_short(q) for q in graph.dispatch_chain(site.caller)]
        chain.append(f"{prim.owner}.{site.attr}")
        yield _Site(site.lineno, site.col), (
            f"blocking primitive {prim.name} ({prim.owner}.{site.attr}) "
            f"called on the dispatch path: {' -> '.join(chain)}"
        )


# ----------------------------------------------------------------------
# DS202: sync primitive not in the declared catalog
# ----------------------------------------------------------------------


@rule(
    "DS202",
    "undeclared-sync-primitive",
    "synchronization primitive not in the declared sync catalog",
    "declare it in repro.sanitize.syncgraph.catalog.SYNC_CATALOG (with "
    "owner, kind and rationale) or replace it with a cataloged "
    "primitive; host-level threading/queue objects do not exist on the "
    "simulated clock",
)
def check_undeclared_sync(ctx: RuleContext) -> Iterator[Tuple[ast.AST, str]]:
    graph = project_for(ctx)
    cataloged = set(primitives_by_method())
    for site in graph.calls_in(ctx.path):
        if site.literal_base:
            continue
        dotted = f"{site.base}.{site.attr}" if site.base else site.attr
        root = (site.base or site.attr).split(".", 1)[0]
        if root in REAL_SYNC_MODULES:
            if root in DECLARED_SYNC_MODULES:
                continue
            yield _Site(site.lineno, site.col), (
                f"real synchronization primitive {dotted}() is not in "
                "the sync catalog"
            )
            continue
        if site.attr in SYNC_VOCAB and site.attr not in cataloged:
            if dotted in BENIGN_SYNC_CALLS:
                continue
            yield _Site(site.lineno, site.col), (
                f"sync operation {dotted}() has no declared primitive "
                "in the catalog"
            )


# ----------------------------------------------------------------------
# DS203: shared mutable state without ownership transfer
# ----------------------------------------------------------------------


@rule(
    "DS203",
    "unowned-shared-state",
    "shared mutable attribute crossed by stages without an ownership "
    "transfer",
    "declare the hand-over protocol in "
    "repro.sanitize.syncgraph.catalog.OWNERSHIP_TRANSFERS, or give the "
    "field a single owning class",
)
def check_unowned_shared_state(ctx: RuleContext) -> Iterator[Tuple[ast.AST, str]]:
    graph = project_for(ctx)
    for attr in sorted(graph.foreign_writes):
        if attr in OWNERSHIP_TRANSFERS or attr.isupper():
            continue
        sites = graph.foreign_writes[attr]
        # Only class-resident writes count: a module-level helper
        # filling a result object it just built is a builder, not a
        # stage crossing shared state.
        writers = sorted(
            {site.writer for site in sites if site.writer_is_class}
        )
        if len(writers) < 2:
            continue
        for site in sites:
            if site.path != ctx.path or not site.writer_is_class:
                continue
            yield _Site(site.lineno, site.col), (
                f"attribute {attr!r} on {site.base} is mutated by "
                f"{len(writers)} different classes ({', '.join(writers)}) "
                "with no declared ownership transfer"
            )


# ----------------------------------------------------------------------
# DS204: gate-ordering hazard
# ----------------------------------------------------------------------


@rule(
    "DS204",
    "gate-order-hazard",
    "two gates acquired in opposite orders by different functions",
    "pick one global acquisition order for the two gates and make "
    "every code path follow it",
)
def check_gate_order(ctx: RuleContext) -> Iterator[Tuple[ast.AST, str]]:
    graph = project_for(ctx)
    orders = graph.gate_orders()
    reported: set = set()
    for (g1, g2) in sorted(orders):
        if (g2, g1) not in orders or g1 >= g2:
            continue
        forward = orders[(g1, g2)]
        backward = orders[(g2, g1)]
        for caller, site in forward + backward:
            if site.path != ctx.path:
                continue
            key = (site.lineno, site.col, g1, g2)
            if key in reported:
                continue
            reported.add(key)
            other = backward if (caller, site) in forward else forward
            other_names = ", ".join(sorted({_short(c) for c, _ in other}))
            yield _Site(site.lineno, site.col), (
                f"{_short(caller)} acquires gates {g1!r} and {g2!r} in "
                f"the opposite order from {other_names}"
            )


# ----------------------------------------------------------------------
# DS205: unbounded queue put inside a callback
# ----------------------------------------------------------------------


def _callback_closure(graph: ProjectGraph) -> Dict[str, str]:
    """Callback functions for DS205: the registered roots plus one
    level of expansion through registered lambdas (``on_complete=lambda
    ...: self._phase_done(...)`` makes ``_phase_done`` the callback)."""
    callbacks: Dict[str, str] = {}
    for root, (_, _, registrar) in graph.callback_roots.items():
        callbacks.setdefault(root, registrar)
        info = graph.functions.get(root)
        if info is not None and info.name.startswith("<lambda"):
            for site in graph.calls.get(root, ()):
                if site.target is not None:
                    callbacks.setdefault(site.target, registrar)
    return callbacks


@rule(
    "DS205",
    "unbounded-callback-put",
    "unbounded put into a shared queue inside an event callback",
    "bound the queue (or shed on a threshold), or move the put onto an "
    "explicit pool job so backpressure is visible",
)
def check_unbounded_callback_put(ctx: RuleContext) -> Iterator[Tuple[ast.AST, str]]:
    graph = project_for(ctx)
    callbacks = _callback_closure(graph)
    for func in sorted(callbacks):
        for site in graph.calls.get(func, ()):
            if site.path != ctx.path or site.literal_base:
                continue
            if site.attr not in PUT_ATTRS or not site.base or "." not in site.base:
                continue
            name = site.base.rsplit(".", 1)[-1].lstrip("_").lower()
            if not any(hint in name for hint in QUEUE_NAME_HINTS):
                continue
            yield _Site(site.lineno, site.col), (
                f"callback {_short(func)} (registered via "
                f"{callbacks[func]}) does an unbounded {site.attr}() "
                f"into shared queue {site.base}"
            )
