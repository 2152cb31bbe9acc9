"""Per-function effect summaries, propagated bottom-up over the call graph.

A summary answers, for one function and everything it (resolvably) calls:
does it draw from an RNG, forward an RNG into an unresolved call, mutate a
non-``self`` argument, write module-level state, or perform IO?  The flow
rules cross-check these against the declared contracts: a kernel the
catalogue marks deterministic must summarise RNG-free (FLW003), and
catalogue-bound classes and ``NullObserver`` must write no module state and
perform no IO (FLW004).

A module-state write is a store to a ``global``-declared name, a subscript
or attribute store rooted at a module-level name (``CACHE[key] = v``), or a
mutating method call on one (``SEEN.append(r)``).  Names bound by a plain
``import x`` are modules, not state, so ``np.append(...)`` is a pure call;
names bound by ``from x import y`` may be another module's object and stay.

Draw effects carry a *witness chain* — the resolved call path from the
summarised function down to the concrete draw site — so a finding can name
exactly how the randomness is reached, not just that it is.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, replace
from typing import Iterable, Mapping

from repro.lint.flow.callgraph import CallGraph, FunctionInfo
from repro.lint.flow.lineage import FunctionFlow

__all__ = ["EffectSummary", "infer_summaries", "format_chain"]

#: Maximum witness-chain length kept on a summary (messages stay readable).
_CHAIN_CAP = 8

#: Method names whose call mutates the receiver in place.
_MUTATING_METHODS = frozenset(
    {
        "append",
        "extend",
        "insert",
        "remove",
        "pop",
        "popitem",
        "clear",
        "add",
        "discard",
        "update",
        "setdefault",
        "sort",
        "reverse",
        "fill",
    }
)

#: Bare calls that are IO no matter how they are reached.
_IO_CALLS = frozenset({"open", "print", "input"})

#: Attribute/method names that are IO on any receiver.
_IO_METHODS = frozenset(
    {
        "write_text",
        "write_bytes",
        "read_text",
        "read_bytes",
        "mkdir",
        "unlink",
        "urlopen",
    }
)

#: Resolved call-target prefixes that count as IO.
_IO_PREFIXES = ("os.", "subprocess.", "shutil.", "socket.", "urllib.")


@dataclass(frozen=True)
class EffectSummary:
    """The inferred effects of one function, transitively."""

    qname: str
    draws_rng: bool = False
    forwards_rng: bool = False
    mutates_args: bool = False
    writes_module_state: bool = False
    performs_io: bool = False
    #: Resolved call path from this function to a draw site:
    #: ``((qname, line), ..., (qname_of_drawing_fn, draw_line))``.
    draw_chain: tuple[tuple[str, int], ...] = ()

    @property
    def is_pure(self) -> bool:
        """RNG-free and side-effect free (argument mutation aside)."""
        return not (
            self.draws_rng or self.writes_module_state or self.performs_io
        )

    def to_dict(self) -> dict:
        return {
            "qname": self.qname,
            "draws_rng": self.draws_rng,
            "forwards_rng": self.forwards_rng,
            "mutates_args": self.mutates_args,
            "writes_module_state": self.writes_module_state,
            "performs_io": self.performs_io,
            "draw_chain": [list(link) for link in self.draw_chain],
        }


def format_chain(chain: Iterable[tuple[str, int]]) -> str:
    """``a.b:12 -> c.d:34`` — the witness path for a finding message."""
    return " -> ".join(f"{qname}:{line}" for qname, line in chain)


# ---------------------------------------------------------------------- #
# Local (intraprocedural) effects
# ---------------------------------------------------------------------- #


def _local_summary(
    function: FunctionInfo, flow: FunctionFlow, module_names: frozenset[str]
) -> EffectSummary:
    draws = bool(flow.draws)
    chain: tuple[tuple[str, int], ...] = ()
    if draws:
        first = min(flow.draws, key=lambda draw: getattr(draw.node, "lineno", 0))
        chain = ((function.qname, getattr(first.node, "lineno", 0)),)
    return EffectSummary(
        qname=function.qname,
        draws_rng=draws,
        forwards_rng=any(site.forwards_rng for site in flow.call_sites),
        mutates_args=_mutates_arguments(function),
        writes_module_state=_writes_module_state(function, module_names),
        performs_io=_performs_io(function),
        draw_chain=chain,
    )


def _mutates_arguments(function: FunctionInfo) -> bool:
    """Whether a non-``self`` parameter is mutated in place."""
    params = set(function.parameters())
    params.discard("self")
    params.discard("cls")
    if not params:
        return False
    for node in ast.walk(function.node):
        if isinstance(node, (ast.Assign, ast.AugAssign)):
            targets = (
                node.targets if isinstance(node, ast.Assign) else [node.target]
            )
            for target in targets:
                base = target
                while isinstance(base, (ast.Subscript, ast.Attribute)):
                    base = base.value
                if (
                    isinstance(base, ast.Name)
                    and base.id in params
                    and base is not target
                ):
                    return True
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            receiver = node.func.value
            if (
                isinstance(receiver, ast.Name)
                and receiver.id in params
                and node.func.attr in _MUTATING_METHODS
            ):
                return True
    return False


def _module_state_names(tree: ast.Module) -> frozenset[str]:
    """Names a module binds at top level that can hold mutable state.

    Assignments, defs, classes and ``from x import y`` names count; plain
    ``import x`` / ``import x as y`` names are modules and do not.
    """
    names: set[str] = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.Assign):
            names.update(
                target.id for target in node.targets if isinstance(target, ast.Name)
            )
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names.add(node.target.id)
        elif isinstance(node, ast.ImportFrom):
            names.update(
                alias.asname or alias.name
                for alias in node.names
                if alias.name != "*"
            )
    return frozenset(names)


def _writes_module_state(
    function: FunctionInfo, module_names: frozenset[str]
) -> bool:
    """Whether the function writes a module global or mutates one in place.

    Names the function binds itself (parameters, assignment targets) shadow
    the module's, unless declared ``global``.
    """
    globals_declared: set[str] = set()
    local_names: set[str] = set()
    for node in ast.walk(function.node):
        if isinstance(node, ast.Global):
            globals_declared.update(node.names)
        elif isinstance(node, ast.arg):
            local_names.add(node.arg)
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            local_names.add(node.id)
    if local_names & globals_declared:
        return True
    shared = (module_names - local_names) | globals_declared
    for node in ast.walk(function.node):
        if isinstance(node, (ast.Assign, ast.AugAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                root = target
                while isinstance(root, (ast.Attribute, ast.Subscript)):
                    root = root.value
                if root is not target and isinstance(root, ast.Name):
                    if root.id in shared:
                        return True
        elif (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr in _MUTATING_METHODS
            and isinstance(node.func.value, ast.Name)
            and node.func.value.id in shared
        ):
            return True
    return False


def _performs_io(function: FunctionInfo) -> bool:
    for node in ast.walk(function.node):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if isinstance(func, ast.Name) and func.id in _IO_CALLS:
            return True
        if isinstance(func, ast.Attribute):
            if func.attr in _IO_METHODS:
                return True
            target = function.unit.resolve_call_target(func)
            if target is not None and target.startswith(_IO_PREFIXES):
                return True
    return False


# ---------------------------------------------------------------------- #
# Bottom-up propagation
# ---------------------------------------------------------------------- #


def infer_summaries(
    graph: CallGraph, flows: Mapping[str, FunctionFlow]
) -> dict[str, EffectSummary]:
    """Fixpoint-propagate local effects over resolved call edges.

    Effects are monotone booleans, so repeated passes until quiescence
    terminate.  ``draws_rng`` carries its witness chain along the first
    resolved edge that introduced it.  ``mutates_args`` propagates only
    through call sites that pass one of the *caller's own parameters* —
    a callee scribbling on its private locals is not the caller mutating
    its arguments.
    """
    summaries: dict[str, EffectSummary] = {}
    module_names = {
        unit.path: _module_state_names(unit.tree) for unit in graph.units
    }
    for qname, flow in flows.items():
        function = graph.functions.get(qname)
        if function is None:
            continue
        summaries[qname] = _local_summary(
            function, flow, module_names[function.unit.path]
        )

    changed = True
    while changed:
        changed = False
        for qname, flow in flows.items():
            summary = summaries.get(qname)
            if summary is None:
                continue
            updated = summary
            for site in flow.call_sites:
                if site.callee is None:
                    continue
                callee = summaries.get(site.callee)
                if callee is None:
                    continue
                line = getattr(site.node, "lineno", 0)
                if callee.draws_rng and not updated.draws_rng:
                    chain = ((qname, line), *callee.draw_chain)[:_CHAIN_CAP]
                    updated = replace(updated, draws_rng=True, draw_chain=chain)
                if callee.forwards_rng and not updated.forwards_rng:
                    updated = replace(updated, forwards_rng=True)
                if callee.writes_module_state and not updated.writes_module_state:
                    updated = replace(updated, writes_module_state=True)
                if callee.performs_io and not updated.performs_io:
                    updated = replace(updated, performs_io=True)
                if (
                    callee.mutates_args
                    and not updated.mutates_args
                    and _passes_own_parameter(flow, site)
                ):
                    updated = replace(updated, mutates_args=True)
            if updated != summary:
                summaries[qname] = updated
                changed = True
    return summaries


def _passes_own_parameter(flow: FunctionFlow, site) -> bool:
    params = set(flow.function.parameters())
    params.discard("self")
    params.discard("cls")
    call = site.node
    for argument in (*call.args, *[kw.value for kw in call.keywords]):
        if isinstance(argument, ast.Name) and argument.id in params:
            return True
    return False
