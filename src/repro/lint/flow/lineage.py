"""Flow-sensitive RNG-lineage analysis: which named stream a value descends
from.

The repository's determinism story rests on a small derivation vocabulary
(:mod:`repro.util.rng`): every random draw must trace back, through
``derive_rng`` (or ``derive_rng_from_base``) / ``ensure_rng`` / ``spawn_rngs`` /
:func:`repro.network.engine.derive_streams`, to the master seed via a *named*
stream.  The names partition into planes:

========== ============================================================
plane       streams
========== ============================================================
faults      ``"faults"`` — fault schedules, loss/delay staleness, rejoin
            states (:mod:`repro.faults`)
adversary   ``"adversary"`` — Byzantine forgeries
algorithm   ``"initial-states"``, ``"sampling"``, ``"links"``,
            ``"algorithm-rng"`` — the simulated protocol itself
========== ============================================================

Planes must never mix: the faults stream feeding an adversary (or vice
versa) would silently shift the draw sequences of unperturbed historical
traces, breaking bit-identical replay while every sampled parity check still
passes.  This module computes, per function, the lineage of every local RNG
value (a small lattice: named stream < derived < unknown) and records the
two findable events — a draw whose receiver has *unknown* lineage, and a
plane-carrying value flowing into a parameter or slot that names a
*different* plane.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field, replace
from typing import Mapping, Sequence

from repro.lint.context import ModuleUnit
from repro.lint.flow.callgraph import CallGraph, ClassInfo, FunctionInfo

__all__ = [
    "ALWAYS_DRAW_METHODS",
    "RNG_ONLY_DRAW_METHODS",
    "STREAM_PLANES",
    "CallSite",
    "Draw",
    "FunctionFlow",
    "Lineage",
    "MixViolation",
    "analyze_class_attrs",
    "analyze_function",
    "expected_plane",
]


# ---------------------------------------------------------------------- #
# The lattice
# ---------------------------------------------------------------------- #

#: Stream name -> plane.  Streams outside this table (experiment-local
#: labels like ``"trial"`` or ``"c4"``) carry no plane and mix freely.
STREAM_PLANES: dict[str, str] = {
    "faults": "faults",
    "adversary": "adversary",
    "initial-states": "algorithm",
    "sampling": "algorithm",
    "links": "algorithm",
    "algorithm-rng": "algorithm",
}

#: Parameter/attribute base names that *declare* a plane expectation.
_NAME_PLANES: dict[str, str] = {
    "faults_rng": "faults",
    "fault_rng": "faults",
    "adversary_rng": "adversary",
    "init_rng": "algorithm",
    "sample_rng": "algorithm",
    "sampling_rng": "algorithm",
    "link_rng": "algorithm",
}


def expected_plane(name: str) -> str | None:
    """The plane a parameter/attribute *name* declares (``None`` = any)."""
    return _NAME_PLANES.get(name.strip("_"))


def _rngish_name(name: str) -> bool:
    """Whether a bare name reads as an RNG (``rng``/``random`` token)."""
    lowered = name.lower()
    return "rng" in lowered or "random" in lowered


@dataclass(frozen=True)
class Lineage:
    """Where an RNG value comes from.

    ``kind`` is one of ``"stream"`` (derived under a literal name),
    ``"derived"`` (derived, name not statically known), ``"constructed"``
    (a direct RNG constructor — DET002's business, but tracked), ``"param"``
    (arrived as an argument; ``rngish`` says the name reads as an RNG) and
    ``"unknown"``.
    """

    kind: str
    label: str = ""
    plane: str | None = None
    rngish: bool = False

    @property
    def is_rng(self) -> bool:
        """Whether this value is an RNG we can vouch for."""
        return self.kind in ("stream", "derived", "constructed") or (
            self.kind == "param" and self.rngish
        )

    def describe(self) -> str:
        if self.kind == "stream":
            return f"stream {self.label!r}"
        if self.kind == "param":
            return f"parameter {self.label!r}"
        if self.kind == "derived":
            return "a derived stream"
        if self.kind == "constructed":
            return "a locally constructed generator"
        return "unknown lineage"


UNKNOWN = Lineage(kind="unknown")


def _param_lineage(name: str) -> Lineage:
    return Lineage(
        kind="param",
        label=name,
        plane=expected_plane(name),
        rngish=_rngish_name(name) or expected_plane(name) is not None,
    )


def _join(a: Lineage, b: Lineage) -> Lineage:
    """Least upper bound of two lineages (conditional assignment merge)."""
    if a == b:
        return a
    if a.is_rng and b.is_rng:
        plane = a.plane if a.plane == b.plane else None
        return Lineage(kind="derived", plane=plane)
    return UNKNOWN


# ---------------------------------------------------------------------- #
# Draw + derivation vocabularies
# ---------------------------------------------------------------------- #

#: Method names that are draws no matter what the receiver looks like.
ALWAYS_DRAW_METHODS = frozenset(
    {
        "getrandbits",
        "randrange",
        "randint",
        "gauss",
        "betavariate",
        "expovariate",
        "normalvariate",
        "lognormvariate",
        "vonmisesvariate",
        "paretovariate",
        "weibullvariate",
        "standard_normal",
        "random_sample",
    }
)

#: Method names that are draws only on a receiver we can tell is an RNG
#: (known lineage or an rng-ish name) — they collide with ordinary APIs.
RNG_ONLY_DRAW_METHODS = frozenset(
    {
        "random",
        "sample",
        "choice",
        "choices",
        "shuffle",
        "uniform",
        "integers",
        "normal",
        "binomial",
        "poisson",
        "permutation",
        "permuted",
        "bytes",
        "triangular",
    }
)

#: The sanctioned derivation vocabulary (matched by unqualified name — the
#: helpers are this codebase's fixed API for stream plumbing).
#: ``derivation_base`` and ``derive_rng_from_base`` are the two halves of
#: ``derive_rng`` (the base draw, then the label mixing), so the second
#: takes its labels in the same positions.
_DERIVE_RNG = "derive_rng"
_DERIVE_RNG_FROM_BASE = "derive_rng_from_base"
_DERIVATION_BASE = "derivation_base"
_ENSURE_RNG = "ensure_rng"
_SPAWN_RNGS = "spawn_rngs"
_DERIVE_STREAMS = "derive_streams"
DERIVATION_NAMES = frozenset(
    {
        _DERIVE_RNG,
        _DERIVE_RNG_FROM_BASE,
        _DERIVATION_BASE,
        _ENSURE_RNG,
        _SPAWN_RNGS,
        _DERIVE_STREAMS,
    }
)

#: Qualified constructor targets that mint a fresh generator.
_RNG_CONSTRUCTORS = frozenset(
    {
        "random.Random",
        "numpy.random.default_rng",
        "numpy.random.RandomState",
        "numpy.random.Generator",
    }
)


def _call_name(func: ast.expr) -> str | None:
    """The unqualified name a call is spelled with (``a.b.f()`` -> ``f``)."""
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return None


# ---------------------------------------------------------------------- #
# Per-function results
# ---------------------------------------------------------------------- #


@dataclass(frozen=True)
class Draw:
    """One RNG draw site."""

    node: ast.AST
    method: str
    lineage: Lineage


@dataclass(frozen=True)
class MixViolation:
    """A plane-carrying value flowing into a slot naming another plane."""

    node: ast.AST
    slot: str
    expected: str
    lineage: Lineage


@dataclass(frozen=True)
class CallSite:
    """One call with the lineages of its RNG-carrying arguments."""

    node: ast.Call
    callee: str | None
    rng_args: tuple[tuple[str, Lineage], ...]

    @property
    def forwards_rng(self) -> bool:
        return self.callee is None and bool(self.rng_args)


@dataclass
class FunctionFlow:
    """Everything the rules need to know about one analysed function."""

    function: FunctionInfo
    draws: list[Draw] = field(default_factory=list)
    unknown_draws: list[Draw] = field(default_factory=list)
    mix_violations: list[MixViolation] = field(default_factory=list)
    call_sites: list[CallSite] = field(default_factory=list)
    attr_lineages: dict[str, Lineage] = field(default_factory=dict)


# ---------------------------------------------------------------------- #
# The analysis
# ---------------------------------------------------------------------- #


class _FunctionAnalyzer:
    """One pass over a function body, in statement order."""

    def __init__(
        self,
        graph: CallGraph,
        function: FunctionInfo,
        attr_lineages: Mapping[str, Lineage],
    ) -> None:
        self.graph = graph
        self.function = function
        self.unit: ModuleUnit = function.unit
        self.attr_lineages = dict(attr_lineages)
        self.env: dict[str, Lineage] = {
            name: _param_lineage(name) for name in function.parameters()
        }
        self.local_types: dict[str, str] = {}
        self.result = FunctionFlow(function=function)
        self._seen_calls: set[int] = set()

    # -- lineage evaluation --------------------------------------------- #

    def lineage_of(self, node: ast.expr) -> Lineage:
        if isinstance(node, ast.Name):
            return self.env.get(node.id, UNKNOWN)
        if isinstance(node, ast.Attribute):
            if isinstance(node.value, ast.Name) and node.value.id == "self":
                return self.attr_lineages.get(node.attr, UNKNOWN)
            return UNKNOWN
        if isinstance(node, ast.Call):
            return self._call_lineage(node)
        if isinstance(node, ast.Subscript):
            base = self.lineage_of(node.value)
            if base.is_rng or base.kind == "streams":
                return Lineage(kind="derived", plane=base.plane)
            return UNKNOWN
        if isinstance(node, ast.IfExp):
            return _join(self.lineage_of(node.body), self.lineage_of(node.orelse))
        if isinstance(node, ast.BoolOp):
            lineage = self.lineage_of(node.values[0])
            for value in node.values[1:]:
                lineage = _join(lineage, self.lineage_of(value))
            return lineage
        if isinstance(node, ast.NamedExpr):
            return self.lineage_of(node.value)
        return UNKNOWN

    def _call_lineage(self, node: ast.Call) -> Lineage:
        name = _call_name(node.func)
        if name in (_DERIVE_RNG, _DERIVE_RNG_FROM_BASE):
            for argument in node.args[1:]:
                if isinstance(argument, ast.Constant) and isinstance(
                    argument.value, str
                ):
                    label = argument.value
                    return Lineage(
                        kind="stream", label=label, plane=STREAM_PLANES.get(label)
                    )
            base = self.lineage_of(node.args[0]) if node.args else UNKNOWN
            return Lineage(kind="derived", plane=base.plane)
        if name == _ENSURE_RNG:
            base = self.lineage_of(node.args[0]) if node.args else UNKNOWN
            if base.is_rng:
                return base
            return Lineage(kind="derived", plane=base.plane)
        if name == _SPAWN_RNGS:
            base = self.lineage_of(node.args[0]) if node.args else UNKNOWN
            return Lineage(kind="streams", plane=base.plane)
        if name == _DERIVE_STREAMS:
            return Lineage(kind="streams")
        target = self.unit.resolve_call_target(node.func)
        if target in _RNG_CONSTRUCTORS:
            return Lineage(kind="constructed")
        return UNKNOWN

    def _stream_labels(self, node: ast.Call) -> list[Lineage]:
        """Positional stream lineages of a ``derive_streams(master, ...)``."""
        labels: list[Lineage] = []
        for argument in node.args[1:]:
            if isinstance(argument, ast.Constant) and isinstance(
                argument.value, str
            ):
                label = argument.value
                labels.append(
                    Lineage(
                        kind="stream", label=label, plane=STREAM_PLANES.get(label)
                    )
                )
            else:
                labels.append(Lineage(kind="derived"))
        return labels

    # -- binding -------------------------------------------------------- #

    def _bind(self, target: ast.expr, lineage: Lineage, value: ast.expr) -> None:
        if isinstance(target, ast.Name):
            self._check_slot(target, target.id, lineage)
            self.env[target.id] = lineage
            constructed = self._constructed_class(value)
            if constructed is not None:
                self.local_types[target.id] = constructed
            else:
                self.local_types.pop(target.id, None)
        elif (
            isinstance(target, ast.Attribute)
            and isinstance(target.value, ast.Name)
            and target.value.id == "self"
        ):
            self._check_slot(target, target.attr, lineage)
            self.attr_lineages[target.attr] = lineage
            self.result.attr_lineages[target.attr] = lineage

    def _constructed_class(self, value: ast.expr) -> str | None:
        if not isinstance(value, ast.Call):
            return None
        info = self.graph._class_of_constructor(self.unit, value.func)
        return info.qname if info is not None else None

    def _check_slot(self, node: ast.AST, slot: str, lineage: Lineage) -> None:
        expected = expected_plane(slot)
        if (
            expected is not None
            and lineage.plane is not None
            and lineage.plane != expected
        ):
            self.result.mix_violations.append(
                MixViolation(
                    node=node, slot=slot, expected=expected, lineage=lineage
                )
            )

    def _handle_assign(self, node: ast.Assign | ast.AnnAssign) -> None:
        value = node.value
        if value is None:
            return
        self._walk_expr(value)
        targets = node.targets if isinstance(node, ast.Assign) else [node.target]
        # Tuple-unpacked derive_streams: positional stream labels.
        if (
            isinstance(value, ast.Call)
            and _call_name(value.func) == _DERIVE_STREAMS
        ):
            labels = self._stream_labels(value)
            for target in targets:
                if isinstance(target, (ast.Tuple, ast.List)):
                    for index, element in enumerate(target.elts):
                        lineage = (
                            labels[index]
                            if index < len(labels)
                            else Lineage(kind="derived")
                        )
                        self._bind(element, lineage, value)
                else:
                    self._bind(target, Lineage(kind="streams"), value)
            return
        lineage = self.lineage_of(value)
        for target in targets:
            if isinstance(target, (ast.Tuple, ast.List)):
                element_lineage = (
                    Lineage(kind="derived", plane=lineage.plane)
                    if lineage.kind == "streams" or lineage.is_rng
                    else UNKNOWN
                )
                for element in target.elts:
                    self._bind(element, element_lineage, value)
            else:
                self._bind(target, lineage, value)

    # -- statements ----------------------------------------------------- #

    def run(self) -> FunctionFlow:
        for statement in self.function.node.body:
            self._walk_stmt(statement)
        return self.result

    def _walk_stmt(self, node: ast.stmt) -> None:
        if isinstance(node, (ast.Assign, ast.AnnAssign)):
            self._handle_assign(node)
            return
        if isinstance(node, ast.AugAssign):
            self._walk_expr(node.value)
            return
        if isinstance(node, (ast.Expr, ast.Return)):
            if node.value is not None:
                self._walk_expr(node.value)
            return
        if isinstance(node, (ast.If, ast.While)):
            self._walk_expr(node.test)
            for child in [*node.body, *node.orelse]:
                self._walk_stmt(child)
            return
        if isinstance(node, (ast.For, ast.AsyncFor)):
            self._walk_expr(node.iter)
            iter_lineage = self.lineage_of(node.iter)
            if iter_lineage.kind == "streams":
                self._bind(
                    node.target,
                    Lineage(kind="derived", plane=iter_lineage.plane),
                    node.iter,
                )
            for child in [*node.body, *node.orelse]:
                self._walk_stmt(child)
            return
        if isinstance(node, (ast.With, ast.AsyncWith)):
            for item in node.items:
                self._walk_expr(item.context_expr)
            for child in node.body:
                self._walk_stmt(child)
            return
        if isinstance(node, ast.Try):
            for child in [
                *node.body,
                *[stmt for handler in node.handlers for stmt in handler.body],
                *node.orelse,
                *node.finalbody,
            ]:
                self._walk_stmt(child)
            return
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            # Nested defs: analysed inline — a closure's draws count as the
            # enclosing function's (conservative for effects).
            for child in node.body:
                self._walk_stmt(child)
            return
        if isinstance(node, (ast.Raise, ast.Assert)):
            for child in ast.iter_child_nodes(node):
                if isinstance(child, ast.expr):
                    self._walk_expr(child)
            return
        if isinstance(node, ast.Delete):
            for target in node.targets:
                if isinstance(target, ast.Name):
                    self.env.pop(target.id, None)
            return
        # Everything else (imports, global, pass, ...): walk expressions.
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.expr):
                self._walk_expr(child)
            elif isinstance(child, ast.stmt):
                self._walk_stmt(child)

    # -- expressions ---------------------------------------------------- #

    def _walk_expr(self, node: ast.expr) -> None:
        for call in _iter_calls(node):
            if id(call) in self._seen_calls:
                continue
            self._seen_calls.add(id(call))
            self._handle_call(call)

    def _handle_call(self, call: ast.Call) -> None:
        name = _call_name(call.func)
        if name in DERIVATION_NAMES:
            return  # derivation primitives: lineage sources, not effects
        self._detect_draw(call)
        callee = self.graph.resolve_call(self.function, call, self.local_types)
        rng_args: list[tuple[str, Lineage]] = []
        if callee is not None:
            positional = list(callee.positional_parameters())
            if positional and callee.is_method and not isinstance(
                call.func, ast.Name
            ):
                positional = positional[1:]  # bound call: drop self/cls
            elif positional and callee.name == "__init__":
                positional = positional[1:]  # constructor: drop self
            for index, argument in enumerate(call.args):
                lineage = self.lineage_of(argument)
                if index < len(positional):
                    slot = positional[index]
                    self._check_slot(argument, slot, lineage)
                    if lineage.is_rng:
                        rng_args.append((slot, lineage))
            for keyword in call.keywords:
                if keyword.arg is None:
                    continue
                lineage = self.lineage_of(keyword.value)
                self._check_slot(keyword.value, keyword.arg, lineage)
                if lineage.is_rng:
                    rng_args.append((keyword.arg, lineage))
        else:
            for index, argument in enumerate(call.args):
                lineage = self.lineage_of(argument)
                if lineage.is_rng:
                    rng_args.append((f"arg{index}", lineage))
            for keyword in call.keywords:
                if keyword.arg is None:
                    continue
                lineage = self.lineage_of(keyword.value)
                self._check_slot(keyword.value, keyword.arg, lineage)
                if lineage.is_rng:
                    rng_args.append((keyword.arg, lineage))
        self.result.call_sites.append(
            CallSite(
                node=call,
                callee=callee.qname if callee is not None else None,
                rng_args=tuple(rng_args),
            )
        )

    def _detect_draw(self, call: ast.Call) -> None:
        func = call.func
        if not isinstance(func, ast.Attribute):
            return
        method = func.attr
        if method not in ALWAYS_DRAW_METHODS and method not in RNG_ONLY_DRAW_METHODS:
            return
        if self.unit.resolve_call_target(func) is not None:
            # Resolves through the import map: a module-global draw surface
            # (random.random(), numpy.random.*) — DET001/DET002 territory,
            # not a draw on a tracked local value.
            return
        receiver = func.value
        lineage = self.lineage_of(receiver)
        receiver_name = (
            receiver.id
            if isinstance(receiver, ast.Name)
            else receiver.attr
            if isinstance(receiver, ast.Attribute)
            else ""
        )
        looks_rng = _rngish_name(receiver_name) if receiver_name else False
        if lineage.is_rng:
            self.result.draws.append(Draw(node=call, method=method, lineage=lineage))
            return
        if method in ALWAYS_DRAW_METHODS or looks_rng:
            draw = Draw(node=call, method=method, lineage=lineage)
            self.result.draws.append(draw)
            self.result.unknown_draws.append(draw)


def _iter_calls(node: ast.expr) -> list[ast.Call]:
    """Every call expression under ``node``, outermost first."""
    return [child for child in ast.walk(node) if isinstance(child, ast.Call)]


# ---------------------------------------------------------------------- #
# Entry points
# ---------------------------------------------------------------------- #


def analyze_class_attrs(
    graph: CallGraph, info: ClassInfo
) -> dict[str, Lineage]:
    """Phase 1: the lineages a class's ``self.<attr>`` slots are bound to.

    Runs every method with an empty attribute environment and joins the
    collected ``self.X = ...`` bindings (conflicting lineages join to their
    least upper bound), so phase 2 can resolve ``self.X`` reads in any
    method regardless of definition order.  Scanned base classes contribute
    their attribute lineages first, derived-class bindings win.
    """
    attrs: dict[str, Lineage] = {}
    for cls in reversed(list(graph.mro(info))):
        for method in cls.methods.values():
            analyzer = _FunctionAnalyzer(graph, method, {})
            result = analyzer.run()
            for name, lineage in result.attr_lineages.items():
                if name in attrs:
                    attrs[name] = _join(attrs[name], lineage)
                else:
                    attrs[name] = lineage
    return attrs


def analyze_function(
    graph: CallGraph,
    function: FunctionInfo,
    attr_lineages: Mapping[str, Lineage] | None = None,
) -> FunctionFlow:
    """Phase 2: the full lineage/draw/mix analysis of one function."""
    analyzer = _FunctionAnalyzer(graph, function, attr_lineages or {})
    return analyzer.run()
