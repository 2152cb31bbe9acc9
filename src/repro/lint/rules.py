"""The determinism/purity rule set, grounded in this codebase's contracts.

Every rule carries a stable ID (the pragma currency), a one-line title, a
rationale naming the invariant it proves, and a scope.  Scopes are dotted
module prefixes; a file *outside* any package (a scratch file, a test
fixture) is treated as fully in scope for every per-module rule, so
``repro lint scratch.py`` checks everything.

The per-file rules here prove local invariants; the catalogue-driven ones
(declared-deterministic kernels draw nothing, bound classes write no module
state) are the interprocedural FLW rules of :mod:`repro.lint.flow.rules`,
registered in the same table.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.lint.context import LintContext, ModuleUnit
from repro.lint.findings import ERROR, WARNING, Finding

__all__ = ["RULES", "Rule", "iter_rules", "register_rule", "rule_table"]


class Rule:
    """Base class: one statically checkable invariant with a stable ID."""

    id: str = ""
    title: str = ""
    rationale: str = ""
    severity: str = ERROR
    #: Dotted module prefixes the rule applies to inside the ``repro``
    #: package; ``None`` means every module.  Files outside any package are
    #: always in scope.
    scope: tuple[str, ...] | None = None
    #: Modules exempt wholesale (sanctioned sites named by the rule design,
    #: as opposed to per-line waivers).
    sanctioned: frozenset[str] = frozenset()
    #: Framework rules are emitted by the runner (waiver hygiene, syntax),
    #: not by a ``check`` implementation.
    framework: bool = False

    def in_scope(self, unit: ModuleUnit) -> bool:
        """Whether ``unit`` falls under this rule."""
        if unit.module is None:
            return True
        if unit.module in self.sanctioned:
            return False
        if self.scope is None:
            return True
        return any(
            unit.module == prefix or unit.module.startswith(prefix + ".")
            for prefix in self.scope
        )

    def check(self, unit: ModuleUnit, context: LintContext) -> Iterator[Finding]:
        """Yield findings for one module (per-module rules)."""
        return iter(())

    def check_project(self, context: LintContext) -> Iterator[Finding]:
        """Yield findings for the whole run (cross-file rules)."""
        return iter(())

    def finding(
        self, unit: ModuleUnit, node: ast.AST | None, message: str
    ) -> Finding:
        """Build a finding of this rule at ``node`` (line 1 when node-less)."""
        return Finding(
            rule=self.id,
            path=unit.display_path,
            line=getattr(node, "lineno", 1) if node is not None else 1,
            column=getattr(node, "col_offset", 0) if node is not None else 0,
            message=message,
            severity=self.severity,
        )


RULES: dict[str, Rule] = {}


def register_rule(cls: type[Rule]) -> type[Rule]:
    """Class decorator adding a rule to the registry (IDs must be unique)."""
    rule = cls()
    if rule.id in RULES:
        raise ValueError(f"duplicate lint rule id {rule.id!r}")
    RULES[rule.id] = rule
    return cls


def iter_rules() -> tuple[Rule, ...]:
    """Every registered rule, in stable ID order."""
    return tuple(RULES[rule_id] for rule_id in sorted(RULES))


def rule_table() -> list[dict[str, str]]:
    """ID/title/rationale rows for ``--list-rules`` and the README table."""
    return [
        {
            "id": rule.id,
            "title": rule.title,
            "severity": rule.severity,
            "rationale": rule.rationale,
        }
        for rule in iter_rules()
    ]


# ---------------------------------------------------------------------- #
# DET001 — wall-clock / entropy sources
# ---------------------------------------------------------------------- #

#: Qualified call targets that read the wall clock or the OS entropy pool.
#: ``time.perf_counter`` is deliberately absent: monotonic *duration*
#: measurement feeds only observability metrics, never simulation state.
_ENTROPY_CALLS: dict[str, str] = {
    "time.time": "wall-clock read",
    "time.time_ns": "wall-clock read",
    "datetime.datetime.now": "wall-clock read",
    "datetime.datetime.utcnow": "wall-clock read",
    "datetime.datetime.today": "wall-clock read",
    "datetime.date.today": "wall-clock read",
    "os.urandom": "OS entropy source",
    "os.getrandom": "OS entropy source",
    "uuid.uuid1": "clock/MAC-seeded UUID",
    "uuid.uuid4": "entropy-seeded UUID",
    "random.SystemRandom": "OS-entropy RNG",
    "secrets.token_bytes": "OS entropy source",
    "secrets.token_hex": "OS entropy source",
    "secrets.token_urlsafe": "OS entropy source",
    "secrets.randbits": "OS entropy source",
    "secrets.randbelow": "OS entropy source",
    "secrets.choice": "OS entropy source",
}


@register_rule
class WallClockRule(Rule):
    """No wall-clock or entropy source anywhere in the library."""

    id = "DET001"
    title = "no wall-clock/entropy sources"
    rationale = (
        "a time.time()/datetime.now()/os.urandom()/uuid4() read anywhere in "
        "an engine, kernel or adversary silently breaks bit-identical "
        "replays; the only sanctioned use is the obs timestamp *sink*, "
        "waived at its single call site"
    )

    def check(self, unit: ModuleUnit, context: LintContext) -> Iterator[Finding]:
        for node in ast.walk(unit.tree):
            if not isinstance(node, ast.Call):
                continue
            target = unit.resolve_call_target(node.func)
            if target in _ENTROPY_CALLS:
                yield self.finding(
                    unit,
                    node,
                    f"{target}() is a {_ENTROPY_CALLS[target]}; deterministic "
                    "code must not read the clock or the entropy pool",
                )


# ---------------------------------------------------------------------- #
# DET002 — RNG construction only at sanctioned derivation sites
# ---------------------------------------------------------------------- #

#: Constructors / reseeders of RNG streams, and the module-global
#: convenience draws that consume a hidden process-wide stream.
_RNG_CONSTRUCTION: frozenset[str] = frozenset(
    {
        "random.Random",
        "random.seed",
        "numpy.random.default_rng",
        "numpy.random.RandomState",
        "numpy.random.seed",
        "numpy.random.Generator",
    }
)
_GLOBAL_DRAWS: frozenset[str] = frozenset(
    {
        f"random.{name}"
        for name in (
            "random",
            "randint",
            "randrange",
            "choice",
            "choices",
            "shuffle",
            "sample",
            "getrandbits",
            "uniform",
            "gauss",
            "betavariate",
            "expovariate",
        )
    }
    | {
        f"numpy.random.{name}"
        for name in (
            "rand",
            "randn",
            "randint",
            "random",
            "random_sample",
            "choice",
            "shuffle",
            "permutation",
            "normal",
            "uniform",
            "binomial",
            "poisson",
        )
    }
)


@register_rule
class RngConstructionRule(Rule):
    """RNG streams are derived at sanctioned sites, received elsewhere."""

    id = "DET002"
    title = "RNG construction only at sanctioned derivation sites"
    rationale = (
        "every stream must be derived from the master seed via "
        "repro.util.rng (or an explicitly waived derivation site such as "
        "the batch seed-vector in network/batch.py); an ad-hoc "
        "random.Random()/np.random.default_rng() or a module-global "
        "random.random() draw forks an untracked stream and breaks "
        "seed-reproducibility — RNG objects must arrive as parameters"
    )
    sanctioned = frozenset({"repro.util.rng"})

    def check(self, unit: ModuleUnit, context: LintContext) -> Iterator[Finding]:
        for node in ast.walk(unit.tree):
            if not isinstance(node, ast.Call):
                continue
            target = unit.resolve_call_target(node.func)
            if target is None:
                continue
            if target in _RNG_CONSTRUCTION:
                yield self.finding(
                    unit,
                    node,
                    f"{target}() constructs/reseeds an RNG stream outside "
                    "the sanctioned derivation sites; derive streams via "
                    "repro.util.rng and pass generators as parameters",
                )
            elif target in _GLOBAL_DRAWS:
                yield self.finding(
                    unit,
                    node,
                    f"{target}() draws from the hidden module-global RNG "
                    "stream; draw from an explicitly passed generator "
                    "instead",
                )


# ---------------------------------------------------------------------- #
# DET003 — no raw iteration over unordered set/frozenset in hot paths
# ---------------------------------------------------------------------- #

_SET_CONSTRUCTORS = frozenset({"set", "frozenset"})
_SET_ANNOTATION_NAMES = frozenset(
    {"set", "frozenset", "Set", "FrozenSet", "AbstractSet", "MutableSet"}
)
#: Consumers whose result does not depend on iteration order.
_ORDER_INSENSITIVE = frozenset(
    {"sorted", "sum", "len", "any", "all", "min", "max", "set", "frozenset",
     "Counter"}
)
#: Consumers that freeze the (arbitrary) iteration order into a sequence.
_ORDER_SENSITIVE = frozenset({"list", "tuple", "enumerate", "iter", "reversed"})


def _annotation_is_set(annotation: ast.expr | None) -> bool:
    """Whether a type annotation denotes a set/frozenset."""
    if annotation is None:
        return False
    node = annotation
    if isinstance(node, ast.Subscript):
        node = node.value
    if isinstance(node, ast.Attribute):
        return node.attr in _SET_ANNOTATION_NAMES
    return isinstance(node, ast.Name) and node.id in _SET_ANNOTATION_NAMES


class _SetTypes:
    """Set-typedness inference: class attributes plus function locals."""

    def __init__(
        self, class_attrs: frozenset[str], local_names: frozenset[str]
    ) -> None:
        self.class_attrs = class_attrs
        self.local_names = local_names

    def is_set(self, node: ast.expr) -> bool:
        if isinstance(node, (ast.Set, ast.SetComp)):
            return True
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
            if node.func.id in _SET_CONSTRUCTORS:
                return True
        if isinstance(node, ast.Name):
            return node.id in self.local_names
        if isinstance(node, ast.Attribute):
            return (
                isinstance(node.value, ast.Name)
                and node.value.id == "self"
                and node.attr in self.class_attrs
            )
        if isinstance(node, ast.BinOp) and isinstance(
            node.op, (ast.BitOr, ast.BitAnd, ast.Sub, ast.BitXor)
        ):
            return self.is_set(node.left) or self.is_set(node.right)
        return False


def _class_set_attrs(cls: ast.ClassDef) -> frozenset[str]:
    """Attribute names a class binds to set/frozenset values or annotations."""
    attrs: set[str] = set()
    for node in ast.walk(cls):
        if isinstance(node, ast.AnnAssign) and _annotation_is_set(node.annotation):
            target = node.target
            if isinstance(target, ast.Name):
                attrs.add(target.id)
            elif (
                isinstance(target, ast.Attribute)
                and isinstance(target.value, ast.Name)
                and target.value.id == "self"
            ):
                attrs.add(target.attr)
        elif isinstance(node, ast.Assign):
            value_is_set = isinstance(node.value, (ast.Set, ast.SetComp)) or (
                isinstance(node.value, ast.Call)
                and isinstance(node.value.func, ast.Name)
                and node.value.func.id in _SET_CONSTRUCTORS
            )
            if not value_is_set:
                continue
            for target in node.targets:
                if (
                    isinstance(target, ast.Attribute)
                    and isinstance(target.value, ast.Name)
                    and target.value.id == "self"
                ):
                    attrs.add(target.attr)
    return frozenset(attrs)


def _function_set_locals(func: ast.AST) -> frozenset[str]:
    """Local names a function binds to set values or set annotations."""
    names: set[str] = set()
    args = getattr(func, "args", None)
    if args is not None:
        for arg in [*args.posonlyargs, *args.args, *args.kwonlyargs]:
            if _annotation_is_set(arg.annotation):
                names.add(arg.arg)
    for node in ast.walk(func):
        if isinstance(node, ast.Assign):
            value_is_set = isinstance(node.value, (ast.Set, ast.SetComp)) or (
                isinstance(node.value, ast.Call)
                and isinstance(node.value.func, ast.Name)
                and node.value.func.id in _SET_CONSTRUCTORS
            )
            if value_is_set:
                for target in node.targets:
                    if isinstance(target, ast.Name):
                        names.add(target.id)
        elif isinstance(node, ast.AnnAssign) and _annotation_is_set(
            node.annotation
        ):
            if isinstance(node.target, ast.Name):
                names.add(node.target.id)
    return frozenset(names)


@register_rule
class UnorderedIterationRule(Rule):
    """Hot paths must not let set iteration order reach results or RNG."""

    id = "DET003"
    title = "no raw set/frozenset iteration in hot-path modules"
    rationale = (
        "set/frozenset iteration order is arbitrary; a loop over one in an "
        "engine, adversary, counter or verifier can change which element "
        "feeds an RNG draw, an error message or a result first — iterate "
        "sorted(s) (dicts are insertion-ordered and exempt)"
    )
    scope = (
        "repro.core",
        "repro.consensus",
        "repro.counters",
        "repro.faults",
        "repro.network",
        "repro.sampling",
        "repro.verification",
    )

    def check(self, unit: ModuleUnit, context: LintContext) -> Iterator[Finding]:
        parents: dict[ast.AST, ast.AST] = {}
        for parent in ast.walk(unit.tree):
            for child in ast.iter_child_nodes(parent):
                parents[child] = parent

        def visit(node: ast.AST, class_attrs: frozenset[str]) -> Iterator[Finding]:
            if isinstance(node, ast.ClassDef):
                class_attrs = _class_set_attrs(node)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                types = _SetTypes(class_attrs, _function_set_locals(node))
                yield from self._check_function(unit, node, types, parents)
                # Nested defs are walked by _check_function itself.
                return
            for child in ast.iter_child_nodes(node):
                yield from visit(child, class_attrs)

        yield from visit(unit.tree, frozenset())

    def _check_function(
        self,
        unit: ModuleUnit,
        func: ast.AST,
        types: _SetTypes,
        parents: dict[ast.AST, ast.AST],
    ) -> Iterator[Finding]:
        for node in ast.walk(func):
            if isinstance(node, ast.For) and types.is_set(node.iter):
                yield self.finding(
                    unit,
                    node.iter,
                    "for-loop over an unordered set/frozenset; iterate "
                    "sorted(...) to fix the order",
                )
            elif isinstance(node, (ast.ListComp, ast.GeneratorExp, ast.DictComp)):
                if self._consumed_order_insensitively(node, parents):
                    continue
                for generator in node.generators:
                    if types.is_set(generator.iter):
                        yield self.finding(
                            unit,
                            generator.iter,
                            "comprehension over an unordered set/frozenset "
                            "whose result order escapes; iterate sorted(...)",
                        )
            elif isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
                if node.func.id in _ORDER_SENSITIVE and node.args:
                    if types.is_set(node.args[0]):
                        yield self.finding(
                            unit,
                            node,
                            f"{node.func.id}() freezes an arbitrary "
                            "set/frozenset order into a sequence; wrap the "
                            "set in sorted(...)",
                        )

    @staticmethod
    def _consumed_order_insensitively(
        node: ast.AST, parents: dict[ast.AST, ast.AST]
    ) -> bool:
        """Whether a comprehension feeds an order-insensitive consumer."""
        parent = parents.get(node)
        return (
            isinstance(parent, ast.Call)
            and isinstance(parent.func, ast.Name)
            and parent.func.id in _ORDER_INSENSITIVE
        )


# ---------------------------------------------------------------------- #
# ERR001 — ParameterError contract in registry/factory code
# ---------------------------------------------------------------------- #


@register_rule
class BareRaiseRule(Rule):
    """Registry/factory modules raise ParameterError, not TypeError/KeyError."""

    id = "ERR001"
    title = "no bare TypeError/KeyError raises in registry/factory code"
    rationale = (
        "the declared contract since PR 7: unknown components and "
        "out-of-schema parameters raise ParameterError carrying the schema; "
        "a bare TypeError/KeyError from a registry or factory module "
        "regresses the error style the CLI and campaign layers rely on"
    )
    scope = (
        "repro.network.adversary",
        "repro.semantics",
        "repro.campaigns.spec",
        "repro.experiments.catalog",
    )

    def check(self, unit: ModuleUnit, context: LintContext) -> Iterator[Finding]:
        for node in ast.walk(unit.tree):
            if not isinstance(node, ast.Raise) or node.exc is None:
                continue
            exc = node.exc
            name: str | None = None
            if isinstance(exc, ast.Call) and isinstance(exc.func, ast.Name):
                name = exc.func.id
            elif isinstance(exc, ast.Name):
                name = exc.id
            if name in ("TypeError", "KeyError"):
                yield self.finding(
                    unit,
                    node,
                    f"raise {name} in registry/factory code; the declared "
                    "contract is ParameterError carrying the parameter "
                    "schema",
                )


# ---------------------------------------------------------------------- #
# Framework rules (emitted by the runner, registered for the table)
# ---------------------------------------------------------------------- #


@register_rule
class WaiverJustificationRule(Rule):
    """A waiver pragma must carry a justification and known rule IDs."""

    id = "WVR001"
    title = "waivers carry a justification and name known rules"
    rationale = (
        "a waiver is a reviewed exception; '# repro-lint: allow[ID] -- why' "
        "with the why missing (or an unknown rule ID) waives nothing and is "
        "itself a finding, so silent blanket exemptions cannot creep in"
    )
    framework = True


@register_rule
class UnusedWaiverRule(Rule):
    """A justified waiver that silences nothing is a warning."""

    id = "WVR002"
    title = "no unused waivers"
    severity = WARNING
    rationale = (
        "when the violation a waiver covered is gone, the waiver must go "
        "too — dead pragmas read as sanctioned exemptions and mask future "
        "regressions on the same line"
    )
    framework = True


@register_rule
class SyntaxErrorRule(Rule):
    """Unparseable files are findings, not crashes."""

    id = "SYN001"
    title = "files must parse"
    rationale = (
        "a file the AST pass cannot parse is a file none of the invariants "
        "are proven for"
    )
    framework = True


# The interprocedural FLW rules live in their own subpackage but register in
# this registry; the import must come after Rule/register_rule are defined.
from repro.lint.flow import rules as _flow_rules  # noqa: E402,F401
