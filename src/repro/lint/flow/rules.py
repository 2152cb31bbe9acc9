"""The interprocedural FLW rules, registered in the ordinary rule registry.

All four interpret the one shared :class:`~repro.lint.flow.analysis.FlowAnalysis`
the context memoises — same waiver pragmas, same ``--json`` artifact, same
CLI as the per-file rules.  Findings that rest on a call chain carry the
resolved ``caller:line -> ... -> draw_site:line`` path in the message, so a
violation names *how* the effect is reached, not just where it surfaces.
"""

from __future__ import annotations

from typing import Iterator

from repro.lint.context import LintContext, ModuleUnit
from repro.lint.findings import Finding
from repro.lint.flow.callgraph import ClassInfo
from repro.lint.flow.summaries import EffectSummary, format_chain
from repro.lint.rules import Rule, register_rule

__all__ = [
    "UnknownLineageDrawRule",
    "CrossPlaneMixRule",
    "DeclaredDeterministicDrawsRule",
    "EffectContractRule",
]

#: Engine hot paths: the modules whose draws must carry a known lineage.
_HOT_PATHS = (
    "repro.network",
    "repro.counters",
    "repro.faults",
    "repro.sampling",
)

#: Packageless fallback: scratch classes with these name shapes carry the
#: kernel-purity obligation even without a catalogue entry.
_KERNEL_SUFFIXES = ("Kernel", "Adversary")

_KERNEL_PURITY = "kernel-purity"


class _FlowRule(Rule):
    """Shared plumbing: FLW rules are project rules over ``context.flow()``."""

    def _in_scope_unit(self, unit: ModuleUnit) -> bool:
        return self.in_scope(unit)


@register_rule
class UnknownLineageDrawRule(_FlowRule):
    """FLW001 — every hot-path draw descends from a named stream."""

    id = "FLW001"
    title = "no unknown-lineage draws in engine hot paths"
    rationale = (
        "a draw whose generator cannot be traced to a derive_rng/"
        "ensure_rng-named stream is invisible to seed replay: reordering or "
        "adding such a draw silently shifts every downstream sequence, and "
        "no parity fuzz seed is guaranteed to notice"
    )
    scope = _HOT_PATHS

    def check_project(self, context: LintContext) -> Iterator[Finding]:
        analysis = context.flow()
        for qname in sorted(analysis.flows):
            flow = analysis.flows[qname]
            unit = flow.function.unit
            if not self._in_scope_unit(unit):
                continue
            for draw in flow.unknown_draws:
                yield self.finding(
                    unit,
                    draw.node,
                    f"{qname} draws via .{draw.method}() on a value of "
                    f"{draw.lineage.describe()}; every draw in an engine hot "
                    "path must descend from a named derive_rng/ensure_rng "
                    "stream so seed replay can account for it",
                )


@register_rule
class CrossPlaneMixRule(_FlowRule):
    """FLW002 — faults/adversary/algorithm stream planes never mix."""

    id = "FLW002"
    title = "no cross-plane stream mixing"
    rationale = (
        "the faults, adversary and algorithm planes are derived as disjoint "
        "streams precisely so perturbations cannot shift the draw sequence "
        "of an unperturbed trace; one stream crossing planes breaks "
        "bit-identical replay of every historical run that did not take "
        "the perturbed path"
    )

    def check_project(self, context: LintContext) -> Iterator[Finding]:
        analysis = context.flow()
        for qname in sorted(analysis.flows):
            flow = analysis.flows[qname]
            unit = flow.function.unit
            if not self._in_scope_unit(unit):
                continue
            for violation in flow.mix_violations:
                yield self.finding(
                    unit,
                    violation.node,
                    f"in {qname}, {violation.lineage.describe()} from plane "
                    f"{violation.lineage.plane!r} flows into "
                    f"{violation.slot!r}, which belongs to plane "
                    f"{violation.expected!r}; stream planes must never mix",
                )


def _scanned_class(context: LintContext, module: str, name: str) -> ClassInfo | None:
    return context.flow().graph.classes.get((module, name))


@register_rule
class DeclaredDeterministicDrawsRule(_FlowRule):
    """FLW003 — a catalogue-declared deterministic kernel is RNG-free."""

    id = "FLW003"
    title = "declared-deterministic kernels are RNG-free on all paths"
    rationale = (
        "the catalogue's DeterminismClass declarations are what the "
        "executor, the coverage notes and the parity harness trust; a "
        "kernel that draws randomness while declared deterministic turns "
        "bit-identity from a theorem back into an unchecked claim"
    )

    def check_project(self, context: LintContext) -> Iterator[Finding]:
        analysis = context.flow()
        for expectation in context.kernel_expectations():
            if expectation.expectation != "pure":
                continue
            info = _scanned_class(
                context, expectation.module, expectation.class_name
            )
            if info is None:
                continue
            methods = analysis.graph.methods_of(info)
            for root in expectation.root_methods:
                method = methods.get(root)
                if method is None:
                    continue
                summary = analysis.summaries.get(method.qname)
                if summary is None or not summary.draws_rng:
                    continue
                declared = ", ".join(expectation.declared_by)
                yield self.finding(
                    info.unit,
                    method.node,
                    f"{expectation.class_name}.{root} is declared "
                    f"deterministic by catalogue entr"
                    f"{'y' if len(expectation.declared_by) == 1 else 'ies'} "
                    f"{declared} but draws randomness via "
                    f"{format_chain(summary.draw_chain)}",
                )


@register_rule
class EffectContractRule(_FlowRule):
    """FLW004 — effect summaries respect the declared purity contracts."""

    id = "FLW004"
    title = "effect summaries match the NullObserver/kernel contracts"
    rationale = (
        "NullObserver is the zero-overhead default: any IO, module-state "
        "write or draw on its paths taxes and perturbs every uninstrumented "
        "run; kernels likewise must not write module state or perform IO, "
        "or identical seeds stop implying identical runs"
    )

    def check_project(self, context: LintContext) -> Iterator[Finding]:
        analysis = context.flow()
        for info, contract in self._contracted_classes(context):
            # Kernels are checked whole, constructors included; the
            # NullObserver contract covers its per-event methods only.
            dunders = (
                ("__call__", "__init__")
                if contract == _KERNEL_PURITY
                else ("__call__",)
            )
            for name, method in sorted(analysis.graph.methods_of(info).items()):
                if name.startswith("__") and name not in dunders:
                    continue
                summary = analysis.summaries.get(method.qname)
                if summary is None:
                    continue
                for effect in self._violations(summary, contract):
                    yield self.finding(
                        info.unit,
                        method.node,
                        f"{info.name}.{name} {effect}, contradicting the "
                        f"{contract} contract",
                    )

    def _contracted_classes(
        self, context: LintContext
    ) -> Iterator[tuple[ClassInfo, str]]:
        """Scanned classes with an effect contract, and which contract."""
        analysis = context.flow()
        seen: set[str] = set()
        for expectation in context.kernel_expectations():
            info = _scanned_class(
                context, expectation.module, expectation.class_name
            )
            if info is not None and info.qname not in seen:
                seen.add(info.qname)
                yield info, _KERNEL_PURITY
        for (module, name), info in sorted(analysis.graph.classes.items()):
            if info.qname in seen:
                continue
            if name == "NullObserver":
                seen.add(info.qname)
                yield info, "NullObserver zero-overhead"
            elif info.unit.module is None and name.endswith(_KERNEL_SUFFIXES):
                seen.add(info.qname)
                yield info, _KERNEL_PURITY

    @staticmethod
    def _violations(summary: EffectSummary, contract: str) -> Iterator[str]:
        if summary.performs_io:
            yield "performs IO"
        if summary.writes_module_state:
            yield "writes module-level state"
        if contract.startswith("NullObserver") and summary.draws_rng:
            yield (
                "draws randomness via "
                f"{format_chain(summary.draw_chain)}"
            )
