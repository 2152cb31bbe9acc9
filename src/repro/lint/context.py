"""Per-file and per-run context the lint rules operate on.

A :class:`ModuleUnit` is one parsed source file: AST, waiver pragmas, the
dotted module name (when the file sits inside a package) and an import map
resolving local names to the fully qualified modules/attributes they were
imported as.  A :class:`LintContext` is the whole run: every unit, the
memoised interprocedural flow analysis, and the one catalogue fact the
linter reads — the kernel expectations of
:func:`repro.semantics.flowfacts.kernel_expectations`, which scope the FLW
rules, so a newly declared component is covered automatically.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Iterator, Sequence

from repro.lint.waivers import Waiver, parse_waivers

if TYPE_CHECKING:
    from repro.lint.flow.analysis import FlowAnalysis
    from repro.semantics.flowfacts import KernelExpectation

__all__ = [
    "LintContext",
    "ModuleUnit",
    "build_import_map",
    "module_name_for",
    "parse_unit",
]


def module_name_for(path: Path) -> str | None:
    """The dotted module name of ``path``, or ``None`` outside any package.

    Walks up while the containing directories are packages (``__init__.py``
    present), so ``src/repro/network/batch.py`` resolves to
    ``repro.network.batch`` and a scratch file in a bare directory resolves
    to ``None`` (rules then treat it as fully in scope).
    """
    path = path.resolve()
    parts: list[str] = [path.stem]
    parent = path.parent
    package_found = False
    while (parent / "__init__.py").exists():
        package_found = True
        parts.append(parent.name)
        parent = parent.parent
    if not package_found:
        return None
    if parts[0] == "__init__":
        parts = parts[1:]
    return ".".join(reversed(parts))


def build_import_map(tree: ast.AST) -> dict[str, str]:
    """Map local names to the qualified names they were imported as.

    ``import numpy as np`` maps ``np -> numpy``; ``from time import time``
    maps ``time -> time.time``; ``from numpy import random as npr`` maps
    ``npr -> numpy.random``.  Relative imports are skipped — the banned
    call surfaces (``time``, ``random``, ``numpy.random``, ``os``, ``uuid``,
    ``secrets``) are all absolute stdlib/numpy modules.
    """
    mapping: dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                local = alias.asname or alias.name.partition(".")[0]
                target = alias.name if alias.asname else alias.name.partition(".")[0]
                mapping[local] = target
        elif isinstance(node, ast.ImportFrom):
            if node.level or node.module is None:
                continue
            for alias in node.names:
                if alias.name == "*":
                    continue
                mapping[alias.asname or alias.name] = f"{node.module}.{alias.name}"
    return mapping


@dataclass
class ModuleUnit:
    """One parsed source file with everything the rules need."""

    path: Path
    module: str | None
    tree: ast.Module
    waivers: list[Waiver]
    import_map: dict[str, str]

    @property
    def display_path(self) -> str:
        """The path findings are reported under (relative when possible)."""
        try:
            return str(self.path.relative_to(Path.cwd()))
        except ValueError:
            return str(self.path)

    def resolve_call_target(self, func: ast.expr) -> str | None:
        """The qualified dotted name a call's ``func`` refers to, if any.

        ``np.random.default_rng`` resolves to ``numpy.random.default_rng``
        (via the import map); calls whose root is a local object — for
        example ``rng.random()`` on a generator that arrived as a parameter
        — resolve to ``None``, which is exactly the shape the determinism
        rules must allow.
        """
        parts: list[str] = []
        node: ast.expr = func
        while isinstance(node, ast.Attribute):
            parts.append(node.attr)
            node = node.value
        if not isinstance(node, ast.Name):
            return None
        qualified_root = self.import_map.get(node.id)
        if qualified_root is None:
            return None
        return ".".join([qualified_root, *reversed(parts)])


def parse_unit(path: Path) -> ModuleUnit:
    """Parse one file into a :class:`ModuleUnit` (raises ``SyntaxError``)."""
    source = path.read_text(encoding="utf-8")
    tree = ast.parse(source, filename=str(path))
    return ModuleUnit(
        path=path,
        module=module_name_for(path),
        tree=tree,
        waivers=parse_waivers(source),
        import_map=build_import_map(tree),
    )


@dataclass
class LintContext:
    """The whole lint run: every unit plus the catalogue's kernel facts."""

    units: Sequence[ModuleUnit]
    #: Injected kernel expectations (tests use this); ``None`` means "ask
    #: :func:`repro.semantics.flowfacts.kernel_expectations` when a rule
    #: first needs them".
    kernel_expectations_override: "Sequence[KernelExpectation] | None" = None
    _flow: "FlowAnalysis | None" = field(default=None, init=False, repr=False)

    def kernel_expectations(self) -> "tuple[KernelExpectation, ...]":
        """Per-kernel-class determinism obligations for the flow cross-check."""
        if self.kernel_expectations_override is not None:
            return tuple(self.kernel_expectations_override)
        from repro.semantics.flowfacts import kernel_expectations

        return kernel_expectations()

    # ------------------------------------------------------------------ #
    # Interprocedural analysis (shared by all FLW rules)
    # ------------------------------------------------------------------ #

    def flow(self) -> "FlowAnalysis":
        """The run's memoised flow analysis (built on first use)."""
        if self._flow is None:
            from repro.lint.flow.analysis import analyze

            self._flow = analyze(self)
        return self._flow

    def iter_units(self) -> Iterator[ModuleUnit]:
        """All scanned units, in scan (sorted-path) order."""
        return iter(self.units)
