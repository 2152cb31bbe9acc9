"""The lint driver: discover files, run rules, apply waivers, build a report.

One AST parse per file *per process*: parsed units are cached keyed on
``(path, mtime_ns, size)``, so the per-file rules and the interprocedural
flow pass share one parse, and repeated in-process runs (the test suite, the
``repro verify`` gate) re-parse only what changed on disk.  Per-module rules
run over every in-scope unit, project rules (the FLW flow rules) run once
per invocation.  Waivers are applied last, so the JSON artifact records the
waived findings alongside their justifications — an audit trail, not a
silent hole.
"""

from __future__ import annotations

import time
from pathlib import Path
from typing import Iterable, Sequence

from repro.lint.context import LintContext, ModuleUnit, parse_unit
from repro.lint.findings import Finding, Report, sort_findings
from repro.lint.rules import RULES, Rule, iter_rules

__all__ = [
    "default_root",
    "discover_files",
    "lint_paths",
    "run_lint",
]

_SKIP_DIRS = frozenset({"__pycache__", ".git", ".venv", "node_modules"})

#: Parsed-unit cache: resolved path -> ((mtime_ns, size), unit).  The waiver
#: objects on a cached unit are mutated by ``_apply_waivers`` (``used``
#: flags), so hits reset them before reuse.
_UNIT_CACHE: dict[Path, tuple[tuple[int, int], ModuleUnit]] = {}


def default_root() -> Path:
    """The tree linted when no path is given: the ``repro`` package itself."""
    import repro

    return Path(repro.__file__).resolve().parent


def discover_files(paths: Iterable[str | Path]) -> list[Path]:
    """Expand files/directories into a sorted, de-duplicated ``.py`` list."""
    seen: dict[Path, None] = {}
    for raw in paths:
        path = Path(raw)
        if path.is_dir():
            for file in sorted(path.rglob("*.py")):
                if not _SKIP_DIRS.intersection(file.parts):
                    seen.setdefault(file.resolve(), None)
        else:
            seen.setdefault(path.resolve(), None)
    return sorted(seen)


def _load_unit(path: Path) -> ModuleUnit:
    """Parse ``path`` through the cache (raises ``SyntaxError``)."""
    stat = path.stat()
    stamp = (stat.st_mtime_ns, stat.st_size)
    cached = _UNIT_CACHE.get(path)
    if cached is not None and cached[0] == stamp:
        unit = cached[1]
        for waiver in unit.waivers:
            waiver.used = False
        return unit
    unit = parse_unit(path)
    _UNIT_CACHE[path] = (stamp, unit)
    return unit


def _apply_waivers(
    findings: Iterable[Finding],
    units: Sequence[ModuleUnit],
    police_unused: bool = True,
) -> list[Finding]:
    """Silence findings covered by justified waivers; police the waivers.

    Returns the full finding list: covered findings marked ``waived`` (with
    their justification), plus WVR001 errors for justification-less or
    unknown-rule waivers and WVR002 warnings for justified waivers that
    silenced nothing.
    """
    by_path = {unit.display_path: unit for unit in units}
    out: list[Finding] = []
    for finding in findings:
        unit = by_path.get(finding.path)
        waived = finding
        if unit is not None:
            for waiver in unit.waivers:
                if waiver.target_line == finding.line and waiver.covers(
                    finding.rule
                ):
                    waived = finding.waive(waiver.justification)
                    waiver.used = True
                    break
        out.append(waived)

    for unit in units:
        for waiver in unit.waivers:
            if not waiver.justification:
                out.append(
                    Finding(
                        rule="WVR001",
                        path=unit.display_path,
                        line=waiver.line,
                        column=0,
                        message=(
                            "waiver has no justification; the syntax is "
                            "'# repro-lint: allow[RULE-ID] -- why this "
                            "exception is sound'"
                        ),
                    )
                )
                continue
            unknown = sorted(set(waiver.rules) - set(RULES))
            if unknown:
                out.append(
                    Finding(
                        rule="WVR001",
                        path=unit.display_path,
                        line=waiver.line,
                        column=0,
                        message=(
                            f"waiver names unknown rule(s) "
                            f"{', '.join(unknown)}; known rules: "
                            f"{', '.join(sorted(RULES))}"
                        ),
                    )
                )
            elif police_unused and not waiver.used:
                out.append(
                    Finding(
                        rule="WVR002",
                        path=unit.display_path,
                        line=waiver.line,
                        column=0,
                        message=(
                            "waiver silences no finding on its target "
                            "line; remove the dead pragma"
                        ),
                        severity="warning",
                    )
                )
    return out


def run_lint(
    paths: Sequence[str | Path] | None = None,
    *,
    rules: Sequence[str] | None = None,
    kernel_expectations_override: Sequence[object] | None = None,
    flow_graph_path: str | Path | None = None,
) -> Report:
    """Lint ``paths`` (default: the installed ``repro`` package tree).

    ``rules`` restricts the run to the given rule IDs (framework rules —
    waiver hygiene, syntax — always apply); an unknown ID raises
    ``ValueError`` rather than lint nothing.  ``kernel_expectations_override``
    injects the catalogue's kernel expectations for tests; by default
    :func:`repro.semantics.flowfacts.kernel_expectations` is consulted.
    ``flow_graph_path`` writes the call-graph + effect-summary JSON artifact
    after the rules run.
    """
    started = time.perf_counter()
    if rules is not None:
        unknown = sorted(set(rules) - set(RULES))
        if unknown:
            raise ValueError(
                f"unknown rule id(s): {', '.join(unknown)}; "
                f"known: {', '.join(sorted(RULES))}"
            )
    roots = [str(p) for p in paths] if paths else [str(default_root())]
    files = discover_files(roots)

    units: list[ModuleUnit] = []
    findings: list[Finding] = []
    for file in files:
        try:
            units.append(_load_unit(file))
        except SyntaxError as error:
            findings.append(
                Finding(
                    rule="SYN001",
                    path=str(file),
                    line=error.lineno or 1,
                    column=error.offset or 0,
                    message=f"file does not parse: {error.msg}",
                )
            )

    context = LintContext(
        units=units,
        kernel_expectations_override=kernel_expectations_override,  # type: ignore[arg-type]
    )

    selected: list[Rule] = [
        rule
        for rule in iter_rules()
        if not rule.framework and (rules is None or rule.id in rules)
    ]
    for rule in selected:
        for unit in units:
            if rule.in_scope(unit):
                findings.extend(rule.check(unit, context))
        findings.extend(rule.check_project(context))

    if flow_graph_path is not None:
        import json

        payload = context.flow().to_dict()
        Path(flow_graph_path).write_text(
            json.dumps(payload, indent=2, sort_keys=True) + "\n",
            encoding="utf-8",
        )

    # A --rules subset leaves other rules' waivers legitimately unused, so
    # the dead-pragma warning only applies to full runs.
    findings = _apply_waivers(findings, units, police_unused=rules is None)
    return Report(
        findings=sort_findings(findings),
        files_scanned=len(files),
        elapsed=time.perf_counter() - started,
        roots=tuple(roots),
    )


def lint_paths(*paths: str | Path, **kwargs: object) -> Report:
    """Convenience wrapper: ``lint_paths("src/repro")``."""
    return run_lint(list(paths) or None, **kwargs)  # type: ignore[arg-type]
