"""Determinism-aware static analysis for the reproduction tree.

The dynamic correctness machinery — the parity-fuzz harness, the semantics
``verify()`` audit — *samples* the invariants the bit-identity guarantees
rest on.  This package *proves* the cheap half of them on every line, at CI
time, with an AST pass:

* no wall-clock or entropy source feeds a simulation (``DET001``);
* RNG streams are only ever constructed at the sanctioned derivation sites,
  everywhere else generators arrive as parameters (``DET002``);
* no hot-path module iterates an unordered ``set``/``frozenset`` raw
  (``DET003``);
* registry/factory modules honour the :class:`~repro.core.errors.ParameterError`
  contract instead of raising bare ``TypeError``/``KeyError`` (``ERR001``);
* and, interprocedurally over the whole-package call graph
  (:mod:`repro.lint.flow`): hot-path draws descend from named streams
  (``FLW001``), stream planes never mix (``FLW002``), catalogue-declared
  deterministic kernels are RNG-free (``FLW003``), and catalogue-bound
  kernels and adversaries write no module state and perform no IO on any
  resolvable path, as ``NullObserver`` must not (``FLW004``).  Their scope is
  *derived* from :func:`repro.semantics.flowfacts.kernel_expectations`, so
  a newly declared component is covered automatically.

Violations are waived per line with a mandatory-justification pragma::

    time.time()  # repro-lint: allow[DET001] -- ts is a sink, never an input

(see :mod:`repro.lint.waivers`; a justification-less waiver is itself a
finding, ``WVR001``, and an unused waiver is a warning, ``WVR002``).

Entry points: ``python -m repro lint`` (:mod:`repro.lint.cli`, also what CI
runs) and :func:`run_lint` for programmatic use.  That catalogue bindings
resolve is :func:`repro.semantics.verify`'s job, not the linter's.
"""

from repro.lint.findings import Finding, Report
from repro.lint.rules import RULES, Rule, iter_rules, rule_table
from repro.lint.runner import lint_paths, run_lint
from repro.lint.waivers import Waiver, parse_waivers

__all__ = [
    "Finding",
    "RULES",
    "Report",
    "Rule",
    "Waiver",
    "iter_rules",
    "lint_paths",
    "parse_waivers",
    "rule_table",
    "run_lint",
]
