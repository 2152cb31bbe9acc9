"""Single source of truth for component semantics.

Every discovery and execution surface — building an algorithm by name
(:func:`build_algorithm`), the scalar adversary factory, the batch kernel
dispatch, the parity-fuzz sweep, ``python -m repro list`` and the README
coverage matrix — reads its knowledge about components from the specs
declared here, and looks every component name up in them.  See
:mod:`repro.semantics.spec` for the dataclasses, :mod:`repro.semantics.catalog`
for the declarations and :mod:`repro.semantics.selfcheck` for the empirical
audit.
"""

from repro.semantics.catalog import (
    ADVERSARY_SEMANTICS,
    ALGORITHM_SEMANTICS,
    FAULT_SCHEDULE_SEMANTICS,
    active_strategy_names,
    adversary_coverage_notes,
    adversary_semantics,
    algorithm_names,
    algorithm_semantics,
    build_algorithm,
    fault_schedule_names,
    fault_schedule_semantics,
    strategy_names,
)
from repro.semantics.selfcheck import verify
from repro.semantics.spec import (
    BIT_IDENTICAL,
    FLAT_ONLY,
    STATISTICAL,
    AdversarySemantics,
    AlgorithmSemantics,
    DeterminismClass,
    FaultScheduleSemantics,
    FuzzProfile,
    Parameter,
    flat_states,
    format_schema,
    resolve_binding,
    validate_parameters,
)

__all__ = [
    "ADVERSARY_SEMANTICS",
    "ALGORITHM_SEMANTICS",
    "AdversarySemantics",
    "AlgorithmSemantics",
    "BIT_IDENTICAL",
    "DeterminismClass",
    "FAULT_SCHEDULE_SEMANTICS",
    "FLAT_ONLY",
    "FaultScheduleSemantics",
    "FuzzProfile",
    "Parameter",
    "STATISTICAL",
    "active_strategy_names",
    "adversary_coverage_notes",
    "adversary_semantics",
    "algorithm_names",
    "algorithm_semantics",
    "build_algorithm",
    "fault_schedule_names",
    "fault_schedule_semantics",
    "flat_states",
    "format_schema",
    "resolve_binding",
    "strategy_names",
    "validate_parameters",
    "verify",
]
