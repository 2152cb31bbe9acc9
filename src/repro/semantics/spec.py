"""Declarative component semantics: the dataclasses of the single-source layer.

A component — an algorithm or an adversary strategy — used to describe itself
three times: once as a scalar class, once as a NumPy batch kernel, and once
implicitly in the parity harness's expectations.  The dataclasses here hold
that description exactly once:

* :class:`AlgorithmSemantics` — the algorithm's state space (flat integers vs
  the :class:`~repro.counters.kernels.BoostedStateCodec` layout), parameter
  schema with defaults, scalar/batch determinism, kernel binding and the
  parity-fuzz profiles its catalogue entry is swept with;
* :class:`AdversarySemantics` — the strategy's parameter schema, scalar class
  and kernel bindings, scalar determinism and the per-state-space
  :class:`DeterminismClass` the batch kernel promises;
* :class:`DeterminismClass` — the batch-vs-scalar equivalence contract,
  refined by the state encoding (the adaptive-split fabrication path is pure
  for flat integer counters but draws randomness for boosted states).

Bindings to scalar classes and kernel classes are stored as
``"module:attribute"`` strings and resolved lazily, so this module imports
neither NumPy nor the engine modules — the spec layer stays importable in
NumPy-less environments and never participates in import cycles.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from importlib import import_module
from typing import Any, Callable, Iterable, Mapping

from repro.core.errors import ParameterError
from repro.util.validation import is_integer

__all__ = [
    "Parameter",
    "DeterminismClass",
    "BIT_IDENTICAL",
    "FLAT_ONLY",
    "STATISTICAL",
    "FuzzProfile",
    "AlgorithmSemantics",
    "AdversarySemantics",
    "FaultScheduleSemantics",
    "flat_encoding",
    "format_schema",
    "resolve_binding",
    "validate_parameters",
]


@cache
def resolve_binding(binding: str) -> Any:
    """Resolve a lazy ``"module:attribute"`` binding to the named object.

    Memoised: bindings are constant strings, and the scalar adversary
    factory resolves one per trial.
    """
    module_name, _, attribute = binding.partition(":")
    if not module_name or not attribute:
        raise ParameterError(
            f"malformed binding {binding!r}; expected 'module:attribute'"
        )
    return getattr(import_module(module_name), attribute)


def flat_encoding(kernel: Any) -> bool:
    """Whether a batch kernel encodes flat integer states (one int64 field).

    This is the state-space predicate the encoding-dependent determinism
    classes are refined by: one field *and* integer scalar states (boosted
    codecs always carry the phase king registers as extra fields).
    """
    return kernel.fields == 1 and isinstance(
        kernel.algorithm.default_state(), int
    )


@dataclass(frozen=True)
class Parameter:
    """One entry of a component's parameter schema."""

    name: str
    default: Any
    help: str = ""


def format_schema(parameters: Iterable[Parameter]) -> str:
    """Render a parameter schema for error messages and ``list --verbose``."""
    rendered = ", ".join(
        f"{parameter.name} (default {parameter.default!r})"
        for parameter in parameters
    )
    return rendered or "(no parameters)"


def validate_parameters(
    kind: str,
    name: str,
    parameters: tuple[Parameter, ...],
    given: Mapping[str, Any],
) -> None:
    """Reject parameters outside the schema with the schema in the message."""
    unknown = sorted(set(given) - {parameter.name for parameter in parameters})
    if unknown:
        raise ParameterError(
            f"unknown parameter(s) {', '.join(map(repr, unknown))} for "
            f"{kind} {name!r}; accepted parameters: "
            f"{format_schema(parameters)}"
        )


@dataclass(frozen=True)
class DeterminismClass:
    """Batch-vs-scalar equivalence of a strategy, per state encoding.

    ``flat`` / ``boosted`` state whether the strategy's batch kernel consumes
    NumPy randomness against flat integer encodings and against boosted
    (structured) encodings respectively: ``True`` means the kernel is pure
    there, so batch executions are bit-identical to the scalar engine.
    """

    flat: bool
    boosted: bool

    def for_flat(self, flat: bool) -> bool:
        """The answer for one concrete encoding."""
        return self.flat if flat else self.boosted

    def for_kernel(self, kernel: Any) -> bool:
        """The answer for one concrete algorithm kernel instance."""
        return self.for_flat(flat_encoding(kernel))

    @property
    def bit_identical(self) -> bool:
        """Pure against every state encoding."""
        return self.flat and self.boosted

    def note(self) -> str:
        """The human-readable coverage note of this equivalence class."""
        if self.flat and self.boosted:
            return "bit-identical"
        if self.flat:
            return (
                "bit-identical for flat counters, "
                "statistically equivalent for boosted states"
            )
        if self.boosted:
            return (
                "statistically equivalent for flat counters, "
                "bit-identical for boosted states"
            )
        return "statistically equivalent (NumPy RNG)"


#: Three of the four classes the registered strategies inhabit, by name;
#: phase-king-skew declares the fourth, ``DeterminismClass(flat=False,
#: boosted=True)``, in place (random flat fallback, draw-free skew).
BIT_IDENTICAL = DeterminismClass(flat=True, boosted=True)
FLAT_ONLY = DeterminismClass(flat=True, boosted=False)
STATISTICAL = DeterminismClass(flat=False, boosted=False)


@dataclass(frozen=True)
class FuzzProfile:
    """One parity-fuzz grid entry for an algorithm.

    ``params`` parameterise the algorithm build, ``max_faults`` bounds the
    sampled fault counts and ``max_rounds`` caps the per-configuration round
    budget so the slowest configurations stay test-suite cheap.
    """

    params: tuple[tuple[str, Any], ...]
    max_faults: int
    max_rounds: int


@dataclass(frozen=True)
class AlgorithmSemantics:
    """The single declarative description of one algorithm.

    Attributes
    ----------
    name / description / model / source:
        Catalogue metadata: the lookup key, the one-line listing text, the
        communication model (``"broadcast"`` / ``"pulling"``) and the paper
        reference.
    build:
        The factory callable (keyword parameters per :attr:`parameters`).
        Heavy imports happen inside the callable, never at spec time.
    parameters:
        The full parameter schema with defaults; ``build`` accepts exactly
        these names.
    scalar_deterministic:
        Whether the built scalar component draws internal randomness
        (construction- or run-time).
    batch_deterministic:
        Whether the default-parameterisation batch kernel's ``step`` is a
        pure function (consumes no NumPy randomness) — the bit-identity leg
        of the parity contract.  Note the two flags are independent:
        ``pseudo-random-boosted`` seeds its pull plans at construction
        (scalar-randomised) yet replays them purely per round
        (batch-deterministic).
    flat_state:
        ``True`` when states are flat integers (one int64 kernel field),
        ``False`` for the boosted codec layout.
    kernel_binding:
        Lazy ``"module:attribute"`` binding of the vectorised kernel class.
    rng_note:
        Where the scalar component's randomness comes from (empty when
        deterministic).
    fuzz:
        The parity-fuzz profiles this entry is swept with; every algorithm
        must declare at least one so parity coverage is automatic.
    """

    name: str
    description: str
    model: str
    source: str
    build: Callable[..., Any]
    parameters: tuple[Parameter, ...]
    scalar_deterministic: bool
    batch_deterministic: bool
    flat_state: bool
    kernel_binding: str
    rng_note: str = ""
    fuzz: tuple[FuzzProfile, ...] = ()

    def kernel_class(self) -> Any:
        """Resolve the vectorised kernel class (imports NumPy)."""
        return resolve_binding(self.kernel_binding)

    def coverage_note(self) -> str:
        """The batch-engine coverage note shown by discovery surfaces."""
        if self.batch_deterministic:
            return "vectorised, bit-identical (int64-safe parameterisations)"
        return "vectorised, statistically equivalent (NumPy RNG)"

    def validate(self, params: Mapping[str, Any]) -> None:
        """Reject unknown parameters and non-integer values (:class:`ParameterError`).

        Every algorithm parameter is an integer; a string, float, null or
        bool would otherwise reach the constructor and fail there with a
        ``TypeError``, or be silently read as a number.
        """
        validate_parameters("algorithm", self.name, self.parameters, params)
        for parameter in self.parameters:
            if parameter.name in params and not is_integer(params[parameter.name]):
                raise ParameterError(
                    f"parameter {parameter.name!r} of algorithm {self.name!r} "
                    f"must be an integer, got {params[parameter.name]!r}"
                )


@dataclass(frozen=True)
class AdversarySemantics:
    """The single declarative description of one adversary strategy.

    Attributes
    ----------
    name / description / source:
        The strategy name, the one-line listing text and the paper reference.
    scalar_binding / kernel_binding:
        Lazy ``"module:attribute"`` bindings of the scalar
        :class:`~repro.network.adversary.Adversary` class and the vectorised
        :class:`~repro.network.batch.AdversaryBatchKernel` class.  Both are
        ``None`` for the fault-free ``"none"`` strategy, which forges
        nothing.
    parameters:
        The strategy's parameter schema (beyond the ``faulty`` set every
        strategy takes).
    scalar_deterministic:
        Whether the scalar ``forge`` path draws from the adversary RNG
        stream for *any* state type.
    determinism:
        The batch kernel's :class:`DeterminismClass` — the per-encoding
        equivalence contract the executor, the coverage notes and the parity
        harness all read.
    fuzz_param_choices:
        Optional-parameter axes for the parity sweep: ``(name, choices)``
        pairs each exercised with probability one half per sampled
        configuration.
    """

    name: str
    description: str
    scalar_binding: str | None
    kernel_binding: str | None
    parameters: tuple[Parameter, ...]
    scalar_deterministic: bool
    determinism: DeterminismClass
    source: str = "Section 2 (Byzantine model)"
    fuzz_param_choices: tuple[tuple[str, tuple[Any, ...]], ...] = ()

    def scalar_class(self) -> Any:
        """Resolve the scalar adversary class (``None`` strategy has none)."""
        if self.scalar_binding is None:
            raise ParameterError(
                f"strategy {self.name!r} has no scalar adversary class"
            )
        return resolve_binding(self.scalar_binding)

    def kernel_class(self) -> Any:
        """Resolve the vectorised kernel class (imports NumPy)."""
        if self.kernel_binding is None:
            raise ParameterError(
                f"strategy {self.name!r} has no batch kernel class"
            )
        return resolve_binding(self.kernel_binding)

    def coverage_note(self) -> str:
        """The batch-engine coverage note shown by discovery surfaces."""
        if self.kernel_binding is None:
            return "bit-identical (no forgeries)"
        return self.determinism.note()

    def validate(self, params: Mapping[str, Any]) -> None:
        """Reject parameters outside the schema (:class:`ParameterError`)."""
        validate_parameters("adversary strategy", self.name, self.parameters, params)


@dataclass(frozen=True)
class FaultScheduleSemantics:
    """The single declarative description of one fault-schedule preset.

    Fault schedules compose the registered adversary strategies over
    time-varying faulty sets (churn, rotation, late wake-up); a preset is a
    parameterised builder returning a
    :class:`~repro.faults.schedule.FaultSchedule`.  Like every other
    component, which presets exist, what parameters they take and how the
    parity harness sweeps them is declared here once and derived everywhere
    else (CLI discovery, campaign validation, the fuzz sweep).

    Attributes
    ----------
    name / description / source:
        The preset name, the one-line listing text and the paper reference.
    builder_binding:
        Lazy ``"module:attribute"`` binding of the builder callable
        (resolved by :func:`repro.semantics.verify` like every binding).
    parameters:
        The builder's full parameter schema with defaults.
    scalar_deterministic:
        Always ``True`` in the current presets: schedule randomness (drawn
        faulty sets, rejoin states) comes from the run's dedicated
        ``"faults"`` stream, so fixed seeds replay fixed schedules.
    batch_covered:
        Whether the vectorised engine executes the preset.  ``False`` means
        campaign batching must degrade to the scalar engine via a *named*
        fallback reason — never silently.
    fuzz_param_choices:
        Optional-parameter axes for the parity sweep, as ``(name, choices)``
        pairs (same shape as the adversary axes).
    """

    name: str
    description: str
    builder_binding: str
    parameters: tuple[Parameter, ...]
    scalar_deterministic: bool = True
    batch_covered: bool = False
    source: str = "Section 2 (self-stabilisation)"
    fuzz_param_choices: tuple[tuple[str, tuple[Any, ...]], ...] = ()

    def builder(self) -> Callable[..., Any]:
        """Resolve the builder callable (imports :mod:`repro.faults`)."""
        return resolve_binding(self.builder_binding)

    def build(self, **params: Any) -> Any:
        """Validate ``params`` against the schema and build the schedule."""
        self.validate(params)
        merged = {p.name: p.default for p in self.parameters}
        merged.update(params)
        return self.builder()(**merged)

    def validate(self, params: Mapping[str, Any]) -> None:
        """Reject unknown parameters and mistyped values (:class:`ParameterError`).

        Every preset parameter is an integer (a bool is not), except
        ``strategy``, a strategy name, and ``num_faults`` / ``duration``,
        which may also be null.  A mistyped value would otherwise reach the
        builder and fail there with a ``TypeError``.
        """
        validate_parameters("fault schedule", self.name, self.parameters, params)
        for name, value in params.items():
            if name == "strategy":
                valid, expected = isinstance(value, str), "a string"
            elif name in ("num_faults", "duration"):
                valid = value is None or is_integer(value)
                expected = "an integer or null"
            else:
                valid, expected = is_integer(value), "an integer"
            if not valid:
                raise ParameterError(
                    f"parameter {name!r} of fault schedule {self.name!r} "
                    f"must be {expected}, got {value!r}"
                )
