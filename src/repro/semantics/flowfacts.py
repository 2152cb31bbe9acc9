"""Catalogue facts exposed for the static flow analysis (FLW rules).

The flow pass (:mod:`repro.lint.flow`) cross-checks *inferred* effect
summaries against the *declared* determinism classes.  This module is the
bridge: it folds :mod:`repro.semantics.catalog` into per-kernel-class
expectations the linter can consume without touching dataclass internals.

Every catalogue-bound class is covered: the algorithm kernels, the adversary
kernels and the scalar adversary classes.  One kernel class may serve several
catalogue entries (the boosted kernel backs both phase-king variants;
:class:`SampledBoostedBatchKernel` backs the sampled — randomised — *and* the
pseudo-random — deterministic — counters, depending on construction
parameters).  The fold is therefore three-valued:

``"pure"``
    every entry binding the kernel declares it deterministic — the flow
    pass must prove the kernel RNG-free on all paths (FLW003 on failure);
``"draws"``
    every entry declares randomness — no purity obligation;
``"mixed"``
    the entries disagree, so purity is configuration-dependent and cannot
    be decided statically; the flow pass skips the kernel and the empirical
    :func:`repro.semantics.verify` probes remain the evidence.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["KernelExpectation", "kernel_expectations"]

#: Root methods the engines invoke per round, by component kind (in the
#: order :func:`kernel_expectations` lists the kinds).
_ROOTS: dict[str, tuple[str, ...]] = {
    "algorithm": ("step",),
    "adversary": ("begin_round", "forge"),
    "scalar-adversary": ("on_round_start", "forge"),
}


@dataclass(frozen=True)
class KernelExpectation:
    """The determinism obligation one kernel class carries.

    ``expectation`` is ``"pure"`` / ``"draws"`` / ``"mixed"`` as folded from
    every catalogue entry naming this ``binding``; ``declared_by`` lists
    those entries so a finding can cite the declarations it enforces.
    """

    binding: str
    kind: str
    expectation: str
    declared_by: tuple[str, ...]
    root_methods: tuple[str, ...]

    @property
    def module(self) -> str:
        return self.binding.partition(":")[0]

    @property
    def class_name(self) -> str:
        return self.binding.partition(":")[2]

    def to_dict(self) -> dict:
        return {
            "binding": self.binding,
            "kind": self.kind,
            "expectation": self.expectation,
            "declared_by": list(self.declared_by),
            "root_methods": list(self.root_methods),
        }


def _fold(flags: list[bool]) -> str:
    if all(flags):
        return "pure"
    if not any(flags):
        return "draws"
    return "mixed"


def kernel_expectations() -> tuple[KernelExpectation, ...]:
    """Every catalogue-bound class with its folded obligation."""
    from repro.semantics.catalog import (
        ADVERSARY_SEMANTICS,
        ALGORITHM_SEMANTICS,
    )

    #: (kind, binding) -> [(entry name, declared deterministic), ...]
    groups: dict[tuple[str, str], list[tuple[str, bool]]] = {}

    def declare(kind: str, binding: str | None, name: str, pure: bool) -> None:
        if binding is not None:
            groups.setdefault((kind, binding), []).append((name, pure))

    for algorithm in ALGORITHM_SEMANTICS.values():
        declare(
            "algorithm",
            algorithm.kernel_binding,
            algorithm.name,
            algorithm.batch_deterministic,
        )
    for adversary in ADVERSARY_SEMANTICS.values():
        declare(
            "adversary",
            adversary.kernel_binding,
            adversary.name,
            adversary.determinism.bit_identical,
        )
        declare(
            "scalar-adversary",
            adversary.scalar_binding,
            adversary.name,
            adversary.scalar_deterministic,
        )

    kinds = list(_ROOTS)
    return tuple(
        KernelExpectation(
            binding=binding,
            kind=kind,
            expectation=_fold([pure for _, pure in groups[kind, binding]]),
            declared_by=tuple(sorted(name for name, _ in groups[kind, binding])),
            root_methods=_ROOTS[kind],
        )
        for kind, binding in sorted(
            groups, key=lambda key: (kinds.index(key[0]), key[1])
        )
    )
