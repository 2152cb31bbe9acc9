"""Empirical self-check of the declared component semantics.

The catalogue (:mod:`repro.semantics.catalog`) *declares* facts — parameter
schemas, models, determinism classes — that the engines and the parity
harness then rely on.  :func:`verify` closes the loop by checking every
declaration against the actual implementations:

* every algorithm spec builds with its declared defaults, its declared model
  matches the built instance, and its fuzz profiles validate;
* every adversary spec resolves to its scalar class, and the scalar
  ``forge`` path's actual RNG consumption (probed against a flat and a
  boosted algorithm) matches, per encoding, the declared
  :class:`~repro.semantics.spec.DeterminismClass`: a scalar forge that draws
  cannot be replayed by a batch kernel, and one declared statistical must
  draw;
* every fault-schedule builder binding resolves and builds its defaults;
* with NumPy available, every kernel binding resolves, the algorithm
  kernels' ``deterministic`` matches the declared ``batch_deterministic``
  and their field count matches :func:`~repro.semantics.spec.flat_states`;
  on flat encodings the adversary kernels' NumPy RNG consumption matches
  the declared class exactly, and on boosted encodings each adversary
  kernel replays the scalar adversary stream without a NumPy generator:
  one forge round gives the scalar forgeries, leaves the stream where the
  scalar forge leaves it, and draws from it exactly where the declared
  class is statistical.  A mis-declared determinism class is reported in
  either direction, not silently trusted.

Facts the built components already state (an algorithm's scalar
``deterministic`` flag, its state encoding) are read from them, not
declared, so there is nothing to compare them with.

``verify`` returns a list of human-readable problems (empty means the
catalogue is sound); the CI ``semantics-audit`` job and the test suite run
it so a spec edit cannot drift from the implementations.  It is also the
one check that every ``"module:attr"`` binding resolves: a mistyped or
malformed binding of any kind is reported as one problem naming the entry,
never raised.
"""

from __future__ import annotations

from typing import Any, Mapping

from repro.core.errors import ParameterError
from repro.semantics.catalog import (
    ADVERSARY_SEMANTICS,
    ALGORITHM_SEMANTICS,
    FAULT_SCHEDULE_SEMANTICS,
)
from repro.semantics.spec import (
    AdversarySemantics,
    AlgorithmSemantics,
    FaultScheduleSemantics,
    flat_states,
)
from repro.util.rng import ensure_rng

__all__ = ["verify"]

#: The probe algorithms: one flat integer state space, one boosted codec.
_FLAT_PROBE = ("naive-majority", {})
_BOOSTED_PROBE = ("corollary1", {})
_ENCODINGS = ("flat", "boosted")


def _numpy_available() -> bool:
    from importlib.util import find_spec

    return find_spec("numpy") is not None


def _build_probe(
    algorithms: Mapping[str, AlgorithmSemantics], entry: tuple[str, dict[str, Any]]
) -> Any:
    name, params = entry
    return algorithms[name].build(**params)


def _scalar_rng_consumed(
    spec: AdversarySemantics, algorithm: Any
) -> bool:
    """Whether one scalar forge round against ``algorithm`` drew randomness."""
    adversary = spec.scalar_class()(
        (0,), **{p.name: p.default for p in spec.parameters}
    )
    states = {
        node: algorithm.default_state() for node in range(1, algorithm.n)
    }
    rng = ensure_rng(0)
    before = rng.getstate()
    adversary.on_round_start(0, states, algorithm, rng)
    for receiver in states:
        adversary.forge(0, 0, receiver, states, algorithm, rng)
    return rng.getstate() != before


def _batch_rng_consumed(kernel_cls: Any, kernel: Any, params: dict[str, Any]) -> bool:
    """Whether one batch forge round against ``kernel`` drew NumPy randomness."""
    import numpy as np

    adversary_kernel = kernel_cls(kernel, **params)
    n = kernel.algorithm.n
    batch = 2
    states = np.empty((batch, n, kernel.fields), dtype=np.int64)
    states[:, :, :] = kernel.default_fields()
    correct_sorted = np.broadcast_to(
        np.arange(1, n)[None, :], (batch, n - 1)
    ).copy()
    faulty_idx = np.zeros((batch, 1), dtype=np.int64)
    # repro-lint: allow[DET002] -- fixed-seed NumPy probe stream local to the audit; scalar streams have no NumPy-side derivation helper
    rng = np.random.default_rng(1)
    before = repr(rng.bit_generator.state)
    adversary_kernel.begin_round(0, states, correct_sorted, rng)
    adversary_kernel.forge(
        0,
        faulty_idx[:, None, :],
        np.arange(n)[None, :, None],
        states,
        correct_sorted,
        rng,
    )
    return repr(rng.bit_generator.state) != before


#: The replay probe's faulty senders: two, so that an order of forges other
#: than the scalar one (receivers, then senders, ascending) shows.
_REPLAY_FAULTY = (0, 1)


def _replay_probe(
    spec: AdversarySemantics, kernel_cls: Any, kernel: Any, params: dict[str, Any]
) -> tuple[bool, list[str]]:
    """One boosted forge round of the kernel against the scalar forge round.

    Both start from copies of one adversary stream; each of two batch rows
    replays its own copy.  The kernel gets no NumPy generator, as in a
    bit-identical group, so a NumPy draw fails the probe.  Returns whether
    the kernel drew from its streams and the ways it differs from the
    scalar round: other forgeries, or another stream position afterwards.
    """
    import numpy as np

    algorithm = kernel.algorithm
    n = algorithm.n
    correct = [node for node in range(n) if node not in _REPLAY_FAULTY]
    states = {node: algorithm.default_state() for node in correct}
    adversary = spec.scalar_class()(_REPLAY_FAULTY, **params)
    scalar_rng = ensure_rng(0)
    adversary.on_round_start(0, states, algorithm, scalar_rng)
    expected = [
        [
            list(kernel.encode(algorithm.coerce_message(forged)))
            for forged in (
                adversary.forge(0, sender, receiver, states, algorithm, scalar_rng)
                for sender in _REPLAY_FAULTY
            )
        ]
        for receiver in correct
    ]

    batch = 2
    streams = [ensure_rng(0) for _ in range(batch)]
    start = streams[0].getstate()
    encoded = np.empty((batch, n, kernel.fields), dtype=np.int64)
    encoded[:, :, :] = kernel.default_fields()
    correct_sorted = np.array([correct] * batch, dtype=np.int64)
    faulty_idx = np.array([_REPLAY_FAULTY] * batch, dtype=np.int64)
    round_index = np.zeros((batch, 1, 1), dtype=np.int64)
    adversary_kernel = kernel_cls(kernel, **params)
    adversary_kernel.begin_round(round_index, encoded, correct_sorted, None, streams)
    forged = adversary_kernel.forge(
        round_index,
        faulty_idx[:, None, :],
        np.arange(n)[None, :, None],
        encoded,
        correct_sorted,
        None,
    )
    forged = np.broadcast_to(forged, (batch, n, len(_REPLAY_FAULTY), kernel.fields))
    problems = []
    if any(forged[row, correct].tolist() != expected for row in range(batch)):
        problems.append("forged other fields than the scalar forge")
    if any(stream.getstate() != scalar_rng.getstate() for stream in streams):
        problems.append(
            "left the adversary stream at another position than the scalar forge"
        )
    return streams[0].getstate() != start, problems


def _check_algorithms(
    algorithms: Mapping[str, AlgorithmSemantics], problems: list[str]
) -> None:
    from repro.network.pulling import PullingAlgorithm

    for name, spec in algorithms.items():
        if name != spec.name:
            problems.append(f"algorithm {name!r}: catalogue key != spec name {spec.name!r}")
            continue
        try:
            instance = spec.build(
                **{p.name: p.default for p in spec.parameters}
            )
        except Exception as exc:  # noqa: BLE001 - report, don't crash the audit
            problems.append(
                f"algorithm {name!r}: declared defaults do not build: {exc}"
            )
            continue
        pulling = isinstance(instance, PullingAlgorithm)
        declared_model = spec.model
        if (declared_model == "pulling") != pulling:
            problems.append(
                f"algorithm {name!r}: declared model {declared_model!r} but the "
                f"built instance is {'pulling' if pulling else 'broadcast'}"
            )
        if not spec.fuzz:
            problems.append(
                f"algorithm {name!r}: no parity-fuzz profile declared — the "
                "differential sweep would silently skip it"
            )
        for profile in spec.fuzz:
            try:
                spec.validate(dict(profile.params))
            except ParameterError as exc:
                problems.append(f"algorithm {name!r}: fuzz profile invalid: {exc}")
        if not _numpy_available():
            continue
        from repro.network.batch import build_batch_kernel

        try:
            kernel_cls = spec.kernel_class()
        except Exception as exc:  # noqa: BLE001
            problems.append(f"algorithm {name!r}: kernel binding broken: {exc}")
            continue
        kernel = build_batch_kernel(instance)
        if kernel is None:
            problems.append(
                f"algorithm {name!r}: kernel binding {spec.kernel_binding!r} "
                "declared but build_batch_kernel found no kernel"
            )
            continue
        if not isinstance(kernel, kernel_cls):
            problems.append(
                f"algorithm {name!r}: built kernel {type(kernel).__name__} is "
                f"not the declared {spec.kernel_binding!r}"
            )
        if kernel.deterministic != spec.batch_deterministic:
            problems.append(
                f"algorithm {name!r}: declared batch_deterministic="
                f"{spec.batch_deterministic} but the kernel reports "
                f"{kernel.deterministic}"
            )
        if (kernel.fields == 1) != flat_states(instance):
            problems.append(
                f"algorithm {name!r}: default_state() is "
                f"{type(instance.default_state()).__name__} but the kernel "
                f"encodes {kernel.fields} field(s)"
            )


def _check_adversaries(
    algorithms: Mapping[str, AlgorithmSemantics],
    adversaries: Mapping[str, AdversarySemantics],
    problems: list[str],
) -> None:
    flat_algorithm = _build_probe(algorithms, _FLAT_PROBE)
    boosted_algorithm = _build_probe(algorithms, _BOOSTED_PROBE)
    numpy_ok = _numpy_available()
    if numpy_ok:
        from repro.network.batch import build_batch_kernel

        flat_kernel = build_batch_kernel(flat_algorithm)
        boosted_kernel = build_batch_kernel(boosted_algorithm)

    for name, spec in adversaries.items():
        if name != spec.name:
            problems.append(f"strategy {name!r}: catalogue key != spec name {spec.name!r}")
            continue
        if name == "none":
            if spec.scalar_binding is not None or spec.kernel_binding is not None:
                problems.append("strategy 'none' must not bind classes (it never forges)")
            if not spec.determinism.bit_identical:
                problems.append(
                    "strategy 'none' forges nothing and must declare a "
                    "bit-identical determinism class"
                )
            continue

        # Scalar determinism: the declared class must match the RNG stream
        # consumption the forge path actually exhibits on each encoding.
        try:
            consumed = [
                _scalar_rng_consumed(spec, flat_algorithm),
                _scalar_rng_consumed(spec, boosted_algorithm),
            ]
        except Exception as exc:  # noqa: BLE001 - report, don't crash the audit
            problems.append(f"strategy {name!r}: scalar probe failed: {exc}")
            continue
        declared = (spec.determinism.flat, spec.determinism.boosted)
        for label, exact, drew in zip(_ENCODINGS, declared, consumed):
            _check_class(name, label, exact, drew, "scalar forge", problems)

        if not numpy_ok:
            continue
        try:
            kernel_cls = spec.kernel_class()
        except Exception as exc:  # noqa: BLE001
            problems.append(f"strategy {name!r}: kernel binding broken: {exc}")
            continue
        defaults = {p.name: p.default for p in spec.parameters}
        try:
            drew = _batch_rng_consumed(kernel_cls, flat_kernel, defaults)
        except Exception as exc:  # noqa: BLE001
            problems.append(f"strategy {name!r}: batch probe (flat) failed: {exc}")
        else:
            _check_class(name, "flat", spec.determinism.flat, drew, "kernel", problems)
        try:
            drew, replay = _replay_probe(spec, kernel_cls, boosted_kernel, defaults)
        except Exception as exc:  # noqa: BLE001
            problems.append(f"strategy {name!r}: batch probe (boosted) failed: {exc}")
            continue
        _check_class(
            name, "boosted", spec.determinism.boosted, drew, "kernel", problems
        )
        problems.extend(
            f"strategy {name!r}: on boosted encodings the kernel {problem}"
            for problem in replay
        )


def _check_class(
    name: str, label: str, exact: bool, drew: bool, probe: str, problems: list[str]
) -> None:
    """A probe must draw exactly where the declared class is statistical."""
    if exact and drew:
        problems.append(
            f"strategy {name!r}: determinism class declares bit-identity for "
            f"{label} encodings but the {probe} consumed randomness"
        )
    if not exact and not drew:
        problems.append(
            f"strategy {name!r}: determinism class declares statistical "
            f"equivalence for {label} encodings but the {probe} consumed no "
            "randomness"
        )


def _check_schedules(
    adversaries: Mapping[str, AdversarySemantics],
    schedules: Mapping[str, FaultScheduleSemantics],
    problems: list[str],
) -> None:
    for name, spec in schedules.items():
        if name != spec.name:
            problems.append(
                f"fault schedule {name!r}: catalogue key != spec name {spec.name!r}"
            )
            continue
        try:
            schedule = spec.build()
        except Exception as exc:  # noqa: BLE001 - report, don't crash the audit
            problems.append(
                f"fault schedule {name!r}: declared defaults do not build: {exc}"
            )
            continue
        for window in schedule.windows:
            if window.strategy not in adversaries:
                problems.append(
                    f"fault schedule {name!r}: window at round {window.start} "
                    f"uses undeclared strategy {window.strategy!r}"
                )
                continue
            try:
                adversaries[window.strategy].validate(dict(window.params))
            except ParameterError as exc:
                problems.append(
                    f"fault schedule {name!r}: window at round {window.start}: {exc}"
                )
        schema = {p.name for p in spec.parameters}
        for axis, choices in spec.fuzz_param_choices:
            if axis not in schema:
                problems.append(
                    f"fault schedule {name!r}: fuzz axis {axis!r} is outside "
                    "the declared parameter schema"
                )
                continue
            for choice in choices:
                try:
                    spec.build(**{axis: choice})
                except Exception as exc:  # noqa: BLE001
                    problems.append(
                        f"fault schedule {name!r}: fuzz choice {axis}={choice!r} "
                        f"does not build: {exc}"
                    )


def verify(
    algorithms: Mapping[str, AlgorithmSemantics] | None = None,
    adversaries: Mapping[str, AdversarySemantics] | None = None,
    schedules: Mapping[str, FaultScheduleSemantics] | None = None,
) -> list[str]:
    """Cross-check the declared semantics against the implementations.

    Returns a list of human-readable problems; an empty list means every
    declaration held up.  ``algorithms`` / ``adversaries`` / ``schedules``
    default to the real catalogue — tests pass tampered mappings to assert
    that mis-declarations are caught.
    """
    algorithms = dict(ALGORITHM_SEMANTICS if algorithms is None else algorithms)
    adversaries = dict(ADVERSARY_SEMANTICS if adversaries is None else adversaries)
    schedules = dict(
        FAULT_SCHEDULE_SEMANTICS if schedules is None else schedules
    )
    problems: list[str] = []
    _check_algorithms(algorithms, problems)
    _check_schedules(adversaries, schedules, problems)
    for probe_name, _ in (_FLAT_PROBE, _BOOSTED_PROBE):
        if probe_name not in algorithms:
            problems.append(
                f"probe algorithm {probe_name!r} missing from the catalogue; "
                "adversary determinism cannot be verified"
            )
            return problems
    _check_adversaries(algorithms, adversaries, problems)
    return problems
