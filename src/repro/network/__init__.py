"""Synchronous network simulation substrate.

This package implements the model of computation from Section 2 of the
paper: a fully connected network of ``n`` nodes operating in synchronous
rounds, where every node broadcasts its state, receives the vector of all
states, and updates its state — except that up to ``f`` Byzantine nodes may
send arbitrary (and per-receiver inconsistent) messages.

Contents:

* :mod:`repro.network.adversary` — Byzantine adversary strategies.
* :mod:`repro.network.engine` — the shared simulation kernel: round loop,
  RNG stream derivation, the agreement-window / round-cap stop step shared
  with the batch engine, and on-request trace recording.
* :mod:`repro.network.simulator` — the broadcast-model adapter and
  :func:`run_simulation`.
* :mod:`repro.network.pulling` — the pulling-model adapter of Section 5 with
  per-node message/bit accounting.
* :mod:`repro.network.trace` — execution traces.
* :mod:`repro.network.stabilization` — empirical stabilisation detection
  and :class:`RunSummary`, the per-run reduction both engines emit.
* :mod:`repro.network.batch` — the vectorised batch-trial engine (needs
  NumPy; not imported here so the scalar substrate stays dependency-free).
* :mod:`repro.network.parity` — the differential batch-vs-scalar
  parity-fuzz harness guarding the batch engine's equivalence contract.
"""

from repro.network.adversary import (
    Adversary,
    AdaptiveSplitAdversary,
    CrashAdversary,
    FixedStateAdversary,
    MimicAdversary,
    NoAdversary,
    PhaseKingSkewAdversary,
    RandomStateAdversary,
    SplitStateAdversary,
    STRATEGIES,
    block_concentrated_faults,
    build_adversary,
    random_faulty_set,
    spread_faults,
)
from repro.network.engine import ModelAdapter, run_engine, stop_step
from repro.network.pulling import (
    PullingAlgorithm,
    PullingModel,
    PullSimulationConfig,
    run_pull_simulation,
)
from repro.network.simulator import BroadcastModel, SimulationConfig, run_simulation
from repro.network.stabilization import (
    RunSummary,
    StabilizationResult,
    stabilization_round,
)
from repro.network.trace import ExecutionTrace, RoundRecord

__all__ = [
    "ModelAdapter",
    "run_engine",
    "stop_step",
    "BroadcastModel",
    "PullingModel",
    "PullingAlgorithm",
    "PullSimulationConfig",
    "run_pull_simulation",
    "Adversary",
    "NoAdversary",
    "CrashAdversary",
    "FixedStateAdversary",
    "RandomStateAdversary",
    "SplitStateAdversary",
    "MimicAdversary",
    "PhaseKingSkewAdversary",
    "AdaptiveSplitAdversary",
    "STRATEGIES",
    "build_adversary",
    "random_faulty_set",
    "block_concentrated_faults",
    "spread_faults",
    "SimulationConfig",
    "run_simulation",
    "ExecutionTrace",
    "RoundRecord",
    "RunSummary",
    "StabilizationResult",
    "stabilization_round",
]
