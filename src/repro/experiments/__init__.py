"""Experiment harness: one module per table/figure/claim of the paper.

Every module exposes ``run_*`` functions returning an
:class:`~repro.experiments.common.ExperimentResult` (a list of dictionary
rows plus notes).  The CLI wiring lives in one place — the declarative
catalogue (:mod:`repro.experiments.catalog`) consumed by the unified
command line — so each experiment is regenerated with::

    python -m repro experiment <name>

(``python -m repro list`` shows every experiment with its description.)

The mapping from experiment id (DESIGN.md) to module:

=========  ==========================================  ==============================
Experiment Paper artefact                              Module
=========  ==========================================  ==============================
E1         Table 1 (algorithm comparison)              :mod:`repro.experiments.table1`
E2         Table 2 (phase king instruction sets)       :mod:`repro.experiments.table2_phase_king`
E3         Figure 1 (leader pointer coincidence)       :mod:`repro.experiments.figure1`
E4         Figure 2 (recursive construction)           :mod:`repro.experiments.figure2`
E5-E8      Theorem 1 bounds, Cor. 1, Thm. 2, Thm. 3    :mod:`repro.experiments.scaling`
E9-E10     Theorem 4 / Corollaries 4-5 (pulling model) :mod:`repro.experiments.pulling`
E11        Ablations (k, C, M, adversary strategy)     :mod:`repro.experiments.ablation`
=========  ==========================================  ==============================
"""

from repro.experiments.common import ExperimentResult, run_counter_trials

__all__ = ["ExperimentResult", "run_counter_trials"]
