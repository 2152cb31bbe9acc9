"""One front door for simulations: the ``Scenario`` facade.

This package is the documented quick-start path of the library:
:class:`~repro.scenarios.scenario.Scenario` is a fluent, immutable builder
that compiles to the campaign engine
(:class:`~repro.campaigns.spec.CampaignSpec`), so serial and parallel
execution, JSONL persistence and resume come for free and fixed-seed results
are bit-identical to hand-written campaigns.  Component names resolve
against the semantics catalogue (:mod:`repro.semantics`).

The ``python -m repro`` command line is a thin shell over exactly these two
pieces.
"""

from repro.scenarios.scenario import Scenario

__all__ = ["Scenario"]
