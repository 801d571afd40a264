"""Scoop core: pushdown tasks, the analytics delegator and the facade.

This package is the paper's primary contribution (Section IV): the three
abstractions that let an analytics framework and an object store
cooperate on data ingestion.

* :class:`~repro.core.pushdown.PushdownTask` -- "a piece of metadata
  attached to an object request" describing the work delegated to the
  store (projection columns + selection filters + CSV framing).
* :class:`~repro.core.delegator.AnalyticsDelegator` -- the compute-side
  component that decides, per scan, which task each partition's GET
  request is tagged with (or none), and records why.  It asks the
  placement engine (:mod:`repro.placement`), which also holds the
  gold/silver/bronze tenant veto sketched in Section VII.
* :class:`~repro.core.scoop.ScoopContext` -- the facade wiring a Spark
  session, the Swift cluster and the storlet engine together.
"""

from repro.core.delegator import AnalyticsDelegator
from repro.core.pushdown import PushdownTask
from repro.core.scoop import ScoopContext

__all__ = [
    "AnalyticsDelegator",
    "PushdownTask",
    "ScoopContext",
]
