"""Phase-timing instrumentation matching the paper's Section V breakdown.

The paper splits each method's query response time into three parts:

- ``shared_data`` — computing the structure shared among RPQs
  (``TC(Ḡ_R)`` + the ``G_R → Ḡ_R`` reduction for RTCSharing;
  ``TC(G_R)`` for FullSharing and NoSharing). Both read ``R_G`` to the
  driver and close it there (one Spark job), or fall back to Spark
  fixpoints above ``driver_row_bound``. The ``R_G`` computation itself
  is excluded (both methods do it identically) and lands in
  ``remainder``.
- ``pre_join`` — the ``Pre_G ⋈ R+_G`` phase: the one Spark action of
  an RPQ with a closure, so ``Pre_G``, the Post join and the union of
  its clauses run inside it, for every method (equations (7)–(10) for
  RTCSharing; ``Pre_G ⋈ R+_G`` extended through Post for
  FullSharing/NoSharing), plus the building of its batch units'
  plans. ``MultiRPQEvaluator.evaluate`` times it.
- ``remainder`` — ``R_G`` (evaluated when a shared structure is built)
  and closure-free queries: their action and their plan building.

Phases only record at the outermost level (``_active`` guard), so a
recursive evaluator call wrapped in a phase cannot double-count its
inner phases.
"""
from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, field


@dataclass
class PhaseTimings:
    """Accumulated wall-clock seconds per evaluation phase."""

    shared_data: float = 0.0
    pre_join: float = 0.0
    remainder: float = 0.0
    _active: bool = field(default=False, repr=False)

    @contextmanager
    def phase(self, name: str):
        if name not in ("shared_data", "pre_join", "remainder"):
            raise ValueError(f"unknown phase {name!r}")
        if self._active:
            # Nested phase: the outer phase owns this time.
            yield
            return
        self._active = True
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self._active = False
            setattr(
                self, name, getattr(self, name) + time.perf_counter() - t0
            )

    @property
    def total(self) -> float:
        return self.shared_data + self.pre_join + self.remainder
