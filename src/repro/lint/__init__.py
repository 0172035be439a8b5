"""Invariant linter for the reproduction's own correctness disciplines.

Generic lint (unused imports, style, bugbear) is outsourced to ``ruff``; this
package checks the invariants no off-the-shelf tool knows about — the bug
classes this repository has actually shipped and fixed by hand:

* **DET001** — seeded runs must be byte-identically reproducible, so direct
  wall-clock/randomness sources are confined to ``util/rng.py`` and
  ``util/wallclock.py``, no fingerprint/digest/merge fold may iterate an
  unsorted set, and ``hashlib`` is called only by the modules that own a
  digest format (everything else uses ``util/rng.py``'s ``fingerprint``).
* **CNT002** — a replica/stack/log/lease/oracle class counts into the
  process's counter registry (``self.counters[name] += 1``), never onto a
  plain attribute, which silently resets on crash-recovery (the PR 5 / PR 7
  bug class).
* **MSG003** — every protocol message class has a dispatch arm, and the fault
  event registry (``EVENT_KINDS``) is a bijection with the ``FaultEvent``
  subclasses.
* **SLT004** — per-event classes on the simulator hot path declare
  ``__slots__`` and allocate no lambdas/closures (the PR 2 / PR 8 discipline).
* **PKL005** — callables handed to :func:`repro.util.parallel.run_tasks` or a
  multiprocessing pool must be module-level (picklable), matching the PR 8
  worker discipline.

Entry point::

    python -m repro.lint src/ --baseline lint_baseline.json

The model is built once per run (:mod:`repro.lint.walker`), each checker is a
module under :mod:`repro.lint.checkers`, and accepted findings live in a
committed suppression baseline with per-entry justifications
(:mod:`repro.lint.report`).
"""

from __future__ import annotations

from repro.lint.checkers import ALL_CHECKERS, RULES, run_checkers
from repro.lint.report import Baseline, BaselineEntry, Finding
from repro.lint.walker import ProjectModel, build_model

__all__ = [
    "ALL_CHECKERS",
    "Baseline",
    "BaselineEntry",
    "Finding",
    "ProjectModel",
    "RULES",
    "build_model",
    "run_checkers",
]
