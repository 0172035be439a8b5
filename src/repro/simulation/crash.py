"""The one random crash draw :class:`~repro.simulation.faults.FaultPlan` cannot make.

The paper's failure model is crash-stop: at most ``t`` of the ``n`` processes halt
in a run.  A run's faults are described by a ``FaultPlan`` and by nothing else;
this module holds the single piece of the older crash-only vocabulary that has no
plan equivalent — the *draw sequence* behind
``build_sharded_service(crashes_per_shard=...)``: sample the victims, then one
uniform crash time over the whole horizon per victim.  ``FaultPlan.random`` draws
differently (crash times in the first half of the horizon, plus one recovery coin
per victim), so routing through it would move every seeded ``crashes_per_shard``
run.  The result goes straight into ``FaultPlan.crashes``.
"""

from __future__ import annotations

from typing import Dict, Iterable, Optional

from repro.util.rng import RandomSource
from repro.util.validation import require_non_negative, validate_process_count


def random_crash_times(
    n: int,
    t: int,
    rng: RandomSource,
    horizon: float,
    count: Optional[int] = None,
    protect: Iterable[int] = (),
) -> Dict[int, float]:
    """Draw ``pid -> crash time`` for *count* (default ``t``) random processes.

    Times are uniform in ``[0, horizon]``; processes listed in *protect* (e.g.
    the star centre) never crash.
    """
    validate_process_count(n, t)
    require_non_negative(horizon, "horizon")
    count = t if count is None else count
    if count > t:
        raise ValueError(f"cannot crash {count} > t={t} processes")
    protected = set(protect)
    candidates = [pid for pid in range(n) if pid not in protected]
    if count > len(candidates):
        raise ValueError(
            f"cannot crash {count} processes: only {len(candidates)} candidates"
        )
    victims = rng.sample(candidates, count) if count else []
    return {pid: rng.uniform(0.0, horizon) for pid in victims}
