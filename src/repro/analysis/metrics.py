"""Measurement of the paper's claims on simulated executions.

The central tool is the :class:`LeaderPoller`: it samples, at a fixed virtual-time
interval, the ``leader()`` output and (when available) the suspicion-level array of
every live process of a system.  From those samples the module computes:

* the *stabilisation time* — the earliest sample time from which every correct
  process reports the same, correct, leader until the end of the run (the
  operational reading of the Eventual Leadership property);
* the number of leader changes observed at correct processes;
* the boundedness statistics needed by experiment E3 (maximum suspicion level,
  Lemma 8 spread violations, final timeout values).

:func:`round_clock` reads the two round numbers the three figures share off
every alive process: how far apart the ALIVE numberings are and how far the
receiving rounds trail them — the quantities a slow re-election hides in.

The fault-plan engine (:mod:`repro.simulation.faults`) adds partition-aware and
availability views: :func:`reachable_components` groups the alive processes by
the partition currently in force, :func:`component_leaders` measures leader
agreement *per reachable component* (during a split brain "one leader per
component" is the correct expectation, not global agreement), and
:class:`AvailabilitySampler` tracks how many processes are up over time under
crash-recovery plans.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.interfaces import LeaderOracle
from repro.core.omega_base import RotatingStarOmegaBase
from repro.simulation.network import NetworkStats
from repro.simulation.system import System
from repro.util.validation import require_positive

#: Re-exported alias: the message accounting object of the network.
MessageStats = NetworkStats


@dataclasses.dataclass(frozen=True)
class LeaderSample:
    """One polling sample."""

    time: float
    #: pid -> leader() output, for every live oracle process at sampling time.
    leaders: Dict[int, int]
    #: pid -> susp_level array copy (only for the paper's algorithms).
    susp_levels: Dict[int, Dict[int, int]]
    #: pid -> most recent line-11 timeout value.
    timeouts: Dict[int, float]


class LeaderPoller:
    """Periodically samples leaders and suspicion levels of a running system."""

    def __init__(self, system: System, interval: float = 5.0) -> None:
        require_positive(interval, "interval")
        self.system = system
        self.interval = interval
        self.samples: List[LeaderSample] = []
        self._schedule_next()

    def _schedule_next(self) -> None:
        self.system.scheduler.schedule_after(self.interval, self._sample)

    def _sample(self) -> None:
        leaders: Dict[int, int] = {}
        susp: Dict[int, Dict[int, int]] = {}
        timeouts: Dict[int, float] = {}
        for shell in self.system.alive_shells():
            algorithm = shell.algorithm
            if isinstance(algorithm, LeaderOracle):
                leaders[shell.pid] = algorithm.leader()
            if isinstance(algorithm, RotatingStarOmegaBase):
                susp[shell.pid] = algorithm.susp_level_snapshot()
                timeouts[shell.pid] = algorithm.current_timeout
        self.samples.append(
            LeaderSample(
                time=self.system.now, leaders=leaders, susp_levels=susp, timeouts=timeouts
            )
        )
        self._schedule_next()

    # ------------------------------------------------------------------ analysis --
    def stabilization_time(self, correct_ids: Sequence[int]) -> Optional[float]:
        """Earliest sample time from which all correct processes agree on one
        correct leader in every subsequent sample; ``None`` if never.

        Samples in which a correct process has not produced an output yet (e.g. the
        run just started) simply require agreement among those that have; an empty
        sample never counts as agreement.
        """
        correct = set(correct_ids)
        if not self.samples:
            return None
        good_since: Optional[float] = None
        stable_leader: Optional[int] = None
        for sample in self.samples:
            outputs = {
                pid: leader
                for pid, leader in sample.leaders.items()
                if pid in correct
            }
            values = set(outputs.values())
            if len(outputs) > 0 and len(values) == 1:
                leader = values.pop()
                # Eventual leadership requires the *same* correct leader from some
                # point on, not merely agreement at each instant.
                if leader in correct and leader == stable_leader:
                    if good_since is None:
                        good_since = sample.time
                else:
                    stable_leader = leader if leader in correct else None
                    good_since = sample.time if leader in correct else None
            else:
                stable_leader = None
                good_since = None
        return good_since

    def final_leader(self, correct_ids: Sequence[int]) -> Optional[int]:
        """Return the leader agreed on in the last sample (``None`` on disagreement)."""
        if not self.samples:
            return None
        last = self.samples[-1]
        outputs = {
            leader for pid, leader in last.leaders.items() if pid in set(correct_ids)
        }
        if len(outputs) == 1:
            return outputs.pop()
        return None

    def leader_changes(self, correct_ids: Sequence[int], after: float = 0.0) -> int:
        """Number of observed leader changes at correct processes.

        Only changes materialising at sample times >= *after* are counted (pass the
        last third of the run to measure whether an execution is still churning
        leaders late, the operational signature of a non-stabilising algorithm).
        """
        changes = 0
        previous: Dict[int, int] = {}
        correct = set(correct_ids)
        for sample in self.samples:
            for pid, leader in sample.leaders.items():
                if pid not in correct:
                    continue
                if pid in previous and previous[pid] != leader and sample.time >= after:
                    changes += 1
                previous[pid] = leader
        return changes

    def max_susp_level(self) -> int:
        """Largest suspicion-level entry observed in any sample at any process."""
        maximum = 0
        for sample in self.samples:
            for levels in sample.susp_levels.values():
                if levels:
                    maximum = max(maximum, max(levels.values()))
        return maximum

    def spread_violations(self) -> int:
        """Number of (sample, process) pairs violating Lemma 8 (max - min > 1)."""
        violations = 0
        for sample in self.samples:
            for levels in sample.susp_levels.values():
                if levels and max(levels.values()) - min(levels.values()) > 1:
                    violations += 1
        return violations

    def final_timeouts(self) -> Dict[int, float]:
        """Most recent timeout value per live process (last sample)."""
        if not self.samples:
            return {}
        return dict(self.samples[-1].timeouts)

    def timeout_stabilized(self, tail_fraction: float = 0.25) -> bool:
        """True when no process's timeout changed during the last *tail_fraction*
        of the samples (operational reading of "timeouts eventually stop increasing").
        """
        if len(self.samples) < 4:
            return False
        tail_start = int(len(self.samples) * (1.0 - tail_fraction))
        tail = self.samples[tail_start:]
        per_process: Dict[int, set] = {}
        for sample in tail:
            for pid, timeout in sample.timeouts.items():
                per_process.setdefault(pid, set()).add(timeout)
        return all(len(values) == 1 for values in per_process.values())


# ---------------------------------------------------------------------- round clock
@dataclasses.dataclass(frozen=True)
class RoundClock:
    """Where the alive processes of a system stand on the shared round clock."""

    #: pid -> ``(sending_round, receiving_round)`` of every alive oracle.
    rounds: Dict[int, Tuple[int, int]]
    #: ``max - min`` sending round: how far apart the ALIVE numberings are.  A
    #: peer further behind than the others' receiving rounds is not heard.
    sending_spread: int
    #: ``max`` sending round ``- min`` receiving round: the backlog of buffered
    #: rounds a crashed process's last ALIVEs can hide behind.
    receive_lag: int


def round_clock(system: System) -> RoundClock:
    """Read ``s_rn`` / ``r_rn`` off every alive process (oracle or stack)."""
    rounds: Dict[int, Tuple[int, int]] = {}
    for shell in system.alive_shells():
        oracle = getattr(shell.algorithm, "omega", shell.algorithm)
        if isinstance(oracle, RotatingStarOmegaBase):
            rounds[shell.pid] = (oracle.sending_round, oracle.receiving_round)
    newest = max((s_rn for s_rn, _ in rounds.values()), default=0)
    return RoundClock(
        rounds=rounds,
        sending_spread=newest - min((s_rn for s_rn, _ in rounds.values()), default=0),
        receive_lag=newest - min((r_rn for _, r_rn in rounds.values()), default=0),
    )


# ---------------------------------------------------------------------- partitions
def reachable_components(system: System) -> List[List[int]]:
    """Group the currently-alive pids by mutual reachability.

    With no partition in force (including every system without topology faults)
    all alive processes form one component.  While a partition is active, each
    side that still contains an alive process is one component.  One-way link
    cuts and lossy links do *not* split components — they degrade links rather
    than disconnect groups.
    """
    alive = [shell.pid for shell in system.alive_shells()]
    link_state = system.link_state
    groups = (
        link_state.partition_groups(system.config.n)
        if link_state is not None
        else None
    )
    if groups is None:
        return [alive] if alive else []
    alive_set = set(alive)
    components = [
        [pid for pid in group if pid in alive_set] for group in groups
    ]
    return [component for component in components if component]


def component_leaders(system: System) -> List[Dict[int, int]]:
    """Per reachable component: ``pid -> leader()`` of its alive oracle members."""
    leaders = system.leaders()
    return [
        {pid: leaders[pid] for pid in component if pid in leaders}
        for component in reachable_components(system)
    ]


def component_agreed_leaders(system: System) -> List[Optional[int]]:
    """The leader each reachable component agrees on (``None`` = split within).

    During a partition this is the election metric that matters: the global
    :meth:`~repro.simulation.system.System.agreed_leader` is necessarily
    ``None`` (the sides cannot hear each other), while a healthy Omega stack
    still converges to one leader *inside* each component.
    """
    agreed: List[Optional[int]] = []
    for outputs in component_leaders(system):
        values = set(outputs.values())
        agreed.append(values.pop() if len(values) == 1 else None)
    return agreed


class AvailabilitySampler:
    """Samples how many processes are up, at a fixed virtual-time interval.

    Under crash-recovery fault plans availability is a trajectory, not a
    constant: processes leave and rejoin.  The sampler records the alive
    fraction at every interval; :meth:`availability` is the mean over the whole
    run (the standard "fraction of process-time up" reading) and
    :meth:`min_alive` the worst instant.
    """

    def __init__(self, system: System, interval: float = 5.0) -> None:
        require_positive(interval, "interval")
        self.system = system
        self.interval = interval
        #: ``(time, alive_count)`` pairs, one per sample.
        self.samples: List[tuple] = []
        self._schedule_next()

    def _schedule_next(self) -> None:
        self.system.scheduler.schedule_after(self.interval, self._sample)

    def _sample(self) -> None:
        alive = sum(1 for shell in self.system.shells if not shell.crashed)
        self.samples.append((self.system.now, alive))
        self._schedule_next()

    def availability(self) -> float:
        """Mean alive fraction over the sampled run (1.0 when never sampled)."""
        if not self.samples:
            return 1.0
        n = self.system.config.n
        return sum(count for _, count in self.samples) / (len(self.samples) * n)

    def min_alive(self) -> int:
        """Smallest number of alive processes seen in any sample."""
        if not self.samples:
            return self.system.config.n
        return min(count for _, count in self.samples)


def summarize_levels(levels: Dict[int, Dict[int, int]]) -> Dict[str, int]:
    """Summary statistics over a pid -> susp_level mapping (for reports)."""
    all_values = [value for array in levels.values() for value in array.values()]
    if not all_values:
        return {"max": 0, "min": 0}
    return {"max": max(all_values), "min": min(all_values)}
