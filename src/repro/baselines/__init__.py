"""Baseline Omega constructions from the related work (for coverage comparisons).

Each baseline is sound under the assumption its original publication targets and is
used by experiment E6 to measure the coverage gap the paper's algorithm closes:

* :class:`StableLeaderOmega` — heartbeat + adaptive per-link timeouts
  (eventually-timely-links style, [14]);
* :class:`TimerQuorumOmega` — round/accusation quorums driven purely by timers
  (eventual t-source style, [2]);
* :class:`QueryResponseOmega` — time-free query/response counting
  (message-pattern style, [16]).

The implementations are documented simplifications "in the style of" the cited
algorithms (see each module's docstring and the channels / baselines row of
docs/ARCHITECTURE.md); they are not line-by-line reproductions of those papers.
"""

from repro.baselines.heartbeat import StableLeaderOmega
from repro.baselines.message_pattern import QueryResponseOmega
from repro.baselines.messages import Accusation, Heartbeat, LoserReport, Query, Response
from repro.baselines.t_source import TimerQuorumOmega

__all__ = [
    "Accusation",
    "Heartbeat",
    "LoserReport",
    "Query",
    "QueryResponseOmega",
    "Response",
    "StableLeaderOmega",
    "TimerQuorumOmega",
]
