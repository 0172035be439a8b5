"""Seed corpus of serialized fault plans for the fuzzing campaign.

A corpus entry is one :class:`~repro.simulation.faults.FaultPlan` in its
``to_dict`` wire form plus the execution-feature metadata the feedback loop
learned about it (coverage features and the leader-change times the mutators
aim partitions at).  Entries are deduplicated by a canonical-JSON fingerprint
of the plan, so re-adding an equivalent plan — whatever the field order it was
loaded with — is a no-op.

The on-disk format is one JSON file per entry (``<name>.json``), loaded in
sorted name order, so a directory corpus is deterministic and diff-friendly.
"""

from __future__ import annotations

import dataclasses
import json
import os
from typing import Dict, Iterable, Iterator, List, Optional, Tuple

from repro.simulation.faults import (
    Crash,
    FaultPlan,
    LinkFault,
    PartitionHeal,
    PartitionStart,
    Recover,
)
from repro.util.rng import fingerprint

#: Wire-format version of corpus entry files.
CORPUS_VERSION = 1


def plan_fingerprint(plan_data: Dict) -> str:
    """Canonical fingerprint of a serialized plan (order-insensitive JSON)."""
    return fingerprint(plan_data)


@dataclasses.dataclass
class CorpusEntry:
    """One seed: a serialized plan plus learned execution metadata."""

    name: str
    plan_data: Dict
    notes: str = ""
    #: Coverage features of the entry's last execution (empty until executed).
    features: Dict[str, int] = dataclasses.field(default_factory=dict)
    #: Observed leader-change times of the entry's last execution — the
    #: mutation engine retimes partitions and crashes around these.
    leader_change_times: Tuple[float, ...] = ()

    def plan(self, n: Optional[int] = None, t: Optional[int] = None) -> FaultPlan:
        """Deserialize (and, with ``n``/``t``, validate) the entry's plan."""
        return FaultPlan.from_dict(self.plan_data, n=n, t=t)

    def fingerprint(self) -> str:
        return plan_fingerprint(self.plan_data)

    def to_dict(self) -> Dict:
        return {
            "version": CORPUS_VERSION,
            "name": self.name,
            "plan": self.plan_data,
            "notes": self.notes,
            "features": dict(self.features),
            "leader_change_times": list(self.leader_change_times),
        }

    @classmethod
    def from_dict(cls, data: Dict) -> "CorpusEntry":
        if not isinstance(data, dict):
            raise ValueError(f"corpus entry must be a dict, got {data!r}")
        version = data.get("version", CORPUS_VERSION)
        if version != CORPUS_VERSION:
            raise ValueError(f"unsupported corpus entry version {version!r}")
        name = data.get("name")
        if not isinstance(name, str) or not name:
            raise ValueError(f"corpus entry needs a non-empty name, got {name!r}")
        plan_data = data.get("plan")
        FaultPlan.from_dict(plan_data)  # validate the events eagerly on load
        return cls(
            name=name,
            plan_data=plan_data,
            notes=str(data.get("notes", "")),
            features={
                str(k): int(v) for k, v in dict(data.get("features", {})).items()
            },
            leader_change_times=tuple(
                float(x) for x in data.get("leader_change_times", ())
            ),
        )


class Corpus:
    """An ordered, fingerprint-deduplicated collection of seeds."""

    def __init__(self, entries: Iterable[CorpusEntry] = ()) -> None:
        self.entries: List[CorpusEntry] = []
        self._fingerprints: Dict[str, str] = {}  # fingerprint -> entry name
        self._names: set = set()
        for entry in entries:
            self.add(entry)

    def add(self, entry: CorpusEntry) -> bool:
        """Add *entry*; False when an equivalent plan (or name) is present."""
        fingerprint = entry.fingerprint()
        if fingerprint in self._fingerprints or entry.name in self._names:
            return False
        self.entries.append(entry)
        self._fingerprints[fingerprint] = entry.name
        self._names.add(entry.name)
        return True

    def __len__(self) -> int:
        return len(self.entries)

    def __iter__(self) -> Iterator[CorpusEntry]:
        return iter(self.entries)

    def names(self) -> List[str]:
        return [entry.name for entry in self.entries]

    def get(self, name: str) -> Optional[CorpusEntry]:
        for entry in self.entries:
            if entry.name == name:
                return entry
        return None

    # ------------------------------------------------------------------ persistence --
    def save(self, directory: str) -> None:
        """Write one ``<name>.json`` per entry into *directory*."""
        os.makedirs(directory, exist_ok=True)
        for entry in self.entries:
            path = os.path.join(directory, f"{entry.name}.json")
            with open(path, "w", encoding="utf-8") as handle:
                json.dump(entry.to_dict(), handle, indent=2, sort_keys=True)
                handle.write("\n")

    @classmethod
    def load(cls, directory: str) -> "Corpus":
        """Load every ``*.json`` entry of *directory*, in sorted name order."""
        corpus = cls()
        for filename in sorted(os.listdir(directory)):
            if not filename.endswith(".json"):
                continue
            with open(os.path.join(directory, filename), encoding="utf-8") as handle:
                corpus.add(CorpusEntry.from_dict(json.load(handle)))
        return corpus


# --------------------------------------------------------------------- seed plans --
def amnesia_witness_plan() -> FaultPlan:
    """The PR-5 quorum-amnesia witness, re-expressed as a fuzz corpus seed.

    Cut the first leader's outgoing links right after its accept round, then
    restart the two other acceptors back-to-back: without stable storage the
    promise quorum of the next leader is entirely amnesic and a second value
    gets decided for an already-decided position.  Under the real Omega-driven
    stack the leader change is an election rather than a script, so the
    restart window differs from the scripted witness's: the second acceptor
    must go down *within the catch-up repair window* (about one drive period)
    of the first one coming back, or the recovering replica re-learns the
    decided prefix from its peer and agreement survives.  The timing below is
    pinned empirically against the real stack (constant 0.5 delays,
    ``drive_period=2``): a 1.0 gap defeats the repair, a 2.0 gap does not.
    """
    return FaultPlan(
        [
            LinkFault(time=6.25, sender=0, dest=1, block=True),
            LinkFault(time=6.25, sender=0, dest=2, block=True),
            Crash(time=12.0, pid=1),
            Recover(time=16.0, pid=1),
            Crash(time=17.0, pid=2),
            Recover(time=21.0, pid=2),
        ]
    )


def lease_edge_plan(
    n: int, lease_duration: float = 6.0, leader_change_at: float = 20.0
) -> FaultPlan:
    """Partition the old leader across its lease-expiry edge.

    The lease read path's sharpest schedule: isolate the process most likely
    to be the established leader (pid 0 under constant delays) shortly before
    one of its lease terms would expire, and keep it isolated well past the
    expiry — long enough for the majority side to elect and lease a successor.
    A stale leader that kept serving reads past its term (the
    ``lease_validation=False`` hazard) is caught by the stale-read probe on
    exactly this shape; with validation on, the schedule must stay clean.
    """
    start = leader_change_at + 0.5 * lease_duration
    heal = leader_change_at + 3.0 * lease_duration
    return FaultPlan(
        [
            PartitionStart(time=start, groups=((0,),)),
            PartitionHeal(time=heal),
        ]
    )


def benign_seed_plans(n: int, t: int, horizon: float = 100.0) -> List[Tuple[str, FaultPlan]]:
    """Assumption-preserving starter seeds exercising each fault family."""
    from repro.simulation.faults import (
        CorruptLink,
        PartitionHeal,
        PartitionStart,
        SlowProcess,
    )

    third = horizon / 3.0
    plans: List[Tuple[str, FaultPlan]] = [
        ("benign-empty", FaultPlan.none()),
        (
            "benign-restart",
            FaultPlan([Crash(time=third, pid=n - 1), Recover(time=third + 6.0, pid=n - 1)]),
        ),
        (
            "benign-partition",
            FaultPlan(
                [
                    PartitionStart(time=third, groups=((n - 1,),)),
                    PartitionHeal(time=third + 10.0),
                ]
            ),
        ),
        (
            "benign-flaky-link",
            FaultPlan(
                [
                    LinkFault(
                        time=third,
                        sender=0,
                        dest=n - 1,
                        loss_probability=0.4,
                        until=third + 15.0,
                    )
                ]
            ),
        ),
        (
            "benign-corruption",
            FaultPlan(
                [
                    CorruptLink(
                        time=third,
                        sender=1 % n,
                        dest=0,
                        probability=0.5,
                        until=third + 15.0,
                    )
                ]
            ),
        ),
        (
            "benign-slow-process",
            FaultPlan(
                [SlowProcess(time=third, pid=0, factor=3.0, until=third + 12.0)]
            ),
        ),
    ]
    for _, plan in plans:
        plan.validate(n, t)
    return plans


def seed_corpus(
    n: int,
    t: int,
    horizon: float = 100.0,
    include_amnesia_witness: bool = True,
    include_lease_edge: bool = False,
    lease_duration: float = 6.0,
) -> Corpus:
    """The standard starting corpus: benign family seeds plus (for storage-off
    violation hunts) the quorum-amnesia witness and (for lease-enabled
    campaigns, ``include_lease_edge=True``) the lease-expiry-edge partition."""
    corpus = Corpus()
    for name, plan in benign_seed_plans(n, t, horizon=horizon):
        corpus.add(CorpusEntry(name=name, plan_data=plan.to_dict()))
    if include_lease_edge:
        edge = lease_edge_plan(n, lease_duration=lease_duration)
        edge.validate(n, t)
        corpus.add(
            CorpusEntry(
                name="lease-edge-partition",
                plan_data=edge.to_dict(),
                notes=(
                    "partitioned old leader still inside its lease term: the "
                    "isolation straddles a lease expiry so the majority side "
                    "re-elects while the stale leader's term runs out"
                ),
            )
        )
    if include_amnesia_witness and n == 3 and t == 1:
        witness = amnesia_witness_plan()
        witness.validate(n, t)
        corpus.add(
            CorpusEntry(
                name="amnesia-witness",
                plan_data=witness.to_dict(),
                notes=(
                    "PR-5 quorum-amnesia schedule: storage-less restarts around "
                    "a leader change can decide two values for one position"
                ),
            )
        )
    return corpus


__all__ = [
    "CORPUS_VERSION",
    "Corpus",
    "CorpusEntry",
    "amnesia_witness_plan",
    "benign_seed_plans",
    "lease_edge_plan",
    "plan_fingerprint",
    "seed_corpus",
]
