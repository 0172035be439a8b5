"""Deterministic random-number handling.

All stochastic choices in the library (message delays, crash times, workload
generation) flow through :class:`RandomSource` so that an experiment is fully
reproducible from a single integer seed.  Sub-streams are derived with
:func:`derive_seed`, which hashes the parent seed together with a string label; two
components that draw from differently-labelled sub-streams therefore never interfere
with each other's sequences, even when the order in which they draw changes.

:func:`fingerprint` is the other half of reproducibility: the one digest of a
deterministic result structure, so "the same run" is checked the same way by
the parallel executor, the fuzz corpus, the benchmarks and the tests.
"""

from __future__ import annotations

import hashlib
import json
import random
from typing import Iterable, Optional, Sequence, TypeVar

T = TypeVar("T")

_SEED_MODULUS = 2**63


def derive_seed(parent_seed: int, *labels: object) -> int:
    """Derive a child seed from *parent_seed* and a sequence of labels.

    The derivation is a SHA-256 hash of the textual representation of the parent seed
    and the labels, reduced modulo 2**63.  It is stable across runs and platforms.
    """
    payload = repr((int(parent_seed),) + tuple(str(label) for label in labels))
    digest = hashlib.sha256(payload.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big") % _SEED_MODULUS


def fingerprint(payload: object) -> str:
    """SHA-256 over the canonical JSON form of a deterministic *payload*.

    Keys are sorted, so dict insertion order never matters; values JSON cannot
    express are rendered with ``repr``.
    """
    blob = json.dumps(payload, sort_keys=True, default=repr).encode("utf-8")
    return hashlib.sha256(blob).hexdigest()


class RandomSource:
    """A labelled, seedable wrapper around :class:`random.Random`.

    Parameters
    ----------
    seed:
        Integer master seed.
    label:
        Optional label; when given, the effective seed is derived from
        ``(seed, label)`` so that differently-labelled sources are independent.

    Draws
    -----
    The numeric draws are the underlying :class:`random.Random`'s own bound
    methods, attached per instance (no extra Python call frame: message delays
    and workload sampling draw once per simulated event):

    * ``random()`` — a float uniformly drawn from [0, 1);
    * ``uniform(low, high)`` — a float uniformly drawn from [low, high];
    * ``randint(low, high)`` — an integer uniformly drawn from [low, high];
    * ``expovariate(rate)`` — an exponentially distributed float;
    * ``paretovariate(alpha)`` — a Pareto-distributed float (heavy-tailed delays);
    * ``gauss(mu, sigma)`` — a normally distributed float.
    """

    def __init__(self, seed: int, label: Optional[str] = None) -> None:
        self.seed = int(seed)
        self.label = label
        effective = self.seed if label is None else derive_seed(self.seed, label)
        self._rng = random.Random(effective)
        self.random = self._rng.random
        self.uniform = self._rng.uniform
        self.randint = self._rng.randint
        self.expovariate = self._rng.expovariate
        self.paretovariate = self._rng.paretovariate
        self.gauss = self._rng.gauss

    def child(self, *labels: object) -> "RandomSource":
        """Return an independent child source labelled by *labels*."""
        return RandomSource(derive_seed(self.seed, self.label, *labels))

    # -- thin delegation to random.Random -------------------------------------
    def choice(self, items: Sequence[T]) -> T:
        """Return a uniformly chosen element of *items*."""
        return self._rng.choice(items)

    def sample(self, items: Sequence[T], k: int) -> list:
        """Return *k* distinct elements sampled from *items*."""
        return self._rng.sample(items, k)

    def shuffle(self, items: list) -> None:
        """Shuffle *items* in place."""
        self._rng.shuffle(items)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"RandomSource(seed={self.seed}, label={self.label!r})"


def spread(values: Iterable[float]) -> float:
    """Return ``max(values) - min(values)`` (0.0 for an empty iterable)."""
    items = list(values)
    if not items:
        return 0.0
    return max(items) - min(items)
