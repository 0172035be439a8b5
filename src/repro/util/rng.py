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

import _random
import hashlib
import json
import random
from typing import Optional, Sequence, Tuple, TypeVar

T = TypeVar("T")

_SEED_MODULUS = 2**63

#: The C-level seeding of a generator: for an int it is all that
#: ``random.Random(seed)`` does to the state ``random`` and ``sample`` read.
_reseed = _random.Random.seed


def _text_seed(payload: str) -> int:
    """The first 8 bytes of the SHA-256 of *payload*, reduced modulo 2**63."""
    digest = hashlib.sha256(payload.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big") % _SEED_MODULUS


def derive_seed(parent_seed: int, *labels: object) -> int:
    """Derive a child seed from *parent_seed* and a sequence of labels.

    The derivation is a SHA-256 hash of the textual representation of the parent seed
    and the labels, reduced modulo 2**63.  It is stable across runs and platforms.
    """
    return _text_seed(repr((int(parent_seed),) + tuple(str(label) for label in labels)))


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
    * ``randint(low, high)`` — an integer uniformly drawn from [low, high].

    Per-key draws
    -------------
    :meth:`child_random` and :meth:`child_sample` return what
    ``child(*labels).random()`` and ``child(*labels).sample(items, k)`` return,
    for callers that draw once per key (a sender's round, a star round's
    points).  They cache the constant head of the hashed label text and one
    generator, created on first use and reseeded for every call; the cache
    depends only on ``seed`` and ``label``, which never change, so nothing
    invalidates it.  The keyed generator is not the sequential one, so per-key
    draws leave the ``random``/``uniform``/``randint`` stream untouched.
    """

    def __init__(self, seed: int, label: Optional[str] = None) -> None:
        self.seed = int(seed)
        self.label = label
        effective = self.seed if label is None else derive_seed(self.seed, label)
        self._rng = random.Random(effective)
        self.random = self._rng.random
        self.uniform = self._rng.uniform
        self.randint = self._rng.randint
        #: (head of the label text, keyed generator), built by the first per-key draw.
        self._keyed: Optional[Tuple[str, random.Random]] = None

    def child(self, *labels: object) -> "RandomSource":
        """Return an independent child source labelled by *labels*."""
        return RandomSource(derive_seed(self.seed, self.label, *labels))

    def child_random(self, *labels: object) -> float:
        """``child(*labels).random()``, without building the child."""
        return self._keyed_generator(labels).random()

    def child_sample(self, items: Sequence[T], k: int, *labels: object) -> list:
        """``child(*labels).sample(items, k)``, without building the child."""
        return self._keyed_generator(labels).sample(items, k)

    def _keyed_generator(self, labels: Tuple[object, ...]) -> random.Random:
        """The keyed generator, seeded as ``child(*labels)`` seeds its own."""
        keyed = self._keyed
        if keyed is None:
            # ``derive_seed(seed, label, *labels)`` hashes the repr of a tuple
            # of at least two items, so its text is this head, then
            # ``", " + repr(str(label))`` per label, then ")".
            head = repr((self.seed, str(self.label)))[:-1]
            keyed = self._keyed = (head, random.Random(0))
        head, generator = keyed
        text = head + "".join([", " + repr(str(label)) for label in labels]) + ")"
        _reseed(generator, _text_seed(text))
        return generator

    # -- thin delegation to random.Random -------------------------------------
    def choice(self, items: Sequence[T]) -> T:
        """Return a uniformly chosen element of *items*."""
        return self._rng.choice(items)

    def sample(self, items: Sequence[T], k: int) -> list:
        """Return *k* distinct elements sampled from *items*."""
        return self._rng.sample(items, k)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"RandomSource(seed={self.seed}, label={self.label!r})"

