"""Payload tampering: the message-corruption model of the fault layer.

A :class:`~repro.simulation.faults.CorruptLink` fault puts a directed link into
*corrupting* mode: messages still arrive on time, but their payload may have
been garbled in flight — the Byzantine-ish channel fault the crash-stop paper
excludes, modelled just far enough to exercise end-to-end integrity checking.
This module is the garbling transform itself; the policy (which links, with
what probability, from when to when) lives in :mod:`repro.simulation.faults`
and the detection lives one layer up, at the consensus/service boundary
(``repro.consensus.commands.payload_intact``).

The model is deliberately *tamper-evident*, not arbitrary-Byzantine:

* Tampering targets **integrity-protected payloads** — any frozen dataclass
  carrying a ``checksum`` field (a ``Command``, or a ``Batch`` of them, found
  inside an envelope's ``inner``, a ``value`` field, the ``decisions`` of a
  catch-up reply or the ``accepted`` / ``decisions`` rows of a ``Promise``).
  The payload is garbled while the *stale* checksum is preserved, exactly like
  a bit-flip that a forwarding hop passes on but an end-to-end CRC catches.
* Messages carrying no such payload (the Omega layer's ``ALIVE`` /
  ``SUSPICION`` control traffic, a ``Prepare``) pass through unchanged:
  they have no free-form payload for this model to flip — their entire content
  is protocol metadata, which we treat as protected by the transport framing.
  :func:`corrupt_message` returns ``None`` for them, and the network counts a
  delivery as corrupted only when something was actually tampered with.

Because the transform builds *new* frozen envelopes (``dataclasses.replace``),
the pristine message object shared by a broadcast fan-out is never mutated:
other destinations of the same broadcast still receive the intact payload.
The garbling draw comes from the fault layer's dedicated RNG stream, so
corruption never perturbs delay draws elsewhere in the run.
"""

from __future__ import annotations

import dataclasses
from typing import Any, Optional

from repro.util.rng import RandomSource

#: Separator prepended to the garbled suffix; NUL never appears in honest keys.
_GARBLE_MARK = "\x00"


def _is_checksummed(value: Any) -> bool:
    return dataclasses.is_dataclass(value) and hasattr(value, "checksum")


def corrupt_value(value: Any, rng: RandomSource) -> Optional[Any]:
    """Return a garbled copy of *value*, or ``None`` when it is not corruptible.

    A command-like payload (checksummed, with a ``key``) gets a random suffix
    appended to its key while its stale checksum is kept; a batch-like payload
    (checksummed, with ``commands``) has one randomly chosen member garbled the
    same way.  Anything without a checksum — a legacy opaque value, the no-op
    filler — is left alone: the corruption model only attacks payloads the
    receiving side can actually check.
    """
    if not _is_checksummed(value):
        return None
    commands = getattr(value, "commands", None)
    if commands is not None:
        if not commands:
            return None
        index = rng.randint(0, len(commands) - 1)
        # Try each member starting from a random one, without further draws, so
        # a batch mixing corruptible and opaque members is still corruptible.
        for offset in range(len(commands)):
            position = (index + offset) % len(commands)
            member = corrupt_value(commands[position], rng)
            if member is not None:
                garbled = (
                    commands[:position] + (member,) + commands[position + 1 :]
                )
                return dataclasses.replace(
                    value, commands=garbled, checksum=value.checksum
                )
        return None
    if hasattr(value, "key"):
        salt = rng.randint(0, 0xFFFF)
        return dataclasses.replace(
            value,
            key=f"{value.key}{_GARBLE_MARK}{salt:04x}",
            checksum=value.checksum,
        )
    return None


def corrupt_message(message: Any, rng: RandomSource) -> Optional[Any]:
    """Return a copy of *message* with one payload garbled, or ``None``.

    ``None`` means the message carries nothing this model can tamper with; the
    caller must then deliver the original untouched (and not count a
    corruption).  The walk mirrors ``payload_intact`` on the receive side: a
    wrapped envelope's ``inner``, a ``value`` field, and the value-last rows
    of a catch-up reply's or a promise's ``decisions`` and of a promise's
    ``accepted``.
    """
    inner = getattr(message, "inner", None)
    if inner is not None:
        tampered = corrupt_message(inner, rng)
        if tampered is None:
            return None
        return dataclasses.replace(message, inner=tampered)
    if hasattr(message, "value"):
        tampered = corrupt_value(message.value, rng)
        if tampered is not None:
            return dataclasses.replace(message, value=tampered)
    for field in ("decisions", "accepted"):
        rows = getattr(message, field, None)
        if not rows:
            continue
        # Rows end with their value — ``(position, value)`` decisions,
        # ``(position, ballot, value)`` accepted entries.  Try each starting
        # from a random one, without further draws.
        index = rng.randint(0, len(rows) - 1)
        for offset in range(len(rows)):
            position = (index + offset) % len(rows)
            tampered = corrupt_value(rows[position][-1], rng)
            if tampered is not None:
                garbled = rows[position][:-1] + (tampered,)
                return dataclasses.replace(
                    message,
                    **{field: rows[:position] + (garbled,) + rows[position + 1 :]},
                )
    items = getattr(message, "items", None)
    if items:
        # A snapshot-transfer chunk: garble one payload row while keeping the
        # carried whole-snapshot checksum stale.  Chunks are not individually
        # checksummed, so the forgery only surfaces when the receiver verifies
        # the *assembled* snapshot — which then rejects the whole transfer.
        index = rng.randint(0, len(items) - 1)
        garbled_item = (_GARBLE_MARK, items[index])
        return dataclasses.replace(
            message, items=items[:index] + (garbled_item,) + items[index + 1 :]
        )
    return None


__all__ = ["corrupt_message", "corrupt_value"]
