"""Envelope walking: what a message is, under whatever carries it.

A protocol message may travel inside an envelope — the consensus stack's
:class:`~repro.consensus.messages.FrontierAdvert` around an ``ALIVE``, the
reliable channel's :class:`~repro.channels.messages.Data` around anything — and
envelopes may nest.  Every envelope keeps what it carries in ``inner``.  Delay
models, network statistics and the runtimes account a message under its
*innermost* tag and round number, which the helpers below return.
"""

from __future__ import annotations

from typing import Optional

from repro.core.interfaces import Message


def _innermost(message: Message) -> Message:
    """Strip every envelope (heartbeat headers, reliable-channel Data, ...)."""
    inner = getattr(message, "inner", None)
    while isinstance(inner, Message):
        message = inner
        inner = getattr(message, "inner", None)
    return message


def unwrap_round_number(message: Message) -> Optional[int]:
    """Return the round number carried by *message*, unwrapping envelopes.

    Delay models use this helper to apply assumption constraints to ALIVE messages
    even when they travel inside a heartbeat-header or reliable-channel envelope.
    """
    rn = getattr(_innermost(message), "rn", None)
    return int(rn) if rn is not None else None


def unwrap_tag(message: Message) -> str:
    """Return the tag of the innermost message (see :func:`unwrap_round_number`)."""
    return _innermost(message).tag
