"""Section 7 — the ``A_{f,g}`` algorithm with growing delays and star gaps.

``A_{f,g}`` weakens ``A`` in two directions, each governed by a function known to the
processes:

* ``f`` (round number -> integer) lets the distance between consecutive star rounds
  grow: ``s_{k+1} - s_k <= D + f(s_k)``;
* ``g`` (round number -> duration) lets the delay of timely messages grow: an
  ``ALIVE(rn)`` message is *(δ, g)-timely* if it is received within ``δ + g(rn)`` of
  being sent.

The algorithm is Figure 3 with two local modifications (both described at the end of
Section 7):

* line 11 becomes ``set timer to max(susp_level) + g(r_rn + 1)``;
* the line-``*`` window becomes ``[rn - susp_level[k] - f(rn), rn]``.

With ``f ≡ 0`` and ``g ≡ 0`` the algorithm degenerates to Figure 3 exactly; the test
suite checks that degeneration trace-for-trace.
"""

from __future__ import annotations

import dataclasses
from typing import Optional

from repro.core.config import OmegaConfig, TimeoutFunction, WindowFunction
from repro.core.figure3 import Figure3Omega


class FgOmega(Figure3Omega):
    """The ``A_{f,g}`` algorithm of Section 7 (bounded variables, growing bounds)."""

    variant_name = "figure_fg"

    def __init__(
        self,
        pid: int,
        n: int,
        t: int,
        config: Optional[OmegaConfig] = None,
        f: Optional[WindowFunction] = None,
        g: Optional[TimeoutFunction] = None,
    ) -> None:
        base = config if config is not None else OmegaConfig()
        if f is not None or g is not None:
            # The functions may be supplied either through the config or as explicit
            # arguments; explicit arguments win, every other field is preserved.
            base = dataclasses.replace(
                base,
                f=f if f is not None else base.f,
                g=g if g is not None else base.g,
            )
        super().__init__(pid=pid, n=n, t=t, config=base)

    def _timeout_value(self) -> float:
        """Line 11 with the ``g`` extension: ``max(susp_level) + g(r_rn + 1)``."""
        base = super()._timeout_value()
        return base + self.config.timeout_extension(self.receiving_round + 1)
