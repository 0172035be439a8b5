#!/usr/bin/env python3
"""Compare two perfbench result files, one row per (workload, end-to-end metric).

    python3 perfbench/compare.py A.json B.json

``A`` is the base (the parent commit, or the first of two repeat sets), ``B``
the candidate; both are ``results.json`` files written by ``run.py``.  Each row
is judged against that pair's own bound in ``ledger.json``:

``improved``      B is better than A by more than the bound
``within bound``  B is no worse than A by more than the bound
``regressed``     B is worse than A by more than the bound
``unresolved``    the run-to-run spread is wider than the bound, or the two
                  files measured different seeds, so the row decides nothing

Virtual-time and count metrics are pure functions of the seed: on equal seeds
their spread is zero and any difference is real.  Host metrics carry the spread
of their per-pass samples.  Every ratio is printed with its base.  Exit code 1
if any row regressed or is unresolved.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from typing import Dict, List, Tuple

LEDGER_PATH = Path(__file__).resolve().parent / "ledger.json"
#: Metrics measured on the host; everything else is virtual time or a count.
HOST_METRICS = ("setup_s", "host_cost_kiter_per_op", "peak_rss_mb")


def load_bounds(path: Path = LEDGER_PATH) -> Dict[str, Dict]:
    """``metric -> {"better", "unit", "bounds": {workload: bound}}`` from the ledger."""
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)["end_to_end"]


def relative_spread(samples: List[float]) -> float:
    if len(samples) < 2 or min(samples) <= 0:
        return 0.0
    return (max(samples) - min(samples)) / min(samples)


def judge(metric: str, spec: Dict, workload: str, base: Dict, candidate: Dict, same_seeds: bool) -> Tuple[str, str]:
    """``(verdict, detail)`` for one (workload, metric) row."""
    a, b = base["metrics"].get(metric), candidate["metrics"].get(metric)
    if a is None or b is None:
        return "unresolved", "not measured in both files"
    bound = spec["bounds"][workload]
    detail = f"{b:.6g} vs base {a:.6g} {spec['unit']}"
    if a == b:
        return "within bound", detail + " (equal)"
    if a == 0:
        # No ratio exists against a zero base; any rise of a lower-is-better metric is a regression.
        worse = (b > a) == (spec["better"] == "lower")
        return ("regressed" if worse else "improved"), detail + " (base is 0)"
    ratio = b / a
    worsening = ratio - 1.0 if spec["better"] == "lower" else 1.0 - ratio
    detail += f"  ratio {ratio:.4f}  bound {bound:.4g}"
    if metric not in HOST_METRICS and not same_seeds:
        return "unresolved", detail + " (different seeds)"
    spread = max(
        relative_spread(base.get("host_samples", {}).get(metric, [])),
        relative_spread(candidate.get("host_samples", {}).get(metric, [])),
    )
    if spread > bound:
        return "unresolved", detail + f"  spread {spread:.4f} > bound"
    if worsening > bound:
        return "regressed", detail
    if worsening < -bound:
        return "improved", detail
    return "within bound", detail


def report(base: Dict, candidate: Dict, bounds: Dict[str, Dict]) -> bool:
    """Print the comparison table; return True when no row regressed or is unresolved."""
    clean = True
    same_seeds = base.get("seed") == candidate.get("seed") and base.get("quick") == candidate.get("quick")
    for workload, entry in base["workloads"].items():
        other = candidate["workloads"].get(workload)
        if other is None:
            print(f"{workload:<20} {'*':<26} unresolved      missing from the candidate file")
            clean = False
            continue
        if same_seeds and entry.get("fingerprints") != other.get("fingerprints"):
            print(f"{workload:<20} {'fingerprints':<26} differ          the two runs did not behave identically")
            clean = False
        for metric, spec in bounds.items():
            verdict, detail = judge(metric, spec, workload, entry, other, same_seeds)
            if verdict in ("regressed", "unresolved"):
                clean = False
            print(f"{workload:<20} {metric:<26} {verdict:<15} {detail}")
        raw_a, raw_b = entry["metrics"].get("host.cpu_us_per_op"), other["metrics"].get("host.cpu_us_per_op")
        if raw_a and raw_b:
            print(f"{workload:<20} {'host.cpu_us_per_op':<26} {'(raw, unjudged)':<15} "
                  f"{raw_b:.6g} vs base {raw_a:.6g} us  ratio {raw_b / raw_a:.4f}")
    return clean


def main(argv: List[str]) -> int:
    if len(argv) != 2:
        sys.stderr.write(__doc__ or "")
        return 2
    documents = []
    for name in argv:
        with open(name, encoding="utf-8") as handle:
            documents.append(json.load(handle))
    return 0 if report(documents[0], documents[1], load_bounds()) else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
