"""Importing the probes does not load the campaign.

perfbench imports its invariant probes from :mod:`repro.fuzz.executor` in
every run; the package ``__init__`` must not drag the campaign stack (and
``multiprocessing`` with it) along.
"""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[2] / "src"


def test_importing_the_executor_loads_neither_the_campaign_nor_multiprocessing():
    probe = (
        "import sys, repro.fuzz.executor\n"
        "print(sorted({'multiprocessing', 'repro.fuzz.campaign'} & set(sys.modules)))"
    )
    result = subprocess.run(
        [sys.executable, "-c", probe],
        capture_output=True,
        text=True,
        check=True,
        env={**os.environ, "PYTHONPATH": str(SRC)},
    )
    assert result.stdout.strip() == "[]"
