"""The linter gates the real tree, and the bugs it surfaced stay fixed.

Two layers: (1) ``python -m repro.lint src/ --baseline lint_baseline.json``
must exit clean from the repo root, exactly as CI runs it; (2) regression
tests for the real findings the first full run produced — the
``level_increments`` counter that restarts threw away (CNT002), wall-clock reads on the deterministic
hot path (DET001), and dict-backed message classes (SLT004).
"""

import os
import subprocess
import sys
from pathlib import Path

from repro.consensus import messages
from repro.consensus.stack import OmegaConsensusStack
from repro.core.interfaces import Message
from repro.core.messages import Alive
from repro.lint import build_model, run_checkers
from repro.testing import FakeEnvironment, deliver_suspicions

REPO_ROOT = Path(__file__).resolve().parents[2]


class TestRealTreeGate:
    def test_src_is_clean_under_committed_baseline(self):
        env = dict(os.environ, PYTHONPATH=str(REPO_ROOT / "src"))
        proc = subprocess.run(
            [
                sys.executable,
                "-m",
                "repro.lint",
                "src",
                "--baseline",
                "lint_baseline.json",
            ],
            cwd=REPO_ROOT,
            env=env,
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stdout + proc.stderr

    def test_no_hot_path_wallclock_or_rng(self):
        # DET001 on the real tree must be finding-free without any baseline:
        # the perf timers in simulation/parallel.py now route through
        # repro.util.wallclock, the sanctioned twin of util/rng.py.
        model = build_model([REPO_ROOT / "src"])
        assert run_checkers(model, select=["DET001"]) == []


class TestCounterRegistryRegression:
    def test_level_increments_reach_the_process_registry(self):
        # CNT002's real catch: Omega's level counters never made it into the
        # whole-run totals, so every recovery threw them away.  The oracle now
        # counts into the one registry its stack shares with the log.
        stack = OmegaConsensusStack(pid=0, n=3, t=1)
        assert stack.omega.counters is stack.log.counters is stack.counters
        env = FakeEnvironment(pid=0, n=3)
        stack.omega.on_start(env)
        deliver_suspicions(stack.omega, env, rn=1, suspect=2, senders=[0, 1])
        assert stack.counters["level_increments"] == 1


class TestMessageSlotsRegression:
    def _message_classes(self):
        classes = [
            obj
            for obj in vars(messages).values()
            if isinstance(obj, type)
            and issubclass(obj, Message)
            and obj is not Message
        ]
        assert len(classes) >= 15
        return classes

    def test_every_message_class_declares_slots(self):
        for cls in self._message_classes():
            assert "__slots__" in cls.__dict__, cls.__name__

    def test_instances_carry_no_dict(self):
        # __slots__ only sheds __dict__ if every base cooperates; exercise a
        # real instance so a dict-backed base sneaking into the MRO fails here.
        prepare = messages.Prepare(ballot=1, from_position=0)
        assert not hasattr(prepare, "__dict__")
        assert prepare.tag == "PREPARE"  # the class-level tag cache still works
        # The heartbeat header rides every ALIVE, so it must be slotted too.
        advert = messages.FrontierAdvert(inner=Alive.make(1, {0: 0}), frontier=0)
        assert not hasattr(advert, "__dict__")

    def test_baseline_file_is_committed_and_justified(self):
        from repro.lint import Baseline

        baseline = Baseline.load(REPO_ROOT / "lint_baseline.json")
        for entry in baseline.entries:
            assert entry.justification.strip()
            assert "TODO" not in entry.justification


class TestWallclockModule:
    def test_wallclock_is_monotone_and_importable(self):
        from repro.util import wallclock

        first = wallclock.now()
        second = wallclock.now()
        assert second >= first

    def test_wallclock_is_on_det001_allowlist(self):
        from repro.lint.checkers import det001

        assert any(
            suffix.endswith("util/wallclock.py")
            for suffix in det001.ALLOWED_MODULE_SUFFIXES
        )
