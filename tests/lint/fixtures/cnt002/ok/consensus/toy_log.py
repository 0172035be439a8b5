"""CNT002 near-miss: every count goes into the registry; the rest is state."""

from collections import Counter


class ToyReplicatedLog:
    def __init__(self):
        self.counters = Counter()
        self.current_round = 0

    def on_propose(self):
        self.counters["proposals_started"] += 1

    def on_drop(self):
        self.counters["orphan_drops"] += 1

    def resync(self, round_number):
        self.current_round += 1
        if round_number > self.current_round:
            self.current_round = round_number
