"""CNT002 seeded violation: a counter kept on the incarnation."""

from collections import Counter


class ToyReplicatedLog:
    def __init__(self):
        self.counters = Counter()
        self.orphan_drops = 0
        self.current_round = 0

    def on_propose(self):
        self.counters["proposals_started"] += 1

    def on_drop(self):
        self.orphan_drops += 1  # a plain attribute: resets on recover

    def resync(self, round_number):
        self.current_round += 1
        if round_number > self.current_round:
            self.current_round = round_number  # reassigned: state, not a counter
