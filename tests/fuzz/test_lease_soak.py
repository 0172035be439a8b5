"""Lease-enabled soak campaign: the read path under the full fault vocabulary.

The acceptance criterion of the lease read path mirrors the storage-on soak of
``test_campaign.py``: **200 pinned-seed executions with leases enabled report
zero invariant violations** — in particular zero ``linearizability`` and zero
``stale-read`` findings — while the campaign demonstrably exercises the lease
machinery (reads served under leases, the lease-expiry-edge seed admitted, the
lease-aware mutator armed).

The cadence of the leader hunter (period 15, downtime 10) against the default
lease term (6) guarantees the runs cross lease-expiry edges: every hunted
leader sits out longer than its residual term, so successors are elected and
leased while the victim's grants drain — exactly the window the safety
argument is about.
"""

import dataclasses

from repro.fuzz.campaign import CampaignConfig, CampaignRunner
from repro.fuzz.corpus import seed_corpus
from repro.fuzz.executor import FUZZ_BASELINE


class TestLeaseSoakCampaign:
    def test_lease_enabled_campaign_is_clean(self):
        spec = dataclasses.replace(
            FUZZ_BASELINE,
            seed=5,
            storage_write_cost=0.0,
            leases=True,
            read_fraction=0.9,
        )
        config = CampaignConfig(
            spec=spec,
            seed=21,
            max_executions=200,
            round_size=16,
            adversaries=(None, "random", "leader-hunter"),
            minimize_budget=0,
        )
        corpus = seed_corpus(
            3,
            1,
            include_amnesia_witness=False,
            include_lease_edge=True,
            lease_duration=spec.lease_duration,
        )
        assert "lease-edge-partition" in corpus.names()
        runner = CampaignRunner(config, corpus)
        report = runner.run()
        assert report.executions >= 200
        assert report.ok, report.describe()
        assert report.findings == ()
        # The feedback loop fed back and the runs really took the lease path:
        # executed corpus entries carry their feature vectors, and lease-mode
        # features only exist when reads were actually lease-served.
        assert report.corpus_size > 7
        assert report.coverage_pairs > 20
        served = sum(
            entry.features.get("lease_reads_served", 0) for entry in runner.corpus
        )
        assert served > 0
