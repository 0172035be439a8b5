"""The durability probe's lease-mode exemption is exactly the audit trail.

With leases on, only reads that were *actually* lease-served (they appear in
``service.read_audits``) bypass the applied-at-a-correct-replica check — a get
that timed out and fell back to the ordered consensus path entered the log
like any write and stays covered.  A blanket ``op == "get"`` exemption would
silently narrow durability coverage in lease-mode campaigns.
"""

import dataclasses

from repro.fuzz.executor import FUZZ_BASELINE, durability_violations
from repro.service.clients import OperationRecord, start_workload
from repro.service.sharding import build_service


def _run_lease_service(seed=3):
    spec = dataclasses.replace(FUZZ_BASELINE, seed=seed, leases=True, read_fraction=0.9)
    service = build_service(spec)
    clients = start_workload(service, spec, record_history=True)
    service.run_until(spec.horizon)
    return service, clients


class TestLeaseModeDurabilityCoverage:
    def test_clean_lease_run_reports_no_durability_violations(self):
        service, clients = _run_lease_service()
        audited = sum(len(audits) for audits in service.read_audits)
        assert audited > 0, "the run must exercise the lease read path"
        assert durability_violations(service, clients) == []

    def test_unaudited_get_is_not_exempt(self):
        # A get acknowledged to the client but neither lease-served (absent
        # from the audit trail) nor applied at any correct replica is a
        # durability violation; the blanket get exemption used to hide it.
        service, clients = _run_lease_service()
        client = clients[0]
        phantom = OperationRecord(
            client_id=client.client_id,
            seq=client.seq + 1,
            op="get",
            key="k0",
            args=(),
            invoked_at=1.0,
            completed_at=2.0,
            result=None,
        )
        client.history.append(phantom)
        violations = durability_violations(service, clients)
        assert len(violations) == 1
        assert violations[0].kind == "durability"
        assert f"seq={phantom.seq}" in violations[0].detail

    def test_audited_lease_read_stays_exempt(self):
        # The same phantom record, but entered into the audit trail as if it
        # had been lease-served: the exemption must cover exactly this case.
        service, clients = _run_lease_service()
        client = clients[0]
        phantom = OperationRecord(
            client_id=client.client_id,
            seq=client.seq + 1,
            op="get",
            key="k0",
            args=(),
            invoked_at=1.0,
            completed_at=2.0,
            result=None,
        )
        client.history.append(phantom)
        shard = service.shard_for(phantom.key)
        service.read_audits[shard].append(
            (phantom.client_id, phantom.seq, phantom.key, None, 0, 1.0, 2.0)
        )
        assert durability_violations(service, clients) == []
