"""Fleet attestation: one Vrf serving many concurrent device sessions.

The package splits along the cost structure of fleet CFA:

* :mod:`~repro.cfa.fleet.session` — cheap per-report protocol state
  (challenges, replay protection, sequencing, expiry/retry);
* :mod:`~repro.cfa.fleet.verify` — the expensive chain-verification
  primitive shared verbatim by the serial and pooled paths;
* :mod:`~repro.cfa.fleet.service` — the per-shard multiplexing core
  with a worker-pool fan-out, bounded-queue backpressure, and metrics;
* :mod:`~repro.cfa.fleet.simulator` — the load generator / adversary
  model used by the tests, the ``fleet`` CLI, and the benchmarks;
* :mod:`~repro.cfa.fleet.store` — the durable hash-chained evidence
  log (fsync-before-release) and the content-addressed persistent
  replay cache;
* :mod:`~repro.cfa.fleet.shard` — the fleet front end: a
  consistent-hash router over shard cores (``shards=1`` is the
  unsharded service) that owns every fleet-wide operation, with
  crash-restart recovery from the evidence logs;
* :mod:`~repro.cfa.fleet.dictver` — versioned speculation
  dictionaries and the cryptographic epoch handshake (DICT/DACK);
* :mod:`~repro.cfa.fleet.mining` — the live-traffic sampler and the
  profit-scored sub-path miner behind the adaptive speculation loop.

The policy control plane — firmware registry, quarantine engine, and
guaranteed healing — lives in :mod:`repro.cfa.policy` and plugs into
the front end via its ``policy=`` constructor hook.
"""

from repro.cfa.fleet.dictver import (
    DictEpoch,
    DictionaryRegistry,
    dack_mac,
    spec_challenge,
    verify_dack,
)
from repro.cfa.fleet.metrics import FleetMetrics, aggregate_metrics
from repro.cfa.fleet.mining import (
    TrafficSampler,
    learn_dictionaries,
    mine_fleet_dictionary,
    mining_gain,
)
from repro.cfa.fleet.service import FleetService
from repro.cfa.fleet.session import FleetOverloadError, Session, SessionManager
from repro.cfa.fleet.shard import HashRing, ShardedFleetService, audit_key
from repro.cfa.fleet.store import (
    DurableReplayCache,
    EvidenceError,
    EvidenceRecord,
    EvidenceStore,
    PolicyRecord,
    chain_digest,
    verify_evidence_trail,
)
from repro.cfa.fleet.simulator import (
    BEHAVIORS,
    CampaignReport,
    CampaignSimulator,
    ChainFactory,
    DeviceSpec,
    FleetSimulator,
    HONEST_BEHAVIORS,
    HOSTILE_BEHAVIORS,
    SimulationReport,
    build_campaign_specs,
    build_fleet_specs,
    device_key,
)
from repro.cfa.fleet.verify import (
    DeviceProfile,
    ReplayCache,
    SessionVerdict,
    verify_session_chain,
)

__all__ = [
    "BEHAVIORS",
    "CampaignReport",
    "CampaignSimulator",
    "ChainFactory",
    "DeviceProfile",
    "DeviceSpec",
    "DictEpoch",
    "DictionaryRegistry",
    "DurableReplayCache",
    "EvidenceError",
    "EvidenceRecord",
    "EvidenceStore",
    "FleetMetrics",
    "FleetOverloadError",
    "FleetService",
    "FleetSimulator",
    "HONEST_BEHAVIORS",
    "HOSTILE_BEHAVIORS",
    "HashRing",
    "PolicyRecord",
    "ReplayCache",
    "Session",
    "SessionManager",
    "SessionVerdict",
    "ShardedFleetService",
    "SimulationReport",
    "TrafficSampler",
    "aggregate_metrics",
    "audit_key",
    "build_campaign_specs",
    "build_fleet_specs",
    "chain_digest",
    "dack_mac",
    "device_key",
    "learn_dictionaries",
    "mine_fleet_dictionary",
    "mining_gain",
    "spec_challenge",
    "verify_dack",
    "verify_evidence_trail",
    "verify_session_chain",
]
