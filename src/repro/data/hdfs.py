"""Simulated HDFS batch stream.

The paper streams click-log batches from HDFS into each node's main memory
(Algorithm 1 line 2); in Fig. 3(c) this "Read examples" stage is the
bottleneck for the small models.  :class:`HDFSStream` wraps a
:class:`~repro.data.generator.CTRDataGenerator` and charges the read-time
model for every batch it yields.

Data-parallel sharding: node ``i`` of ``n`` receives batches
``i, i+n, i+2n, …`` — different nodes see disjoint data, as in the paper.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.data.batching import Batch
from repro.data.generator import CTRDataGenerator
from repro.hardware.ledger import CostLedger
from repro.hardware.specs import HDFSSpec

__all__ = ["HDFSStream", "TimedBatch"]


@dataclass(frozen=True)
class TimedBatch:
    """A batch plus the simulated seconds spent streaming it from HDFS."""

    index: int
    batch: Batch
    read_seconds: float


class HDFSStream:
    """Per-node view of the training data on the distributed FS."""

    def __init__(
        self,
        generator: CTRDataGenerator,
        spec: HDFSSpec,
        *,
        node_id: int = 0,
        n_nodes: int = 1,
        batch_size: int = 4096,
        ledger: CostLedger | None = None,
    ) -> None:
        if not 0 <= node_id < n_nodes:
            raise ValueError("node_id must be in [0, n_nodes)")
        if batch_size <= 0:
            raise ValueError("batch_size must be positive")
        self.generator = generator
        self.spec = spec
        self.node_id = node_id
        self.n_nodes = n_nodes
        self.batch_size = batch_size
        self.ledger = ledger if ledger is not None else CostLedger()
        self.batches_read = 0
        self.bytes_read = 0
        #: fault-injection guard for batch reads
        #: (:class:`repro.faults.policy.FaultArm`; None = fault-free)
        self.faults = None

    def transfer_seconds(self, n_bytes: int) -> float:
        """Simulated seconds to move ``n_bytes`` to/from the distributed
        FS — the one place the latency + bytes/bandwidth cost model lives
        (batch reads and checkpoint shard traffic both price through it).
        """
        return self.spec.latency_s + n_bytes / self.spec.bandwidth

    def read_time(self, batch: Batch) -> float:
        """Simulated seconds to stream ``batch`` from HDFS."""
        return self.transfer_seconds(batch.nbytes_raw_log())

    def read(self, global_index: int) -> TimedBatch:
        """Fetch one batch by global index, charging the ledger.

        When armed, transfer timeouts (a timed-out attempt wastes the
        whole transfer) and transient read failures (fail fast, backoff
        only) retry under the policy *before* the stream's counters
        advance — an exhausted fault escapes with round scope and the
        retried round re-reads the identical batch (batches are pure
        functions of the global index, so a retry cannot fork the data).
        """
        batch = self.generator.batch(global_index, self.batch_size)
        t = self.read_time(batch)
        extra = 0.0
        if self.faults is not None:
            extra = self.faults.guard(
                {"hdfs_timeout": t, "hdfs_read_failure": 0.0}, scope="round"
            )
        self.ledger.add("hdfs_read", t)
        self.batches_read += 1
        self.bytes_read += batch.nbytes_raw_log()
        return TimedBatch(global_index, batch, t + extra)

    def stream(self, n_rounds: int):
        """Yield this node's share of ``n_rounds`` global rounds.

        In round ``r`` every node reads one batch; node ``i`` reads global
        batch ``r * n_nodes + i``.
        """
        for r in range(n_rounds):
            yield self.read(r * self.n_nodes + self.node_id)
