"""Simulated HDFS batch stream.

The paper streams click-log batches from HDFS into each node's main memory
(Algorithm 1 line 2); in Fig. 3(c) this "Read examples" stage is the
bottleneck for the small models.  :class:`HDFSStream` wraps a
:class:`~repro.data.generator.CTRDataGenerator` and charges the read-time
model for every batch it yields.

Data-parallel sharding: a stream reads by *global* batch index, and the
cluster hands node ``i`` of ``n`` batches ``i, i+n, i+2n, …`` — different
nodes see disjoint data, as in the paper.
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
        batch_size: int,
        ledger: CostLedger,
    ) -> None:
        if batch_size <= 0:
            raise ValueError("batch_size must be positive")
        self.generator = generator
        self.spec = spec
        self.batch_size = batch_size
        self.ledger = ledger
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
