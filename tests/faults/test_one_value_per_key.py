"""Every copy of a key agrees after every sync round.

A round keeps one value per key: every node's HBM-PS stages a view of
the round array and each sync round's update is applied to it once.
Before, every node applied the update to its own copy of its working
set and each MEM owner applied it again to the keys it owns but no GPU
of its own node staged (the owner queue).  That per-node apply is
:class:`~hbm_oracles.PerNodeReplicas`; after every sync round, in
lockstep, pipelined and under the first three fault-soak schedules,
each of its copies — shared replicas and owner-queue rows alike — must
be byte-equal to the round array.
"""

from __future__ import annotations

import pytest

import repro.core.cluster as cluster_module
from hbm_oracles import PerNodeReplicas
from repro.core.cluster import HPSCluster
from repro.faults import Supervisor
from test_soak import N_ROUNDS, _soak_config, _soak_schedule, _soak_spec


class ReplicaCheck:
    """Shadows every cluster built while installed with the per-node
    apply, and checks it at the end of each sync round (the dense
    all-reduce follows the sparse apply)."""

    def __init__(self, monkeypatch) -> None:
        self.clusters: list[HPSCluster] = []
        self.oracle: PerNodeReplicas | None = None
        self.update = None
        self.syncs = 0
        self.shared_rows = 0
        self.owner_rows = 0
        init = HPSCluster.__init__
        sparse = cluster_module.hierarchical_allreduce
        dense = cluster_module.allreduce_dense

        def tracked_init(cluster, *args, **kwargs):
            init(cluster, *args, **kwargs)
            self.clusters.append(cluster)

        def captured_sparse(node_updates, *, networks, **kwargs):
            self.stage(self._cluster_of(networks))
            self.update, seconds = sparse(node_updates, networks=networks, **kwargs)
            return self.update, seconds

        def checked_dense(node_grads, *, networks, **kwargs):
            self.check(self._cluster_of(networks))
            return dense(node_grads, networks=networks, **kwargs)

        monkeypatch.setattr(HPSCluster, "__init__", tracked_init)
        monkeypatch.setattr(cluster_module, "hierarchical_allreduce", captured_sparse)
        monkeypatch.setattr(cluster_module, "allreduce_dense", checked_dense)

    def _cluster_of(self, networks) -> HPSCluster:
        return next(
            c
            for c in self.clusters
            if all(n.network is net for n, net in zip(c.nodes, networks))
        )

    def stage(self, cluster: HPSCluster) -> None:
        """At a round's first sync, copy the round array as staged."""
        staged = [node.hbm_ps._staged for node in cluster.nodes]
        values = staged[0].values
        assert all(st.values is values for st in staged), "one array per round"
        if self.oracle is None or self.oracle.values is not values:
            self.oracle = PerNodeReplicas(
                cluster.sparse_optimizer,
                values,
                [st.plan for st in staged],
                [node.mem_ps._prefetch_plan for node in cluster.nodes],
            )
            self.shared_rows += self.oracle.shared_rows
            self.owner_rows += self.oracle.queued_rows

    def check(self, cluster: HPSCluster) -> None:
        self.oracle.apply(self.update)
        self.oracle.assert_matches(cluster.nodes[0].hbm_ps._staged.values)
        self.syncs += 1


@pytest.mark.parametrize("pipelined", [False, True], ids=["lockstep", "pipelined"])
def test_copies_agree_after_every_sync_round(monkeypatch, pipelined):
    check = ReplicaCheck(monkeypatch)
    cluster = HPSCluster(_soak_spec(), _soak_config(), functional_batch_size=512)
    if pipelined:
        cluster.train_pipelined(N_ROUNDS)
    else:
        cluster.train(N_ROUNDS)
    assert check.syncs == N_ROUNDS * cluster.config.minibatches_per_gpu
    assert check.shared_rows > 0 and check.owner_rows > 0


@pytest.mark.parametrize("index", range(3))
def test_copies_agree_under_the_fault_soak(monkeypatch, tmp_path, index):
    check = ReplicaCheck(monkeypatch)
    cluster = HPSCluster(_soak_spec(), _soak_config(), functional_batch_size=512)
    run = Supervisor(str(tmp_path / "sup"), checkpoint_every=2).run(
        cluster, N_ROUNDS, _soak_schedule(index), pipelined=index % 2 == 1
    )
    assert run.rounds == N_ROUNDS
    assert check.syncs >= N_ROUNDS * cluster.config.minibatches_per_gpu
    assert check.shared_rows > 0 and check.owner_rows > 0
