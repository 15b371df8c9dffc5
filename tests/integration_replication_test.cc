// Full-stack replication: primary testbed + NetworkFabric + LogShipper +
// ReplicaNodes, exercising the E11 scenarios end to end — quorum-acked
// commits surviving total primary loss, async-mode loss bounded by lag, and
// partition/heal catch-up.
#include <gtest/gtest.h>

#include <cstddef>
#include <memory>

#include "src/faults/durability_checker.h"
#include "src/harness/testbed.h"
#include "src/sim/simulator.h"
#include "src/workload/kv_workload.h"
#include "tests/testlib/campaign_util.h"

namespace rlharness {
namespace {

using rlsim::Duration;
using rlsim::Simulator;
using rlsim::Task;

TEST(ReplicationIntegrationTest, QuorumCommitsSurviveTotalPrimaryLoss) {
  // The headline: the primary dies mid-shipment over lossy links, its log
  // disk is treated as lost with it, and the database recovers from a
  // replica's disk image without losing one acked commit.
  Simulator sim;
  TestbedOptions opt =
      rltest::ReplicatedCampaignOptions(DeploymentMode::kNative,
                                        rlrep::ShipMode::kQuorumAck,
                                        /*replicas=*/3);
  opt.replication.link.drop_probability = 0.05;
  Testbed bed(sim, opt);
  rlwork::KvWorkload kv(sim, rltest::WriteHeavyKv());
  rlfault::DurabilityChecker checker;
  rlfault::VerifyResult verdict;
  size_t replicas_passing_audit = 0;
  sim.Spawn([](Simulator& s, Testbed& b, rlwork::KvWorkload& w,
               rlfault::DurabilityChecker& chk, rlfault::VerifyResult& out,
               size_t& passing) -> Task<void> {
    co_await b.Start();
    co_await w.Load(b.db(), 500);
    auto stop = rltest::SpawnFleet(s, w, b.db(), 0, 4, &chk);
    co_await s.Sleep(Duration::Millis(700));
    b.CutPower();
    *stop = true;
    // Rails are down; frames already on the wire drain into the replicas.
    co_await s.Sleep(Duration::Seconds(1));
    for (size_t r = 0; r < b.replica_count(); ++r) {
      const auto audit =
          rlfault::AuditReplicaDurability(*b.shipper(), b.replica(r));
      EXPECT_GT(audit.sectors_expected, 0u);
      if (audit.ok()) {
        ++passing;
      }
    }
    co_await b.RestorePowerAndRecoverFromReplica();
    out = co_await chk.VerifyAfterRecovery(b.db());
    co_await b.db().CheckTreeStructure();
  }(sim, bed, kv, checker, verdict, replicas_passing_audit));
  sim.Run();

  EXPECT_GT(verdict.keys_checked, 0u);
  EXPECT_TRUE(verdict.ok()) << verdict.Summary();
  // The mode's contract is that a majority holds every acked commit.
  EXPECT_GE(replicas_passing_audit, bed.shipper()->quorum_size());
  EXPECT_GT(bed.shipper()->next_seq(), 0u);
}

TEST(ReplicationIntegrationTest, AsyncLossIsBoundedByReplicationLag) {
  // Async mode: partition every replica, keep committing (the primary never
  // blocks on the network), then lose the primary. Restoring from a replica
  // can only recover the pre-partition prefix — the commits in the lag
  // window are gone, which is exactly the bounded guarantee async offers.
  Simulator sim;
  Testbed bed(sim,
              rltest::ReplicatedCampaignOptions(DeploymentMode::kNative,
                                rlrep::ShipMode::kAsync, /*replicas=*/2));
  rlwork::KvWorkload kv(sim, rltest::WriteHeavyKv());
  rlfault::DurabilityChecker checker;
  rlfault::VerifyResult verdict;
  uint64_t lag_at_cut = 0;
  sim.Spawn([](Simulator& s, Testbed& b, rlwork::KvWorkload& w,
               rlfault::DurabilityChecker& chk, rlfault::VerifyResult& out,
               uint64_t& lag) -> Task<void> {
    co_await b.Start();
    co_await w.Load(b.db(), 300);
    auto stop = rltest::SpawnFleet(s, w, b.db(), 0, 4, &chk);
    co_await s.Sleep(Duration::Millis(300));
    b.PartitionReplica(0);
    b.PartitionReplica(1);
    co_await s.Sleep(Duration::Millis(300));
    lag = b.shipper()->next_seq() - b.shipper()->quorum_cursor();
    b.CutPower();
    *stop = true;
    co_await s.Sleep(Duration::Seconds(1));
    b.HealReplica(0);
    b.HealReplica(1);
    co_await b.RestorePowerAndRecoverFromReplica();
    out = co_await chk.VerifyAfterRecovery(b.db());
  }(sim, bed, kv, checker, verdict, lag_at_cut));
  sim.Run();

  EXPECT_GT(lag_at_cut, 0u);
  EXPECT_GT(verdict.lost_writes, 0u) << verdict.Summary();
  // But everything quorum-acked before the partition is still there: each
  // replica individually passes the audit against the frozen quorum cursor.
  for (size_t r = 0; r < bed.replica_count(); ++r) {
    const auto audit =
        rlfault::AuditReplicaDurability(*bed.shipper(), bed.replica(r));
    EXPECT_TRUE(audit.ok()) << "replica " << r << ": " << audit.Summary();
  }
}

TEST(ReplicationIntegrationTest, PartitionedReplicaCatchesUpAfterHeal) {
  Simulator sim;
  Testbed bed(sim,
              rltest::ReplicatedCampaignOptions(DeploymentMode::kNative,
                                rlrep::ShipMode::kQuorumAck, /*replicas=*/3));
  rlwork::KvWorkload kv(sim, rltest::WriteHeavyKv());
  uint64_t cursor_while_partitioned = 0;
  // The clients outlive this root (they read the flag after it finishes), so
  // the flag must outlive its frame too.
  std::shared_ptr<bool> stop;
  sim.Spawn([](Simulator& s, Testbed& b, rlwork::KvWorkload& w,
               uint64_t& partitioned_cursor,
               std::shared_ptr<bool>& stop) -> Task<void> {
    co_await b.Start();
    co_await w.Load(b.db(), 300);
    stop = rltest::SpawnFleet(s, w, b.db(), 0, 4, nullptr);
    co_await s.Sleep(Duration::Millis(200));
    b.PartitionReplica(2);
    co_await s.Sleep(Duration::Millis(400));
    partitioned_cursor = b.replica(2).cursor();
    b.HealReplica(2);
    co_await s.Sleep(Duration::Millis(400));
    *stop = true;
  }(sim, bed, kv, cursor_while_partitioned, stop));
  sim.Run();

  // It fell behind during the partition and retransmission closed the gap.
  EXPECT_LT(cursor_while_partitioned, bed.shipper()->next_seq());
  EXPECT_EQ(bed.replica(2).cursor(), bed.shipper()->next_seq());
  EXPECT_GT(bed.shipper()->stats().retransmits.value(), 0);
  for (size_t r = 0; r < bed.replica_count(); ++r) {
    const auto audit =
        rlfault::AuditReplicaDurability(*bed.shipper(), bed.replica(r));
    EXPECT_TRUE(audit.ok()) << "replica " << r << ": " << audit.Summary();
  }
}

TEST(ReplicationIntegrationTest, RapiLogWithQuorumReplicationRecovers) {
  // The shipper sits above RapiLog: commits are locally guarded by the
  // trusted layer AND quorum-replicated. Recovery from the replica image
  // after a power cut must lose nothing.
  Simulator sim;
  Testbed bed(sim,
              rltest::ReplicatedCampaignOptions(DeploymentMode::kRapiLog,
                                rlrep::ShipMode::kQuorumAck, /*replicas=*/3));
  rlwork::KvWorkload kv(sim, rltest::WriteHeavyKv());
  rlfault::DurabilityChecker checker;
  rlfault::VerifyResult verdict;
  sim.Spawn([](Simulator& s, Testbed& b, rlwork::KvWorkload& w,
               rlfault::DurabilityChecker& chk,
               rlfault::VerifyResult& out) -> Task<void> {
    co_await b.Start();
    co_await w.Load(b.db(), 300);
    auto stop = rltest::SpawnFleet(s, w, b.db(), 0, 4, &chk);
    co_await s.Sleep(Duration::Millis(600));
    b.CutPower();
    *stop = true;
    co_await s.Sleep(Duration::Seconds(1));
    co_await b.RestorePowerAndRecoverFromReplica();
    out = co_await chk.VerifyAfterRecovery(b.db());
  }(sim, bed, kv, checker, verdict));
  sim.Run();

  EXPECT_GT(verdict.keys_checked, 0u);
  EXPECT_TRUE(verdict.ok()) << verdict.Summary();
}

}  // namespace
}  // namespace rlharness
