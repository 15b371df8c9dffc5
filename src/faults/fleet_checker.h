// Fleet-level atomicity and durability oracle for the sharded topology.
//
// The model is the same as DurabilityChecker's — acknowledged transactions
// must be fully present after recovery, unresolved ones all-or-nothing —
// but a transaction's writes may span shards, so "all-or-nothing" becomes
// the 2PC atomicity guarantee itself: after any schedule of crashes and
// partitions, no transaction may be committed on a strict subset of its
// shards. Reads route each key to its owning shard's recovered engine
// through the ShardDirectory.
//
// Outcome mapping for callers driving TxnCoordinator::Execute:
//   kCommitted -> OnCommitAcked   (promise made; must survive)
//   kAborted   -> OnAborted       (model unchanged; the engine's no-steal
//                                  design means aborts leave no trace)
//   kUnknown   -> leave pending   (resolved by VerifyAfterRecovery, which
//                                  promotes fully-applied ones and flags
//                                  definite partial applications)
#pragma once

#include <cstdint>
#include <optional>
#include <unordered_map>
#include <vector>

#include "src/db/database.h"
#include "src/faults/durability_checker.h"
#include "src/shard/shard_directory.h"
#include "src/sim/task.h"

namespace rlfault {

class FleetChecker {
 public:
  // Call before handing the transaction to the coordinator.
  void OnTxnAttempt(uint64_t token, std::vector<TrackedWrite> writes);

  // The coordinator acked the commit: the writes are now promised.
  void OnCommitAcked(uint64_t token);

  // The coordinator reported a definite abort.
  void OnAborted(uint64_t token);

  // After the fleet is healed and every shard recovered: verifies the model
  // against the recovered shards. Pending (kUnknown-outcome) transactions
  // are resolved in ascending token order — fully applied across all their
  // shards promotes them into the model; a definite partial application
  // counts as an atomicity violation. `dbs[i]` must be shard i's live
  // engine for every shard in the directory.
  rlsim::Task<VerifyResult> VerifyAfterRecovery(
      const rlshard::ShardDirectory& directory,
      const std::vector<rldb::Database*>& dbs);

  size_t pending_count() const { return pending_.size(); }
  size_t model_size() const { return committed_.size(); }

 private:
  std::unordered_map<uint64_t, std::optional<std::vector<uint8_t>>> committed_;
  std::unordered_map<uint64_t, std::vector<TrackedWrite>> pending_;
};

}  // namespace rlfault
