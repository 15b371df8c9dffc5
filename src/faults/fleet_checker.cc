#include "src/faults/fleet_checker.h"

#include <utility>

#include "src/sim/check.h"
#include "src/sim/ordered.h"

namespace rlfault {

using rlsim::Task;

namespace {

// Routes a committed-state read to the key's owning shard.
Task<bool> ReadKey(const rlshard::ShardDirectory& directory,
                   const std::vector<rldb::Database*>& dbs, uint64_t key,
                   std::vector<uint8_t>* out) {
  rldb::Database* db = dbs.at(directory.ShardOf(key));
  RL_CHECK_MSG(db != nullptr, "fleet verify needs every shard recovered");
  co_return co_await db->ReadCommitted(key, out);
}

}  // namespace

void FleetChecker::OnTxnAttempt(uint64_t token,
                                std::vector<TrackedWrite> writes) {
  RL_CHECK(!pending_.contains(token));
  pending_.emplace(token, std::move(writes));
}

void FleetChecker::OnCommitAcked(uint64_t token) {
  const auto it = pending_.find(token);
  RL_CHECK_MSG(it != pending_.end(), "ack for unknown txn token");
  // The pending entry is erased below, so its values move, not copy.
  for (TrackedWrite& w : it->second) {
    if (w.is_delete) {
      committed_[w.key] = std::nullopt;
    } else {
      committed_[w.key] = std::move(w.value);
    }
  }
  pending_.erase(it);
}

void FleetChecker::OnAborted(uint64_t token) { pending_.erase(token); }

Task<VerifyResult> FleetChecker::VerifyAfterRecovery(
    const rlshard::ShardDirectory& directory,
    const std::vector<rldb::Database*>& dbs) {
  VerifyResult result;

  // Resolve unknown-outcome transactions in ascending token order (the hash
  // map's iteration order must not decide which promoted transaction wins a
  // key both touched). Each either committed everywhere — decision record
  // durable even though the ack never arrived — or must be absent
  // everywhere; the cross-shard partial case is exactly a 2PC atomicity
  // violation.
  for (const uint64_t token : rlsim::SortedKeys(pending_)) {
    const std::vector<TrackedWrite>& writes = pending_.at(token);
    size_t applied = 0;
    for (const TrackedWrite& w : writes) {
      std::vector<uint8_t> got;
      const bool found = co_await ReadKey(directory, dbs, w.key, &got);
      const bool matches = w.is_delete ? !found : (found && got == w.value);
      if (matches) {
        ++applied;
      }
    }
    if (applied == writes.size()) {
      ++result.promoted_pending;
      for (const TrackedWrite& w : writes) {
        if (w.is_delete) {
          committed_[w.key] = std::nullopt;
        } else {
          committed_[w.key] = w.value;
        }
      }
    } else if (applied != 0) {
      // As in DurabilityChecker: a write "matching" the new value may really
      // be the untouched prior value, so only count keys where a non-prior
      // value definitely appeared.
      size_t definite = 0;
      for (const TrackedWrite& w : writes) {
        std::vector<uint8_t> got;
        const bool found = co_await ReadKey(directory, dbs, w.key, &got);
        const auto prior = committed_.find(w.key);
        const bool matches_prior =
            prior == committed_.end()
                ? !found
                : (prior->second.has_value() ? (found && got == *prior->second)
                                             : !found);
        const bool matches_new =
            w.is_delete ? !found : (found && got == w.value);
        if (matches_new && !matches_prior) {
          ++definite;
        }
      }
      if (definite != 0) {
        ++result.atomicity_violations;
        result.violating_tokens.push_back(token);
      }
    }
  }
  pending_.clear();

  // Every acknowledged write must be present on its owning shard.
  // In ascending key order: the hash map's iteration order must not decide
  // the order of the verification reads.
  for (const uint64_t key : rlsim::SortedKeys(committed_)) {
    const std::optional<std::vector<uint8_t>>& expected = committed_.at(key);
    ++result.keys_checked;
    std::vector<uint8_t> got;
    const bool found = co_await ReadKey(directory, dbs, key, &got);
    const bool matches =
        expected.has_value() ? (found && got == *expected) : !found;
    if (!matches) {
      ++result.lost_writes;
    }
  }
  co_return result;
}

}  // namespace rlfault
