// End-to-end engine tests: transactions, durability, checkpointing, and
// crash recovery against real simulated devices.
#include "src/db/database.h"

#include <gtest/gtest.h>

#include <map>
#include <memory>

#include "src/sim/rng.h"
#include "src/sim/simulator.h"
#include "src/storage/block_device.h"

namespace rldb {
namespace {

using rlsim::Duration;
using rlsim::Simulator;
using rlsim::Task;
using rlstor::SimBlockDevice;
using rlstor::WriteCachePolicy;

struct EngineFixture {
  explicit EngineFixture(EngineProfile profile = PostgresLikeProfile(),
                         DurabilityMode mode = DurabilityMode::kSync)
      : cpu(sim),
        data(sim,
             SimBlockDevice::Options{.geometry = {.sector_count = 1 << 20},
                                     .cache_policy =
                                         WriteCachePolicy::kWriteBack,
                                     .name = "data"},
             rlstor::MakeDefaultSsd()),
        log(sim,
            SimBlockDevice::Options{.geometry = {.sector_count = 1 << 20},
                                    .cache_policy =
                                        WriteCachePolicy::kWriteBack,
                                    .name = "log"},
            rlstor::MakeDefaultSsd()) {
    options.profile = profile;
    options.durability = mode;
    options.pool_pages = 1024;
    options.journal_pages = 600;
    options.profile.checkpoint_dirty_pages = 256;
  }

  Task<void> OpenDb() {
    db = co_await Database::Open(sim, cpu, data, log, options);
  }

  std::vector<uint8_t> Value(uint64_t seed) const {
    std::vector<uint8_t> v(options.profile.value_bytes);
    for (size_t i = 0; i < v.size(); ++i) {
      v[i] = static_cast<uint8_t>(seed + i * 7);
    }
    return v;
  }

  // Simulates a machine crash: in-memory engine state is discarded and the
  // database is re-opened from the (simulated) disks.
  Task<void> CrashAndReopen() {
    if (db != nullptr) {
      co_await db->Close();
      db.reset();
    }
    co_await OpenDb();
  }

  // Simulates a mains failure: devices lose power (volatile caches dropped),
  // the engine is torn down while everything is dark, then power returns and
  // the database recovers from the disks.
  Task<void> PowerFailAndReopen() {
    data.PowerLoss();
    log.PowerLoss();
    if (db != nullptr) {
      co_await db->Close();
      db.reset();
    }
    data.PowerRestore();
    log.PowerRestore();
    co_await OpenDb();
  }

  Simulator sim;
  NativeCpu cpu;
  SimBlockDevice data;
  SimBlockDevice log;
  DbOptions options;
  std::unique_ptr<Database> db;
};

TEST(DatabaseTest, FreshOpenAndBasicCommit) {
  EngineFixture f;
  f.sim.Spawn([](EngineFixture& fx) -> Task<void> {
    co_await fx.OpenDb();
    const uint64_t txn = fx.db->Begin();
    EXPECT_EQ(co_await fx.db->Put(txn, 1, fx.Value(1)), DbStatus::kOk);
    EXPECT_EQ(co_await fx.db->Put(txn, 2, fx.Value(2)), DbStatus::kOk);
    EXPECT_EQ(co_await fx.db->Commit(txn), DbStatus::kOk);
    std::vector<uint8_t> got;
    EXPECT_TRUE(co_await fx.db->ReadCommitted(1, &got));
    EXPECT_EQ(got, fx.Value(1));
    EXPECT_EQ(co_await fx.db->CommittedCount(), 2u);
  }(f));
  f.sim.Run();
  EXPECT_EQ(f.db->stats().commits.value(), 1);
}

TEST(DatabaseTest, ReadYourOwnWrites) {
  EngineFixture f;
  f.sim.Spawn([](EngineFixture& fx) -> Task<void> {
    co_await fx.OpenDb();
    const uint64_t txn = fx.db->Begin();
    co_await fx.db->Put(txn, 5, fx.Value(50));
    std::vector<uint8_t> got;
    EXPECT_EQ(co_await fx.db->Get(txn, 5, &got), DbStatus::kOk);
    EXPECT_EQ(got, fx.Value(50));
    co_await fx.db->Remove(txn, 5);
    EXPECT_EQ(co_await fx.db->Get(txn, 5, &got), DbStatus::kNotFound);
    co_await fx.db->Abort(txn);
  }(f));
  f.sim.Run();
}

TEST(DatabaseTest, AbortDiscardsWrites) {
  EngineFixture f;
  f.sim.Spawn([](EngineFixture& fx) -> Task<void> {
    co_await fx.OpenDb();
    const uint64_t txn = fx.db->Begin();
    co_await fx.db->Put(txn, 9, fx.Value(9));
    co_await fx.db->Abort(txn);
    EXPECT_FALSE(co_await fx.db->ReadCommitted(9, nullptr));
    EXPECT_EQ(fx.db->active_txns(), 0u);
  }(f));
  f.sim.Run();
  EXPECT_EQ(f.db->stats().aborts.value(), 1);
}

TEST(DatabaseTest, UncommittedInvisibleToOthers) {
  EngineFixture f;
  f.sim.Spawn([](EngineFixture& fx) -> Task<void> {
    co_await fx.OpenDb();
    const uint64_t t1 = fx.db->Begin();
    co_await fx.db->Put(t1, 77, fx.Value(1));
    // Committed state does not include t1's write until commit.
    EXPECT_FALSE(co_await fx.db->ReadCommitted(77, nullptr));
    co_await fx.db->Commit(t1);
    EXPECT_TRUE(co_await fx.db->ReadCommitted(77, nullptr));
  }(f));
  f.sim.Run();
}

TEST(DatabaseTest, LockConflictTimesOutAndAborts) {
  EngineProfile p = PostgresLikeProfile();
  p.lock_timeout = Duration::Millis(5);
  EngineFixture f(p);
  f.sim.Spawn([](EngineFixture& fx) -> Task<void> {
    co_await fx.OpenDb();
    const uint64_t t1 = fx.db->Begin();
    co_await fx.db->Put(t1, 3, fx.Value(3));
    const uint64_t t2 = fx.db->Begin();
    const DbStatus st = co_await fx.db->Put(t2, 3, fx.Value(4));
    EXPECT_EQ(st, DbStatus::kLockTimeout);
    // t2 was auto-aborted; t1 can still commit.
    EXPECT_EQ(co_await fx.db->Commit(t1), DbStatus::kOk);
  }(f));
  f.sim.Run();
}

TEST(DatabaseTest, CommittedDataSurvivesCleanReopen) {
  EngineFixture f;
  f.sim.Spawn([](EngineFixture& fx) -> Task<void> {
    co_await fx.OpenDb();
    for (uint64_t k = 0; k < 50; ++k) {
      const uint64_t txn = fx.db->Begin();
      co_await fx.db->Put(txn, k, fx.Value(k));
      EXPECT_EQ(co_await fx.db->Commit(txn), DbStatus::kOk);
    }
    co_await fx.CrashAndReopen();
    EXPECT_EQ(co_await fx.db->CommittedCount(), 50u);
    for (uint64_t k = 0; k < 50; ++k) {
      std::vector<uint8_t> got;
      EXPECT_TRUE(co_await fx.db->ReadCommitted(k, &got)) << k;
      EXPECT_EQ(got, fx.Value(k));
    }
    co_await fx.db->CheckTreeStructure();
  }(f));
  f.sim.Run();
  EXPECT_GT(f.db->stats().recovered_records.value(), 0);
}

TEST(DatabaseTest, PowerLossAfterCommitAckPreservesData) {
  EngineFixture f;
  f.sim.Spawn([](EngineFixture& fx) -> Task<void> {
    co_await fx.OpenDb();
    const uint64_t txn = fx.db->Begin();
    co_await fx.db->Put(txn, 123, fx.Value(9));
    EXPECT_EQ(co_await fx.db->Commit(txn), DbStatus::kOk);
    // Power cut: volatile device caches dropped, engine memory gone.
    co_await fx.PowerFailAndReopen();
    std::vector<uint8_t> got;
    EXPECT_TRUE(co_await fx.db->ReadCommitted(123, &got));
    EXPECT_EQ(got, fx.Value(9));
  }(f));
  f.sim.Run();
}

TEST(DatabaseTest, UncommittedNeverSurvivesCrash) {
  EngineFixture f;
  f.sim.Spawn([](EngineFixture& fx) -> Task<void> {
    co_await fx.OpenDb();
    const uint64_t committed = fx.db->Begin();
    co_await fx.db->Put(committed, 1, fx.Value(1));
    co_await fx.db->Commit(committed);
    const uint64_t open_txn = fx.db->Begin();
    co_await fx.db->Put(open_txn, 2, fx.Value(2));
    // Crash with open_txn still uncommitted.
    co_await fx.PowerFailAndReopen();
    EXPECT_TRUE(co_await fx.db->ReadCommitted(1, nullptr));
    EXPECT_FALSE(co_await fx.db->ReadCommitted(2, nullptr));
  }(f));
  f.sim.Run();
}

TEST(DatabaseTest, CheckpointBoundsReplayWork) {
  EngineFixture f;
  f.sim.Spawn([](EngineFixture& fx) -> Task<void> {
    co_await fx.OpenDb();
    for (uint64_t k = 0; k < 100; ++k) {
      const uint64_t txn = fx.db->Begin();
      co_await fx.db->Put(txn, k, fx.Value(k));
      co_await fx.db->Commit(txn);
    }
    co_await fx.db->Checkpoint();
    const int64_t checkpoints_before = fx.db->stats().checkpoints.value();
    EXPECT_GE(checkpoints_before, 1);
    co_await fx.CrashAndReopen();
    // Everything was checkpointed: replay work is bounded by the records in
    // the checkpoint's (partial) tail block, not the whole 100-txn history.
    EXPECT_LT(fx.db->stats().recovered_records.value(), 10);
    EXPECT_EQ(co_await fx.db->CommittedCount(), 100u);
  }(f));
  f.sim.Run();
}

TEST(DatabaseTest, RepeatedCrashReopenIsIdempotent) {
  EngineFixture f;
  f.sim.Spawn([](EngineFixture& fx) -> Task<void> {
    co_await fx.OpenDb();
    for (uint64_t k = 0; k < 30; ++k) {
      const uint64_t txn = fx.db->Begin();
      co_await fx.db->Put(txn, k, fx.Value(k));
      co_await fx.db->Commit(txn);
    }
    for (int round = 0; round < 3; ++round) {
      co_await fx.CrashAndReopen();
      EXPECT_EQ(co_await fx.db->CommittedCount(), 30u) << "round " << round;
      co_await fx.db->CheckTreeStructure();
    }
  }(f));
  f.sim.Run();
}

// A recovery's checkpoint points the replay position just past the log
// tail. If the machine dies before anything new is appended, the next
// recovery scans an empty log suffix; the WAL must still resume above the
// checkpoint's replay LSN, or the commits that follow get LSNs the next
// recovery skips as already checkpointed.
TEST(DatabaseTest, CommitAfterEmptyLogRecoverySurvivesCrash) {
  EngineFixture f;
  f.sim.Spawn([](EngineFixture& fx) -> Task<void> {
    co_await fx.OpenDb();
    for (uint64_t k = 0; k < 20; ++k) {
      const uint64_t txn = fx.db->Begin();
      co_await fx.db->Put(txn, k, fx.Value(k));
      co_await fx.db->Commit(txn);
    }
    co_await fx.CrashAndReopen();  // recover
    co_await fx.db->Checkpoint();
    co_await fx.CrashAndReopen();  // crash before any new append; recover
    EXPECT_EQ(fx.db->stats().recovered_records.value(), 0);
    const uint64_t txn = fx.db->Begin();
    EXPECT_EQ(co_await fx.db->Put(txn, 100, fx.Value(100)), DbStatus::kOk);
    EXPECT_EQ(co_await fx.db->Commit(txn), DbStatus::kOk);
    co_await fx.CrashAndReopen();
    std::vector<uint8_t> got;
    EXPECT_TRUE(co_await fx.db->ReadCommitted(100, &got));
    EXPECT_EQ(got, fx.Value(100));
    EXPECT_EQ(co_await fx.db->CommittedCount(), 21u);
  }(f));
  f.sim.Run();
}

TEST(DatabaseTest, OverwritesRecoverToLatestValue) {
  EngineFixture f;
  f.sim.Spawn([](EngineFixture& fx) -> Task<void> {
    co_await fx.OpenDb();
    for (uint64_t round = 1; round <= 5; ++round) {
      const uint64_t txn = fx.db->Begin();
      co_await fx.db->Put(txn, 42, fx.Value(round * 100));
      co_await fx.db->Commit(txn);
    }
    co_await fx.CrashAndReopen();
    std::vector<uint8_t> got;
    EXPECT_TRUE(co_await fx.db->ReadCommitted(42, &got));
    EXPECT_EQ(got, fx.Value(500));
    EXPECT_EQ(co_await fx.db->CommittedCount(), 1u);
  }(f));
  f.sim.Run();
}

TEST(DatabaseTest, DeletesRecover) {
  EngineFixture f;
  f.sim.Spawn([](EngineFixture& fx) -> Task<void> {
    co_await fx.OpenDb();
    uint64_t txn = fx.db->Begin();
    co_await fx.db->Put(txn, 1, fx.Value(1));
    co_await fx.db->Put(txn, 2, fx.Value(2));
    co_await fx.db->Commit(txn);
    txn = fx.db->Begin();
    co_await fx.db->Remove(txn, 1);
    co_await fx.db->Commit(txn);
    co_await fx.CrashAndReopen();
    EXPECT_FALSE(co_await fx.db->ReadCommitted(1, nullptr));
    EXPECT_TRUE(co_await fx.db->ReadCommitted(2, nullptr));
  }(f));
  f.sim.Run();
}

TEST(DatabaseTest, AsyncUnsafeModeCanLoseAckedCommits) {
  EngineFixture f(PostgresLikeProfile(), DurabilityMode::kAsyncUnsafe);
  bool lost_something = false;
  f.sim.Spawn([](EngineFixture& fx, bool& lost) -> Task<void> {
    co_await fx.OpenDb();
    // Commit a burst and cut power immediately: with async commit some
    // acknowledged transactions have not reached the log device.
    for (uint64_t k = 0; k < 50; ++k) {
      const uint64_t txn = fx.db->Begin();
      co_await fx.db->Put(txn, k, fx.Value(k));
      EXPECT_EQ(co_await fx.db->Commit(txn), DbStatus::kOk);
    }
    co_await fx.PowerFailAndReopen();
    const uint64_t survived = co_await fx.db->CommittedCount();
    lost = survived < 50;
  }(f, lost_something));
  f.sim.Run();
  EXPECT_TRUE(lost_something);
}

TEST(DatabaseTest, ManyConcurrentClientsRandomWorkload) {
  EngineFixture f;
  f.sim.Spawn([](EngineFixture& fx) -> Task<void> {
    co_await fx.OpenDb();
    rlsim::TaskGroup group(fx.sim);
    auto expected = std::make_shared<std::map<uint64_t, uint64_t>>();
    for (int c = 0; c < 8; ++c) {
      group.Spawn([](EngineFixture& fx2, int client,
                     std::shared_ptr<std::map<uint64_t, uint64_t>> exp)
                      -> Task<void> {
        rlsim::Rng rng(static_cast<uint64_t>(client) + 99);
        for (int i = 0; i < 40; ++i) {
          // Disjoint key ranges per client: no lock conflicts, so every
          // transaction commits and the expected map is exact.
          const uint64_t key =
              static_cast<uint64_t>(client) * 1000 + rng.NextBelow(100);
          const uint64_t seed = rng.Next() % 1000;
          const uint64_t txn = fx2.db->Begin();
          EXPECT_EQ(co_await fx2.db->Put(txn, key, fx2.Value(seed)),
                    DbStatus::kOk);
          EXPECT_EQ(co_await fx2.db->Commit(txn), DbStatus::kOk);
          (*exp)[key] = seed;
        }
      }(fx, c, expected));
    }
    co_await group.Join();
    co_await fx.CrashAndReopen();
    EXPECT_EQ(co_await fx.db->CommittedCount(), expected->size());
    for (const auto& [key, seed] : *expected) {
      std::vector<uint8_t> got;
      EXPECT_TRUE(co_await fx.db->ReadCommitted(key, &got)) << key;
      EXPECT_EQ(got, fx.Value(seed)) << key;
    }
    co_await fx.db->CheckTreeStructure();
  }(f));
  f.sim.Run();
}

TEST(DatabaseTest, LargeWorkloadTriggersAutomaticCheckpoints) {
  EngineProfile p = PostgresLikeProfile();
  p.checkpoint_dirty_pages = 32;
  EngineFixture f(p);
  f.options.profile.checkpoint_dirty_pages = 32;
  f.sim.Spawn([](EngineFixture& fx) -> Task<void> {
    co_await fx.OpenDb();
    for (uint64_t k = 0; k < 3000; ++k) {
      const uint64_t txn = fx.db->Begin();
      co_await fx.db->Put(txn, k * 977 % 100000, fx.Value(k));
      co_await fx.db->Commit(txn);
    }
  }(f));
  f.sim.Run();
  EXPECT_GT(f.db->stats().checkpoints.value(), 0);
}

}  // namespace
}  // namespace rldb
