// Parameterised engine-profile sweep: the full commit/crash/recover cycle
// must hold for every profile (page size, log block size, group commit) and
// both data-device types. Every profile must also open at its own
// checkpoint threshold.
#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <string>
#include <utility>

#include "src/db/database.h"
#include "src/sim/check.h"
#include "src/sim/rng.h"
#include "src/sim/simulator.h"
#include "src/storage/block_device.h"

namespace rldb {
namespace {

using rlsim::Simulator;
using rlsim::Task;
using rlstor::SimBlockDevice;

enum class DevKind { kHdd, kSsd };

struct Params {
  const char* profile_name;
  DevKind dev;
  uint64_t seed;
};

EngineProfile ProfileByName(const std::string& name) {
  if (name == "pg-like") {
    return PostgresLikeProfile();
  }
  if (name == "innodb-like") {
    return InnodbLikeProfile();
  }
  return CommercialLikeProfile();
}

class ProfileSweepTest
    : public ::testing::TestWithParam<std::tuple<const char*, int, uint64_t>> {
};

TEST_P(ProfileSweepTest, CommitCrashRecoverAcrossProfiles) {
  const EngineProfile profile = ProfileByName(std::get<0>(GetParam()));
  const DevKind kind = std::get<1>(GetParam()) == 0 ? DevKind::kHdd
                                                    : DevKind::kSsd;
  const uint64_t seed = std::get<2>(GetParam());

  Simulator sim(seed);
  NativeCpu cpu(sim);
  auto make_dev = [&](const char* name) {
    return std::make_unique<SimBlockDevice>(
        sim,
        SimBlockDevice::Options{.geometry = {.sector_count = 1 << 20},
                                .name = name},
        kind == DevKind::kHdd ? rlstor::MakeDefaultHdd()
                              : rlstor::MakeDefaultSsd());
  };
  auto data = make_dev("data");
  auto log = make_dev("log");

  DbOptions options;
  options.profile = profile;
  options.pool_pages = 512;
  options.journal_pages = 300;
  options.profile.checkpoint_dirty_pages = 100;

  sim.Spawn([](Simulator& s, NativeCpu& cpu2, SimBlockDevice& d,
               SimBlockDevice& l, DbOptions opts, uint64_t sd) -> Task<void> {
    auto db = co_await Database::Open(s, cpu2, d, l, opts);
    rlsim::Rng rng(sd);
    std::map<uint64_t, uint64_t> model;  // key -> value seed
    const uint32_t vb = opts.profile.value_bytes;
    auto value_of = [vb](uint64_t key, uint64_t vseed) {
      std::vector<uint8_t> v(vb);
      for (size_t i = 0; i < v.size(); ++i) {
        v[i] = static_cast<uint8_t>(key * 13 + vseed * 7 + i);
      }
      return v;
    };

    for (int round = 0; round < 3; ++round) {
      for (int i = 0; i < 150; ++i) {
        const uint64_t key = rng.NextBelow(400);
        const uint64_t txn = db->Begin();
        if (rng.Chance(0.15) && model.contains(key)) {
          EXPECT_EQ(co_await db->Remove(txn, key), DbStatus::kOk);
          EXPECT_EQ(co_await db->Commit(txn), DbStatus::kOk);
          model.erase(key);
        } else {
          const uint64_t vseed = rng.Next() % 1000;
          EXPECT_EQ(co_await db->Put(txn, key, value_of(key, vseed)),
                    DbStatus::kOk);
          EXPECT_EQ(co_await db->Commit(txn), DbStatus::kOk);
          model[key] = vseed;
        }
      }
      // Power-fail: volatile caches dropped, engine memory gone.
      d.PowerLoss();
      l.PowerLoss();
      co_await db->Close();
      db.reset();
      d.PowerRestore();
      l.PowerRestore();
      db = co_await Database::Open(s, cpu2, d, l, opts);

      EXPECT_EQ(co_await db->CommittedCount(), model.size())
          << "round " << round;
      for (const auto& [key, vseed] : model) {
        std::vector<uint8_t> got;
        EXPECT_TRUE(co_await db->ReadCommitted(key, &got)) << key;
        EXPECT_EQ(got, value_of(key, vseed)) << key;
      }
      co_await db->CheckTreeStructure();
    }
    co_await db->Close();
  }(sim, cpu, *data, *log, options, seed));
  sim.Run();
}

// Every profile opens at its own checkpoint threshold, with DbOptions'
// default sizing and with the benches' DefaultTestbed sizing (pool 2048,
// journal 1200): the threshold must sit below the dirty throttle that the
// profile's page size sets through the journal header.
TEST(ProfileThresholdTest, EveryProfileOpensAtItsOwnCheckpointThreshold) {
  const DbOptions defaults;
  const std::pair<uint32_t, uint32_t> sizings[] = {
      {defaults.pool_pages, defaults.journal_pages}, {2048, 1200}};
  for (const char* name : {"pg-like", "innodb-like", "commercial-like"}) {
    for (const auto& [pool, journal] : sizings) {
      Simulator sim(1);
      NativeCpu cpu(sim);
      const auto make_dev = [&](const char* dev_name) {
        return std::make_unique<SimBlockDevice>(
            sim,
            SimBlockDevice::Options{.geometry = {.sector_count = 1 << 20},
                                    .name = dev_name},
            rlstor::MakeDefaultSsd());
      };
      auto data = make_dev("data");
      auto log = make_dev("log");
      DbOptions options;
      options.profile = ProfileByName(name);
      options.pool_pages = pool;
      options.journal_pages = journal;
      std::string error = "never opened";
      sim.Spawn([](Simulator& s, NativeCpu& cpu2, SimBlockDevice& d,
                   SimBlockDevice& l, DbOptions opts,
                   std::string* err) -> Task<void> {
        try {
          auto db = co_await Database::Open(s, cpu2, d, l, opts);
          err->clear();
          co_await db->Close();
        } catch (const rlsim::CheckFailure& e) {
          *err = e.what();
        }
      }(sim, cpu, *data, *log, options, &error));
      sim.Run();
      EXPECT_EQ(error, "") << name << " with pool " << pool << ", journal "
                           << journal;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    ProfilesDevicesSeeds, ProfileSweepTest,
    ::testing::Combine(::testing::Values("pg-like", "innodb-like",
                                         "commercial-like"),
                       ::testing::Values(0, 1),
                       ::testing::Values(1u, 2u)));

}  // namespace
}  // namespace rldb
