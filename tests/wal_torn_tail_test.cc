// Property test: WAL recovery under random corruption of the last log
// sector. A power cut tears whatever write was in flight, and the in-flight
// write is always the tail block — so recovery must tolerate arbitrary
// damage to the newest sector: garbage contents, or a handful of flipped
// bits that a real torn write would leave behind.
//
// Oracle (valid-prefix): the scan returns a dense LSN prefix of exactly what
// the writer appended — no invented or altered records (the block CRC is the
// defence), and nothing missing except records living in the corrupted tail
// block itself.
#include <gtest/gtest.h>

#include <vector>

#include "src/db/wal.h"
#include "src/sim/simulator.h"
#include "src/storage/block_device.h"

namespace rldb {
namespace {

using rlsim::Duration;
using rlsim::Simulator;
using rlsim::Task;
using rlstor::kSectorSize;
using rlstor::SimBlockDevice;

// A 512-byte block holds at most ~11 of our records (smallest encoding is
// 35 bytes of framing + 8 bytes of value); 16 is a safe ceiling on how many
// records corrupting one block may take out.
constexpr size_t kMaxRecordsPerBlock = 16;

void RunTornTailCase(uint64_t seed) {
  SCOPED_TRACE(::testing::Message() << "seed " << seed);
  Simulator sim(seed);
  SimBlockDevice dev(sim,
                     SimBlockDevice::Options{.geometry = {.sector_count =
                                                              1 << 16}},
                     rlstor::MakeDefaultSsd());
  const EngineProfile profile = InnodbLikeProfile();  // 512-byte blocks
  LogWriter writer(sim, dev, profile, DurabilityMode::kSync);
  writer.ResumeAt(0, 1);

  // Case-local RNG, independent of the simulator's streams.
  rlsim::Rng rng(seed * 0x9e3779b97f4a7c15ull + 1);
  const int appends = static_cast<int>(rng.UniformInt(40, 250));
  std::vector<LogRecord> appended;
  appended.reserve(static_cast<size_t>(appends));
  for (int i = 0; i < appends; ++i) {
    LogRecord rec;
    rec.type = rng.Chance(0.1) ? LogRecordType::kCommit
                               : LogRecordType::kUpdate;
    rec.txn_id = static_cast<uint64_t>(i) / 4 + 1;
    rec.key = rng.UniformInt(0, 5000);
    if (rec.type == LogRecordType::kUpdate) {
      rec.value.assign(rng.UniformInt(8, 120),
                       static_cast<uint8_t>(rng.UniformInt(0, 255)));
    }
    appended.push_back(rec);
  }

  sim.Spawn([](Simulator& s, LogWriter& w, rlsim::Rng& r,
               std::vector<LogRecord>& recs) -> Task<void> {
    for (LogRecord& rec : recs) {
      const uint64_t lsn = w.Append(rec);
      rec.lsn = lsn;
      co_await w.WaitDurable(lsn);
      if (r.Chance(0.3)) {
        co_await s.Sleep(Duration::Micros(r.UniformInt(10, 300)));
      }
    }
    co_await w.Shutdown();
  }(sim, writer, rng, appended));
  sim.Run();
  ASSERT_EQ(writer.durable_lsn(), static_cast<uint64_t>(appends));

  // Power-cycle: the volatile write cache dies, the durable medium stays.
  dev.PowerLoss();
  dev.PowerRestore();

  // Corrupt the newest durable sector — the tail block a real cut would
  // have torn mid-write.
  const std::vector<uint64_t> durable = dev.image().DurableSectorList();
  ASSERT_FALSE(durable.empty());
  const uint64_t tail = durable.back();
  std::vector<uint8_t> sector(kSectorSize);
  dev.image().ReadDurable(tail, sector);
  if (rng.Chance(0.5)) {
    // Total garbage: the drive wrote noise.
    for (uint8_t& b : sector) {
      b = static_cast<uint8_t>(rng.UniformInt(0, 255));
    }
  } else {
    // A few flipped bits: the subtler corruption CRCs exist to catch.
    const int flips = static_cast<int>(rng.UniformInt(1, 8));
    for (int f = 0; f < flips; ++f) {
      const uint64_t bit = rng.UniformInt(0, kSectorSize * 8 - 1);
      sector[bit / 8] ^= static_cast<uint8_t>(1u << (bit % 8));
    }
  }
  dev.image().WriteDurable(tail, sector);

  LogScanResult scan;
  sim.Spawn([](SimBlockDevice& d, const EngineProfile& p,
               LogScanResult& out) -> Task<void> {
    out = co_await ScanLog(d, p, 0, 1);
  }(dev, profile, scan));
  sim.Run();

  // Dense prefix, and every surviving record is bit-for-bit what was
  // appended — corruption may truncate history, never rewrite it.
  ASSERT_LE(scan.records.size(), appended.size());
  for (size_t i = 0; i < scan.records.size(); ++i) {
    ASSERT_EQ(scan.records[i].lsn, i + 1);
    EXPECT_EQ(scan.records[i].type, appended[i].type);
    EXPECT_EQ(scan.records[i].txn_id, appended[i].txn_id);
    EXPECT_EQ(scan.records[i].key, appended[i].key);
    EXPECT_EQ(scan.records[i].value, appended[i].value);
  }
  // Only records inside the one corrupted block may be missing.
  EXPECT_GE(scan.records.size() + kMaxRecordsPerBlock, appended.size())
      << "corrupting the tail sector must not take out earlier blocks";
}

TEST(WalTornTailTest, ValidPrefixUnderRandomTailCorruption) {
  for (uint64_t seed = 1; seed <= 200; ++seed) {
    RunTornTailCase(seed);
    if (::testing::Test::HasFatalFailure()) {
      return;
    }
  }
}

}  // namespace
}  // namespace rldb
