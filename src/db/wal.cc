#include "src/db/wal.h"

#include <algorithm>
#include <cstring>
#include <utility>

#include "src/db/errors.h"
#include "src/db/layout.h"
#include "src/sim/check.h"
#include "src/sim/crc32.h"

namespace rldb {

using rlsim::Duration;
using rlsim::Task;
using rlsim::TimePoint;
using rlstor::BlockStatus;
using rlstor::kSectorSize;

namespace {

constexpr uint32_t kBlockMagic = 0x524C574C;  // "RLWL"
constexpr size_t kBlockHeaderBytes = 32;

// Block header: [u32 magic][u64 index][u16 used][u32 crc(payload[0..used))],
// rest of the 32 bytes reserved.

}  // namespace

std::vector<uint8_t> EncodeRecord(const LogRecord& rec) {
  const uint16_t vlen = static_cast<uint16_t>(rec.value.size());
  const uint32_t payload_len = 1 + 8 + 8 + 8 + 2 + vlen;
  std::vector<uint8_t> buf(4 + payload_len + 4);
  StoreScalar<uint32_t>(buf, 0, payload_len);
  StoreScalar<uint8_t>(buf, 4, static_cast<uint8_t>(rec.type));
  StoreScalar<uint64_t>(buf, 5, rec.lsn);
  StoreScalar<uint64_t>(buf, 13, rec.txn_id);
  StoreScalar<uint64_t>(buf, 21, rec.key);
  StoreScalar<uint16_t>(buf, 29, vlen);
  std::copy(rec.value.begin(), rec.value.end(), buf.begin() + 31);
  const uint32_t crc = rlsim::Crc32c(
      std::span<const uint8_t>(buf.data() + 4, payload_len));
  StoreScalar<uint32_t>(buf, 4 + payload_len, crc);
  return buf;
}

std::optional<LogRecord> DecodeRecord(std::span<const uint8_t> buf,
                                      size_t* offset) {
  if (*offset + 4 > buf.size()) {
    return std::nullopt;
  }
  const uint32_t payload_len = LoadScalar<uint32_t>(buf, *offset);
  if (payload_len < 27 || *offset + 4 + payload_len + 4 > buf.size()) {
    return std::nullopt;
  }
  const auto payload = buf.subspan(*offset + 4, payload_len);
  const uint32_t crc = LoadScalar<uint32_t>(buf, *offset + 4 + payload_len);
  if (rlsim::Crc32c(payload) != crc) {
    return std::nullopt;
  }
  LogRecord rec;
  rec.type = static_cast<LogRecordType>(payload[0]);
  rec.lsn = LoadScalar<uint64_t>(payload, 1);
  rec.txn_id = LoadScalar<uint64_t>(payload, 9);
  rec.key = LoadScalar<uint64_t>(payload, 17);
  const uint16_t vlen = LoadScalar<uint16_t>(payload, 25);
  if (27u + vlen != payload_len) {
    return std::nullopt;
  }
  rec.value.assign(payload.begin() + 27, payload.begin() + 27 + vlen);
  *offset += 4 + payload_len + 4;
  return rec;
}

LogWriter::LogWriter(rlsim::Simulator& sim, rlstor::BlockDevice& device,
                     const EngineProfile& profile, DurabilityMode durability)
    : sim_(sim),
      device_(device),
      profile_(profile),
      durability_(durability),
      work_wake_(sim),
      durable_wake_(sim),
      exited_wake_(sim) {
  RL_CHECK(profile_.log_block_bytes % kSectorSize == 0);
  RL_CHECK(profile_.log_block_bytes > kBlockHeaderBytes + 64);
  sim_.Spawn(FlusherLoop());
}

void LogWriter::ResumeAt(uint64_t next_block, uint64_t next_lsn) {
  RL_CHECK(sealed_.empty() && tail_payload_.empty());
  tail_index_ = next_block;
  next_lsn_ = next_lsn;
  durable_lsn_ = next_lsn - 1;
  appended_lsn_ = next_lsn - 1;
}

size_t LogWriter::PayloadCapacity() const {
  return profile_.log_block_bytes - kBlockHeaderBytes;
}

void LogWriter::SealTail() {
  sealed_.push_back(SealedBlock{tail_index_, std::move(tail_payload_)});
  tail_payload_.clear();
  ++tail_index_;
}

uint64_t LogWriter::Append(LogRecord rec) {
  rec.lsn = next_lsn_++;
  const std::vector<uint8_t> wire = EncodeRecord(rec);
  RL_CHECK_MSG(wire.size() <= PayloadCapacity(),
               "log record larger than a log block");
  if (tail_payload_.size() + wire.size() > PayloadCapacity()) {
    SealTail();
  }
  tail_payload_.insert(tail_payload_.end(), wire.begin(), wire.end());
  appended_lsn_ = rec.lsn;
  stats_.records_appended.Add();
  work_wake_.NotifyAll();
  return rec.lsn;
}

Task<void> LogWriter::WaitDurable(uint64_t lsn) {
  if (durability_ == DurabilityMode::kAsyncUnsafe) {
    co_return;  // the unsafe fast path: trust that the flusher catches up
  }
  rlsim::SpanScope span(sim_, "wal", "commit-wait",
                        static_cast<int64_t>(lsn));
  const TimePoint start = sim_.now();
  work_wake_.NotifyAll();
  while (durable_lsn_ < lsn) {
    if (shutdown_ || halted_) {
      throw EngineHalted();
    }
    co_await durable_wake_.Wait();
  }
  stats_.commit_wait.RecordDuration(sim_.now() - start);
}

Task<void> LogWriter::Force() {
  const uint64_t target = appended_lsn_;
  work_wake_.NotifyAll();
  while (durable_lsn_ < target) {
    if (shutdown_ || halted_) {
      throw EngineHalted();
    }
    co_await durable_wake_.Wait();
  }
}

std::vector<uint8_t> LogWriter::RenderBlock(
    uint64_t index, std::span<const uint8_t> payload) const {
  std::vector<uint8_t> block(profile_.log_block_bytes, 0);
  StoreScalar<uint32_t>(block, 0, kBlockMagic);
  StoreScalar<uint64_t>(block, 4, index);
  StoreScalar<uint16_t>(block, 12, static_cast<uint16_t>(payload.size()));
  StoreScalar<uint32_t>(block, 14, rlsim::Crc32c(payload));
  std::copy(payload.begin(), payload.end(),
            block.begin() + kBlockHeaderBytes);
  return block;
}

void LogWriter::BeginShutdown() {
  shutdown_ = true;
  durable_wake_.NotifyAll();
  work_wake_.NotifyAll();
}

Task<void> LogWriter::Shutdown() {
  BeginShutdown();
  while (!flusher_exited_) {
    co_await exited_wake_.Wait();
  }
}

Task<void> LogWriter::FlusherLoop() {
  while (!shutdown_) {
    const bool work_pending = durable_lsn_ < appended_lsn_;
    if (!work_pending) {
      co_await work_wake_.Wait();
      continue;
    }
    if (durability_ == DurabilityMode::kAsyncUnsafe) {
      co_await sim_.Sleep(profile_.async_flush_interval);
    } else if (profile_.group_commit_window > Duration::Zero()) {
      co_await sim_.Sleep(profile_.group_commit_window);
    }
    if (shutdown_) {
      // Teardown began while we were batching: abandon the cycle. Close() is
      // a post-fault teardown, not a clean flush — pending bytes represent
      // volatile state that the simulated crash already destroyed.
      break;
    }
    const TimePoint cycle_start = sim_.now();
    const uint64_t flush_upto = appended_lsn_;
    const int64_t durable_before = static_cast<int64_t>(durable_lsn_);
    // End arg: how many records this cycle made durable (0 if it halted).
    rlsim::SpanScope cycle_span(sim_, "wal", "flush-cycle", 0);

    // Snapshot what must go out: all sealed blocks plus the current tail.
    std::vector<SealedBlock> batch;
    while (!sealed_.empty()) {
      batch.push_back(std::move(sealed_.front()));
      sealed_.pop_front();
    }
    const uint64_t tail_index_snapshot = tail_index_;
    const std::vector<uint8_t> tail_snapshot = tail_payload_;

    bool ok = true;
    const uint64_t sectors_per_block =
        profile_.log_block_bytes / kSectorSize;
    // The flusher must survive the machine dying under it (device failure,
    // or a guest crash unwinding a paravirtual request): the failure halts
    // the writer instead of propagating.
    try {
      for (const SealedBlock& sb : batch) {
        const std::vector<uint8_t> img = RenderBlock(sb.index, sb.payload);
        const BlockStatus st =
            co_await device_.Write(sb.index * sectors_per_block, img, false);
        ok = ok && st == BlockStatus::kOk;
        stats_.blocks_written.Add();
        stats_.bytes_written.Add(static_cast<int64_t>(img.size()));
      }
      if (!tail_snapshot.empty()) {
        const std::vector<uint8_t> img =
            RenderBlock(tail_index_snapshot, tail_snapshot);
        const BlockStatus st = co_await device_.Write(
            tail_index_snapshot * sectors_per_block, img, false);
        ok = ok && st == BlockStatus::kOk;
        stats_.blocks_written.Add();
        stats_.bytes_written.Add(static_cast<int64_t>(img.size()));
      }
      if (ok) {
        const BlockStatus st = co_await device_.Flush();
        ok = st == BlockStatus::kOk;
      }
    } catch (...) {
      ok = false;
    }
    if (ok) {
      durable_lsn_ = flush_upto;
      stats_.flush_cycles.Add();
      stats_.flush_latency.RecordDuration(sim_.now() - cycle_start);
      stats_.records_per_cycle.Record(static_cast<int64_t>(flush_upto) -
                                      durable_before);
      cycle_span.set_end_arg(static_cast<int64_t>(flush_upto) -
                             durable_before);
      durable_wake_.NotifyAll();
    } else {
      // Device unavailable (power loss, injected I/O fault, guest death).
      // The batch moved out of sealed_ above is gone; retrying a later cycle
      // would advance durable_lsn_ over blocks that were never written. The
      // only safe outcome is a permanent halt: waiters unwind with
      // EngineHalted and the harness reopens the database, whose recovery
      // scan re-establishes the true durable prefix.
      halted_ = true;
      durable_wake_.NotifyAll();
      break;
    }
  }
  flusher_exited_ = true;
  exited_wake_.NotifyAll();
}

Task<LogScanResult> ScanLog(rlstor::BlockDevice& device,
                            const EngineProfile& profile,
                            uint64_t start_block) {
  LogScanResult result;
  result.next_block = start_block;
  const uint64_t sectors_per_block = profile.log_block_bytes / kSectorSize;
  std::vector<uint8_t> block(profile.log_block_bytes);
  for (uint64_t index = start_block;; ++index) {
    const uint64_t lba = index * sectors_per_block;
    if (lba + sectors_per_block > device.geometry().sector_count) {
      break;
    }
    const BlockStatus st = co_await device.Read(lba, block);
    if (st != BlockStatus::kOk) {
      break;
    }
    if (LoadScalar<uint32_t>(block, 0) != kBlockMagic ||
        LoadScalar<uint64_t>(block, 4) != index) {
      break;
    }
    const size_t capacity = profile.log_block_bytes - kBlockHeaderBytes;
    const uint16_t used = std::min<uint16_t>(
        LoadScalar<uint16_t>(block, 12), static_cast<uint16_t>(capacity));
    const auto payload =
        std::span<const uint8_t>(block.data() + kBlockHeaderBytes, used);
    const bool block_crc_ok =
        rlsim::Crc32c(payload) == LoadScalar<uint32_t>(block, 14);
    // Whether or not the block checksum holds, salvage the valid record
    // prefix (records carry their own CRCs). A torn in-place rewrite of the
    // tail block leaves exactly the old, previously-durable prefix intact —
    // payload bytes are append-only within a block — so acknowledged
    // records survive even when the block-level CRC does not.
    size_t offset = 0;
    while (auto rec = DecodeRecord(payload, &offset)) {
      result.next_lsn = std::max(result.next_lsn, rec->lsn + 1);
      result.records.push_back(std::move(*rec));
    }
    result.next_block = index + 1;
    if (!block_crc_ok) {
      break;  // torn tail: the log ends here
    }
  }
  co_return result;
}

}  // namespace rldb
