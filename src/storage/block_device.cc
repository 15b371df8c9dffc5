#include "src/storage/block_device.h"

#include <utility>

#include "src/sim/check.h"
#include "src/sim/crc32.h"

namespace rlstor {

using rlsim::Duration;
using rlsim::Task;
using rlsim::TimePoint;

namespace {

// Longest contiguous run destaged as one medium write.
constexpr uint32_t kMaxDestageRun = 256;

// Payload digest for trace events: CRC-32C of the data bytes, seeded with a
// CRC of the LBA so the same contents at different addresses differ.
uint32_t TraceCrc(uint64_t lba, std::span<const uint8_t> data) {
  uint8_t lba_bytes[8];
  for (int i = 0; i < 8; ++i) {
    lba_bytes[i] = static_cast<uint8_t>(lba >> (i * 8));
  }
  return rlsim::Crc32c(data, rlsim::Crc32c(lba_bytes));
}

uint32_t TraceCrc(uint64_t a, uint64_t b) {
  uint8_t bytes[16];
  for (int i = 0; i < 8; ++i) {
    bytes[i] = static_cast<uint8_t>(a >> (i * 8));
    bytes[8 + i] = static_cast<uint8_t>(b >> (i * 8));
  }
  return rlsim::Crc32c(bytes);
}

}  // namespace

SimBlockDevice::SimBlockDevice(rlsim::Simulator& sim, Options options,
                               std::unique_ptr<DiskModel> model)
    : sim_(sim),
      options_(std::move(options)),
      model_(std::move(model)),
      image_(options_.geometry.sector_count),
      actuator_(sim),
      destage_wake_(sim),
      space_available_(sim),
      flush_done_(sim) {
  RL_CHECK(model_ != nullptr);
  RL_CHECK(options_.geometry.sector_size == kSectorSize);
  if (options_.cache_policy != WriteCachePolicy::kWriteThrough) {
    sim_.Spawn(DestageLoop());
  }
}

bool SimBlockDevice::RangeOk(uint64_t lba, size_t bytes) const {
  if (bytes == 0 || bytes % kSectorSize != 0) {
    return false;
  }
  const uint64_t sectors = bytes / kSectorSize;
  return lba < options_.geometry.sector_count &&
         sectors <= options_.geometry.sector_count - lba;
}

void SimBlockDevice::MarkDirty(uint64_t lba) {
  if (dirty_.try_emplace(lba, next_dirty_stamp_).second) {
    dirty_fifo_.push_back({.lba = lba, .stamp = next_dirty_stamp_});
    ++next_dirty_stamp_;
  }
}

Task<BlockStatus> SimBlockDevice::Read(uint64_t lba, std::span<uint8_t> out) {
  if (!RangeOk(lba, out.size())) {
    stats_.failed_requests.Add();
    co_return BlockStatus::kOutOfRange;
  }
  if (!powered_) {
    stats_.failed_requests.Add();
    co_return BlockStatus::kDeviceOff;
  }
  const TimePoint start = sim_.now();
  rlsim::SpanScope span(sim_, options_.name, "io-read",
                        static_cast<int64_t>(lba));
  const uint32_t sectors = static_cast<uint32_t>(out.size() / kSectorSize);

  bool all_cached = options_.cache_policy != WriteCachePolicy::kWriteThrough;
  for (uint32_t i = 0; i < sectors && all_cached; ++i) {
    all_cached = dirty_.contains(lba + i);
  }

  if (all_cached) {
    co_await sim_.Sleep(model_->CacheTransferTime(sectors));
  } else {
    if (emergency_mode_) {
      stats_.failed_requests.Add();
      co_return BlockStatus::kDeviceOff;
    }
    auto guard = co_await actuator_.Lock();
    if (!powered_ || emergency_mode_) {
      stats_.failed_requests.Add();
      co_return BlockStatus::kDeviceOff;
    }
    co_await sim_.Sleep(model_->ReadTime(sim_.now(), lba, sectors));
  }
  if (!powered_) {
    stats_.failed_requests.Add();
    co_return BlockStatus::kDeviceOff;
  }
  for (uint32_t i = 0; i < sectors; ++i) {
    image_.Read(lba + i, out.subspan(static_cast<size_t>(i) * kSectorSize,
                                     kSectorSize));
  }
  stats_.reads.Add();
  stats_.read_latency.RecordDuration(sim_.now() - start);
  co_return BlockStatus::kOk;
}

Task<BlockStatus> SimBlockDevice::Write(uint64_t lba,
                                        std::span<const uint8_t> data,
                                        bool fua) {
  if (!RangeOk(lba, data.size())) {
    stats_.failed_requests.Add();
    co_return BlockStatus::kOutOfRange;
  }
  if (!powered_) {
    stats_.failed_requests.Add();
    co_return BlockStatus::kDeviceOff;
  }
  if (emergency_mode_ && !fua) {
    stats_.failed_requests.Add();
    co_return BlockStatus::kDeviceOff;
  }
  if (write_faults_pending_ > 0) {
    --write_faults_pending_;
    const uint32_t sectors = static_cast<uint32_t>(data.size() / kSectorSize);
    co_await sim_.Sleep(model_->CacheTransferTime(sectors));
    // Like a power cut mid-request: a sector prefix lands durably (sector
    // writes are atomic, so a single-sector request applies nothing).
    const uint32_t applied = sectors / 2;
    for (uint32_t i = 0; i < applied; ++i) {
      image_.WriteDurable(
          lba + i,
          data.subspan(static_cast<size_t>(i) * kSectorSize, kSectorSize));
    }
    stats_.failed_requests.Add();
    if (sim_.tracer() != nullptr) {
      sim_.EmitTrace(options_.name, "torn-write", TraceCrc(lba, applied));
    }
    co_return BlockStatus::kIoError;
  }
  const TimePoint start = sim_.now();
  rlsim::SpanScope span(sim_, options_.name, "io-write",
                        static_cast<int64_t>(lba));
  BlockStatus status;
  if (options_.cache_policy == WriteCachePolicy::kWriteThrough || fua) {
    status = co_await WriteThroughPath(lba, data, fua);
  } else {
    status = co_await CachedPath(lba, data);
  }
  span.set_end_arg(static_cast<int64_t>(status));
  if (status == BlockStatus::kOk) {
    stats_.writes.Add();
    stats_.write_latency.RecordDuration(sim_.now() - start);
  } else {
    stats_.failed_requests.Add();
  }
  co_return status;
}

Task<BlockStatus> SimBlockDevice::WriteThroughPath(
    uint64_t lba, std::span<const uint8_t> data, bool fua) {
  const uint32_t sectors = static_cast<uint32_t>(data.size() / kSectorSize);
  auto guard = co_await actuator_.Lock();
  if (!powered_ || (emergency_mode_ && !fua)) {
    // Sealed for the emergency flush: a queued non-FUA request abandons the
    // actuator immediately instead of costing a mechanical access.
    co_return BlockStatus::kDeviceOff;
  }
  const Duration latency = model_->WriteTime(sim_.now(), lba, sectors);
  inflight_medium_write_ =
      InflightWrite{.lba = lba, .sectors = sectors, .data = data};
  co_await sim_.Sleep(latency);
  inflight_medium_write_.reset();
  if (!powered_) {
    // Power was cut mid-write; PowerLoss() applied a sector prefix.
    co_return BlockStatus::kTornWrite;
  }
  for (uint32_t i = 0; i < sectors; ++i) {
    image_.WriteDurable(
        lba + i,
        data.subspan(static_cast<size_t>(i) * kSectorSize, kSectorSize));
  }
  if (sim_.tracer() != nullptr) {
    sim_.EmitTrace(options_.name, "medium-write", TraceCrc(lba, data));
  }
  co_return BlockStatus::kOk;
}

Task<BlockStatus> SimBlockDevice::CachedPath(uint64_t lba,
                                             std::span<const uint8_t> data) {
  const uint32_t sectors = static_cast<uint32_t>(data.size() / kSectorSize);
  const uint64_t cache_capacity_sectors =
      options_.cache_capacity_bytes / kSectorSize;
  while (powered_ &&
         dirty_.size() + sectors > cache_capacity_sectors) {
    co_await space_available_.Wait();
  }
  if (!powered_) {
    co_return BlockStatus::kDeviceOff;
  }
  co_await sim_.Sleep(model_->CacheTransferTime(sectors));
  if (!powered_) {
    co_return BlockStatus::kDeviceOff;
  }
  const bool battery =
      options_.cache_policy == WriteCachePolicy::kBatteryBackedWriteBack;
  for (uint32_t i = 0; i < sectors; ++i) {
    const auto chunk =
        data.subspan(static_cast<size_t>(i) * kSectorSize, kSectorSize);
    if (battery) {
      // Battery preserves the cache across power loss: durable on ack.
      image_.WriteDurable(lba + i, chunk);
    } else {
      image_.WriteCached(lba + i, chunk);
    }
    MarkDirty(lba + i);
  }
  destage_wake_.NotifyAll();
  co_return BlockStatus::kOk;
}

Task<BlockStatus> SimBlockDevice::Flush() {
  if (!powered_ || emergency_mode_) {
    stats_.failed_requests.Add();
    co_return BlockStatus::kDeviceOff;
  }
  const TimePoint start = sim_.now();
  rlsim::SpanScope span(sim_, options_.name, "io-flush", 0);
  if (options_.cache_policy == WriteCachePolicy::kWriteBack) {
    while (powered_ && (!dirty_.empty() || destage_active_)) {
      co_await flush_done_.Wait();
    }
    if (!powered_) {
      stats_.failed_requests.Add();
      co_return BlockStatus::kDeviceOff;
    }
  } else {
    // Write-through has nothing volatile; BBWC cache is already durable.
    co_await sim_.Sleep(model_->CacheTransferTime(1));
  }
  stats_.flushes.Add();
  stats_.flush_latency.RecordDuration(sim_.now() - start);
  co_return BlockStatus::kOk;
}

Task<void> SimBlockDevice::DestageLoop() {
  while (true) {
    if (!powered_ || emergency_mode_ || dirty_.empty()) {
      co_await destage_wake_.Wait();
      continue;
    }
    // Retire the stale marks of sectors already gathered into earlier runs;
    // every dirty sector has exactly one live mark, so one is left.
    while (true) {
      const DirtyMark& mark = dirty_fifo_.front();
      const auto it = dirty_.find(mark.lba);
      if (it != dirty_.end() && it->second == mark.stamp) {
        break;
      }
      dirty_fifo_.pop_front();
    }
    // Gather a contiguous run starting at the oldest dirty sector, so
    // sequential dirtied regions destage as large medium writes.
    const uint64_t start_lba = dirty_fifo_.front().lba;
    dirty_fifo_.pop_front();
    dirty_.erase(start_lba);
    uint32_t run = 1;
    while (run < kMaxDestageRun && dirty_.erase(start_lba + run) > 0) {
      ++run;
    }

    destage_active_ = true;
    {
      auto guard = co_await actuator_.Lock();
      if (powered_ && !emergency_mode_) {
        const Duration latency = model_->WriteTime(sim_.now(), start_lba, run);
        inflight_medium_write_ = InflightWrite{
            .lba = start_lba, .sectors = run, .from_cache = true};
        co_await sim_.Sleep(latency);
        inflight_medium_write_.reset();
        if (powered_) {
          if (options_.cache_policy == WriteCachePolicy::kWriteBack) {
            for (uint32_t i = 0; i < run; ++i) {
              image_.Harden(start_lba + i);
            }
          }
          stats_.destaged_sectors.Add(run);
          if (sim_.tracer() != nullptr) {
            sim_.EmitTrace(options_.name, "destage",
                           TraceCrc(start_lba, run));
          }
        }
      }
    }
    destage_active_ = false;
    space_available_.NotifyAll();
    flush_done_.NotifyAll();
  }
}

void SimBlockDevice::PowerLoss() {
  if (!powered_) {
    return;
  }
  powered_ = false;
  // An interrupted medium write lands a prefix of its sectors (drives write
  // a request front to back and each sector write is atomic). The exact cut
  // point is unknowable; half way is the representative worst case for
  // multi-sector requests, and zero sectors for single-sector ones — so a
  // 512-byte write is all-or-nothing, as real hardware behaves.
  if (inflight_medium_write_.has_value() &&
      options_.cache_policy != WriteCachePolicy::kBatteryBackedWriteBack) {
    const InflightWrite& w = *inflight_medium_write_;
    const uint32_t applied = w.sectors / 2;
    for (uint32_t i = 0; i < applied; ++i) {
      if (w.from_cache) {
        image_.Harden(w.lba + i);
      } else {
        image_.WriteDurable(
            w.lba + i,
            w.data.subspan(static_cast<size_t>(i) * kSectorSize,
                           kSectorSize));
      }
    }
  }
  if (sim_.tracer() != nullptr) {
    sim_.EmitTrace(options_.name, "power-loss",
                   TraceCrc(image_.cached_sector_count(),
                            inflight_medium_write_.has_value()
                                ? inflight_medium_write_->lba + 1
                                : 0));
  }
  image_.PowerLoss(-1);
  // Unblock everything so waiters observe powered_ == false.
  destage_wake_.NotifyAll();
  space_available_.NotifyAll();
  flush_done_.NotifyAll();
}

void SimBlockDevice::PowerRestore() {
  emergency_mode_ = false;
  write_faults_pending_ = 0;
  if (powered_) {
    return;
  }
  powered_ = true;
  sim_.EmitTrace(options_.name, "power-restore", 0);
  if (options_.cache_policy != WriteCachePolicy::kBatteryBackedWriteBack) {
    // Volatile cache contents were lost; forget the destage backlog.
    dirty_fifo_.clear();
    dirty_.clear();
  }
  destage_wake_.NotifyAll();
}

}  // namespace rlstor
