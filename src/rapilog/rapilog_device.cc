#include "src/rapilog/rapilog_device.h"

#include <algorithm>
#include <utility>

#include "src/sim/check.h"

namespace rapilog {

using rlsim::Duration;
using rlsim::Task;
using rlstor::BlockStatus;
using rlstor::kSectorSize;

RapiLogDevice::RapiLogDevice(rlsim::Simulator& sim, rlpow::PowerSupply& psu,
                             rlstor::BlockDevice& log_disk,
                             RapiLogOptions options)
    : sim_(sim),
      log_disk_(log_disk),
      options_(options),
      max_buffer_bytes_(ComputeBudget(psu)),
      drain_wake_(sim),
      space_available_(sim),
      drained_(sim) {
  RL_CHECK(max_buffer_bytes_ >= kSectorSize);
  psu.Register(this);
  sim_.Spawn(DrainLoop());
}

uint64_t RapiLogDevice::ComputeBudget(const rlpow::PowerSupply& psu) const {
  if (options_.max_buffer_bytes_override != 0) {
    return options_.max_buffer_bytes_override;
  }
  const rlsim::Duration usable =
      psu.GuaranteedWindowAfterWarning() - options_.drain_start_reserve;
  if (usable <= rlsim::Duration::Zero()) {
    return kSectorSize;  // degenerate window: effectively synchronous
  }
  const double window_s = usable.ToSecondsF() * options_.safety_factor;
  const double budget = options_.worst_case_drain_mbps * 1e6 * window_s;
  return std::max<uint64_t>(kSectorSize, static_cast<uint64_t>(budget));
}

Task<BlockStatus> RapiLogDevice::Write(uint64_t lba,
                                       std::span<const uint8_t> data,
                                       bool fua) {
  (void)fua;  // buffered data already carries the durability contract
  if (data.empty() || data.size() % kSectorSize != 0) {
    co_return BlockStatus::kOutOfRange;
  }
  if (!powered_) {
    co_return BlockStatus::kDeviceOff;
  }
  const rlsim::TimePoint start = sim_.now();
  // Guest-facing cost of a buffered write: admission wait + ack latency.
  rlsim::SpanScope span(sim_, "rapilog", "buffer-ack",
                        static_cast<int64_t>(data.size()));

  // Tail-block absorption: the WAL rewrites its last partially-filled block;
  // superseding it in place avoids draining every intermediate version.
  if (!fifo_.empty() && fifo_.back().lba == lba &&
      fifo_.back().data.size() == data.size()) {
    fifo_.back().data.assign(data.begin(), data.end());
    stats_.absorbed_writes.Add();
    co_await sim_.Sleep(options_.ack_base_cost +
                        Duration::Nanos(static_cast<int64_t>(data.size() / 10)));
    stats_.acked_writes.Add();
    stats_.acked_bytes.Add(static_cast<int64_t>(data.size()));
    stats_.ack_latency.RecordDuration(sim_.now() - start);
    stats_.buffer_occupancy.Record(static_cast<int64_t>(buffered_bytes_));
    co_return BlockStatus::kOk;
  }

  // Admission control: never hold more than the power budget can flush.
  while (powered_ && !emergency_ &&
         buffered_bytes_ + data.size() > max_buffer_bytes_) {
    co_await space_available_.Wait();
  }
  if (!powered_) {
    co_return BlockStatus::kDeviceOff;
  }
  if (emergency_) {
    // Mains are gone; the guest is living on borrowed time and no new
    // durability promises are made. The writer never gets an ack.
    while (emergency_ && powered_) {
      co_await space_available_.Wait();
    }
    co_return BlockStatus::kDeviceOff;
  }

  Entry entry;
  entry.lba = lba;
  entry.data.assign(data.begin(), data.end());
  buffered_bytes_ += entry.data.size();
  fifo_.push_back(std::move(entry));
  drain_wake_.NotifyAll();

  co_await sim_.Sleep(options_.ack_base_cost +
                      Duration::Nanos(static_cast<int64_t>(data.size() / 10)));
  stats_.acked_writes.Add();
  stats_.acked_bytes.Add(static_cast<int64_t>(data.size()));
  stats_.ack_latency.RecordDuration(sim_.now() - start);
  stats_.buffer_occupancy.Record(static_cast<int64_t>(buffered_bytes_));
  co_return BlockStatus::kOk;
}

Task<BlockStatus> RapiLogDevice::Flush() {
  if (!powered_) {
    co_return BlockStatus::kDeviceOff;
  }
  stats_.flush_calls.Add();
  // Everything buffered is already covered by the durability contract; the
  // flush only costs its hypercall handling.
  co_await sim_.Sleep(options_.ack_base_cost);
  co_return BlockStatus::kOk;
}

Task<BlockStatus> RapiLogDevice::Read(uint64_t lba, std::span<uint8_t> out) {
  if (out.empty() || out.size() % kSectorSize != 0) {
    co_return BlockStatus::kOutOfRange;
  }
  if (!powered_) {
    co_return BlockStatus::kDeviceOff;
  }
  const BlockStatus st = co_await log_disk_.Read(lba, out);
  if (st != BlockStatus::kOk) {
    co_return st;
  }
  // Overlay buffered (newer) contents, oldest entry first.
  const uint64_t first = lba;
  const uint64_t count = out.size() / kSectorSize;
  for (const Entry& e : fifo_) {
    const uint64_t e_first = e.lba;
    const uint64_t e_count = e.data.size() / kSectorSize;
    const uint64_t lo = std::max(first, e_first);
    const uint64_t hi = std::min(first + count, e_first + e_count);
    for (uint64_t s = lo; s < hi; ++s) {
      std::copy_n(e.data.begin() +
                      static_cast<ptrdiff_t>((s - e_first) * kSectorSize),
                  kSectorSize,
                  out.begin() + static_cast<ptrdiff_t>((s - first) *
                                                       kSectorSize));
    }
  }
  co_return BlockStatus::kOk;
}

Task<void> RapiLogDevice::DrainLoop() {
  bool lingered = false;
  while (true) {
    if (!powered_ || fifo_.empty()) {
      drained_.NotifyAll();
      lingered = false;
      co_await drain_wake_.Wait();
      continue;
    }
    // Linger briefly before chasing the live tail: an imminent rewrite of
    // the same block is then absorbed in memory instead of costing another
    // physical write. Never linger in an emergency or once over half full.
    if (!emergency_ && !lingered &&
        options_.drain_linger > Duration::Zero() &&
        buffered_bytes_ < max_buffer_bytes_ / 2) {
      lingered = true;
      co_await sim_.Sleep(options_.drain_linger);
      continue;
    }
    lingered = false;
    // Coalesce a run of physically contiguous entries into one disk write
    // (log appends are contiguous by construction, so under load the drain
    // streams at media rate instead of paying per-entry actuator trips).
    // Entries are peeked, not popped: they must stay visible to reads and
    // to the occupancy accounting until they are actually on the disk.
    constexpr size_t kMaxRunEntries = 64;
    std::vector<std::pair<uint64_t, std::vector<uint8_t>>> run;
    {
      uint64_t next_lba = fifo_.front().lba;
      for (const Entry& e : fifo_) {
        if (run.size() >= kMaxRunEntries || e.lba != next_lba) {
          break;
        }
        run.emplace_back(e.lba, e.data);
        next_lba = e.lba + e.data.size() / kSectorSize;
      }
    }
    std::vector<uint8_t> payload;
    for (const auto& [lba, data] : run) {
      payload.insert(payload.end(), data.begin(), data.end());
    }
    const uint64_t run_lba = run.front().first;
    BlockStatus st;
    {
      // The hold-up-critical physical write behind the guest's back.
      rlsim::SpanScope drain_span(sim_, "rapilog", "drain-write",
                                  static_cast<int64_t>(payload.size()));
      st = co_await log_disk_.Write(run_lba, payload, /*fua=*/true);
    }
    if (!powered_) {
      continue;  // rails dropped mid-write; OnPowerDown handles the fallout
    }
    if (st != BlockStatus::kOk) {
      // Physical write failed (transient medium error, or the disk lost
      // power first). Back off briefly and retry rather than parking on
      // drain_wake_: during an emergency flush no new admissions arrive to
      // wake us, and the hold-up window is ticking.
      co_await sim_.Sleep(Duration::Micros(200));
      continue;
    }
    // Retire the written prefix. The last entry of the run may have been
    // absorbed (superseded) while we were writing; retire it only if it
    // still holds what we wrote.
    for (const auto& [lba, data] : run) {
      if (fifo_.empty() || fifo_.front().lba != lba ||
          fifo_.front().data != data) {
        break;
      }
      buffered_bytes_ -= fifo_.front().data.size();
      fifo_.pop_front();
      stats_.drained_writes.Add();
      stats_.drained_bytes.Add(static_cast<int64_t>(data.size()));
    }
    space_available_.NotifyAll();
    if (fifo_.empty()) {
      drained_.NotifyAll();
    }
  }
}

void RapiLogDevice::OnPowerFailWarning(rlsim::Duration time_remaining) {
  (void)time_remaining;
  if (!options_.enable_power_guard) {
    return;
  }
  emergency_ = true;
  stats_.emergency_flushes.Add();
  sim_.EmitTrace("rapilog", "emergency-flush",
                 static_cast<uint32_t>(buffered_bytes_));
  // Seal the disk for the emergency flush: the trusted driver discards the
  // dead guest's queued requests so the drain is not stuck behind them.
  log_disk_.EnterEmergencyMode();
  // The drain loop is already eager; the flag only stops new admissions.
  drain_wake_.NotifyAll();
}

void RapiLogDevice::OnOutageAbsorbed() {
  // Mains returned inside the hold-up window: stand down.
  emergency_ = false;
  drain_wake_.NotifyAll();
  space_available_.NotifyAll();
}

void RapiLogDevice::OnPowerDown() {
  powered_ = false;
  sim_.EmitTrace("rapilog", "power-down",
                 static_cast<uint32_t>(buffered_bytes_));
  if (buffered_bytes_ > 0) {
    // Acknowledged data died in volatile memory — the failure RapiLog
    // exists to prevent. Recorded, not thrown: the ablation experiments
    // measure exactly this.
    stats_.lost_bytes.Add(static_cast<int64_t>(buffered_bytes_));
  }
  fifo_.clear();
  buffered_bytes_ = 0;
  drain_wake_.NotifyAll();
  space_available_.NotifyAll();
  drained_.NotifyAll();
}

void RapiLogDevice::OnPowerRestore() {
  powered_ = true;
  emergency_ = false;
  drain_wake_.NotifyAll();
  space_available_.NotifyAll();
}

Task<void> RapiLogDevice::Quiesce() {
  while (powered_ && !fifo_.empty()) {
    co_await drained_.Wait();
  }
}

}  // namespace rapilog
