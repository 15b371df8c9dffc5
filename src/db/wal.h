// Write-ahead log: record format, group-committing writer, and the recovery
// reader.
//
// The log is a sequence of fixed-size blocks on the log device. Each block
// carries {magic, block index, used bytes, crc}; records are packed
// back-to-back in the payload and never span blocks. The writer keeps a
// partially-filled tail block and rewrites it as records accumulate — the
// access pattern whose synchronous-durability cost RapiLog eliminates.
//
// Recovery scans blocks from a checkpoint-recorded start until the first
// invalid block; because commits are only acknowledged after a device flush
// (or a RapiLog ack), every acknowledged commit lies inside the valid
// prefix.
#pragma once

#include <cstdint>
#include <deque>
#include <memory>
#include <optional>
#include <vector>

#include "src/db/profile.h"
#include "src/sim/simulator.h"
#include "src/sim/stats.h"
#include "src/sim/sync.h"
#include "src/storage/block_device.h"

namespace rldb {

enum class LogRecordType : uint8_t {
  kUpdate = 1,
  kDelete = 2,
  kCommit = 3,
  // Two-phase commit (src/shard): a participant's durable yes-vote. The
  // record's `key` field carries the distributed transaction's global id.
  // A prepared transaction whose decision is unknown at recovery is held
  // in doubt (locks re-acquired, writes unapplied) until the coordinator
  // answers — or presumed aborted when the coordinator has no decision.
  kPrepare = 4,
  // A resolved abort for a previously-prepared transaction. Best-effort
  // (never waited on): losing it only means the transaction re-enters doubt
  // at the next recovery and is presumed-aborted again.
  kAbort = 5,
};

struct LogRecord {
  LogRecordType type = LogRecordType::kUpdate;
  uint64_t lsn = 0;
  uint64_t txn_id = 0;
  uint64_t key = 0;  // kUpdate/kDelete: row key; kPrepare/kAbort: global id
  std::vector<uint8_t> value;  // kUpdate only
};

// Wire encoding: [u32 payload_len][payload][u32 crc(payload)], where
// payload = [u8 type][u64 lsn][u64 txn][u64 key][u16 vlen][value].
std::vector<uint8_t> EncodeRecord(const LogRecord& rec);
// Decodes one record at `offset`; advances `offset`. Returns nullopt at a
// clean end (not enough bytes for another record).
std::optional<LogRecord> DecodeRecord(std::span<const uint8_t> buf,
                                      size_t* offset);

class LogWriter {
 public:
  struct Stats {
    rlsim::Counter records_appended;
    rlsim::Counter flush_cycles;
    rlsim::Counter blocks_written;
    rlsim::Counter bytes_written;
    rlsim::Histogram flush_latency;     // ns per device flush cycle
    rlsim::Histogram commit_wait;       // ns a WaitDurable spent blocked
    rlsim::Histogram records_per_cycle;
  };

  LogWriter(rlsim::Simulator& sim, rlstor::BlockDevice& device,
            const EngineProfile& profile, DurabilityMode durability);

  // Continues an existing log (after recovery): next block index and LSN.
  // `next_lsn` may not fall below `lsn_floor`, the recovered checkpoint's
  // replay point: the next recovery skips every record below it as applied.
  void ResumeAt(uint64_t next_block, uint64_t next_lsn,
                uint64_t lsn_floor = 1);

  // Assigns the record's LSN, buffers it, and returns the LSN.
  uint64_t Append(LogRecord rec);

  // Blocks until everything up to and including `lsn` is on stable storage
  // (in kAsyncUnsafe mode this returns immediately — that is the unsafety).
  rlsim::Task<void> WaitDurable(uint64_t lsn);

  // Forces everything appended so far to stable storage (checkpoint path).
  rlsim::Task<void> Force();

  // Initiates shutdown without blocking: parked durability waiters are woken
  // and unwind with EngineHalted; the flusher exits its loop.
  void BeginShutdown();

  // BeginShutdown() plus waiting for the flusher to exit (including any
  // in-flight device I/O). Must complete before the LogWriter is destroyed
  // if the writer was ever used on a device that can stall mid-request.
  rlsim::Task<void> Shutdown();

  uint64_t next_lsn() const { return next_lsn_; }
  uint64_t durable_lsn() const { return durable_lsn_; }
  // True once a flush cycle failed (device off, I/O error, guest death).
  // The writer is then permanently dead: durability can never be promised
  // again on this incarnation, because blocks dropped by the failed cycle
  // would leave holes behind any later durable_lsn advance. Waiters unwind
  // with EngineHalted; the harness recovers by reopening the database.
  bool halted() const { return halted_; }
  // Block that would hold the next appended record (checkpoint replay start).
  uint64_t current_block_index() const { return tail_index_; }

  const Stats& stats() const { return stats_; }
  Stats& stats() { return stats_; }

 private:
  rlsim::Task<void> FlusherLoop();
  size_t PayloadCapacity() const;
  void SealTail();
  std::vector<uint8_t> RenderBlock(uint64_t index,
                                   std::span<const uint8_t> payload) const;

  rlsim::Simulator& sim_;
  rlstor::BlockDevice& device_;
  EngineProfile profile_;
  DurabilityMode durability_;

  uint64_t next_lsn_ = 1;
  uint64_t durable_lsn_ = 0;
  uint64_t appended_lsn_ = 0;

  struct SealedBlock {
    uint64_t index;
    std::vector<uint8_t> payload;
  };
  std::deque<SealedBlock> sealed_;
  uint64_t tail_index_ = 0;
  std::vector<uint8_t> tail_payload_;
  bool tail_written_since_change_ = false;

  bool flush_in_progress_ = false;
  bool shutdown_ = false;
  bool halted_ = false;
  bool flusher_exited_ = false;
  rlsim::WaitQueue work_wake_;
  rlsim::WaitQueue durable_wake_;
  rlsim::WaitQueue exited_wake_;

  Stats stats_;
};

// Result of scanning the log at recovery.
struct LogScanResult {
  std::vector<LogRecord> records;  // in LSN order
  uint64_t next_block = 0;         // first invalid/unwritten block
  uint64_t next_lsn = 1;           // 1 + highest LSN seen, >= the floor
};

// Reads the valid prefix of the log starting at `start_block`. The result's
// next_lsn is never below `lsn_floor`, even when the prefix is empty: a log
// resumed there cannot reuse LSNs a checkpoint already covers.
rlsim::Task<LogScanResult> ScanLog(rlstor::BlockDevice& device,
                                   const EngineProfile& profile,
                                   uint64_t start_block, uint64_t lsn_floor);

}  // namespace rldb
