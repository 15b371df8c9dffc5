// Engine profiles: parameter sets that make the one storage engine behave
// like the different DBMSes the paper evaluates (PostgreSQL, MySQL/InnoDB,
// and a commercial engine), chiefly in how they write their log.
#pragma once

#include <cstdint>
#include <string>

#include "src/sim/time.h"

namespace rldb {

// How the engine treats commit durability.
enum class DurabilityMode {
  // Wait until the commit record is on stable storage before acknowledging
  // (the correct setting; what native/virt/rapilog configurations all use —
  // under RapiLog the wait just becomes cheap).
  kSync,
  // Acknowledge without waiting (PostgreSQL synchronous_commit=off /
  // InnoDB flush_log_at_trx_commit=0). Fast and unsafe: the upper bound the
  // ablation compares against.
  kAsyncUnsafe,
};

struct EngineProfile {
  std::string name = "pg-like";

  // Page geometry.
  uint32_t page_bytes = 8192;
  uint32_t value_bytes = 96;  // fixed-size row slot in the B+tree

  // Log geometry.
  uint32_t log_block_bytes = 8192;

  // Group commit: how long the log writer lingers to batch commits before
  // forcing the log. Zero = force immediately on first waiter.
  rlsim::Duration group_commit_window = rlsim::Duration::Zero();

  // In kAsyncUnsafe mode, how often the background flusher forces the log
  // (real engines run this on a coarse timer — PostgreSQL's wal_writer_delay,
  // InnoDB's once-per-second flush — which is exactly why async commit loses
  // acknowledged transactions on power failure).
  rlsim::Duration async_flush_interval = rlsim::Duration::Millis(200);

  // CPU costs (charged to the guest CPU).
  rlsim::Duration cpu_per_get = rlsim::Duration::Micros(4);
  rlsim::Duration cpu_per_put = rlsim::Duration::Micros(6);
  rlsim::Duration cpu_per_commit = rlsim::Duration::Micros(10);
  // Recovery: decode + re-apply cost per replayed WAL record. Cheaper than
  // cpu_per_put (no locking, no logging); partitioned redo overlaps this
  // cost across its streams, which is where its recovery-time win comes
  // from (the log devices themselves are single-actuator).
  rlsim::Duration cpu_per_redo = rlsim::Duration::Micros(3);

  // Checkpoint trigger: flush when this many pages are dirty.
  uint32_t checkpoint_dirty_pages = 512;

  // Lock wait before giving up and aborting (deadlock safety net).
  rlsim::Duration lock_timeout = rlsim::Duration::Millis(500);
};

// PostgreSQL-flavoured: 8 KiB pages, 8 KiB WAL blocks, no commit delay
// (every commit forces the log; the OS groups whatever is pending).
inline EngineProfile PostgresLikeProfile() {
  EngineProfile p;
  p.name = "pg-like";
  p.page_bytes = 8192;
  p.log_block_bytes = 8192;
  p.group_commit_window = rlsim::Duration::Zero();
  return p;
}

// InnoDB-flavoured: 16 KiB pages, 512-byte log blocks, slight group-commit
// accumulation window.
inline EngineProfile InnodbLikeProfile() {
  EngineProfile p;
  p.name = "innodb-like";
  p.page_bytes = 16384;
  p.log_block_bytes = 512;
  p.group_commit_window = rlsim::Duration::Micros(100);
  p.cpu_per_put = rlsim::Duration::Micros(7);
  return p;
}

// Commercial-engine-flavoured: 4 KiB pages, aggressive batching. A 4 KiB
// journal header lists too few pages for the default 512-page checkpoint
// threshold (the engine throttles commits at 331 dirty pages), so it
// checkpoints at 256.
inline EngineProfile CommercialLikeProfile() {
  EngineProfile p;
  p.name = "commercial-like";
  p.page_bytes = 4096;
  p.log_block_bytes = 4096;
  p.checkpoint_dirty_pages = 256;
  p.group_commit_window = rlsim::Duration::Micros(500);
  p.cpu_per_get = rlsim::Duration::Micros(3);
  p.cpu_per_put = rlsim::Duration::Micros(5);
  p.cpu_per_commit = rlsim::Duration::Micros(8);
  p.cpu_per_redo = rlsim::Duration::Micros(2);
  return p;
}

}  // namespace rldb
