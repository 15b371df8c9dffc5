#include "src/db/database.h"

#include <algorithm>
#include <unordered_set>
#include <utility>

#include "src/db/errors.h"
#include "src/sim/check.h"
#include "src/sim/crc32.h"
#include "src/sim/sync.h"

namespace rldb {

using rlsim::Task;
using rlsim::TimePoint;
using rlstor::BlockStatus;
using rlstor::kSectorSize;

std::string ToString(DbStatus s) {
  switch (s) {
    case DbStatus::kOk:
      return "ok";
    case DbStatus::kNotFound:
      return "not-found";
    case DbStatus::kLockTimeout:
      return "lock-timeout";
    case DbStatus::kTxnNotActive:
      return "txn-not-active";
  }
  return "unknown";
}

namespace {

// Journal header page payload (after the 32-byte page header):
//   [u64 seq][u32 count][kRedoSlices * u64 horizon][count * u64 page_id]
//   [serialised MetaContent sector]
// The horizon array is the fuzzy-checkpoint metadata: per-slice low-water
// LSNs, valid for redo only when the header's seq matches the recovered
// checkpoint's seq (any torn or stale header degrades recovery to the
// global replay point, never to wrong data).
constexpr size_t kJournalSeqOff = kPageHeaderBytes;
constexpr size_t kJournalCountOff = kJournalSeqOff + 8;
constexpr size_t kJournalHorizonOff = kJournalCountOff + 4;
constexpr size_t kJournalIdsOff = kJournalHorizonOff + kRedoSlices * 8;

constexpr uint64_t kJournalHeaderPage = 0;

// Page-id entries that fit in one journal header page alongside the
// embedded metadata sector.
uint32_t JournalHeaderCapacity(uint32_t page_bytes) {
  return static_cast<uint32_t>(
      (page_bytes - kJournalIdsOff - rlstor::kSectorSize) / 8);
}

}  // namespace

Database::Database(rlsim::Simulator& sim, CpuContext& cpu,
                   rlstor::BlockDevice& data_dev,
                   rlstor::BlockDevice& log_dev, DbOptions options)
    : sim_(sim),
      cpu_(cpu),
      data_dev_(data_dev),
      log_dev_(log_dev),
      options_(std::move(options)) {
  RL_CHECK_MSG(options_.journal_pages >
                   options_.profile.checkpoint_dirty_pages,
               "journal must be able to hold a full checkpoint");
  RL_CHECK_MSG(options_.pool_pages > options_.profile.checkpoint_dirty_pages,
               "pool must be able to hold the dirty threshold");
  pool_ = std::make_unique<BufferPool>(sim_, data_dev_,
                                       options_.profile.page_bytes,
                                       options_.pool_pages);
  wal_ = std::make_unique<LogWriter>(sim_, log_dev_, options_.profile,
                                     options_.durability);
  locks_ = std::make_unique<LockManager>(sim_, options_.profile.lock_timeout);
  apply_mutex_ = std::make_unique<rlsim::SimMutex>(sim_);
  checkpoint_mutex_ = std::make_unique<rlsim::SimMutex>(sim_);
  checkpoint_done_ = std::make_unique<rlsim::WaitQueue>(sim_);

  // A checkpoint's dirty set must fit the journal region AND its header
  // page; commits throttle safely below that, and the automatic checkpoint
  // threshold sits below the throttle so the stall is normally never hit.
  const uint32_t capacity =
      std::min<uint32_t>(JournalHeaderCapacity(options_.profile.page_bytes),
                         options_.journal_pages - 1);
  dirty_throttle_pages_ = std::min(capacity - capacity / 8,
                                   options_.pool_pages * 3 / 4);
  RL_CHECK_MSG(options_.profile.checkpoint_dirty_pages < dirty_throttle_pages_,
               "checkpoint threshold must sit below the dirty throttle ("
                   << dirty_throttle_pages_ << " pages)");
}

Task<void> Database::ThrottleDirtyPages() {
  while (pool_->dirty_count() >= dirty_throttle_pages_) {
    if (closing_ || wal_->halted()) {
      // A halted WAL can never satisfy a checkpoint's Force(), so waiting
      // here would respawn failing checkpoints in a zero-time loop.
      throw EngineHalted();
    }
    MaybeScheduleCheckpoint();
    co_await checkpoint_done_->Wait();
  }
}

Database::~Database() = default;

Task<void> Database::Close() {
  closing_ = true;
  // Begin the WAL shutdown first: a pending checkpoint may be blocked inside
  // Force(), and the shutdown signal is what unwinds it. Then wake every
  // other place a client coroutine can be parked — lock queues and the
  // dirty-page throttle — so nothing still references this object (or gets
  // resumed into it by a stale timeout event) after we return.
  wal_->BeginShutdown();
  locks_->Shutdown();
  checkpoint_done_->NotifyAll();
  while (checkpoint_pending_) {
    co_await checkpoint_done_->Wait();
  }
  co_await wal_->Shutdown();
  // One settle tick: waiters woken above run before Close() returns.
  co_await sim_.Sleep(rlsim::Duration::Zero());
}

Task<std::unique_ptr<Database>> Database::Open(rlsim::Simulator& sim,
                                               CpuContext& cpu,
                                               rlstor::BlockDevice& data_dev,
                                               rlstor::BlockDevice& log_dev,
                                               DbOptions options) {
  std::unique_ptr<Database> db(
      // simlint: new-ok (private constructor; immediately owned)
      new Database(sim, cpu, data_dev, log_dev, std::move(options)));
  std::exception_ptr failure;
  try {
    co_await db->Recover();
  } catch (...) {
    failure = std::current_exception();
  }
  if (failure) {
    // Recovery died under us (power cut or device fault mid-open). The WAL
    // flusher task may still be parked inside a device request; destroying
    // the engine before it unwinds would leave it resuming into freed
    // memory. Signal shutdown and wait for it to exit, then propagate.
    co_await db->wal_->Shutdown();
    std::rethrow_exception(failure);
  }
  co_return db;
}

// --- Metadata & journal ------------------------------------------------------

Task<std::optional<MetaContent>> Database::ReadBestMeta() {
  std::optional<MetaContent> best;
  for (uint64_t sector : {kMetaSectorA, kMetaSectorB}) {
    std::vector<uint8_t> buf(kSectorSize);
    const BlockStatus st = co_await data_dev_.Read(sector, buf);
    if (st != BlockStatus::kOk) {
      continue;
    }
    const auto meta = DeserializeMeta(buf);
    if (meta.has_value() && (!best.has_value() || meta->seq > best->seq)) {
      best = meta;
    }
  }
  co_return best;
}

Task<void> Database::WriteMeta(const MetaContent& meta) {
  const std::vector<uint8_t> buf = SerializeMeta(meta);
  const uint64_t sector = (meta.seq % 2 == 0) ? kMetaSectorA : kMetaSectorB;
  const BlockStatus st = co_await data_dev_.Write(sector, buf, /*fua=*/true);
  if (st != BlockStatus::kOk) {
    throw EngineHalted();
  }
}

Task<Database::JournalHeaderInfo> Database::ReadJournalHeader() {
  JournalHeaderInfo info;
  stats_.journal_header_reads.Add();
  const uint32_t page_bytes = options_.profile.page_bytes;
  std::vector<uint8_t> header(page_bytes);
  const bool ok = co_await pool_->ReadPageDirect(kJournalHeaderPage, header);
  if (!ok || !PageValid(header, kJournalHeaderPage) ||
      ReadPageHeader(header).type != PageType::kJournalHeader) {
    co_return info;  // fresh device, torn header, or not a journal header
  }
  const uint32_t count = LoadScalar<uint32_t>(header, kJournalCountOff);
  RL_CHECK(kJournalIdsOff + count * 8ull + kSectorSize <= page_bytes);
  info.page_ids.reserve(count);
  for (uint32_t i = 0; i < count; ++i) {
    info.page_ids.push_back(
        LoadScalar<uint64_t>(header, kJournalIdsOff + i * 8ull));
  }
  for (uint32_t s = 0; s < kRedoSlices; ++s) {
    info.horizons[s] =
        LoadScalar<uint64_t>(header, kJournalHorizonOff + s * 8ull);
  }
  // The header embeds the metadata of the checkpoint that wrote it; the page
  // CRC already passed, so a corrupt blob here is real corruption.
  const auto meta = DeserializeMeta(std::span<const uint8_t>(
      header.data() + kJournalIdsOff + count * 8ull, kSectorSize));
  RL_CHECK_MSG(meta.has_value(), "journal meta corrupt");
  info.meta = *meta;
  info.valid = true;
  co_return info;
}

Task<void> Database::ReplayJournal(const JournalHeaderInfo& header) {
  // The checkpoint committed but its in-place writes may be incomplete:
  // copy every journaled page image into place.
  const uint32_t page_bytes = options_.profile.page_bytes;
  std::vector<uint8_t> image(page_bytes);
  for (size_t i = 0; i < header.page_ids.size(); ++i) {
    const uint64_t page_id = header.page_ids[i];
    const uint64_t slot = 1 + i;
    const bool read_ok = co_await pool_->ReadPageDirect(slot, image);
    if (!read_ok) {
      // Device died mid-recovery (power cut or disk fault during replay):
      // machine death, not corruption. The journal is untouched, so the
      // next recovery attempt replays it from the start.
      throw EngineHalted();
    }
    RL_CHECK_MSG(PageValid(image, page_id),
                 "journal slot " << slot << " corrupt for page " << page_id);
    const bool write_ok =
        co_await pool_->WritePageDirect(page_id, image, /*fua=*/false);
    if (!write_ok) {
      throw EngineHalted();
    }
    stats_.repaired_from_journal.Add();
  }
  co_await data_dev_.Flush();
  // Persist the embedded metadata into the regular slots so the next open is
  // clean even if this one dies before its post-recovery checkpoint.
  co_await WriteMeta(header.meta);
}

// --- Recovery ----------------------------------------------------------------

Task<void> Database::FormatFresh() {
  meta_ = MetaContent{};
  meta_.seq = 1;
  meta_.root_page = 0;
  meta_.next_free_page = options_.journal_pages;  // data pages follow journal
  meta_.replay_block = 0;
  meta_.replay_lsn = 1;
  meta_.page_bytes = options_.profile.page_bytes;
  co_await WriteMeta(meta_);
  co_await data_dev_.Flush();
  root_ = 0;
  next_free_page_ = meta_.next_free_page;
  wal_->ResumeAt(/*next_block=*/0, /*next_lsn=*/1);
}

Task<void> Database::Recover() {
  rlsim::SpanScope recover_span(sim_, "db", "recover", 0);
  tree_ = std::make_unique<BTree>(*pool_, options_.profile.value_bytes,
                                  &next_free_page_);
  auto meta = co_await ReadBestMeta();
  // The journal header page is read exactly once per recovery; the parsed
  // result feeds the replay decision, the embedded metadata, and the fuzzy
  // redo horizons below.
  const JournalHeaderInfo jh = co_await ReadJournalHeader();
  if (jh.valid && jh.meta.seq > (meta.has_value() ? meta->seq : 0)) {
    co_await ReplayJournal(jh);
    meta = jh.meta;
  }
  if (!meta.has_value()) {
    co_await FormatFresh();
    co_return;
  }
  RL_CHECK_MSG(meta->page_bytes == options_.profile.page_bytes,
               "page size mismatch: on-disk " << meta->page_bytes
                                              << ", profile "
                                              << options_.profile.page_bytes);
  meta_ = *meta;
  root_ = meta_.root_page;
  next_free_page_ = meta_.next_free_page;

  // Replay the committed suffix of the WAL. kPrepare records whose txn has
  // neither a commit nor an abort record are in doubt: their write-sets are
  // rebuilt (not applied) and held under locks until the 2PC coordinator's
  // decision arrives (presumed abort when it never does).
  const uint64_t scan_span =
      sim_.EmitSpanBegin("db", "recover-scan", meta_.replay_block);
  const LogScanResult scan =
      co_await ScanLog(log_dev_, options_.profile, meta_.replay_block,
                       meta_.replay_lsn);
  sim_.EmitSpanEnd(scan_span, "db", "recover-scan", scan.records.size());
  std::unordered_set<uint64_t> committed;
  std::unordered_set<uint64_t> aborted;
  std::map<uint64_t, uint64_t> prepared;  // txn id -> global id
  uint64_t max_txn_id = 0;
  for (const LogRecord& rec : scan.records) {
    max_txn_id = std::max(max_txn_id, rec.txn_id);
    switch (rec.type) {
      case LogRecordType::kCommit:
        committed.insert(rec.txn_id);
        break;
      case LogRecordType::kAbort:
        aborted.insert(rec.txn_id);
        break;
      case LogRecordType::kPrepare:
        prepared.emplace(rec.txn_id, rec.key);
        break;
      case LogRecordType::kUpdate:
      case LogRecordType::kDelete:
        break;
    }
  }
  std::map<uint64_t, Txn> in_doubt;
  for (const auto& [txn_id, global_id] : prepared) {
    if (committed.contains(txn_id) || aborted.contains(txn_id)) {
      continue;
    }
    Txn t;
    t.id = txn_id;
    t.prepared = true;
    t.global_id = global_id;
    in_doubt.emplace(txn_id, std::move(t));
  }
  // Pass 2: rebuild in-doubt write-sets (never horizon-gated — their ops
  // were not applied, so no checkpoint captured them) and collect the redo
  // candidates: committed data records, in scan (= LSN) order.
  std::vector<size_t> candidates;
  candidates.reserve(scan.records.size());
  for (size_t i = 0; i < scan.records.size(); ++i) {
    const LogRecord& rec = scan.records[i];
    const auto doubt = in_doubt.find(rec.txn_id);
    if (doubt != in_doubt.end()) {
      // Rebuild the in-doubt write-set instead of applying it.
      Txn& t = doubt->second;
      if (t.first_lsn == 0) {
        t.first_lsn = rec.lsn;  // records arrive in LSN order
      }
      if (rec.type == LogRecordType::kUpdate ||
          rec.type == LogRecordType::kDelete) {
        WriteOp op;
        op.is_delete = rec.type == LogRecordType::kDelete;
        op.key = rec.key;
        op.value = rec.value;
        t.ops.push_back(std::move(op));
      }
      continue;
    }
    if (rec.type != LogRecordType::kUpdate &&
        rec.type != LogRecordType::kDelete) {
      continue;
    }
    if (!committed.contains(rec.txn_id)) {
      continue;
    }
    candidates.push_back(i);
  }

  // Redo horizons: a candidate at or below its slice's horizon is already
  // captured by the recovered checkpoint's pages. The fuzzy per-slice array
  // from the journal header is usable only when that header belongs to the
  // checkpoint we actually recovered (seq match); anything else degrades to
  // the global replay point, which is always sound (replay is idempotent).
  std::array<uint64_t, kRedoSlices> horizons;
  horizons.fill(meta_.replay_lsn > 0 ? meta_.replay_lsn - 1 : 0);
  if (options_.recovery.use_fuzzy_horizons && jh.valid &&
      jh.meta.seq == meta_.seq) {
    horizons = jh.horizons;
  }

  if (options_.recovery.partitions <= 1) {
    co_await RedoSequential(scan.records, candidates, horizons);
  } else {
    co_await RedoPartitioned(scan.records, candidates, horizons);
  }
  wal_->ResumeAt(scan.next_block, scan.next_lsn, meta_.replay_lsn);

  // Adopt the in-doubt txns before any checkpoint runs: their first_lsn
  // values are what hold the replay point at (or before) their prepare
  // records, and their locks must be in place before new clients arrive.
  // Ids never collide with fresh txns because next_txn_id_ starts past every
  // id still visible in the replayable log region (reusing a resident
  // in-doubt id would misattribute its old records at the next replay).
  next_txn_id_ = std::max(next_txn_id_, max_txn_id + 1);
  for (auto& [id, t] : in_doubt) {
    for (const WriteOp& op : t.ops) {
      const bool got = co_await locks_->Acquire(id, op.key);
      RL_CHECK_MSG(got, "in-doubt lock re-acquisition cannot contend");
    }
    stats_.in_doubt_recovered.Add();
    txns_.emplace(id, std::move(t));
  }

  // Persist the recovered state so the next crash replays less.
  if (!scan.records.empty() || pool_->dirty_count() > 0) {
    // rapicheck: lock-ok (the apparent locks_ -> apply_mutex_ inversion is
    // a name merge: Commit's apply-section calls BTree::Remove, which
    // rapicheck conflates with Database::Remove's lock acquisition)
    auto guard = co_await apply_mutex_->Lock();
    co_await CheckpointLocked();
  }
}

Task<void> Database::ApplyRecord(const LogRecord& rec) {
  switch (rec.type) {
    case LogRecordType::kUpdate:
      root_ = co_await tree_->Put(root_, rec.key, rec.value);
      break;
    case LogRecordType::kDelete:
      root_ = co_await tree_->Remove(root_, rec.key);
      break;
    case LogRecordType::kCommit:
    case LogRecordType::kPrepare:
    case LogRecordType::kAbort:
      break;  // control records carry no tree mutation
  }
}

Task<void> Database::RedoSequential(
    const std::vector<LogRecord>& records,
    const std::vector<size_t>& candidates,
    const std::array<uint64_t, kRedoSlices>& horizons) {
  rlsim::SpanScope span(sim_, "db", "redo-sequential", candidates.size());
  for (const size_t idx : candidates) {
    const LogRecord& rec = records[idx];
    // Decode cost is paid per candidate: the key must be decoded before the
    // horizon can rule the record out.
    co_await cpu_.Compute(options_.profile.cpu_per_redo);
    if (rec.lsn <= horizons[RedoSliceOf(rec.key)]) {
      stats_.redo_skipped_by_horizon.Add();
      continue;
    }
    co_await ApplyRecord(rec);
    stats_.recovered_records.Add();
    stats_.redo_installed_ops.Add();
    if (pool_->dirty_count() >= dirty_throttle_pages_) {
      auto guard = co_await apply_mutex_->Lock();
      co_await CheckpointLocked();
    }
  }
}

Task<void> Database::RedoPartitioned(
    const std::vector<LogRecord>& records,
    const std::vector<size_t>& candidates,
    const std::array<uint64_t, kRedoSlices>& horizons) {
  // Phase A — partition and reduce. Candidates are bucketed by key slice
  // into K streams (contiguous slice ranges, so the persisted per-slice
  // horizons apply unchanged at any K); worker coroutines then reduce each
  // stream to its net effect: the last record for a key wins. All records
  // of a key share one slice, hence one stream and one horizon, so
  // filter-then-reduce equals reduce-then-filter and the net-op set is
  // independent of K and of the worker count.
  const uint32_t streams =
      std::min(std::max<uint32_t>(options_.recovery.partitions, 2),
               kRedoSlices);
  rlsim::SpanScope span(sim_, "db", "redo-partitioned", streams);
  struct Stream {
    std::vector<size_t> candidates;            // indices, LSN order
    std::map<uint64_t, const LogRecord*> net;  // key -> winning record
    uint64_t replayed = 0;
    uint64_t skipped = 0;
  };
  std::vector<Stream> plan(streams);
  for (const size_t idx : candidates) {
    const uint32_t slice = RedoSliceOf(records[idx].key);
    plan[slice * streams / kRedoSlices].candidates.push_back(idx);
  }

  const uint32_t workers =
      options_.recovery.jobs == 0
          ? streams
          : std::min(options_.recovery.jobs, streams);
  size_t next_stream = 0;
  rlsim::TaskGroup group(sim_);
  for (uint32_t w = 0; w < workers; ++w) {
    group.Spawn(
        [](Database& db, const std::vector<LogRecord>& records,
           const std::array<uint64_t, kRedoSlices>& horizons,
           std::vector<Stream>& plan, size_t& next_stream) -> Task<void> {
          while (next_stream < plan.size()) {
            Stream& s = plan[next_stream++];
            for (const size_t idx : s.candidates) {
              const LogRecord& rec = records[idx];
              co_await db.cpu_.Compute(db.options_.profile.cpu_per_redo);
              if (rec.lsn <= horizons[RedoSliceOf(rec.key)]) {
                ++s.skipped;
                continue;
              }
              s.net[rec.key] = &rec;  // later record for the key wins
              ++s.replayed;
            }
          }
        }(*this, records, horizons, plan, next_stream));
  }
  co_await group.Join();

  // Phase B — canonical install. Stream key sets are disjoint (a key maps
  // to exactly one stream), so merging the net-op maps and applying them in
  // ascending key order yields one fixed tree: byte-identical at any
  // partition or worker count >= 2, content-identical to sequential replay.
  std::map<uint64_t, const LogRecord*> net;
  for (Stream& s : plan) {
    stats_.recovered_records.Add(static_cast<int64_t>(s.replayed));
    stats_.redo_skipped_by_horizon.Add(static_cast<int64_t>(s.skipped));
    net.merge(s.net);
  }
  rlsim::SpanScope install_span(sim_, "db", "redo-install", net.size());
  for (const auto& [key, rec] : net) {
    co_await ApplyRecord(*rec);
    stats_.redo_installed_ops.Add();
    if (pool_->dirty_count() >= dirty_throttle_pages_) {
      auto guard = co_await apply_mutex_->Lock();
      co_await CheckpointLocked();
    }
  }
}

// --- Transactions ------------------------------------------------------------

uint64_t Database::Begin() {
  const uint64_t id = next_txn_id_++;
  Txn t;
  t.id = id;
  txns_.emplace(id, std::move(t));
  return id;
}

Task<DbStatus> Database::Get(uint64_t txn, uint64_t key,
                             std::vector<uint8_t>* value_out) {
  const auto it = txns_.find(txn);
  if (it == txns_.end()) {
    co_return DbStatus::kTxnNotActive;
  }
  co_await cpu_.Compute(options_.profile.cpu_per_get);
  if (!co_await locks_->Acquire(txn, key)) {
    co_await Abort(txn);
    co_return DbStatus::kLockTimeout;
  }
  // Read-your-writes: newest op in the write-set wins.
  for (auto op = it->second.ops.rbegin(); op != it->second.ops.rend(); ++op) {
    if (op->key == key) {
      if (op->is_delete) {
        co_return DbStatus::kNotFound;
      }
      if (value_out != nullptr) {
        *value_out = op->value;
      }
      co_return DbStatus::kOk;
    }
  }
  const bool found = co_await tree_->Get(root_, key, value_out);
  co_return found ? DbStatus::kOk : DbStatus::kNotFound;
}

Task<DbStatus> Database::Put(uint64_t txn, uint64_t key,
                             std::span<const uint8_t> value) {
  const auto it = txns_.find(txn);
  if (it == txns_.end()) {
    co_return DbStatus::kTxnNotActive;
  }
  RL_CHECK(value.size() == options_.profile.value_bytes);
  co_await cpu_.Compute(options_.profile.cpu_per_put);
  if (!co_await locks_->Acquire(txn, key)) {
    co_await Abort(txn);
    co_return DbStatus::kLockTimeout;
  }
  WriteOp op;
  op.key = key;
  op.value.assign(value.begin(), value.end());
  it->second.ops.push_back(std::move(op));
  co_return DbStatus::kOk;
}

Task<DbStatus> Database::Remove(uint64_t txn, uint64_t key) {
  const auto it = txns_.find(txn);
  if (it == txns_.end()) {
    co_return DbStatus::kTxnNotActive;
  }
  co_await cpu_.Compute(options_.profile.cpu_per_put);
  if (!co_await locks_->Acquire(txn, key)) {
    co_await Abort(txn);
    co_return DbStatus::kLockTimeout;
  }
  WriteOp op;
  op.is_delete = true;
  op.key = key;
  it->second.ops.push_back(std::move(op));
  co_return DbStatus::kOk;
}

Task<DbStatus> Database::Commit(uint64_t txn) {
  const auto it = txns_.find(txn);
  if (it == txns_.end()) {
    co_return DbStatus::kTxnNotActive;
  }
  Txn& t = it->second;
  RL_CHECK_MSG(!t.prepared,
               "Commit() on a prepared txn; decisions go through "
               "CommitPrepared/Abort/ResolveInDoubt");
  const TimePoint start = sim_.now();
  co_await cpu_.Compute(options_.profile.cpu_per_commit);

  if (t.ops.empty()) {
    locks_->ReleaseAll(txn);
    txns_.erase(it);
    // rapicheck: ack-ok (read-only commit: no records were written, so
    // there is nothing to make durable before acknowledging)
    stats_.commits.Add();
    stats_.commit_latency.RecordDuration(sim_.now() - start);
    co_return DbStatus::kOk;
  }

  t.committing = true;
  // Log every operation, then the commit record.
  for (const WriteOp& op : t.ops) {
    LogRecord rec;
    rec.type = op.is_delete ? LogRecordType::kDelete : LogRecordType::kUpdate;
    rec.txn_id = txn;
    rec.key = op.key;
    rec.value = op.value;
    const uint64_t lsn = wal_->Append(std::move(rec));
    if (t.first_lsn == 0) {
      t.first_lsn = lsn;
    }
  }
  LogRecord commit;
  commit.type = LogRecordType::kCommit;
  commit.txn_id = txn;
  const uint64_t commit_lsn = wal_->Append(std::move(commit));

  co_await wal_->WaitDurable(commit_lsn);

  // Dirty-page throttle: never let the apply outrun what a checkpoint can
  // journal (InnoDB-style furious-flushing backstop).
  co_await ThrottleDirtyPages();

  // Apply the write-set to the tree under the apply/checkpoint mutex.
  {
    auto guard = co_await apply_mutex_->Lock();
    for (const WriteOp& op : t.ops) {
      if (op.is_delete) {
        root_ = co_await tree_->Remove(root_, op.key);
      } else {
        root_ = co_await tree_->Put(root_, op.key, op.value);
      }
    }
  }

  locks_->ReleaseAll(txn);
  txns_.erase(it);
  stats_.commits.Add();
  stats_.commit_latency.RecordDuration(sim_.now() - start);
  MaybeScheduleCheckpoint();
  co_return DbStatus::kOk;
}

Task<void> Database::Abort(uint64_t txn) {
  const auto it = txns_.find(txn);
  if (it == txns_.end()) {
    co_return;
  }
  if (it->second.prepared) {
    // Best-effort resolution record: never waited on (presumed abort makes
    // its loss safe), but when it lands, the next recovery skips re-entering
    // doubt — and re-querying the coordinator — for this txn.
    LogRecord rec;
    rec.type = LogRecordType::kAbort;
    rec.txn_id = txn;
    rec.key = it->second.global_id;
    wal_->Append(std::move(rec));
  }
  locks_->ReleaseAll(txn);
  txns_.erase(it);
  stats_.aborts.Add();
}

// --- Two-phase commit (participant half) -------------------------------------

Task<DbStatus> Database::Prepare(uint64_t txn, uint64_t global_id) {
  const auto it = txns_.find(txn);
  if (it == txns_.end()) {
    co_return DbStatus::kTxnNotActive;
  }
  Txn& t = it->second;
  RL_CHECK_MSG(!t.prepared, "double Prepare on txn " << txn);
  co_await cpu_.Compute(options_.profile.cpu_per_commit);

  // Log the write-set followed by the prepare record; the durable prepare IS
  // the yes-vote. An empty write-set still logs the prepare: the vote must
  // survive a crash, because the coordinator may commit on the strength of
  // it.
  for (const WriteOp& op : t.ops) {
    LogRecord rec;
    rec.type = op.is_delete ? LogRecordType::kDelete : LogRecordType::kUpdate;
    rec.txn_id = txn;
    rec.key = op.key;
    rec.value = op.value;
    const uint64_t lsn = wal_->Append(std::move(rec));
    if (t.first_lsn == 0) {
      t.first_lsn = lsn;
    }
  }
  LogRecord prep;
  prep.type = LogRecordType::kPrepare;
  prep.txn_id = txn;
  prep.key = global_id;
  const uint64_t prep_lsn = wal_->Append(std::move(prep));
  if (t.first_lsn == 0) {
    t.first_lsn = prep_lsn;
  }
  co_await wal_->WaitDurable(prep_lsn);

  t.prepared = true;
  t.global_id = global_id;
  stats_.prepares.Add();
  co_return DbStatus::kOk;
}

Task<DbStatus> Database::CommitPrepared(uint64_t txn) {
  const auto it = txns_.find(txn);
  if (it == txns_.end()) {
    co_return DbStatus::kTxnNotActive;
  }
  Txn& t = it->second;
  RL_CHECK_MSG(t.prepared, "CommitPrepared on an unprepared txn " << txn);
  if (t.deciding) {
    co_return DbStatus::kTxnNotActive;  // duplicate decision mid-apply
  }
  t.deciding = true;
  const TimePoint start = sim_.now();

  // The write-set is already durable behind the prepare record; only the
  // commit record is new.
  LogRecord commit;
  commit.type = LogRecordType::kCommit;
  commit.txn_id = txn;
  const uint64_t commit_lsn = wal_->Append(std::move(commit));
  co_await wal_->WaitDurable(commit_lsn);
  co_await ThrottleDirtyPages();

  {
    auto guard = co_await apply_mutex_->Lock();
    for (const WriteOp& op : t.ops) {
      if (op.is_delete) {
        root_ = co_await tree_->Remove(root_, op.key);
      } else {
        root_ = co_await tree_->Put(root_, op.key, op.value);
      }
    }
  }

  locks_->ReleaseAll(txn);
  txns_.erase(it);
  stats_.commits.Add();
  stats_.commit_latency.RecordDuration(sim_.now() - start);
  MaybeScheduleCheckpoint();
  co_return DbStatus::kOk;
}

std::vector<uint64_t> Database::InDoubtGlobalIds() const {
  std::vector<uint64_t> ids;
  for (const auto& [id, t] : txns_) {
    if (t.prepared && !t.deciding) {
      ids.push_back(t.global_id);
    }
  }
  std::sort(ids.begin(), ids.end());
  return ids;
}

Task<DbStatus> Database::ResolveInDoubt(uint64_t global_id, bool commit) {
  uint64_t local = 0;
  bool found = false;
  for (const auto& [id, t] : txns_) {
    if (t.prepared && !t.deciding && t.global_id == global_id) {
      local = id;
      found = true;
      break;
    }
  }
  if (!found) {
    co_return DbStatus::kTxnNotActive;
  }
  if (commit) {
    co_return co_await CommitPrepared(local);
  }
  co_await Abort(local);
  co_return DbStatus::kOk;
}

// --- Checkpoint ----------------------------------------------------------------

void Database::MaybeScheduleCheckpoint() {
  if (closing_ || wal_->halted() || checkpoint_pending_ ||
      pool_->dirty_count() < options_.profile.checkpoint_dirty_pages) {
    return;
  }
  checkpoint_pending_ = true;
  sim_.Spawn(
      [](Database& db) -> Task<void> {
        try {
          co_await db.Checkpoint();
        } catch (...) {
          // Machine died mid-checkpoint; the journal makes this safe and the
          // harness will reopen the database.
        }
        db.checkpoint_pending_ = false;
        db.checkpoint_done_->NotifyAll();
      }(*this));
}

Task<void> Database::Checkpoint() {
  auto ckpt_guard = co_await checkpoint_mutex_->Lock();
  StagedCheckpoint staged;
  {
    auto guard = co_await apply_mutex_->Lock();
    staged = StageCheckpoint();
  }
  // Write-ahead rule for the checkpoint: the log covering everything staged
  // must be durable before the staged pages overwrite old state.
  co_await wal_->Force();
  co_await PersistCheckpoint(std::move(staged));
}

Task<void> Database::CheckpointLocked() {
  // Recovery path: the caller already holds the apply mutex and runs alone.
  StagedCheckpoint staged = StageCheckpoint();
  co_await wal_->Force();
  co_await PersistCheckpoint(std::move(staged));
}

Database::StagedCheckpoint Database::StageCheckpoint() {
  StagedCheckpoint staged;
  std::vector<BufferPool::Frame*> dirty = pool_->DirtyFrames();
  RL_CHECK_MSG(dirty.size() + 1 <= options_.journal_pages,
               "checkpoint dirty set exceeds journal capacity");
  RL_CHECK_MSG(dirty.size() <=
                   JournalHeaderCapacity(options_.profile.page_bytes),
               "checkpoint dirty set exceeds journal header capacity");

  // Replay point: everything applied so far is captured by this snapshot;
  // transactions whose records are logged but not yet applied must replay.
  uint64_t replay_lsn = wal_->next_lsn();
  for (const auto& [id, t] : txns_) {
    if (t.first_lsn != 0) {
      replay_lsn = std::min(replay_lsn, t.first_lsn);
    }
  }
  // Block bound: exact when no transaction is mid-commit; otherwise fall
  // back to the previous checkpoint's start (correct because replay is
  // idempotent, merely conservative).
  const uint64_t replay_block = (replay_lsn == wal_->next_lsn())
                                    ? wal_->current_block_index()
                                    : meta_.replay_block;

  staged.meta = meta_;
  staged.meta.seq = meta_.seq + 1;
  staged.meta.root_page = root_;
  staged.meta.next_free_page = next_free_page_;
  staged.meta.replay_block = replay_block;
  staged.meta.replay_lsn = replay_lsn;
  staged.meta.page_bytes = options_.profile.page_bytes;

  // Fuzzy redo horizons: per slice, the highest LSN this snapshot fully
  // captures. Everything applied so far is in the staged pages, so every
  // slice starts at next_lsn - 1; a resident transaction with logged but
  // unapplied records (mid-commit or prepared in-doubt — the latter pin the
  // global replay point arbitrarily far back) drags down only the slices
  // its keys actually touch. Untouched slices keep the high horizon, which
  // is exactly the recovery-time win over the global replay point.
  const uint64_t captured = wal_->next_lsn() > 0 ? wal_->next_lsn() - 1 : 0;
  staged.horizons.fill(captured);
  for (const auto& [id, t] : txns_) {
    if (t.first_lsn == 0) {
      continue;
    }
    for (const WriteOp& op : t.ops) {
      const uint32_t s = RedoSliceOf(op.key);
      staged.horizons[s] = std::min(staged.horizons[s], t.first_lsn - 1);
    }
  }

  staged.pages.reserve(dirty.size());
  for (BufferPool::Frame* f : dirty) {
    std::vector<uint8_t> image = f->data;
    SealPage(image, f->page_id);
    f->in_checkpoint = true;  // pin the frame contents against eviction
    pool_->MarkClean(f);
    staged.pages.emplace_back(f, std::move(image));
  }
  return staged;
}

Task<void> Database::PersistCheckpoint(StagedCheckpoint staged) {
  const uint32_t page_bytes = options_.profile.page_bytes;
  auto clear_flags = [&staged] {
    for (auto& [frame, image] : staged.pages) {
      frame->in_checkpoint = false;
    }
  };
  try {
    // 1. Page images into the journal slots.
    for (size_t i = 0; i < staged.pages.size(); ++i) {
      const uint64_t slot = 1 + i;
      const bool ok = co_await pool_->WritePageDirect(
          slot, staged.pages[i].second, /*fua=*/false);
      if (!ok) {
        throw EngineHalted();
      }
    }
    co_await data_dev_.Flush();

    // 2. Journal header (commits the checkpoint).
    std::vector<uint8_t> header(page_bytes, 0);
    PageHeader jh;
    jh.page_id = kJournalHeaderPage;
    jh.type = PageType::kJournalHeader;
    WritePageHeader(header, jh);
    StoreScalar<uint64_t>(header, kJournalSeqOff, staged.meta.seq);
    StoreScalar<uint32_t>(header, kJournalCountOff,
                          static_cast<uint32_t>(staged.pages.size()));
    for (uint32_t s = 0; s < kRedoSlices; ++s) {
      StoreScalar<uint64_t>(header, kJournalHorizonOff + s * 8,
                            staged.horizons[s]);
    }
    for (size_t i = 0; i < staged.pages.size(); ++i) {
      StoreScalar<uint64_t>(header, kJournalIdsOff + i * 8,
                            staged.pages[i].first->page_id);
    }
    const std::vector<uint8_t> meta_blob = SerializeMeta(staged.meta);
    std::copy(meta_blob.begin(), meta_blob.end(),
              header.begin() + static_cast<ptrdiff_t>(
                                   kJournalIdsOff + staged.pages.size() * 8));
    SealPage(header, kJournalHeaderPage);
    {
      const bool ok = co_await pool_->WritePageDirect(kJournalHeaderPage,
                                                      header, /*fua=*/true);
      if (!ok) {
        throw EngineHalted();
      }
    }

    // 3. Pages in place, from the staged images.
    for (const auto& [frame, image] : staged.pages) {
      const bool ok = co_await pool_->WritePageDirect(frame->page_id, image,
                                                      /*fua=*/false);
      if (!ok) {
        throw EngineHalted();
      }
    }
    co_await data_dev_.Flush();

    // 4. Metadata flips to the new checkpoint.
    co_await WriteMeta(staged.meta);
    co_await data_dev_.Flush();
  } catch (...) {
    clear_flags();
    throw;
  }
  clear_flags();
  meta_ = staged.meta;
  stats_.checkpoints.Add();
}

// --- Introspection -------------------------------------------------------------

Task<bool> Database::ReadCommitted(uint64_t key, std::vector<uint8_t>* out) {
  co_return co_await tree_->Get(root_, key, out);
}

Task<uint64_t> Database::CommittedCount() {
  co_return co_await tree_->Count(root_);
}

Task<void> Database::CheckTreeStructure() {
  co_await tree_->CheckStructure(root_);
}

Task<uint64_t> Database::ContentHash() {
  // FNV-1a over (key, value) pairs in ascending key order. Depends only on
  // the committed contents, not the physical page layout — sequential and
  // partitioned redo build structurally different trees from the same log.
  uint64_t hash = 1469598103934665603ull;
  auto mix = [&hash](const uint8_t* data, size_t len) {
    for (size_t i = 0; i < len; ++i) {
      hash ^= data[i];
      hash *= 1099511628211ull;
    }
  };
  co_await tree_->Scan(
      root_, 0, UINT64_MAX,
      [&mix](uint64_t key, std::span<const uint8_t> value) {
        // Keys are mixed in explicit little-endian byte order so the hash
        // is a property of the contents, not the host representation.
        uint8_t key_bytes[sizeof(key)];
        for (size_t i = 0; i < sizeof(key); ++i) {
          key_bytes[i] = static_cast<uint8_t>(key >> (8 * i));
        }
        mix(key_bytes, sizeof(key));
        mix(value.data(), value.size());
        return true;
      });
  co_return hash;
}

}  // namespace rldb
