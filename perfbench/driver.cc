// perfbench: the repository's benchmark driver. It links the simulator's
// libraries and measures them from outside, through their public entry points
// and stats() accessors, on one of four workloads:
//
//   tpcc-hdd   TPC-C-lite, pg-like profile, 16 clients, rapilog, shared HDD
//   tpcc-ssd   the same on HDD data + SSD log
//   fleet-2pc  4 shards behind the 2PC coordinator, 8 clients, 60% cross-shard
//   chaos      classic chaos episodes, then 3-shard fleet episodes
//
// Every workload is closed loop: a simulated client (a coroutine, not a host
// thread) waits for its reply, thinks, and sends again. The whole run is one
// host thread.
//
//   perfbench --workload W [--seed N] [--seconds S] [--trace 0|1]
//             [--passes N] [--cells N] [--warmup-ms X] [--measure-ms Y]
//
// A pass runs a fixed set of cells (one simulation each, on client blocks
// chosen by the seed) and pools their virtual-time results, so a pass is a
// pure function of the seed and its digest pins it. The run repeats passes
// until --seconds of host time have passed (or exactly --passes of them) and
// reports host-time metrics as medians; every pass must reproduce the first
// one's digest, or the run is reported incorrect. With --trace 1 a final pass
// installs a SpanTracer and the run reports the per-layer metrics instead;
// the traced digest must equal the untraced one.
//
// The last stdout line is one JSON object (see run.py, which builds this
// binary and reshapes that line into the benchmark's result format).
#include <sys/resource.h>

#include <algorithm>
#include <bit>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "bench/bench_common.h"
#include "src/faults/chaos/chaos_explorer.h"
#include "src/faults/durability_checker.h"
#include "src/faults/fleet_checker.h"
#include "src/harness/fleet_testbed.h"
#include "src/harness/testbed.h"
#include "src/obs/critical_path.h"
#include "src/obs/span_tracer.h"
#include "src/sim/simulator.h"
#include "src/sim/stats.h"
#include "src/sim/sync.h"
#include "src/workload/fleet_workload.h"
#include "src/workload/tpcc_lite.h"

namespace {

using Clock = std::chrono::steady_clock;
using rlsim::Duration;
using rlsim::Simulator;
using rlsim::Task;
using rlsim::TimePoint;

double SecondsSince(Clock::time_point t) {
  return std::chrono::duration<double>(Clock::now() - t).count();
}

double Median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double Ratio(double num, double den) { return den == 0 ? 0 : num / den; }

// ---- Distributions ----------------------------------------------------------

// A histogram's contents at bucket resolution, rebuilt through the public
// Percentile() accessor (rank r lies in the bucket Percentile() reports for
// it). Unlike Histogram it can be subtracted, so a window's distribution is
// end-snapshot minus start-snapshot without resetting the program's stats,
// and its percentiles are interpolated inside a bucket, so they move smoothly
// with the data instead of jumping between bucket bounds (<= 6.25% wide).
class Dist {
 public:
  static Dist Of(const rlsim::Histogram& h) {
    Dist d;
    const int64_t n = h.count();
    const auto rank_value = [&h, n](int64_t r) {
      return h.Percentile(100.0 * (static_cast<double>(r) - 0.5) /
                          static_cast<double>(n));
    };
    int64_t r = 1;
    while (r <= n) {
      const int64_t v = rank_value(r);
      int64_t lo = r;
      int64_t hi = n;
      while (lo < hi) {
        const int64_t mid = lo + (hi - lo + 1) / 2;
        if (rank_value(mid) == v) {
          lo = mid;
        } else {
          hi = mid - 1;
        }
      }
      d.AddBucket(v, lo - r + 1);
      r = lo + 1;
    }
    return d;
  }

  // Adds (sign +1) or removes (sign -1) another distribution's samples.
  void Add(const Dist& other, int sign = 1) {
    for (const auto& [low, wc] : other.buckets_) {
      auto& mine = buckets_[low];
      mine.first = wc.first;
      mine.second += sign * wc.second;
    }
    count_ += sign * other.count_;
  }

  int64_t count() const { return count_; }

  // Nearest-rank percentile over the samples, each bucket's samples spread
  // evenly across its width. 0 when empty.
  double Percentile(double p) const {
    if (count_ <= 0) {
      return 0;
    }
    int64_t k = static_cast<int64_t>(
                    std::ceil(p / 100.0 * static_cast<double>(count_))) -
                1;
    k = std::clamp<int64_t>(k, 0, count_ - 1);
    for (const auto& [low, wc] : buckets_) {
      const auto [width, c] = wc;
      if (k < c) {
        return static_cast<double>(low) +
               static_cast<double>(width) * (static_cast<double>(k) + 0.5) /
                   static_cast<double>(c);
      }
      k -= c;
    }
    return 0;
  }

 private:
  // The bucket a reported value belongs to: histogram values below 16 are
  // exact, above that each power of two holds 8 buckets of equal width.
  void AddBucket(int64_t value, int64_t count) {
    int64_t low = value;
    int64_t width = 1;
    if (value >= 16) {
      const int magnitude = 63 - std::countl_zero(static_cast<uint64_t>(value));
      const int shift = magnitude - 3;
      low = (value >> shift) << shift;
      width = int64_t{1} << shift;
    }
    auto& b = buckets_[low];
    b.first = width;
    b.second += count;
    count_ += count;
  }

  std::map<int64_t, std::pair<int64_t, int64_t>> buckets_;  // low -> (w, n)
  int64_t count_ = 0;
};

Dist WindowDist(const rlsim::Histogram& start, const rlsim::Histogram& end) {
  Dist d = Dist::Of(end);
  d.Add(Dist::Of(start), -1);
  return d;
}

double ExactPercentile(std::vector<int64_t> v, double p) {
  if (v.empty()) {
    return 0;
  }
  std::sort(v.begin(), v.end());
  int64_t k = static_cast<int64_t>(
                  std::ceil(p / 100.0 * static_cast<double>(v.size()))) -
              1;
  k = std::clamp<int64_t>(k, 0, static_cast<int64_t>(v.size()) - 1);
  return static_cast<double>(v[static_cast<size_t>(k)]);
}

// ---- Metrics ----------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

class Metrics {
 public:
  void Add(std::string name, double value, std::string unit) {
    list_.push_back({std::move(name), value, std::move(unit)});
  }
  void Append(const Metrics& other) {
    list_.insert(list_.end(), other.list_.begin(), other.list_.end());
  }
  const std::vector<Metric>& list() const { return list_; }

 private:
  std::vector<Metric> list_;
};

constexpr uint64_t kFnvOffset = 1469598103934665603ull;

uint64_t Fnv1a(const std::string& text) {
  uint64_t h = kFnvOffset;
  for (const unsigned char c : text) {
    h ^= c;
    h *= 1099511628211ull;
  }
  return h;
}

// The byte-wise FNV-1a step the chaos explorer chains episode hashes with, so
// the chaos digest holds `rapilog_chaos`'s corpus hashes for the two ranges.
uint64_t FnvMix(uint64_t h, uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (i * 8)) & 0xff;
    h *= 1099511628211ull;
  }
  return h;
}

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) {
    return "0";
  }
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

// ---- Simulation plumbing ------------------------------------------------------

// Drives the simulator in 1 ms slices of virtual time until `done`, sampling
// the number of live root tasks between slices. Slicing adds no events and
// runs them in the same order as one Run() would.
class SliceDriver {
 public:
  explicit SliceDriver(Simulator& sim) : sim_(sim) {}

  void RunUntilDone(const bool& done) {
    const TimePoint limit = sim_.now() + Duration::Seconds(3600);
    while (!done) {
      if (sim_.now() > limit) {
        throw std::runtime_error("workload did not finish in virtual time");
      }
      events_ += sim_.RunUntil(sim_.now() + Duration::Millis(1));
      peak_roots_ = std::max(peak_roots_, sim_.pending_tasks());
    }
    events_ += sim_.Run();
  }

  uint64_t events() const { return events_; }
  size_t peak_roots() const { return peak_roots_; }

 private:
  Simulator& sim_;
  uint64_t events_ = 0;
  size_t peak_roots_ = 0;
};

struct Window {
  Duration warmup;
  Duration measure;
};

// Stats of one testbed, copied at the window's edges.
struct BedSnap {
  rldb::LogWriter::Stats wal;
  rldb::BufferPool::Stats pool;
  rldb::LockManager::Stats locks;
  rldb::Database::Stats db;
  rlvmm::VirtualBlockDevice::Stats vlog;
  rapilog::RapiLogDevice::Stats rapi;
  rlstor::SimBlockDevice::Stats log_disk;
  rlstor::SimBlockDevice::Stats data_disk;
  bool shared_spindle = false;
};

BedSnap Snap(rlharness::Testbed& bed) {
  BedSnap s;
  s.wal = bed.db().log_writer().stats();
  s.pool = bed.db().pool().stats();
  s.locks = bed.db().locks().stats();
  s.db = bed.db().stats();
  if (bed.guest_log_dev() != nullptr) {
    s.vlog = bed.guest_log_dev()->stats();
  }
  if (bed.rapilog() != nullptr) {
    s.rapi = bed.rapilog()->stats();
  }
  s.log_disk = bed.log_disk_physical().stats();
  s.data_disk = bed.data_disk().stats();
  s.shared_spindle = &bed.log_disk_physical() == &bed.data_disk();
  return s;
}

double Delta(const rlsim::Counter& start, const rlsim::Counter& end) {
  return static_cast<double>(end.value() - start.value());
}

// Critical-path edges reported as shard.cp.<edge>_share for the client-txn
// class; whatever else lands on the path is folded into "other".
const char* const kCriticalEdges[] = {
    "client-txn",    "2pc-execute",   "2pc-prepare",   "2pc-decide",
    "shard-prepare", "shard-execute", "shard-decision",
};

// Span-derived measurements, accumulated over the cells of a traced pass.
struct SpanAccum {
  std::vector<int64_t> data_vblk_ns;  // guest data vblk request durations
  double drain_busy_ns = 0;           // drain-write time inside the window
  double drain_capacity_ns = 0;       // window length x RapiLog devices
  // Critical-path time per transaction class and edge, and per class.
  std::map<std::string, std::map<std::string, int64_t>> cp_edge_ns;
  std::map<std::string, int64_t> cp_class_ns;
  uint64_t spans = 0;

  // Folds in one cell's spans over the measured window [t0, t1].
  void Add(const rlobs::SpanTracer& tracer, TimePoint t0, TimePoint t1,
           size_t rapilog_devices) {
    const std::vector<rlobs::SpanNode> all = rlobs::CollectSpans(tracer);
    const int64_t w0 = (t0 - TimePoint::Origin()).nanos();
    const int64_t w1 = (t1 - TimePoint::Origin()).nanos();
    std::vector<rlobs::SpanNode> in_window;
    for (const rlobs::SpanNode& s : all) {
      if (s.kind == "drain-write") {
        drain_busy_ns += static_cast<double>(std::max<int64_t>(
            0, std::min(s.end_ns, w1) - std::max(s.begin_ns, w0)));
      }
      if (s.begin_ns < w0 || s.end_ns > w1) {
        continue;
      }
      if (s.actor.ends_with("guest-data-vblk")) {
        data_vblk_ns.push_back(s.end_ns - s.begin_ns);
      }
      in_window.push_back(s);
    }
    drain_capacity_ns +=
        static_cast<double>(w1 - w0) * static_cast<double>(rapilog_devices);
    spans += all.size();
    for (const rlobs::CriticalPathClass& c :
         rlobs::AnalyzeCriticalPaths(in_window).classes) {
      cp_class_ns[c.root_kind] += c.total_ns;
      for (const rlobs::CriticalEdge& e : c.edges) {
        cp_edge_ns[c.root_kind][e.kind] += e.total_ns;
      }
    }
  }

  void Report(Metrics& m,
              std::map<std::string, std::map<std::string, double>>& cp) const {
    m.Add("vmm.data.request_p50_us", ExactPercentile(data_vblk_ns, 50) / 1000.0,
          "us");
    m.Add("rapilog.drain_busy_frac", Ratio(drain_busy_ns, drain_capacity_ns),
          "fraction");
    for (const auto& [cls, edges] : cp_edge_ns) {
      for (const auto& [edge, ns] : edges) {
        cp[cls][edge] = Ratio(static_cast<double>(ns),
                              static_cast<double>(cp_class_ns.at(cls)));
      }
    }
    const auto client = cp.find("client-txn");
    double named = 0;
    for (const char* edge : kCriticalEdges) {
      double share = 0;
      if (client != cp.end() && client->second.contains(edge)) {
        share = client->second.at(edge);
      }
      named += share;
      m.Add(std::string("shard.cp.") + edge + "_share", share, "fraction");
    }
    m.Add("shard.cp.other_share",
          client == cp.end() ? 0 : std::max(0.0, 1.0 - named), "fraction");
    m.Add("obs.spans", static_cast<double>(spans), "count");
  }
};

// ---- One cell: one simulation of one block of clients ---------------------------

struct Cell {
  double setup_s = 0;  // host: build, start, load/boot, to the first client
  double wall_s = 0;   // host: warmup + measured window
  double total_s = 0;  // host: the whole simulation, set-up to verification
  uint64_t events = 0;
  size_t peak_roots = 0;
  double window_s = 0;  // virtual
  double committed = 0;
  double attempted = 0;
  double unresolved = 0;  // TPC-C lock aborts; fleet aborted + unknown
  Dist latency;
  double recovery_ms = 0;
  double recovered_records = 0;
  rlfault::VerifyResult verdict;
  std::string error;  // the recovery or verification did not complete
  std::vector<BedSnap> s0;
  std::vector<BedSnap> s1;
  // Fleet only: window deltas of the coordinator, fabric and workload.
  double cross_committed = 0;
  double net_messages = 0;
  double net_bytes = 0;
  Dist net_delivery;
  double votes_no = 0;
  double vote_timeouts = 0;
  double decision_resends = 0;
};

// The workloads draw every transaction from per-client RNG streams keyed by
// the client id (the simulator's own seed does not change them), so the seed
// picks which blocks of client ids run: cell j of seed s runs block
// ((s - 42) * cells + j) mod 1024. Seed 42's first cell is block 0, the ids
// the experiment benches use, so it reproduces E5 and E13. Blocks wrap at
// 1024: TPC-C order ids are client_id << 22 inside a 36-bit key field, which
// leaves room for 2^14 client ids.
constexpr uint64_t kDefaultSeed = 42;
constexpr uint64_t kClientBlocks = 1024;

int FirstClientId(uint64_t seed, int cells, int cell, int clients_per_block) {
  const uint64_t base =
      (seed % kClientBlocks + kClientBlocks - kDefaultSeed) % kClientBlocks;
  const uint64_t block =
      (base * static_cast<uint64_t>(cells) + static_cast<uint64_t>(cell)) %
      kClientBlocks;
  return static_cast<int>(block) * clients_per_block;
}

struct CellSpec {
  uint64_t seed = kDefaultSeed;
  int first_client = 0;
  Window window;
  rlobs::SpanTracer* tracer = nullptr;
  SpanAccum* spans = nullptr;
};

// ---- TPC-C ------------------------------------------------------------------

constexpr int kTpccClients = 16;

struct TpccState {
  TpccState(Simulator& s, rlharness::Testbed& b, rlwork::TpccLite& t,
            const CellSpec& sp)
      : sim(s), bed(b), tpcc(t), spec(sp) {}
  Simulator& sim;
  rlharness::Testbed& bed;
  rlwork::TpccLite& tpcc;
  const CellSpec& spec;
  rlfault::DurabilityChecker checker;
  bool stop = false;
  bool done = false;
  Clock::time_point setup_end;
  Clock::time_point window_end;
  TimePoint t0;
  TimePoint t1;
  Cell cell;
};

Task<void> TpccMain(TpccState& st) {
  Cell& cell = st.cell;
  co_await st.bed.Start();
  co_await st.tpcc.LoadInitial(st.bed.db());
  st.setup_end = Clock::now();
  for (int c = 0; c < kTpccClients; ++c) {
    st.sim.Spawn(st.tpcc.RunClient(st.bed.db(), st.spec.first_client + c,
                                   &st.stop, &st.checker));
  }
  co_await st.sim.Sleep(st.spec.window.warmup);
  // bench_common's RunTpcc warmup reset, so a cell with E5's window and
  // client ids reproduces E5's throughput.
  rlwork::TpccLite::Stats& ws = st.tpcc.stats();
  ws.committed.Reset();
  ws.new_orders.Reset();
  ws.lock_aborts.Reset();
  ws.txn_latency.Reset();
  cell.s0 = {Snap(st.bed)};
  st.t0 = st.sim.now();
  co_await st.sim.Sleep(st.spec.window.measure);
  st.t1 = st.sim.now();
  st.window_end = Clock::now();
  cell.s1 = {Snap(st.bed)};
  cell.committed = static_cast<double>(ws.committed.value());
  cell.unresolved = static_cast<double>(ws.lock_aborts.value());
  cell.attempted = cell.committed + cell.unresolved;
  cell.latency = Dist::Of(ws.txn_latency);

  // Correctness: pull the plug under load (E8's plug-pull), recover, and
  // check every acknowledged commit against the recovered database.
  st.bed.CutPower();
  st.stop = true;
  co_await st.sim.Sleep(Duration::Seconds(1));
  const TimePoint restore = st.sim.now();
  try {
    co_await st.bed.RestorePowerAndRecover();
    cell.recovery_ms = (st.sim.now() - restore).ToSecondsF() * 1000.0;
    cell.recovered_records =
        static_cast<double>(st.bed.db().stats().recovered_records.value());
    cell.verdict = co_await st.checker.VerifyAfterRecovery(st.bed.db());
  } catch (const std::exception& e) {
    cell.error = e.what();
  }
  st.done = true;
}

Cell RunTpccCell(rlharness::DiskSetup disks, const CellSpec& spec) {
  const Clock::time_point start = Clock::now();
  Simulator sim(spec.seed);
  sim.set_tracer(spec.tracer);
  rlharness::Testbed bed(
      sim, rlbench::DefaultTestbed(rlharness::DeploymentMode::kRapiLog, disks,
                                   rldb::PostgresLikeProfile()));
  rlwork::TpccLite tpcc(sim, rlbench::DefaultTpcc());
  TpccState st(sim, bed, tpcc, spec);
  sim.Spawn(TpccMain(st), "perfbench-tpcc");
  SliceDriver driver(sim);
  driver.RunUntilDone(st.done);
  sim.set_tracer(nullptr);

  Cell& cell = st.cell;
  cell.setup_s = std::chrono::duration<double>(st.setup_end - start).count();
  cell.wall_s =
      std::chrono::duration<double>(st.window_end - st.setup_end).count();
  cell.total_s = SecondsSince(start);
  cell.events = driver.events();
  cell.peak_roots = driver.peak_roots();
  cell.window_s = (st.t1 - st.t0).ToSecondsF();
  if (spec.tracer != nullptr) {
    spec.spans->Add(*spec.tracer, st.t0, st.t1, 1);
    spec.tracer->Clear();
  }
  return std::move(st.cell);
}

// ---- Fleet 2PC -----------------------------------------------------------------

// bench_e13_fleet's 4-shard, 8-client, 0.60 cross-shard cell.
constexpr size_t kFleetShards = 4;
constexpr int kFleetClients = 8;
constexpr double kFleetCrossRatio = 0.6;

struct FleetState {
  FleetState(Simulator& s, rlharness::FleetTestbed& f,
             rlwork::FleetWorkload& w, const CellSpec& sp)
      : sim(s), fleet(f), work(w), spec(sp), recovered(s) {}
  Simulator& sim;
  rlharness::FleetTestbed& fleet;
  rlwork::FleetWorkload& work;
  const CellSpec& spec;
  rlfault::FleetChecker checker;
  bool stop = false;
  bool done = false;
  Clock::time_point setup_end;
  Clock::time_point window_end;
  TimePoint t0;
  TimePoint t1;
  size_t shards_recovered = 0;
  rlsim::SimEvent recovered;
  Duration recovery = Duration::Zero();
  Cell cell;
};

Task<void> RecoverShardTimed(FleetState& st, size_t i, TimePoint restore) {
  try {
    co_await st.fleet.RecoverShard(i);
  } catch (const std::exception& e) {
    st.cell.error = e.what();
  }
  st.recovery = std::max(st.recovery, st.sim.now() - restore);
  if (++st.shards_recovered == st.fleet.shard_count()) {
    st.recovered.Set();
  }
}

std::vector<BedSnap> SnapShards(rlharness::FleetTestbed& fleet) {
  std::vector<BedSnap> snaps;
  for (size_t i = 0; i < fleet.shard_count(); ++i) {
    snaps.push_back(Snap(fleet.shard(i)));
  }
  return snaps;
}

Task<void> FleetMain(FleetState& st) {
  Cell& cell = st.cell;
  co_await st.fleet.Start();
  st.setup_end = Clock::now();
  // first_client is a multiple of the shard count, so client homes
  // (id mod shards) are spread as in E13.
  for (int i = 0; i < kFleetClients; ++i) {
    st.sim.Spawn(st.work.RunClient(st.fleet.coordinator(), st.fleet.directory(),
                                   st.spec.first_client + i, &st.stop,
                                   &st.checker));
  }
  co_await st.sim.Sleep(st.spec.window.warmup);
  // bench_e13_fleet's warmup reset.
  rlwork::FleetWorkload::Stats& ws = st.work.stats();
  ws.committed.Reset();
  ws.cross_committed.Reset();
  ws.aborted.Reset();
  ws.unknown.Reset();
  ws.txn_latency.Reset();
  cell.s0 = SnapShards(st.fleet);
  const rlshard::TxnCoordinator::Stats coord0 = st.fleet.coordinator().stats();
  const rlnet::NetworkFabric::Stats net0 = st.fleet.fabric().stats();
  const rlsim::Counter started0 = ws.started;
  st.t0 = st.sim.now();
  co_await st.sim.Sleep(st.spec.window.measure);
  st.t1 = st.sim.now();
  st.window_end = Clock::now();
  cell.s1 = SnapShards(st.fleet);
  const rlshard::TxnCoordinator::Stats& coord1 = st.fleet.coordinator().stats();
  const rlnet::NetworkFabric::Stats& net1 = st.fleet.fabric().stats();
  cell.committed = static_cast<double>(ws.committed.value());
  cell.attempted = Delta(started0, ws.started);
  cell.unresolved = static_cast<double>(ws.aborted.value() + ws.unknown.value());
  cell.cross_committed = static_cast<double>(ws.cross_committed.value());
  cell.latency = Dist::Of(ws.txn_latency);
  cell.net_messages = Delta(net0.messages_sent, net1.messages_sent);
  cell.net_bytes = Delta(net0.bytes_sent, net1.bytes_sent);
  cell.net_delivery = WindowDist(net0.delivery_latency, net1.delivery_latency);
  cell.votes_no = Delta(coord0.votes_no, coord1.votes_no);
  cell.vote_timeouts = Delta(coord0.vote_timeouts, coord1.vote_timeouts);
  cell.decision_resends = Delta(coord0.decision_resends, coord1.decision_resends);

  // Correctness: cut every shard's power under load, recover them together,
  // drain in-doubt transactions, and check fleet-wide atomicity.
  st.stop = true;
  for (size_t i = 0; i < st.fleet.shard_count(); ++i) {
    st.fleet.KillShard(i);
  }
  co_await st.sim.Sleep(Duration::Seconds(1));
  const TimePoint restore = st.sim.now();
  for (size_t i = 0; i < st.fleet.shard_count(); ++i) {
    st.sim.Spawn(RecoverShardTimed(st, i, restore), "perfbench-recover");
  }
  co_await st.recovered.Wait();
  cell.recovery_ms = st.recovery.ToSecondsF() * 1000.0;
  std::vector<rldb::Database*> dbs;
  for (size_t i = 0; i < st.fleet.shard_count(); ++i) {
    dbs.push_back(st.fleet.shard_db(i));
    if (dbs.back() == nullptr) {
      cell.error = "shard " + std::to_string(i) + " did not recover";
    }
  }
  if (cell.error.empty()) {
    for (rldb::Database* db : dbs) {
      cell.recovered_records +=
          static_cast<double>(db->stats().recovered_records.value());
    }
    if (!co_await st.fleet.ResolveAllInDoubt(Duration::Seconds(30))) {
      cell.error = "in-doubt transactions did not drain";
    }
    try {
      cell.verdict =
          co_await st.checker.VerifyAfterRecovery(st.fleet.directory(), dbs);
    } catch (const std::exception& e) {
      cell.error = e.what();
    }
  }
  co_await st.fleet.Shutdown();
  st.done = true;
}

Cell RunFleetCell(const CellSpec& spec) {
  const Clock::time_point start = Clock::now();
  Simulator sim(spec.seed);
  sim.set_tracer(spec.tracer);
  rlharness::FleetOptions fopt;
  fopt.shards = kFleetShards;
  fopt.shard.db.pool_pages = 512;
  fopt.shard.db.journal_pages = 300;
  fopt.shard.db.profile.checkpoint_dirty_pages = 128;
  rlharness::FleetTestbed fleet(sim, fopt);
  rlwork::FleetConfig wcfg;
  wcfg.cross_shard_probability = kFleetCrossRatio;
  rlwork::FleetWorkload work(sim, wcfg);
  FleetState st(sim, fleet, work, spec);
  sim.Spawn(FleetMain(st), "perfbench-fleet");
  SliceDriver driver(sim);
  driver.RunUntilDone(st.done);
  sim.set_tracer(nullptr);

  Cell& cell = st.cell;
  cell.setup_s = std::chrono::duration<double>(st.setup_end - start).count();
  cell.wall_s =
      std::chrono::duration<double>(st.window_end - st.setup_end).count();
  cell.total_s = SecondsSince(start);
  cell.events = driver.events();
  cell.peak_roots = driver.peak_roots();
  cell.window_s = (st.t1 - st.t0).ToSecondsF();
  if (spec.tracer != nullptr) {
    spec.spans->Add(*spec.tracer, st.t0, st.t1, kFleetShards);
    spec.tracer->Clear();
  }
  return std::move(st.cell);
}

// ---- One pass: every cell of the run, reduced ------------------------------------

struct Pass {
  std::vector<double> setup_s;  // per cell
  double wall_s = 0;            // host: summed over cells
  double total_s = 0;           // host: summed over cells
  uint64_t events = 0;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  bool oracles_ok = true;
  std::string verdict;
  // Deterministic (virtual-time) results; the digest covers exactly these.
  Metrics virt;   // end-to-end virtual metrics
  // Virtual results printed beside them but not reported as metrics:
  // failed_frac travels as the result's attempted/failed (it can be 0);
  // TPC-C's p99 sits on the knee between commit-wait latencies (~15 ms) and
  // lock-convoy latencies (~0.45 s), so it swings 2x from seed to seed; and
  // TPC-C's recovery time swings by a third with the state the cut finds
  // (it is reported per layer as db.recovery_ms).
  Metrics shown;
  Metrics layer;  // per-layer counts, ratios and latency quantiles
  // Only from a traced pass.
  Metrics spans;
  std::map<std::string, std::map<std::string, double>> critical_path;
  // Chaos only: the explorer's corpus hashes of the classic and fleet ranges.
  std::vector<uint64_t> chaos_corpus;

  std::string Digest() const {
    char buf[40];
    if (chaos_corpus.size() == 2) {
      std::snprintf(buf, sizeof(buf), "%016" PRIx64 "/%016" PRIx64,
                    chaos_corpus[0], chaos_corpus[1]);
      return buf;
    }
    std::string text = "attempted=" + std::to_string(attempted) +
                       " failed=" + std::to_string(failed) +
                       " events=" + std::to_string(events) + " " + verdict +
                       "\n";
    for (const Metrics* m : {&virt, &shown, &layer}) {
      for (const Metric& x : m->list()) {
        text += x.name + "=" + JsonNumber(x.value) + "\n";
      }
    }
    std::snprintf(buf, sizeof(buf), "%016" PRIx64, Fnv1a(text));
    return buf;
  }
};

Pass ReduceCells(const std::vector<Cell>& cells) {
  Pass p;
  double window_s = 0, committed = 0, attempted = 0, unresolved = 0;
  double recovery_ms = 0, recovered = 0, keys_checked = 0, recoveries = 0;
  double cross = 0, net_messages = 0, net_bytes = 0, votes_no = 0,
         vote_timeouts = 0, decision_resends = 0;
  uint64_t lost = 0, atomicity = 0;
  size_t peak_roots = 0;
  Dist latency, net_delivery;
  std::vector<BedSnap> s0, s1;
  for (const Cell& c : cells) {
    p.setup_s.push_back(c.setup_s);
    p.wall_s += c.wall_s;
    p.total_s += c.total_s;
    p.events += c.events;
    peak_roots = std::max(peak_roots, c.peak_roots);
    window_s += c.window_s;
    committed += c.committed;
    attempted += c.attempted;
    unresolved += c.unresolved;
    latency.Add(c.latency);
    recovery_ms += c.recovery_ms;
    recovered += c.recovered_records;
    keys_checked += static_cast<double>(c.verdict.keys_checked);
    lost += c.verdict.lost_writes;
    atomicity += c.verdict.atomicity_violations;
    recoveries += c.error.empty() ? 1 : 0;
    if (!c.error.empty() || !c.verdict.ok()) {
      p.oracles_ok = false;
      p.verdict += "cell " + std::to_string(&c - cells.data()) + ": " +
                   (c.error.empty() ? c.verdict.Summary() : c.error) + "; ";
    }
    s0.insert(s0.end(), c.s0.begin(), c.s0.end());
    s1.insert(s1.end(), c.s1.begin(), c.s1.end());
    cross += c.cross_committed;
    net_messages += c.net_messages;
    net_bytes += c.net_bytes;
    net_delivery.Add(c.net_delivery);
    votes_no += c.votes_no;
    vote_timeouts += c.vote_timeouts;
    decision_resends += c.decision_resends;
  }
  const double n = static_cast<double>(cells.size());
  p.attempted = static_cast<uint64_t>(attempted);
  p.failed = static_cast<uint64_t>(unresolved) + lost + atomicity;
  if (p.oracles_ok) {
    p.verdict = "checked=" + JsonNumber(keys_checked) + " lost=0 atomicity=0";
  }

  p.virt.Add("txn_per_s", Ratio(committed, window_s), "txn/s");
  p.virt.Add("txn_p50_us", latency.Percentile(50) / 1000.0, "us");
  p.virt.Add("txn_p90_us", latency.Percentile(90) / 1000.0, "us");
  p.shown.Add("txn_p99_us", latency.Percentile(99) / 1000.0, "us");
  p.shown.Add("recovery_ms", recovery_ms / n, "ms");
  p.shown.Add("failed_frac",
              Ratio(static_cast<double>(p.failed),
                    static_cast<double>(p.attempted)),
              "fraction");
  p.shown.Add("workload.commits", committed, "count");

  const auto us = [](const Dist& d, double q) { return d.Percentile(q) / 1000.0; };
  double wal_records = 0, flush_cycles = 0, wal_bytes = 0, db_commits = 0;
  double fetches = 0, hits = 0, page_reads = 0, lock_waits = 0,
         lock_timeouts = 0, vlog_requests = 0, acked = 0, absorbed = 0;
  double log_writes = 0, log_flushes = 0, data_reads = 0, data_writes = 0,
         destaged = 0;
  Dist commit_wait, lock_wait, vlog_latency, ack, occupancy, log_write,
      log_flush, data_read;
  for (size_t i = 0; i < s0.size(); ++i) {
    const BedSnap& a = s0[i];
    const BedSnap& b = s1[i];
    wal_records += Delta(a.wal.records_appended, b.wal.records_appended);
    flush_cycles += Delta(a.wal.flush_cycles, b.wal.flush_cycles);
    wal_bytes += Delta(a.wal.bytes_written, b.wal.bytes_written);
    db_commits += Delta(a.db.commits, b.db.commits);
    fetches += Delta(a.pool.fetches, b.pool.fetches);
    hits += Delta(a.pool.hits, b.pool.hits);
    page_reads += Delta(a.pool.page_reads, b.pool.page_reads);
    lock_waits += Delta(a.locks.waits, b.locks.waits);
    lock_timeouts += Delta(a.locks.timeouts, b.locks.timeouts);
    vlog_requests += Delta(a.vlog.reads, b.vlog.reads) +
                     Delta(a.vlog.writes, b.vlog.writes) +
                     Delta(a.vlog.flushes, b.vlog.flushes);
    acked += Delta(a.rapi.acked_writes, b.rapi.acked_writes);
    absorbed += Delta(a.rapi.absorbed_writes, b.rapi.absorbed_writes);
    log_writes += Delta(a.log_disk.writes, b.log_disk.writes);
    log_flushes += Delta(a.log_disk.flushes, b.log_disk.flushes);
    data_reads += Delta(a.data_disk.reads, b.data_disk.reads);
    data_writes += Delta(a.data_disk.writes, b.data_disk.writes);
    destaged +=
        Delta(a.data_disk.destaged_sectors, b.data_disk.destaged_sectors);
    if (!a.shared_spindle) {
      destaged +=
          Delta(a.log_disk.destaged_sectors, b.log_disk.destaged_sectors);
    }
    commit_wait.Add(WindowDist(a.wal.commit_wait, b.wal.commit_wait));
    lock_wait.Add(WindowDist(a.locks.wait_time, b.locks.wait_time));
    vlog_latency.Add(
        WindowDist(a.vlog.request_latency, b.vlog.request_latency));
    ack.Add(WindowDist(a.rapi.ack_latency, b.rapi.ack_latency));
    occupancy.Add(
        WindowDist(a.rapi.buffer_occupancy, b.rapi.buffer_occupancy));
    log_write.Add(
        WindowDist(a.log_disk.write_latency, b.log_disk.write_latency));
    log_flush.Add(
        WindowDist(a.log_disk.flush_latency, b.log_disk.flush_latency));
    data_read.Add(
        WindowDist(a.data_disk.read_latency, b.data_disk.read_latency));
  }
  Metrics& m = p.layer;
  m.Add("sim.peak_live_roots", static_cast<double>(peak_roots), "count");
  m.Add("db.wal.records_per_flush", Ratio(wal_records, flush_cycles), "count");
  m.Add("db.wal.bytes_per_commit", Ratio(wal_bytes, db_commits), "bytes");
  m.Add("db.wal.commit_wait_p50_us", us(commit_wait, 50), "us");
  m.Add("db.wal.commit_wait_p99_us", us(commit_wait, 99), "us");
  m.Add("db.pool.hit_ratio", Ratio(hits, fetches), "ratio");
  m.Add("db.pool.page_reads", page_reads, "count");
  m.Add("db.locks.waits", lock_waits, "count");
  m.Add("db.locks.wait_p99_us", us(lock_wait, 99), "us");
  m.Add("db.locks.timeouts", lock_timeouts, "count");
  m.Add("db.recovered_records", recovered, "count");
  m.Add("db.recovery_ms", recovery_ms / n, "ms");
  m.Add("vmm.log.requests", vlog_requests, "count");
  m.Add("vmm.log.request_p50_us", us(vlog_latency, 50), "us");
  m.Add("vmm.log.request_p99_us", us(vlog_latency, 99), "us");
  m.Add("rapilog.ack_p50_us", us(ack, 50), "us");
  m.Add("rapilog.ack_p99_us", us(ack, 99), "us");
  m.Add("rapilog.buffer_occupancy_p99_bytes", occupancy.Percentile(99),
        "bytes");
  m.Add("rapilog.absorbed_ratio", Ratio(absorbed, acked), "ratio");
  m.Add("storage.log.writes", log_writes, "count");
  m.Add("storage.log.flushes", log_flushes, "count");
  m.Add("storage.log.write_p50_us", us(log_write, 50), "us");
  m.Add("storage.log.flush_p50_us", us(log_flush, 50), "us");
  m.Add("storage.data.reads", data_reads, "count");
  m.Add("storage.data.read_p50_us", us(data_read, 50), "us");
  m.Add("storage.data.writes", data_writes, "count");
  m.Add("storage.destaged_sectors", destaged, "count");
  m.Add("net.messages_per_txn", Ratio(net_messages, committed), "count");
  m.Add("net.bytes_per_txn", Ratio(net_bytes, committed), "bytes");
  m.Add("net.delivery_p50_us", us(net_delivery, 50), "us");
  m.Add("shard.cross_frac", Ratio(cross, committed), "fraction");
  m.Add("shard.votes_no", votes_no, "count");
  m.Add("shard.vote_timeouts", vote_timeouts, "count");
  m.Add("shard.decision_resends", decision_resends, "count");
  m.Add("faults.recoveries", recoveries, "count");
  m.Add("faults.keys_checked", keys_checked, "count");
  return p;
}

// ---- Chaos -------------------------------------------------------------------

// Classic episodes start at the seed, so the default seed 42 covers episode
// seeds 42..105 and with them seed 105, the known guard-on durability loss.
constexpr uint64_t kClassicEpisodes = 64;
constexpr uint64_t kFleetEpisodes = 24;
constexpr size_t kChaosFleetShards = 3;

Pass RunChaosPass(uint64_t seed, rlobs::SpanTracer* tracer) {
  std::vector<rlchaos::EpisodeConfig> cfgs;
  const rlchaos::GeneratorOptions classic;
  for (uint64_t i = 0; i < kClassicEpisodes; ++i) {
    cfgs.push_back(rlchaos::GenerateEpisode(seed + i, classic));
  }
  rlchaos::GeneratorOptions fleet;
  fleet.fleet_shards = kChaosFleetShards;
  for (uint64_t i = 0; i < kFleetEpisodes; ++i) {
    cfgs.push_back(rlchaos::GenerateEpisode(seed + i, fleet));
  }
  rlchaos::RunOptions run;
  run.sink = tracer;

  Pass p;
  p.chaos_corpus = {kFnvOffset, kFnvOffset};
  double committed = 0, virtual_s = 0, recoveries = 0, keys_checked = 0,
         equiv_checks = 0, quorum_ns = 0, quorum_spans = 0, span_count = 0;
  std::vector<double> episode_ms;
  for (const rlchaos::EpisodeConfig& cfg : cfgs) {
    const Clock::time_point t = Clock::now();
    const rlchaos::EpisodeOutcome out = rlchaos::RunEpisode(cfg, run);
    episode_ms.push_back(SecondsSince(t) * 1000.0);
    uint64_t& corpus = p.chaos_corpus[cfg.fleet_shards > 0 ? 1 : 0];
    corpus = FnvMix(corpus, out.Hash());
    committed += static_cast<double>(out.committed);
    virtual_s += static_cast<double>(out.end_time_ns) / 1e9;
    recoveries += static_cast<double>(out.recoveries);
    keys_checked += static_cast<double>(out.keys_checked);
    equiv_checks += static_cast<double>(out.recovery_equiv_checks);
    ++p.attempted;
    if (!out.ok()) {
      ++p.failed;
      p.verdict += (cfg.fleet_shards > 0 ? "fleet seed " : "seed ") +
                   std::to_string(cfg.seed) + ": " + out.violations.front() +
                   "; ";
    }
    if (tracer != nullptr) {
      const std::vector<rlobs::SpanNode> spans = rlobs::CollectSpans(*tracer);
      for (const rlobs::SpanNode& s : spans) {
        if (s.kind == "quorum-wait") {
          quorum_ns += static_cast<double>(s.end_ns - s.begin_ns);
          ++quorum_spans;
        }
      }
      span_count += static_cast<double>(spans.size());
      tracer->Clear();
    }
  }
  for (const double ms : episode_ms) {
    p.wall_s += ms / 1000.0;
  }
  p.total_s = p.wall_s;
  p.oracles_ok = p.failed == 0;
  p.verdict = std::to_string(p.failed) + "/" + std::to_string(p.attempted) +
              " episodes violated; " + p.verdict;
  p.virt.Add("txn_per_s", Ratio(committed, virtual_s), "txn/s");
  p.virt.Add("failed_frac",
             Ratio(static_cast<double>(p.failed), static_cast<double>(p.attempted)),
             "fraction");
  p.layer.Add("faults.recoveries", recoveries, "count");
  p.layer.Add("faults.keys_checked", keys_checked, "count");
  p.layer.Add("faults.recovery_equiv_checks", equiv_checks, "count");
  if (tracer != nullptr) {
    std::sort(episode_ms.begin(), episode_ms.end());
    p.spans.Add("faults.episode_host_ms_p50",
                episode_ms[episode_ms.size() / 2], "ms");
    p.spans.Add("faults.episode_host_ms_p99",
                episode_ms[std::min(episode_ms.size() - 1,
                                    episode_ms.size() * 99 / 100)],
                "ms");
    p.spans.Add("replica.quorum_wait_ms", Ratio(quorum_ns, quorum_spans) / 1e6,
                "ms");
    p.spans.Add("obs.spans", span_count, "count");
  }
  return p;
}

// ---- Driver ---------------------------------------------------------------------

struct Options {
  std::string workload;
  uint64_t seed = kDefaultSeed;
  double seconds = 10;
  bool trace = false;
  int passes = 0;  // 0 = repeat passes until --seconds have passed
  int cells = 0;   // 0 = the workload's default
  int64_t warmup_ms = -1;
  int64_t measure_ms = -1;
};

// Cells per pass and the measured window. TPC-C's throughput and tail swing
// widely with the client streams (lock-timeout convoys behind the log), so
// its pass pools several client blocks over windows long enough to reach
// steady state; the fleet is steady within one block.
struct WorkloadShape {
  int cells;
  int64_t warmup_ms;
  int64_t measure_ms;
};

WorkloadShape ShapeOf(const Options& o) {
  WorkloadShape s{6, 2000, 10000};
  if (o.workload == "fleet-2pc") {
    s = {2, 400, 2000};
  }
  if (o.cells > 0) {
    s.cells = o.cells;
  }
  if (o.warmup_ms >= 0) {
    s.warmup_ms = o.warmup_ms;
  }
  if (o.measure_ms >= 0) {
    s.measure_ms = o.measure_ms;
  }
  return s;
}

Pass RunPass(const Options& o, rlobs::SpanTracer* tracer) {
  if (o.workload == "chaos") {
    return RunChaosPass(o.seed, tracer);
  }
  const WorkloadShape shape = ShapeOf(o);
  const bool fleet = o.workload == "fleet-2pc";
  SpanAccum spans;
  std::vector<Cell> cells;
  for (int j = 0; j < shape.cells; ++j) {
    CellSpec spec;
    spec.seed = o.seed;
    spec.first_client = FirstClientId(o.seed, shape.cells, j,
                                      fleet ? kFleetClients : kTpccClients);
    spec.window = {Duration::Millis(shape.warmup_ms),
                   Duration::Millis(shape.measure_ms)};
    spec.tracer = tracer;
    spec.spans = &spans;
    if (fleet) {
      cells.push_back(RunFleetCell(spec));
    } else {
      cells.push_back(RunTpccCell(o.workload == "tpcc-hdd"
                                      ? rlharness::DiskSetup::kSharedHdd
                                      : rlharness::DiskSetup::kSsdLog,
                                  spec));
    }
  }
  Pass p = ReduceCells(cells);
  if (tracer != nullptr) {
    spans.Report(p.spans, p.critical_path);
  }
  return p;
}

double PeakRssMib() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

bool ParseArgs(int argc, char** argv, Options& o) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) {
      std::fprintf(stderr, "%s needs a value\n", arg.c_str());
      return false;
    }
    const char* value = argv[++i];
    if (arg == "--workload") {
      o.workload = value;
      continue;
    }
    char* end = nullptr;
    const double number = std::strtod(value, &end);
    if (end == value || *end != '\0' || number < 0) {
      std::fprintf(stderr, "%s wants a non-negative number\n", arg.c_str());
      return false;
    }
    if (arg == "--seed") {
      o.seed = std::strtoull(value, nullptr, 10);
    } else if (arg == "--seconds") {
      o.seconds = number;
    } else if (arg == "--trace") {
      o.trace = number != 0;
    } else if (arg == "--passes") {
      o.passes = static_cast<int>(number);
    } else if (arg == "--cells") {
      o.cells = static_cast<int>(number);
    } else if (arg == "--warmup-ms") {
      o.warmup_ms = static_cast<int64_t>(number);
    } else if (arg == "--measure-ms") {
      o.measure_ms = static_cast<int64_t>(number);
    } else {
      std::fprintf(stderr, "unknown argument: %s\n", arg.c_str());
      return false;
    }
  }
  const std::vector<std::string> known = {"tpcc-hdd", "tpcc-ssd", "fleet-2pc",
                                          "chaos"};
  if (std::find(known.begin(), known.end(), o.workload) == known.end()) {
    std::fprintf(stderr,
                 "--workload wants tpcc-hdd, tpcc-ssd, fleet-2pc or chaos\n");
    return false;
  }
  return true;
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
    }
    out += (c == '\n' ? ' ' : c);
  }
  return out + "\"";
}

void PrintJson(const Options& o, size_t passes, const Pass& first,
               const Pass& last, const Metrics& metrics, bool correct,
               const std::string& digest, const std::string& verdict) {
  std::string out = "{\"workload\":" + JsonString(o.workload) +
                    ",\"seed\":" + std::to_string(o.seed) +
                    ",\"passes\":" + std::to_string(passes) +
                    ",\"correct\":" + (correct ? "true" : "false") +
                    ",\"attempted\":" + std::to_string(first.attempted) +
                    ",\"failed\":" + std::to_string(first.failed) +
                    ",\"digest\":" + JsonString(digest) +
                    ",\"verdict\":" + JsonString(verdict) + ",\"metrics\":{";
  bool comma = false;
  for (const Metric& m : metrics.list()) {
    out += (comma ? "," : "") + JsonString(m.name) + ":{\"value\":" +
           JsonNumber(m.value) + ",\"unit\":" + JsonString(m.unit) + "}";
    comma = true;
  }
  out += "},\"critical_path\":{";
  comma = false;
  for (const auto& [cls, edges] : last.critical_path) {
    out += (comma ? "," : "") + JsonString(cls) + ":{";
    bool inner = false;
    for (const auto& [edge, share] : edges) {
      out += (inner ? "," : "") + JsonString(edge) + ":" + JsonNumber(share);
      inner = true;
    }
    out += "}";
    comma = true;
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
}

int Main(const Options& o) {
  // Untraced passes until the time budget is spent (half of it when a
  // traced pass follows), or exactly --passes of them.
  std::vector<Pass> passes;
  const Clock::time_point start = Clock::now();
  const double budget = o.trace ? o.seconds / 2 : o.seconds;
  do {
    passes.push_back(RunPass(o, nullptr));
  } while (o.passes > 0 ? static_cast<int>(passes.size()) < o.passes
                        : SecondsSince(start) < budget);
  const double rss = PeakRssMib();
  std::optional<rlobs::SpanTracer> tracer;
  if (o.trace) {
    tracer.emplace();
    passes.push_back(RunPass(o, &*tracer));
  }

  const Pass& first = passes.front();
  const std::string digest = first.Digest();
  bool correct = first.oracles_ok;
  std::string verdict = first.verdict;
  for (const Pass& p : passes) {
    if (p.Digest() != digest) {
      correct = false;
      verdict += " pass digest " + p.Digest() + " != " + digest + ";";
    }
  }

  std::vector<double> setup, wall, total;
  for (size_t i = 0; i < passes.size() - (o.trace ? 1 : 0); ++i) {
    setup.insert(setup.end(), passes[i].setup_s.begin(),
                 passes[i].setup_s.end());
    wall.push_back(passes[i].wall_s);
    total.push_back(passes[i].total_s);
  }
  const bool chaos = o.workload == "chaos";
  Metrics metrics;
  if (!o.trace) {
    if (!chaos) {
      metrics.Add("setup_s", Median(setup), "s");
    }
    metrics.Add("wall_s", Median(wall), "s");
    metrics.Add("peak_rss_mib", rss, "MiB");
    metrics.Append(first.virt);
  } else {
    if (!chaos) {
      metrics.Add("sim.events", static_cast<double>(first.events), "count");
      metrics.Add("sim.host_ns_per_event",
                  Median(total) * 1e9 / static_cast<double>(first.events),
                  "ns");
    }
    metrics.Append(first.layer);
    metrics.Append(passes.back().spans);
    metrics.Add("obs.trace_overhead_frac",
                passes.back().total_s / Median(total) - 1.0, "fraction");
  }

  std::printf("workload %s  seed %" PRIu64 "  passes %zu%s\n",
              o.workload.c_str(), o.seed, passes.size(),
              o.trace ? " (last traced)" : "");
  Metrics shown = metrics;
  shown.Append(first.shown);
  for (const Metric& m : shown.list()) {
    std::printf("  %-36s %16.6f %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }
  std::printf("  attempted %" PRIu64 "  failed %" PRIu64 "\n", first.attempted,
              first.failed);
  std::printf("verdict: %s -- %s\n", correct ? "OK" : "VIOLATED",
              verdict.c_str());
  std::printf("digest: %s\n", digest.c_str());
  PrintJson(o, passes.size(), first, passes.back(), metrics, correct, digest,
            verdict);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  Options o;
  if (!ParseArgs(argc, argv, o)) {
    return 2;
  }
  try {
    return Main(o);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
