// Component microbenchmarks (google-benchmark): costs of the simulation
// substrate itself — event dispatch, coroutine wakeups, RNG, CRC, histogram
// recording, kernel IPC round-trips, B+-tree operations.
//
// `bench_micro --json FILE` bypasses google-benchmark and runs a small fixed
// perf suite instead, writing BENCH_perf.json: CRC-32C throughput (the
// table-driven reference, slice-by-8, and the dispatched production path,
// which is the SSE4.2 instruction where the host has it), simulator event
// dispatch rate (pooled heap vs a naive priority_queue<std::function>
// baseline), write-back destage bookkeeping rate, root-task spawn and reap
// rate among thousands of live roots, and chaos-campaign
// wall-clock at --jobs 1 vs --jobs N. These are the numbers later PRs are
// judged against; the suite also cross-checks that the parallel campaign
// reproduces the sequential corpus hash.
#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <queue>
#include <string>

#include "bench/bench_common.h"
#include "src/db/btree.h"
#include "src/db/buffer_pool.h"
#include "src/faults/chaos/chaos_explorer.h"
#include "src/harness/parallel_runner.h"
#include "src/microkernel/kernel.h"
#include "src/sim/crc32.h"
#include "src/sim/rng.h"
#include "src/sim/simulator.h"
#include "src/sim/stats.h"
#include "src/storage/block_device.h"

namespace {

void BM_EventSchedule(benchmark::State& state) {
  rlsim::Simulator sim;
  int sink = 0;
  for (auto _ : state) {
    for (int i = 0; i < 1000; ++i) {
      sim.Schedule(rlsim::Duration::Micros(i), [&sink] { ++sink; });
    }
    sim.Run();
  }
  benchmark::DoNotOptimize(sink);
  state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_EventSchedule);

void BM_CoroutinePingPong(benchmark::State& state) {
  for (auto _ : state) {
    rlsim::Simulator sim;
    sim.Spawn([](rlsim::Simulator& s) -> rlsim::Task<void> {
      for (int i = 0; i < 1000; ++i) {
        co_await s.Sleep(rlsim::Duration::Nanos(1));
      }
    }(sim));
    sim.Run();
  }
  state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_CoroutinePingPong);

void BM_RngNext(benchmark::State& state) {
  rlsim::Rng rng(1);
  uint64_t sink = 0;
  for (auto _ : state) {
    sink ^= rng.Next();
  }
  benchmark::DoNotOptimize(sink);
}
BENCHMARK(BM_RngNext);

void BM_ZipfianNext(benchmark::State& state) {
  rlsim::Rng rng(1);
  rlsim::ZipfianGenerator zipf(1'000'000, 0.99);
  uint64_t sink = 0;
  for (auto _ : state) {
    sink ^= zipf.Next(rng);
  }
  benchmark::DoNotOptimize(sink);
}
BENCHMARK(BM_ZipfianNext);

void BM_Crc32c(benchmark::State& state) {
  std::vector<uint8_t> data(static_cast<size_t>(state.range(0)), 0xAB);
  uint32_t sink = 0;
  for (auto _ : state) {
    sink ^= rlsim::Crc32c(data);
  }
  benchmark::DoNotOptimize(sink);
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_Crc32c)->Arg(512)->Arg(8192);

void BM_HistogramRecord(benchmark::State& state) {
  rlsim::Histogram h;
  int64_t v = 1;
  for (auto _ : state) {
    h.Record(v);
    v = (v * 7) % 1'000'000 + 1;
  }
  benchmark::DoNotOptimize(h.count());
}
BENCHMARK(BM_HistogramRecord);

void BM_KernelIpcRoundTrip(benchmark::State& state) {
  for (auto _ : state) {
    rlsim::Simulator sim;
    rlkern::Kernel kernel(sim);
    const rlkern::ObjectId root = kernel.BootstrapCNode(16);
    kernel.BootstrapUntyped(root, 0, 1 << 16);
    kernel.Retype(rlkern::SlotAddr{root, 0}, root, 1, 1);
    const rlkern::SlotAddr ep{root, 1};
    sim.Spawn([](rlkern::Kernel& k, rlkern::SlotAddr e) -> rlsim::Task<void> {
      for (int i = 0; i < 100; ++i) {
        rlkern::Received got;
        co_await k.Recv(e, &got);
        rlkern::IpcMessage reply;
        k.Reply(got.reply, std::move(reply));
      }
    }(kernel, ep));
    sim.Spawn([](rlkern::Kernel& k, rlkern::SlotAddr e) -> rlsim::Task<void> {
      for (int i = 0; i < 100; ++i) {
        rlkern::IpcMessage msg;
        rlkern::IpcMessage reply;
        co_await k.Call(e, std::move(msg), &reply);
      }
    }(kernel, ep));
    sim.Run();
  }
  state.SetItemsProcessed(state.iterations() * 100);
}
BENCHMARK(BM_KernelIpcRoundTrip);

void BM_BTreePut(benchmark::State& state) {
  for (auto _ : state) {
    rlsim::Simulator sim;
    rlstor::SimBlockDevice dev(
        sim,
        rlstor::SimBlockDevice::Options{.geometry = {.sector_count = 1 << 20}},
        rlstor::MakeDefaultSsd());
    rldb::BufferPool pool(sim, dev, 8192, 4096);
    uint64_t next_free = 1;
    rldb::BTree tree(pool, 96, &next_free);
    sim.Spawn([](rldb::BTree& t) -> rlsim::Task<void> {
      uint64_t root = t.CreateEmpty();
      const std::vector<uint8_t> value(96, 0x11);
      for (uint64_t k = 0; k < 2000; ++k) {
        root = co_await t.Put(root, k * 7919 % 100000, value);
      }
    }(tree));
    sim.Run();
  }
  state.SetItemsProcessed(state.iterations() * 2000);
}
BENCHMARK(BM_BTreePut);

// --- Fixed perf suite (--json) ----------------------------------------------
//
// The suite measures real host time, which is exactly what the simulator
// bans everywhere else; this binary is a host-side measurement tool, not
// part of any simulation.

// simlint: clock-ok (host-side perf measurement tool, outside the sim)
using WallClock = std::chrono::steady_clock;

double SecondsSince(WallClock::time_point t0) {
  return std::chrono::duration<double>(WallClock::now() - t0).count();
}

// MiB/s of `crc` over a 1 MiB pseudo-random buffer, fixed iteration count so
// both implementations see identical input.
double CrcThroughputMibps(uint32_t (*crc)(std::span<const uint8_t>,
                                          uint32_t)) {
  constexpr size_t kBufBytes = 1 << 20;
  constexpr int kWarmup = 4;
  constexpr int kIters = 64;
  std::vector<uint8_t> buf(kBufBytes);
  rlsim::Rng rng(1);
  for (uint8_t& b : buf) {
    b = static_cast<uint8_t>(rng.Next());
  }
  uint32_t sink = 0;
  for (int i = 0; i < kWarmup; ++i) {
    sink ^= crc(buf, sink);
  }
  const WallClock::time_point t0 = WallClock::now();
  for (int i = 0; i < kIters; ++i) {
    sink ^= crc(buf, sink);
  }
  const double secs = SecondsSince(t0);
  benchmark::DoNotOptimize(sink);
  return static_cast<double>(kIters) * kBufBytes / (1 << 20) / secs;
}

// Sectors/sec destaged by a write-back HDD whose full 32 MiB cache drains
// while it is being refilled. Consecutive writes land 256 sectors apart, so
// each destage run gathers sectors from all over the FIFO, and every eighth
// write re-dirties a sector written 4096 writes earlier, which by then has
// usually been gathered. It measures the host cost of the destage
// bookkeeping; the disk model's virtual time does not enter the figure.
double DestageSectorsPerSec() {
  constexpr uint64_t kCacheBytes = 32ull * 1024 * 1024;
  constexpr uint64_t kSectors = kCacheBytes / rlstor::kSectorSize;
  rlsim::Simulator sim;
  rlstor::SimBlockDevice dev(
      sim,
      rlstor::SimBlockDevice::Options{.geometry = {.sector_count = 1 << 22},
                                      .cache_capacity_bytes = kCacheBytes},
      rlstor::MakeDefaultHdd());
  sim.Spawn([](rlstor::SimBlockDevice& d) -> rlsim::Task<void> {
    const std::vector<uint8_t> sector(rlstor::kSectorSize, 0x5A);
    const auto lba_of = [](uint64_t i) {
      return (i % 256) * 256 + (i / 256) % 256 + (i / 65536) * 65536;
    };
    for (uint64_t i = 0; i < 2 * kSectors; ++i) {
      co_await d.Write(lba_of(i), sector, /*fua=*/false);
      if (i % 8 == 0 && i >= 4096) {
        co_await d.Write(lba_of(i - 4096), sector, /*fua=*/false);
      }
    }
    co_await d.Flush();
  }(dev));
  const WallClock::time_point t0 = WallClock::now();
  sim.Run();
  const double secs = SecondsSince(t0);
  return static_cast<double>(dev.stats().destaged_sectors.value()) / secs;
}

// Root tasks/sec spawned and reaped while 5 000 long-lived roots stay
// parked, the shape of a 2PC fleet (one 400 ms vote timeout per
// transaction). Short roots churn through 1 ms RunUntil slices, and
// pending_tasks() is polled after each slice, as a slice-driven harness does.
// Parking is set-up, outside the timed part.
double RootSpawnReapPerSec() {
  constexpr int kRounds = 8;
  constexpr int kParked = 5000;
  constexpr int kSlices = 200;
  constexpr int kPerSlice = 64;
  const auto sleeper = [](rlsim::Simulator& s,
                          rlsim::Duration d) -> rlsim::Task<void> {
    co_await s.Sleep(d);
  };
  double secs = 0;
  size_t pending = 0;
  for (int round = 0; round < kRounds; ++round) {
    rlsim::Simulator sim;
    for (int i = 0; i < kParked; ++i) {
      sim.Spawn(sleeper(sim, rlsim::Duration::Millis(400)));
    }
    const WallClock::time_point t0 = WallClock::now();
    for (int slice = 1; slice <= kSlices; ++slice) {
      for (int i = 0; i < kPerSlice; ++i) {
        sim.Spawn(sleeper(sim, rlsim::Duration::Micros(i * 10)));
      }
      sim.RunUntil(rlsim::TimePoint::Origin() +
                   rlsim::Duration::Millis(slice));
      pending += sim.pending_tasks();
    }
    secs += SecondsSince(t0);
  }
  benchmark::DoNotOptimize(pending);
  return static_cast<double>(kRounds) * kSlices * kPerSlice / secs;
}

constexpr int kEventBatch = 1000;
constexpr int kEventRounds = 200;

// Events/sec through the simulator's pooled binary heap: the BM_EventSchedule
// workload, timed directly.
double PooledEventsPerSec() {
  rlsim::Simulator sim;
  int sink = 0;
  const WallClock::time_point t0 = WallClock::now();
  for (int round = 0; round < kEventRounds; ++round) {
    for (int i = 0; i < kEventBatch; ++i) {
      sim.Schedule(rlsim::Duration::Micros(i), [&sink] { ++sink; });
    }
    sim.Run();
  }
  const double secs = SecondsSince(t0);
  benchmark::DoNotOptimize(sink);
  return static_cast<double>(kEventRounds) * kEventBatch / secs;
}

// The pre-optimisation baseline, reconstructed locally: one heap node per
// event, each holding its std::function by value (so every push allocates
// and every pop moves/destroys one).
struct NaiveEvent {
  int64_t at_nanos;
  uint64_t seq;
  std::function<void()> fn;
};
struct NaiveLater {
  bool operator()(const NaiveEvent& a, const NaiveEvent& b) const {
    if (a.at_nanos != b.at_nanos) return a.at_nanos > b.at_nanos;
    return a.seq > b.seq;
  }
};

double NaiveQueueEventsPerSec() {
  std::priority_queue<NaiveEvent, std::vector<NaiveEvent>, NaiveLater> queue;
  int sink = 0;
  uint64_t seq = 0;
  const WallClock::time_point t0 = WallClock::now();
  for (int round = 0; round < kEventRounds; ++round) {
    for (int i = 0; i < kEventBatch; ++i) {
      queue.push(NaiveEvent{i * 1000, seq++, [&sink] { ++sink; }});
    }
    while (!queue.empty()) {
      // const_cast mirrors what the old simulator did to move the closure
      // out of priority_queue's const top().
      NaiveEvent ev = std::move(const_cast<NaiveEvent&>(queue.top()));
      queue.pop();
      ev.fn();
    }
  }
  const double secs = SecondsSince(t0);
  benchmark::DoNotOptimize(sink);
  return static_cast<double>(kEventRounds) * kEventBatch / secs;
}

struct CampaignTiming {
  double seconds = 0;
  uint64_t corpus_hash = 0;
};

CampaignTiming TimeCampaign(int jobs, uint64_t episodes) {
  rlchaos::ExplorerOptions opts;
  opts.base_seed = 1;
  opts.episodes = episodes;
  opts.jobs = jobs;
  const WallClock::time_point t0 = WallClock::now();
  const rlchaos::ExplorerReport report =
      rlchaos::ChaosExplorer(opts).RunCampaign();
  CampaignTiming out;
  out.seconds = SecondsSince(t0);
  out.corpus_hash = report.corpus_hash;
  return out;
}

int RunPerfSuite(const std::string& json_path, int jobs) {
  const double crc_table = CrcThroughputMibps(&rlsim::Crc32cTableDriven);
  const double crc_slice8 = CrcThroughputMibps(&rlsim::Crc32cSlice8);
  // The dispatched entry point: the SSE4.2 path, or slice-by-8 on a host
  // without it.
  const double crc_hw = CrcThroughputMibps(&rlsim::Crc32c);
  const double pooled_eps = PooledEventsPerSec();
  const double naive_eps = NaiveQueueEventsPerSec();
  const double destage_sps = DestageSectorsPerSec();
  const double root_sps = RootSpawnReapPerSec();

  constexpr uint64_t kCampaignEpisodes = 40;
  const CampaignTiming seq = TimeCampaign(1, kCampaignEpisodes);
  const CampaignTiming par = TimeCampaign(jobs, kCampaignEpisodes);
  if (seq.corpus_hash != par.corpus_hash) {
    std::fprintf(stderr,
                 "FATAL: campaign corpus hash diverged across job counts "
                 "(jobs=1: %016llx, jobs=%d: %016llx)\n",
                 static_cast<unsigned long long>(seq.corpus_hash), jobs,
                 static_cast<unsigned long long>(par.corpus_hash));
    return 1;
  }

  rlbench::BenchJsonWriter writer;
  writer.Add("crc32c_table_mibps", crc_table, "MiB/s");
  writer.Add("crc32c_slice8_mibps", crc_slice8, "MiB/s");
  writer.Add("crc32c_speedup", crc_slice8 / crc_table, "x");
  writer.Add("crc32c_hw_mibps", crc_hw, "MiB/s");
  writer.Add("events_per_sec_pooled", pooled_eps, "events/s");
  writer.Add("events_per_sec_naive_queue", naive_eps, "events/s");
  writer.Add("event_dispatch_speedup", pooled_eps / naive_eps, "x");
  writer.Add("destage_sectors_per_sec", destage_sps, "sectors/s");
  writer.Add("root_spawn_reap_per_sec", root_sps, "tasks/s");
  writer.Add("campaign_40ep_jobs1_sec", seq.seconds, "s");
  writer.Add("campaign_40ep_jobsN_sec", par.seconds, "s");
  writer.Add("campaign_jobs", jobs, "threads");
  writer.Add("campaign_speedup", seq.seconds / par.seconds, "x");
  std::fputs(writer.ToString().c_str(), stdout);
  return writer.WriteFile(json_path) ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  std::string json_path;
  int jobs = 0;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      json_path = argv[++i];
    } else if (std::strcmp(argv[i], "--jobs") == 0 && i + 1 < argc) {
      jobs = static_cast<int>(std::strtol(argv[++i], nullptr, 10));
    }
  }
  if (!json_path.empty()) {
    return RunPerfSuite(json_path, jobs > 0 ? jobs : rlharness::DefaultJobs());
  }
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
