#include "src/faults/chaos/chaos_explorer.h"

#include <algorithm>
#include <cstdarg>
#include <cstdio>
#include <memory>
#include <utility>

#include "src/db/errors.h"
#include "src/faults/durability_checker.h"
#include "src/faults/recovery_oracle.h"
#include "src/harness/parallel_runner.h"
#include "src/obs/flight_recorder.h"
#include "src/sim/check.h"
#include "src/sim/simulator.h"
#include "src/vmm/vm.h"
#include "src/workload/kv_workload.h"

namespace rlchaos {

using rlharness::DeploymentMode;
using rlharness::Testbed;
using rlharness::TestbedOptions;
using rlsim::Duration;
using rlsim::Simulator;
using rlsim::Task;
using rlsim::TimePoint;

namespace {

// --trace (RunOptions::trace) prints each applied event and recovery outcome
// with its virtual timestamp — the first thing to reach for when a shrunken
// schedule needs a human explanation. Printing never affects the episode.
void Trace(bool enabled, const rlsim::Simulator& sim, const char* fmt, ...) {
  if (!enabled) {
    return;
  }
  std::fprintf(stderr, "[chaos %10lld us] ",
               static_cast<long long>(
                   (sim.now() - rlsim::TimePoint::Origin()).nanos() / 1000));
  va_list ap;
  va_start(ap, fmt);
  std::vfprintf(stderr, fmt, ap);
  va_end(ap);
  std::fputc('\n', stderr);
}

constexpr uint64_t kFnvOffset = 1469598103934665603ull;
constexpr uint64_t kFnvPrime = 1099511628211ull;

uint64_t FnvMix(uint64_t h, uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (i * 8)) & 0xff;
    h *= kFnvPrime;
  }
  return h;
}

// Everything one episode's coroutines share. Lives on RunEpisode's stack and
// outlives the simulator run.
struct EpisodeState {
  Simulator& sim;
  Testbed& bed;
  rlwork::KvWorkload& kv;
  const EpisodeConfig& cfg;
  const RunOptions& run;
  EpisodeOutcome& out;
  rlfault::DurabilityChecker checker;
  // Stop flag of the currently running client fleet; replaced (and the old
  // one latched true) whenever a recovery spawns a fresh fleet.
  std::shared_ptr<bool> stop;
  bool recovering = false;
  int next_client_id = 0;
  rlsim::WaitQueue rec_done;

  EpisodeState(Simulator& s, Testbed& b, rlwork::KvWorkload& k,
               const EpisodeConfig& c, const RunOptions& r, EpisodeOutcome& o)
      : sim(s), bed(b), kv(k), cfg(c), run(r), out(o),
        stop(std::make_shared<bool>(true)), rec_done(s) {}
};

// RunClient already absorbs machine deaths (EngineHalted, GuestCrashed).
// Under data-disk fault injection a torn in-place page can additionally trip
// a page-validity RL_CHECK on a live fetch; the engine's response to media
// corruption is fail-stop, so the chaos harness treats CheckFailure from a
// client like a machine death — the post-recovery oracles (journal replay
// repairs the page) are the arbiters of whether data actually survived.
Task<void> ClientTask(EpisodeState& st, int id, std::shared_ptr<bool> stop) {
  try {
    co_await st.kv.RunClient(st.bed.db(), id, stop.get(), &st.checker);
  } catch (const rlsim::CheckFailure&) {
    ++st.out.check_failures;
  }
}

void SpawnClients(EpisodeState& st) {
  st.stop = std::make_shared<bool>(false);
  for (int c = 0; c < 4; ++c) {
    st.sim.Spawn(ClientTask(st, st.next_client_id++, st.stop));
  }
}

// Post-recovery oracles: the durability checker's model against the
// recovered store, then the B-tree structural walk. Runs after EVERY
// successful recovery (not just the final one) so in-flight commits are
// resolved against the store that actually recovered them.
Task<void> RunOracles(EpisodeState& st, const std::string& when) {
  if (!st.bed.db_open()) {
    co_return;
  }
  bool verified = false;
  try {
    const rlfault::VerifyResult v =
        co_await st.checker.VerifyAfterRecovery(st.bed.db());
    st.out.keys_checked += v.keys_checked;
    st.out.lost_writes += v.lost_writes;
    st.out.atomicity_violations += v.atomicity_violations;
    st.out.promoted_pending += v.promoted_pending;
    if (!v.ok()) {
      st.out.violations.push_back(when + ": " + v.Summary());
    }
    verified = true;
  } catch (...) {
    // The machine died again mid-verification — inconclusive, not a
    // verdict. A later recovery re-checks the (partially resolved) model.
  }
  if (verified) {
    try {
      co_await st.bed.db().CheckTreeStructure();
    } catch (const rlsim::CheckFailure& e) {
      st.out.violations.push_back(when + ": tree invariant: " + e.what());
    } catch (...) {
      // Died mid-walk: inconclusive.
    }
  }
}

Task<void> PowerRecoveryTask(EpisodeState& st) {
  st.recovering = true;
  *st.stop = true;
  bool ok = false;
  try {
    co_await st.bed.RestorePowerAndRecover();
    ok = true;
  } catch (...) {
    // A fault landed on the recovery itself (mid-recovery cut, disk fault
    // during the journal replay). The database stays closed; a later
    // power-restore event — or the episode's final normalisation — retries.
  }
  Trace(st.run.trace, st.sim, "power recovery %s",
        ok ? "succeeded" : "failed");
  st.sim.EmitTrace("chaos", ok ? "power-recovery-ok" : "power-recovery-failed",
                   0);
  if (ok) {
    ++st.out.recoveries;
    co_await RunOracles(st, "after power recovery");
    SpawnClients(st);
  }
  st.recovering = false;
  st.rec_done.NotifyAll();
}

Task<void> GuestRecoveryTask(EpisodeState& st) {
  st.recovering = true;
  *st.stop = true;
  bool ok = false;
  try {
    co_await st.bed.RecoverAfterGuestCrash();
    ok = true;
  } catch (...) {
  }
  if (ok) {
    ++st.out.recoveries;
    co_await RunOracles(st, "after guest recovery");
    SpawnClients(st);
  }
  st.recovering = false;
  st.rec_done.NotifyAll();
}

// Applies one schedule event, guarded against states where it cannot apply
// (so shrinking — which drops events — can never build a nonsense schedule).
void ApplyEvent(EpisodeState& st, const FaultEvent& e) {
  Testbed& bed = st.bed;
  const bool has_replicas = bed.replica_count() > 0;
  Trace(st.run.trace, st.sim,
        "event %s arg=%u (mains=%d db_open=%d recovering=%d)",
        ToString(e.kind).c_str(), e.arg, bed.psu().mains_on() ? 1 : 0,
        bed.db_open() ? 1 : 0, st.recovering ? 1 : 0);
  st.sim.EmitTrace("chaos", ToString(e.kind), e.arg);
  switch (e.kind) {
    case FaultKind::kPowerCut:
      if (bed.psu().mains_on()) {
        bed.CutPower();
        *st.stop = true;
      }
      break;
    case FaultKind::kPowerRestore:
      // Also fires as a retry when a previous recovery died with mains up.
      if (!st.recovering && (!bed.psu().mains_on() || !bed.db_open())) {
        st.sim.Spawn(PowerRecoveryTask(st));
      }
      break;
    case FaultKind::kGuestCrash:
      if (bed.vm() != nullptr && bed.vm()->running() && !st.recovering) {
        bed.CrashGuest();
        *st.stop = true;
      }
      break;
    case FaultKind::kGuestRecover:
      if (bed.vm() != nullptr && !bed.vm()->running() &&
          bed.psu().mains_on() && !st.recovering) {
        st.sim.Spawn(GuestRecoveryTask(st));
      }
      break;
    case FaultKind::kLogDiskFault:
      bed.InjectLogDiskWriteFaults(e.arg);
      break;
    case FaultKind::kDataDiskFault:
      bed.InjectDataDiskWriteFaults(e.arg);
      break;
    case FaultKind::kPartitionReplica:
      if (has_replicas && e.arg < bed.replica_count()) {
        bed.PartitionReplica(e.arg);
      }
      break;
    case FaultKind::kHealReplica:
      if (has_replicas && e.arg < bed.replica_count()) {
        bed.HealReplica(e.arg);
      }
      break;
    case FaultKind::kKillReplica:
      if (has_replicas && e.arg < bed.replica_count()) {
        bed.KillReplica(e.arg);
      }
      break;
    case FaultKind::kReviveReplica:
      if (has_replicas && e.arg < bed.replica_count()) {
        bed.ReviveReplica(e.arg);
      }
      break;
    case FaultKind::kLinkDegrade:
      if (has_replicas && e.arg < bed.replica_count()) {
        bed.SetReplicaLinkLoss(e.arg, 0.2);
      }
      break;
    case FaultKind::kLinkRestore:
      if (has_replicas && e.arg < bed.replica_count()) {
        bed.SetReplicaLinkLoss(e.arg, 0.0);
      }
      break;
    case FaultKind::kKillShard:
    case FaultKind::kRecoverShard:
    case FaultKind::kPartitionShard:
    case FaultKind::kHealShard:
    case FaultKind::kKillCoordinator:
    case FaultKind::kRecoverCoordinator:
      // Fleet kinds: meaningless on a single testbed (see fleet_episode.cc).
      break;
  }
}

Task<void> EpisodeMain(EpisodeState& st) {
  Simulator& sim = st.sim;
  Testbed& bed = st.bed;
  try {
    co_await bed.Start();
    co_await st.kv.Load(bed.db(), 300);
  } catch (...) {
    st.out.violations.push_back("startup failed before any fault");
    co_return;
  }
  SpawnClients(st);

  // Event times are relative to workload start (now), inside [0, run_us].
  const TimePoint start = sim.now();
  for (const FaultEvent& e : st.cfg.events) {
    const TimePoint due = start + Duration::Micros(e.at_us);
    if (due > sim.now()) {
      co_await sim.Sleep(due - sim.now());
    }
    ApplyEvent(st, e);
  }
  const TimePoint horizon = start + Duration::Micros(st.cfg.run_us);
  if (horizon > sim.now()) {
    co_await sim.Sleep(horizon - sim.now());
  }

  // Wind down: stop the current fleet, let any in-flight recovery finish
  // (it may spawn one more fleet — stop that one too).
  *st.stop = true;
  while (st.recovering) {
    co_await st.rec_done.Wait();
  }
  *st.stop = true;

  // Final normalisation: every episode ends with the paper's plug-pull. If
  // the schedule already left the mains out, the episode's own cut stands.
  Trace(st.run.trace, sim, "wind-down (mains=%d db_open=%d)",
        bed.psu().mains_on() ? 1 : 0, bed.db_open() ? 1 : 0);
  sim.EmitTrace("chaos", "wind-down", 0);
  if (bed.psu().mains_on()) {
    bed.CutPower();
  }
  // Frames already on the wire drain into the replicas; devices settle.
  co_await sim.Sleep(Duration::Seconds(1));

  // Freeze the crash state for the recovery-equivalence oracle before the
  // testbed's own recovery (checkpoints, meta flips) mutates the images.
  const rlstor::DiskImage data_snapshot = bed.data_disk().image();
  const rlstor::DiskImage log_snapshot = bed.log_disk_physical().image();

  for (size_t r = 0; r < bed.replica_count(); ++r) {
    bed.ReviveReplica(r);
  }

  // Replication oracle, against the quorum cursor frozen at the cut.
  if (bed.replica_count() > 0) {
    std::vector<const rlrep::ReplicaNode*> replicas;
    replicas.reserve(bed.replica_count());
    for (size_t r = 0; r < bed.replica_count(); ++r) {
      replicas.push_back(&bed.replica(r));
    }
    const rlfault::QuorumAudit audit =
        rlfault::AuditQuorumDurability(*bed.shipper(), replicas);
    st.out.audit_sectors_expected = audit.sectors_expected;
    st.out.audit_sectors_underreplicated = audit.sectors_underreplicated;
    if (!audit.ok()) {
      st.out.violations.push_back("replication: " + audit.Summary());
    }
  }

  // Final recovery; a few attempts in case the tail of the schedule left
  // armed faults or a half-open engine behind.
  bool recovered = false;
  for (int attempt = 0; attempt < 5 && !recovered; ++attempt) {
    try {
      if (st.cfg.restore_from_replica) {
        co_await bed.RestorePowerAndRecoverFromReplica();
      } else {
        co_await bed.RestorePowerAndRecover();
      }
      recovered = true;
    } catch (...) {
      // Retry after a settle delay (below; co_await is illegal in a handler).
    }
    if (!recovered) {
      co_await sim.Sleep(Duration::Millis(200));
    }
  }
  if (!recovered) {
    st.out.violations.push_back("final recovery failed after 5 attempts");
    co_return;
  }
  ++st.out.recoveries;
  co_await RunOracles(st, "final");

  // Recovery-time oracle: recover the frozen crash state on throwaway
  // device clones with sequential and with partitioned redo; the contents,
  // in-doubt set, and replay-work counters must be identical, and both
  // recoveries must land inside the virtual-time budget.
  try {
    rlfault::RecoveryOracleOptions ropts;
    ropts.db = bed.options().db;
    ropts.partitions = 8;
    ropts.data_first_lba = bed.data_first_lba();
    ropts.log_sector_count = bed.log_sector_count();
    const rlfault::RecoveryEquivalence eq =
        co_await rlfault::CheckRecoveryEquivalence(sim, data_snapshot,
                                                   log_snapshot, ropts);
    ++st.out.recovery_equiv_checks;
    if (!eq.equivalent()) {
      ++st.out.recovery_equiv_mismatches;
      st.out.violations.push_back("recovery equivalence: " + eq.Summary());
    }
    if (!eq.within_budget(ropts.budget)) {
      st.out.violations.push_back("recovery budget exceeded: " +
                                  eq.Summary());
    }
    Trace(st.run.trace, sim, "recovery-equivalence %s", eq.Summary().c_str());
  } catch (...) {
    st.out.violations.push_back(
        "recovery-equivalence probe died on the crash images");
  }

  // RapiLog's contract: with the power guard on, the emergency flush drains
  // the buffer inside the hold-up window — buffered-ack loss is a violation.
  // With the guard ablated, loss is the EXPECTED planted failure.
  if (bed.rapilog() != nullptr && st.cfg.power_guard &&
      bed.rapilog()->lost_data()) {
    st.out.violations.push_back("rapilog lost buffered data despite guard");
  }
}

}  // namespace

uint64_t EpisodeOutcome::Hash() const {
  uint64_t h = kFnvOffset;
  h = FnvMix(h, committed);
  h = FnvMix(h, machine_deaths);
  h = FnvMix(h, check_failures);
  h = FnvMix(h, recoveries);
  h = FnvMix(h, keys_checked);
  h = FnvMix(h, lost_writes);
  h = FnvMix(h, atomicity_violations);
  h = FnvMix(h, promoted_pending);
  h = FnvMix(h, audit_sectors_expected);
  h = FnvMix(h, audit_sectors_underreplicated);
  h = FnvMix(h, fleet_cross_committed);
  h = FnvMix(h, fleet_unknown_outcomes);
  h = FnvMix(h, recovery_equiv_checks);
  h = FnvMix(h, recovery_equiv_mismatches);
  h = FnvMix(h, static_cast<uint64_t>(end_time_ns));
  h = FnvMix(h, violations.size());
  return h;
}

std::string EpisodeOutcome::Summary() const {
  char buf[256];
  std::snprintf(
      buf, sizeof(buf),
      "committed=%llu deaths=%llu recoveries=%llu checked=%llu lost=%llu "
      "atomicity=%llu promoted=%llu violations=%zu hash=%016llx",
      static_cast<unsigned long long>(committed),
      static_cast<unsigned long long>(machine_deaths + check_failures),
      static_cast<unsigned long long>(recoveries),
      static_cast<unsigned long long>(keys_checked),
      static_cast<unsigned long long>(lost_writes),
      static_cast<unsigned long long>(atomicity_violations),
      static_cast<unsigned long long>(promoted_pending), violations.size(),
      static_cast<unsigned long long>(Hash()));
  return buf;
}

EpisodeOutcome RunEpisode(const EpisodeConfig& cfg, const RunOptions& run) {
  if (cfg.fleet_shards > 0) {
    return RunFleetEpisode(cfg, run);
  }
  EpisodeOutcome out;
  Simulator sim(cfg.seed);
  // Every episode flies with a recorder armed: a bounded ring of recent
  // trace events, episode-local (so jobs>1 campaigns stay data-race-free),
  // teed in front of any caller-supplied sink. Purely passive — the
  // simulation is bit-identical with or without it.
  rlobs::FlightRecorder flight(512);
  rlobs::TeeSink tee(&flight, run.sink);
  sim.set_tracer(&tee);

  TestbedOptions opts;
  opts.mode = cfg.mode;
  opts.disks = cfg.disks;
  opts.db.pool_pages = 512;
  opts.db.journal_pages = 300;
  opts.db.profile.checkpoint_dirty_pages = 128;
  // Chaos-kill recoveries run partitioned redo; the recovery-equivalence
  // oracle at wind-down cross-checks it against sequential replay.
  opts.db.recovery.partitions = 8;
  opts.rapilog.enable_power_guard = cfg.power_guard;
  if (cfg.replicas > 0) {
    opts.replication.enabled = true;
    opts.replication.replicas = cfg.replicas;
    opts.replication.shipper.mode = cfg.ship_mode;
  }
  Testbed bed(sim, opts);

  rlwork::KvConfig kv_cfg;
  kv_cfg.key_space = 1000;
  kv_cfg.write_fraction = 0.6;
  rlwork::KvWorkload kv(sim, kv_cfg);

  EpisodeState st(sim, bed, kv, cfg, run, out);
  sim.Spawn(EpisodeMain(st));
  sim.Run();

  out.committed = static_cast<uint64_t>(kv.stats().committed.value());
  out.machine_deaths =
      static_cast<uint64_t>(kv.stats().machine_deaths.value());
  out.end_time_ns = (sim.now() - TimePoint::Origin()).nanos();
  sim.set_tracer(nullptr);
  if (!out.violations.empty()) {
    out.flight_dump = flight.Dump();
  }
  return out;
}

rlharness::DivergenceReport AuditEpisodeDivergence(const EpisodeConfig& cfg,
                                                   int jobs) {
  const rlharness::DivergenceAuditor auditor;
  return auditor.RunTwice(
      [&cfg](rlsim::TraceEventSink& sink) {
        RunOptions run;
        run.sink = &sink;
        RunEpisode(cfg, run);
      },
      jobs);
}

ShrinkResult Shrink(const EpisodeConfig& failing, int budget) {
  ShrinkResult res;
  res.minimal = failing;
  res.outcome = RunEpisode(failing);
  res.replays_used = 1;
  if (res.outcome.ok()) {
    return res;  // not actually failing; nothing to shrink
  }

  // "Still failing" = any oracle violation, not necessarily the same string:
  // the minimal schedule for the underlying defect is what we are after.
  const auto still_fails = [&res, budget](const EpisodeConfig& cand,
                                          EpisodeOutcome* out) {
    if (res.replays_used >= budget) {
      return false;
    }
    ++res.replays_used;
    *out = RunEpisode(cand);
    return !out->ok();
  };

  // Pass 1: ddmin over the event list.
  size_t chunk = std::max<size_t>(1, res.minimal.events.size() / 2);
  while (res.replays_used < budget) {
    bool removed_any = false;
    for (size_t begin = 0;
         begin < res.minimal.events.size() && res.replays_used < budget;) {
      EpisodeConfig cand = res.minimal;
      const size_t end = std::min(begin + chunk, cand.events.size());
      cand.events.erase(cand.events.begin() + static_cast<long>(begin),
                        cand.events.begin() + static_cast<long>(end));
      EpisodeOutcome out;
      if (still_fails(cand, &out)) {
        res.minimal = std::move(cand);
        res.outcome = std::move(out);
        removed_any = true;  // same begin: the next chunk shifted into place
      } else {
        begin += chunk;
      }
    }
    if (!removed_any) {
      if (chunk == 1) {
        break;
      }
      chunk /= 2;
    }
  }

  // Pass 2: coarsen each surviving timestamp to the roundest grain that
  // still fails, so the minimal schedule reads in human units.
  for (const int64_t grain : {int64_t{100'000}, int64_t{10'000},
                              int64_t{1'000}}) {
    for (size_t i = 0;
         i < res.minimal.events.size() && res.replays_used < budget; ++i) {
      const int64_t rounded = res.minimal.events[i].at_us / grain * grain;
      if (rounded == res.minimal.events[i].at_us || rounded <= 0) {
        continue;
      }
      EpisodeConfig cand = res.minimal;
      cand.events[i].at_us = rounded;
      SortEvents(&cand.events);
      EpisodeOutcome out;
      if (still_fails(cand, &out)) {
        res.minimal = std::move(cand);
        res.outcome = std::move(out);
      }
    }
  }
  return res;
}

ExplorerReport ChaosExplorer::RunCampaign() {
  // Tracing prints to stderr and a sink records one simulator's stream;
  // both only make sense observing a single episode at a time.
  const int jobs =
      (options_.run.trace || options_.run.sink != nullptr) ? 1 : options_.jobs;

  // Phase 1: every episode, fanned out. Each job builds its own Simulator
  // and Testbed from its config; nothing is shared across jobs.
  const size_t n = static_cast<size_t>(options_.episodes);
  std::vector<EpisodeConfig> cfgs(n);
  for (size_t i = 0; i < n; ++i) {
    cfgs[i] = GenerateEpisode(options_.base_seed + i, options_.gen);
  }
  const std::vector<EpisodeOutcome> outcomes =
      rlharness::RunJobs<EpisodeOutcome>(jobs, n, [this, &cfgs](size_t i) {
        return RunEpisode(cfgs[i], options_.run);
      });

  // Index-ordered reduction: the corpus hash chains episode hashes in seed
  // order and failures are collected in seed order, independent of which
  // worker finished first.
  ExplorerReport report;
  uint64_t corpus = kFnvOffset;
  std::vector<size_t> failing;
  for (size_t i = 0; i < n; ++i) {
    ++report.episodes_run;
    corpus = FnvMix(corpus, outcomes[i].Hash());
    if (!outcomes[i].ok()) {
      ++report.violations;
      failing.push_back(i);
    }
  }
  report.corpus_hash = corpus;

  // Phase 2: shrink the failures (independent of each other, so they fan
  // out too; each Shrink replays sequentially and deterministically).
  std::vector<ShrinkResult> shrunk;
  if (options_.shrink) {
    shrunk = rlharness::RunJobs<ShrinkResult>(
        jobs, failing.size(), [this, &cfgs, &failing](size_t k) {
          return Shrink(cfgs[failing[k]], options_.shrink_budget);
        });
  }
  for (size_t k = 0; k < failing.size(); ++k) {
    ShrunkFailure failure;
    failure.original = cfgs[failing[k]];
    if (options_.shrink) {
      failure.shrunk = std::move(shrunk[k]);
    } else {
      failure.shrunk.minimal = cfgs[failing[k]];
      failure.shrunk.outcome = outcomes[failing[k]];
    }
    report.failures.push_back(std::move(failure));
  }
  return report;
}

}  // namespace rlchaos
