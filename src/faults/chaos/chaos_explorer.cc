#include "src/faults/chaos/chaos_explorer.h"

#include <algorithm>
#include <cstdarg>
#include <cstdio>
#include <functional>
#include <memory>
#include <set>
#include <utility>

#include "src/db/errors.h"
#include "src/faults/durability_checker.h"
#include "src/faults/fleet_checker.h"
#include "src/faults/recovery_oracle.h"
#include "src/harness/fleet_testbed.h"
#include "src/harness/parallel_runner.h"
#include "src/obs/flight_recorder.h"
#include "src/sim/check.h"
#include "src/sim/simulator.h"
#include "src/sim/sync.h"
#include "src/vmm/vm.h"
#include "src/workload/fleet_workload.h"
#include "src/workload/kv_workload.h"

namespace rlchaos {

using rlharness::FleetTestbed;
using rlharness::Testbed;
using rlharness::TestbedOptions;
using rlsim::Duration;
using rlsim::Simulator;
using rlsim::Task;
using rlsim::TimePoint;

namespace {

constexpr uint64_t kFnvOffset = 1469598103934665603ull;
constexpr uint64_t kFnvPrime = 1099511628211ull;

uint64_t FnvMix(uint64_t h, uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (i * 8)) & 0xff;
    h *= kFnvPrime;
  }
  return h;
}

// One episode, on either topology: a single Testbed under key-value load, or
// a fleet of shard testbeds behind a 2PC coordinator. Exactly one of `bed`
// and `fleet` is set. Lives on RunEpisode's stack and outlives the simulator
// run.
struct Episode {
  Episode(const EpisodeConfig& c, const RunOptions& r)
      : cfg(c), run(r), sim(c.seed), tee(&flight, r.sink), rec_done(sim) {
    // Every episode flies with a recorder armed: a bounded ring of recent
    // trace events, episode-local (so jobs>1 campaigns stay data-race-free),
    // teed in front of any caller-supplied sink. Purely passive — the
    // simulation is bit-identical with or without it.
    sim.set_tracer(&tee);
  }

  // Runs the episode to completion: `start` brings the topology up and
  // starts its load, the schedule plays, and `wind_down` recovers everything
  // and runs the topology's final oracles.
  void Run(Task<bool> (*start)(Episode&), Task<void> (*wind_down)(Episode&));

  const EpisodeConfig& cfg;
  const RunOptions& run;
  EpisodeOutcome out;
  Simulator sim;
  rlobs::FlightRecorder flight{512};
  rlobs::TeeSink tee;
  // Recoveries in flight, by what they recover ("power", "shard 2", ...).
  std::set<std::string> recovering;
  rlsim::WaitQueue rec_done;  // notified whenever one of them ends
  // Stop flag of the running clients; replaced (and the old one latched
  // true) whenever a recovery starts fresh ones.
  std::shared_ptr<bool> stop = std::make_shared<bool>(true);
  int next_client_id = 0;

  Testbed* bed = nullptr;
  rlwork::KvWorkload* kv = nullptr;
  rlfault::DurabilityChecker* checker = nullptr;

  FleetTestbed* fleet = nullptr;
  rlwork::FleetWorkload* work = nullptr;
  rlfault::FleetChecker* fleet_checker = nullptr;
};

// --trace (RunOptions::trace) prints each applied event and recovery outcome
// with its virtual timestamp — the first thing to reach for when a shrunken
// schedule needs a human explanation. Printing never affects the episode.
void Trace(const Episode& ep, const char* fmt, ...) {
  if (!ep.run.trace) {
    return;
  }
  std::fprintf(stderr, "[chaos %10lld us] ",
               static_cast<long long>(
                   (ep.sim.now() - TimePoint::Origin()).nanos() / 1000));
  va_list ap;
  va_start(ap, fmt);
  std::vfprintf(stderr, fmt, ap);
  va_end(ap);
  std::fputc('\n', stderr);
}

// Adds one oracle verdict to the outcome; a failing one is a violation
// labelled `when`.
void Tally(EpisodeOutcome& out, const rlfault::VerifyResult& v,
           const std::string& when) {
  out.keys_checked += v.keys_checked;
  out.lost_writes += v.lost_writes;
  out.atomicity_violations += v.atomicity_violations;
  out.promoted_pending += v.promoted_pending;
  out.violating_gids.insert(out.violating_gids.end(),
                            v.violating_tokens.begin(),
                            v.violating_tokens.end());
  if (!v.ok()) {
    out.violations.push_back(when + ": " + v.Summary());
  }
}

using ClientLoad = Task<void> (*)(Episode&, int id, const bool* stop);

// A client unwound by a machine death counts as one (the key-value load
// absorbs and counts those itself). Under data-disk fault injection a torn
// in-place page can also trip a page-validity RL_CHECK on a live fetch; the
// engine's response to media corruption is fail-stop, so the harness treats
// CheckFailure from a client like a machine death — the post-recovery
// oracles (journal replay repairs the page) are the arbiters of whether data
// actually survived.
Task<void> ClientTask(Episode& ep, ClientLoad load, int id,
                      std::shared_ptr<bool> stop) {
  try {
    co_await load(ep, id, stop.get());
  } catch (const rlsim::CheckFailure&) {
    ++ep.out.check_failures;
  } catch (const rldb::EngineHalted&) {
    ++ep.out.machine_deaths;
  } catch (const rlvmm::GuestCrashed&) {
    ++ep.out.machine_deaths;
  }
}

void SpawnClients(Episode& ep, ClientLoad load) {
  ep.stop = std::make_shared<bool>(false);
  for (int c = 0; c < 4; ++c) {
    ep.sim.Spawn(ClientTask(ep, load, ep.next_client_id++, ep.stop));
  }
}

// One recovery of `what`, spawned while the schedule plays on. It is in
// flight until `after` (if any) returns. A fault that lands on the recovery
// itself (a mid-recovery cut, a disk fault during the journal replay) fails
// it quietly; a later event or the final recovery retries.
Task<void> RecoveryTask(Episode& ep, std::string what, Task<void> recovery,
                        Task<void> (*after)(Episode&, bool ok)) {
  ep.recovering.insert(what);
  bool ok = false;
  try {
    co_await std::move(recovery);
    ok = true;
  } catch (...) {
  }
  Trace(ep, "%s recovery %s", what.c_str(), ok ? "succeeded" : "failed");
  if (ok) {
    ++ep.out.recoveries;
  }
  if (after != nullptr) {
    co_await after(ep, ok);
  }
  ep.recovering.erase(what);
  ep.rec_done.NotifyAll();
}

// The final recovery's retries: up to 5 attempts, 200 ms apart, until
// `done` holds, in case the tail of the schedule left armed faults or a
// half-open engine behind. Returns whether `done` holds.
Task<bool> RetryUntil(Episode& ep, std::function<Task<void>()> attempt,
                      std::function<bool()> done) {
  for (int i = 0; i < 5 && !done(); ++i) {
    try {
      co_await attempt();
    } catch (...) {
      // Retry after a settle delay (below; co_await is illegal in a handler).
    }
    if (!done()) {
      co_await ep.sim.Sleep(Duration::Millis(200));
    }
  }
  co_return done();
}

// The small engine of every episode's testbed, the single one or each fleet
// shard's: checkpoints and journal wrap come early, and chaos-kill
// recoveries run partitioned redo, which the single testbed's
// recovery-equivalence oracle cross-checks against sequential replay.
TestbedOptions SmallTestbed(const EpisodeConfig& cfg) {
  TestbedOptions opts;
  opts.mode = cfg.mode;
  opts.disks = cfg.disks;
  opts.db.pool_pages = 512;
  opts.db.journal_pages = 300;
  opts.db.profile.checkpoint_dirty_pages = 128;
  opts.db.recovery.partitions = 8;
  opts.rapilog.enable_power_guard = cfg.power_guard;
  return opts;
}

// ---- Single testbed -------------------------------------------------------

Task<void> KvLoad(Episode& ep, int id, const bool* stop) {
  return ep.kv->RunClient(ep.bed->db(), id, stop, ep.checker);
}

// Post-recovery oracles: the durability checker's model against the
// recovered store, then the B-tree structural walk. Runs after EVERY
// successful recovery (not just the final one) so in-flight commits are
// resolved against the store that actually recovered them.
Task<void> RunOracles(Episode& ep, const std::string& when) {
  Testbed& bed = *ep.bed;
  if (!bed.db_open()) {
    co_return;
  }
  bool verified = false;
  try {
    Tally(ep.out, co_await ep.checker->VerifyAfterRecovery(bed.db()), when);
    verified = true;
  } catch (...) {
    // The machine died again mid-verification — inconclusive, not a
    // verdict. A later recovery re-checks the (partially resolved) model.
  }
  if (verified) {
    try {
      co_await bed.db().CheckTreeStructure();
    } catch (const rlsim::CheckFailure& e) {
      ep.out.violations.push_back(when + ": tree invariant: " + e.what());
    } catch (...) {
      // Died mid-walk: inconclusive.
    }
  }
}

Task<void> AfterPowerRecovery(Episode& ep, bool ok) {
  ep.sim.EmitTrace("chaos", ok ? "power-recovery-ok" : "power-recovery-failed",
                   0);
  if (ok) {
    co_await RunOracles(ep, "after power recovery");
    SpawnClients(ep, &KvLoad);
  }
}

Task<void> AfterGuestRecovery(Episode& ep, bool ok) {
  if (ok) {
    co_await RunOracles(ep, "after guest recovery");
    SpawnClients(ep, &KvLoad);
  }
}

Task<bool> StartSingleTestbed(Episode& ep) {
  bool started = false;
  try {
    co_await ep.bed->Start();
    co_await ep.kv->Load(ep.bed->db(), 300);
    started = true;
  } catch (...) {
    ep.out.violations.push_back("startup failed before any fault");
  }
  if (started) {
    SpawnClients(ep, &KvLoad);
  }
  co_return started;
}

Task<void> WindDownSingleTestbed(Episode& ep) {
  Simulator& sim = ep.sim;
  Testbed& bed = *ep.bed;
  // Final normalisation: every episode ends with the paper's plug-pull. If
  // the schedule already left the mains out, the episode's own cut stands.
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
    ep.out.audit_sectors_expected = audit.sectors_expected;
    ep.out.audit_sectors_underreplicated = audit.sectors_underreplicated;
    if (!audit.ok()) {
      ep.out.violations.push_back("replication: " + audit.Summary());
    }
  }

  bool recovered = false;
  const auto recover = [&]() -> Task<void> {
    if (ep.cfg.restore_from_replica) {
      co_await bed.RestorePowerAndRecoverFromReplica();
    } else {
      co_await bed.RestorePowerAndRecover();
    }
    recovered = true;
  };
  if (!co_await RetryUntil(ep, recover, [&] { return recovered; })) {
    ep.out.violations.push_back("final recovery failed after 5 attempts");
    co_return;
  }
  ++ep.out.recoveries;
  co_await RunOracles(ep, "final");

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
    ++ep.out.recovery_equiv_checks;
    if (!eq.equivalent()) {
      ++ep.out.recovery_equiv_mismatches;
      ep.out.violations.push_back("recovery equivalence: " + eq.Summary());
    }
    if (!eq.within_budget(ropts.budget)) {
      ep.out.violations.push_back("recovery budget exceeded: " +
                                  eq.Summary());
    }
    Trace(ep, "recovery-equivalence %s", eq.Summary().c_str());
  } catch (...) {
    ep.out.violations.push_back(
        "recovery-equivalence probe died on the crash images");
  }

  // RapiLog's contract: with the power guard on, the emergency flush drains
  // the buffer inside the hold-up window — buffered-ack loss is a violation.
  // With the guard ablated, loss is the EXPECTED planted failure.
  if (bed.rapilog() != nullptr && ep.cfg.power_guard &&
      bed.rapilog()->lost_data()) {
    ep.out.violations.push_back("rapilog lost buffered data despite guard");
  }
}

EpisodeOutcome RunSingleTestbed(const EpisodeConfig& cfg,
                                const RunOptions& run) {
  Episode ep(cfg, run);
  TestbedOptions opts = SmallTestbed(cfg);
  if (cfg.replicas > 0) {
    opts.replication.enabled = true;
    opts.replication.replicas = cfg.replicas;
    opts.replication.shipper.mode = cfg.ship_mode;
  }
  Testbed bed(ep.sim, opts);
  rlwork::KvConfig kv_cfg;
  kv_cfg.key_space = 1000;
  kv_cfg.write_fraction = 0.6;
  rlwork::KvWorkload kv(ep.sim, kv_cfg);
  rlfault::DurabilityChecker checker;
  ep.bed = &bed;
  ep.kv = &kv;
  ep.checker = &checker;

  ep.Run(&StartSingleTestbed, &WindDownSingleTestbed);
  ep.out.committed = static_cast<uint64_t>(kv.stats().committed.value());
  ep.out.machine_deaths =
      static_cast<uint64_t>(kv.stats().machine_deaths.value());
  return std::move(ep.out);
}

// ---- Fleet (E13) ----------------------------------------------------------
//
// Cross-shard load and schedules that kill coordinators and shards across
// the protocol's message boundaries. The oracle is 2PC atomicity itself:
// after wind-down heals and recovers the whole fleet, no transaction may be
// committed on a strict subset of its shards, and every acked commit must be
// fully present.

// Clients never touch a shard engine directly: everything goes through the
// coordinator.
Task<void> FleetLoad(Episode& ep, int id, const bool* stop) {
  return ep.work->RunClient(ep.fleet->coordinator(), ep.fleet->directory(),
                            id, stop, ep.fleet_checker);
}

Task<bool> StartFleet(Episode& ep) {
  bool started = false;
  try {
    co_await ep.fleet->Start();
    started = true;
  } catch (...) {
    ep.out.violations.push_back("fleet startup failed before any fault");
  }
  if (started) {
    SpawnClients(ep, &FleetLoad);
  }
  co_return started;
}

// Heals every partition, brings the whole fleet back, drains the in-doubt
// transactions, then judges.
Task<void> WindDownFleet(Episode& ep) {
  FleetTestbed& fleet = *ep.fleet;
  for (size_t i = 0; i < fleet.shard_count(); ++i) {
    fleet.HealShard(i);
  }
  if (!co_await RetryUntil(
          ep, [&fleet] { return fleet.RecoverCoordinator(); },
          [&fleet] { return fleet.coordinator_alive(); })) {
    ep.out.violations.push_back("final coordinator recovery failed");
    co_return;
  }
  for (size_t i = 0; i < fleet.shard_count(); ++i) {
    // A shard that is powered but closed had an earlier recovery die
    // partway: retry the full restore path directly on its bed.
    const bool up = co_await RetryUntil(
        ep,
        [&fleet, i] {
          return fleet.shard_powered(i)
                     ? fleet.shard(i).RestorePowerAndRecover()
                     : fleet.RecoverShard(i);
        },
        [&fleet, i] { return fleet.shard_db(i) != nullptr; });
    if (!up) {
      ep.out.violations.push_back("final recovery failed on shard " +
                                  std::to_string(i));
      co_return;
    }
  }
  ++ep.out.recoveries;

  // Drain every in-doubt transaction through the resolver/query protocol
  // before judging: a leftover prepared txn is not a verdict, it is an
  // unfinished conversation with the coordinator.
  if (!co_await fleet.ResolveAllInDoubt(Duration::Seconds(30))) {
    ep.out.violations.push_back("in-doubt transactions failed to drain");
  }

  std::vector<rldb::Database*> dbs;
  for (size_t i = 0; i < fleet.shard_count(); ++i) {
    dbs.push_back(fleet.shard_db(i));
  }
  try {
    Tally(ep.out,
          co_await ep.fleet_checker->VerifyAfterRecovery(fleet.directory(),
                                                         dbs),
          "fleet oracle");
  } catch (const rlsim::CheckFailure& e) {
    ep.out.violations.push_back(std::string("fleet verify died: ") + e.what());
  }
  for (size_t i = 0; i < fleet.shard_count(); ++i) {
    try {
      co_await fleet.shard_db(i)->CheckTreeStructure();
    } catch (const rlsim::CheckFailure& e) {
      ep.out.violations.push_back("shard " + std::to_string(i) +
                                  " tree invariant: " + e.what());
    }
  }
  co_await fleet.Shutdown();
}

EpisodeOutcome RunFleet(const EpisodeConfig& cfg, const RunOptions& run) {
  Episode ep(cfg, run);
  rlharness::FleetOptions fopt;
  fopt.shards = cfg.fleet_shards;
  fopt.shard = SmallTestbed(cfg);
  FleetTestbed fleet(ep.sim, fopt);
  rlwork::FleetConfig wcfg;
  wcfg.cross_shard_probability = cfg.cross_ratio;
  wcfg.ops_per_txn = 3;
  rlwork::FleetWorkload work(ep.sim, wcfg);
  rlfault::FleetChecker checker;
  ep.fleet = &fleet;
  ep.work = &work;
  ep.fleet_checker = &checker;

  ep.Run(&StartFleet, &WindDownFleet);
  ep.out.committed = static_cast<uint64_t>(work.stats().committed.value());
  ep.out.fleet_cross_committed =
      static_cast<uint64_t>(work.stats().cross_committed.value());
  ep.out.fleet_unknown_outcomes =
      static_cast<uint64_t>(work.stats().unknown.value());
  return std::move(ep.out);
}

// ---- Both topologies ------------------------------------------------------

// Applies one schedule event. Each kind acts only on its own topology and is
// guarded against states where it cannot apply (a power cut while the mains
// are out, a shard recovery while that shard is up or recovering), so
// shrinking — which drops events — can never build a nonsense schedule.
void ApplyEvent(Episode& ep, const FaultEvent& e) {
  Testbed* bed = ep.bed;
  FleetTestbed* fleet = ep.fleet;
  const bool idle = ep.recovering.empty();
  const bool replica = bed != nullptr && e.arg < bed->replica_count();
  const size_t shard = fleet != nullptr ? e.arg % fleet->shard_count() : 0;
  Trace(ep, "event %s arg=%u (recovering=%zu)", ToString(e.kind).c_str(),
        e.arg, ep.recovering.size());
  ep.sim.EmitTrace("chaos", ToString(e.kind), e.arg);
  switch (e.kind) {
    case FaultKind::kPowerCut:
      if (bed != nullptr && bed->psu().mains_on()) {
        bed->CutPower();
        *ep.stop = true;
      }
      break;
    case FaultKind::kPowerRestore:
      // Also fires as a retry when a previous recovery died with mains up.
      if (bed != nullptr && idle &&
          (!bed->psu().mains_on() || !bed->db_open())) {
        *ep.stop = true;
        ep.sim.Spawn(RecoveryTask(ep, "power", bed->RestorePowerAndRecover(),
                                  &AfterPowerRecovery));
      }
      break;
    case FaultKind::kGuestCrash:
      if (bed != nullptr && bed->vm() != nullptr && bed->vm()->running() &&
          idle) {
        bed->CrashGuest();
        *ep.stop = true;
      }
      break;
    case FaultKind::kGuestRecover:
      if (bed != nullptr && bed->vm() != nullptr && !bed->vm()->running() &&
          bed->psu().mains_on() && idle) {
        *ep.stop = true;
        ep.sim.Spawn(RecoveryTask(ep, "guest", bed->RecoverAfterGuestCrash(),
                                  &AfterGuestRecovery));
      }
      break;
    case FaultKind::kLogDiskFault:
      if (bed != nullptr) {
        bed->InjectLogDiskWriteFaults(e.arg);
      }
      break;
    case FaultKind::kDataDiskFault:
      if (bed != nullptr) {
        bed->InjectDataDiskWriteFaults(e.arg);
      }
      break;
    case FaultKind::kPartitionReplica:
      if (replica) {
        bed->PartitionReplica(e.arg);
      }
      break;
    case FaultKind::kHealReplica:
      if (replica) {
        bed->HealReplica(e.arg);
      }
      break;
    case FaultKind::kKillReplica:
      if (replica) {
        bed->KillReplica(e.arg);
      }
      break;
    case FaultKind::kReviveReplica:
      if (replica) {
        bed->ReviveReplica(e.arg);
      }
      break;
    case FaultKind::kLinkDegrade:
      if (replica) {
        bed->SetReplicaLinkLoss(e.arg, 0.2);
      }
      break;
    case FaultKind::kLinkRestore:
      if (replica) {
        bed->SetReplicaLinkLoss(e.arg, 0.0);
      }
      break;
    case FaultKind::kKillShard:
      if (fleet != nullptr) {
        fleet->KillShard(shard);
      }
      break;
    case FaultKind::kRecoverShard: {
      const std::string what = "shard " + std::to_string(shard);
      if (fleet != nullptr && !fleet->shard_powered(shard) &&
          !ep.recovering.contains(what)) {
        ep.sim.Spawn(
            RecoveryTask(ep, what, fleet->RecoverShard(shard), nullptr));
      }
      break;
    }
    case FaultKind::kPartitionShard:
      if (fleet != nullptr) {
        fleet->PartitionShard(shard);
      }
      break;
    case FaultKind::kHealShard:
      if (fleet != nullptr) {
        fleet->HealShard(shard);
      }
      break;
    case FaultKind::kKillCoordinator:
      if (fleet != nullptr) {
        fleet->KillCoordinator();
      }
      break;
    case FaultKind::kRecoverCoordinator:
      if (fleet != nullptr && !fleet->coordinator_alive() &&
          !ep.recovering.contains("coordinator")) {
        ep.sim.Spawn(RecoveryTask(ep, "coordinator",
                                  fleet->RecoverCoordinator(), nullptr));
      }
      break;
  }
}

Task<void> EpisodeMain(Episode& ep, Task<bool> (*start)(Episode&),
                       Task<void> (*wind_down)(Episode&)) {
  Simulator& sim = ep.sim;
  if (!co_await start(ep)) {
    co_return;
  }
  // Event times are relative to workload start (now), inside [0, run_us].
  const TimePoint begin = sim.now();
  for (const FaultEvent& e : ep.cfg.events) {
    const TimePoint due = begin + Duration::Micros(e.at_us);
    if (due > sim.now()) {
      co_await sim.Sleep(due - sim.now());
    }
    ApplyEvent(ep, e);
  }
  const TimePoint horizon = begin + Duration::Micros(ep.cfg.run_us);
  if (horizon > sim.now()) {
    co_await sim.Sleep(horizon - sim.now());
  }

  // Wind down: stop the load, let any in-flight recovery finish (a single
  // testbed's may start fresh clients — stop those too).
  *ep.stop = true;
  while (!ep.recovering.empty()) {
    co_await ep.rec_done.Wait();
  }
  *ep.stop = true;
  Trace(ep, "wind-down");
  sim.EmitTrace("chaos", "wind-down", 0);
  co_await wind_down(ep);
}

void Episode::Run(Task<bool> (*start)(Episode&),
                  Task<void> (*wind_down)(Episode&)) {
  sim.Spawn(EpisodeMain(*this, start, wind_down));
  sim.Run();
  out.end_time_ns = (sim.now() - TimePoint::Origin()).nanos();
  sim.set_tracer(nullptr);
  if (!out.violations.empty()) {
    out.flight_dump = flight.Dump();
    // Causal post-mortem: for each transaction the fleet oracle convicted,
    // dump the span trees that carried its global id — the 2PC conversation
    // the ring still remembers for the transaction that broke the guarantee.
    for (const uint64_t gid : out.violating_gids) {
      out.causal_chain += flight.DumpCausalChain(static_cast<int64_t>(gid));
    }
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
  return cfg.fleet_shards > 0 ? RunFleet(cfg, run)
                              : RunSingleTestbed(cfg, run);
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

ExplorerReport RunCampaign(const ExplorerOptions& options) {
  // Tracing prints to stderr and a sink records one simulator's stream;
  // both only make sense observing a single episode at a time.
  const int jobs =
      (options.run.trace || options.run.sink != nullptr) ? 1 : options.jobs;

  // Phase 1: every episode, fanned out. Each job builds its own Simulator
  // and Testbed from its config; nothing is shared across jobs.
  const size_t n = static_cast<size_t>(options.episodes);
  std::vector<EpisodeConfig> cfgs(n);
  for (size_t i = 0; i < n; ++i) {
    cfgs[i] = GenerateEpisode(options.base_seed + i, options.gen);
  }
  const std::vector<EpisodeOutcome> outcomes =
      rlharness::RunJobs<EpisodeOutcome>(jobs, n, [&options, &cfgs](size_t i) {
        return RunEpisode(cfgs[i], options.run);
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
  if (options.shrink) {
    shrunk = rlharness::RunJobs<ShrinkResult>(
        jobs, failing.size(), [&options, &cfgs, &failing](size_t k) {
          return Shrink(cfgs[failing[k]], options.shrink_budget);
        });
  }
  for (size_t k = 0; k < failing.size(); ++k) {
    ShrunkFailure failure;
    failure.original = cfgs[failing[k]];
    if (options.shrink) {
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
