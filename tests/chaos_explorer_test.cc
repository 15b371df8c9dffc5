// Chaos explorer: schedule format round-trip, episode determinism, a small
// bounded corpus that must hold every oracle, and the planted-violation
// pipeline (power-guard ablation found, shrunk to a minimal schedule, and
// replayed bit-for-bit).
#include <gtest/gtest.h>

#include <string>

#include "src/faults/chaos/chaos_explorer.h"
#include "src/faults/chaos/schedule.h"

namespace rlchaos {
namespace {

TEST(ChaosScheduleTest, SerializeParseRoundTrip) {
  GeneratorOptions gen;
  for (uint64_t seed = 1; seed <= 25; ++seed) {
    const EpisodeConfig cfg = GenerateEpisode(seed, gen);
    EpisodeConfig back;
    std::string error;
    ASSERT_TRUE(Parse(Serialize(cfg), &back, &error)) << error;
    EXPECT_EQ(cfg, back) << "seed " << seed;
  }
}

TEST(ChaosScheduleTest, ParseRejectsMalformedInput) {
  EpisodeConfig cfg;
  std::string error;
  EXPECT_FALSE(Parse("", &cfg, &error));
  EXPECT_FALSE(Parse("not-a-schedule v1\nend\n", &cfg, &error));
  EXPECT_FALSE(Parse("rapilog-chaos-schedule v1\nseed 1\n", &cfg, &error))
      << "missing end marker must be rejected";
  EXPECT_FALSE(Parse(
      "rapilog-chaos-schedule v1\nevent 10 warp-core-breach 0\nend\n", &cfg,
      &error));
  EXPECT_FALSE(
      Parse("rapilog-chaos-schedule v1\nflux-capacitance 88\nend\n", &cfg,
            &error));
}

TEST(ChaosScheduleTest, GenerationIsDeterministic) {
  GeneratorOptions gen;
  for (uint64_t seed = 1; seed <= 50; ++seed) {
    EXPECT_EQ(GenerateEpisode(seed, gen), GenerateEpisode(seed, gen));
  }
}

TEST(ChaosEpisodeTest, SameConfigSameOutcomeHash) {
  // A replicated multi-fault episode — the widest code path — must be a
  // pure function of its config.
  GeneratorOptions gen;
  EpisodeConfig cfg;
  for (uint64_t seed = 1;; ++seed) {
    cfg = GenerateEpisode(seed, gen);
    if (cfg.replicas > 0 && cfg.events.size() >= 4) {
      break;
    }
    ASSERT_LT(seed, 200u) << "generator never produced a replicated episode";
  }
  const EpisodeOutcome a = RunEpisode(cfg);
  const EpisodeOutcome b = RunEpisode(cfg);
  EXPECT_EQ(a.Hash(), b.Hash());
  EXPECT_EQ(a.committed, b.committed);
  EXPECT_EQ(a.violations, b.violations);
}

TEST(ChaosExplorerTest, BoundedCorpusHoldsEveryOracle) {
  // The PR-gate corpus: a handful of randomized multi-fault episodes across
  // deployment modes, disk setups, and replication topologies. Every oracle
  // must hold; a violation here is a real durability bug (or a regression
  // in the harness's fault semantics) and the report names the seed.
  ExplorerOptions opts;
  opts.base_seed = 1;
  opts.episodes = 6;
  const ExplorerReport report = ChaosExplorer(opts).Run();
  EXPECT_EQ(report.episodes_run, 6u);
  EXPECT_TRUE(report.ok()) << report.violations << " violating episodes; "
                           << "first failing seed "
                           << (report.failures.empty()
                                   ? 0
                                   : report.failures[0].original.seed);
  EXPECT_NE(report.corpus_hash, 0u);
}

TEST(ChaosExplorerTest, AblationFoundShrunkAndReplayable) {
  // Plant the known violation: RapiLog with the power guard disabled loses
  // acked commits when a cut lands inside recovery/checkpoint churn. The
  // explorer must find it, shrink it to at most 3 fault events, and the
  // minimal schedule must replay bit-for-bit.
  ExplorerOptions opts;
  opts.base_seed = 16;  // first guard-off failure in the nightly seed walk
  opts.episodes = 1;
  opts.gen.power_guard = false;
  opts.gen.force_rapilog = true;
  opts.gen.allow_replication = false;
  opts.gen.run_us_min = 600'000;
  opts.gen.run_us_max = 900'000;
  const ExplorerReport report = ChaosExplorer(opts).Run();
  ASSERT_EQ(report.failures.size(), 1u)
      << "the planted guard-off violation was not found";
  const ShrunkFailure& f = report.failures[0];
  EXPECT_FALSE(f.shrunk.outcome.ok());
  EXPECT_LE(f.shrunk.minimal.events.size(), 3u)
      << Serialize(f.shrunk.minimal);
  EXPECT_GT(f.shrunk.outcome.lost_writes, 0u);

  // Replay: serialize, parse back, re-run — identical outcome hash.
  EpisodeConfig replayed;
  std::string error;
  ASSERT_TRUE(Parse(Serialize(f.shrunk.minimal), &replayed, &error)) << error;
  const EpisodeOutcome again = RunEpisode(replayed);
  EXPECT_EQ(again.Hash(), f.shrunk.outcome.Hash());
  EXPECT_EQ(again.violations, f.shrunk.outcome.violations);

  // And the same schedule with the guard re-enabled is clean: the violation
  // is the ablation's, not the harness's.
  EpisodeConfig guarded = f.shrunk.minimal;
  guarded.power_guard = true;
  EXPECT_TRUE(RunEpisode(guarded).ok());
}

TEST(ChaosExplorerTest, CutAfterRecoveryCheckpointWithGuardIsClean) {
  // Shrunk from classic seed 1's walk (seed 105). The first power recovery
  // persists its checkpoint, whose replay point lies just past the log
  // tail; the second cut kills the machine before anything new is logged.
  // The recovery after it scans an empty log suffix and once restarted the
  // WAL's LSNs at 1, below that replay point, so the final recovery skipped
  // the acknowledged commits as already checkpointed (lost=11). With the
  // power guard on, RapiLog must lose nothing here.
  const std::string kSchedule =
      "rapilog-chaos-schedule v1\n"
      "seed 105\n"
      "mode rapilog\n"
      "disks bbwc\n"
      "replicas 0\n"
      "ship none\n"
      "restore-from-replica 0\n"
      "power-guard 1\n"
      "run-us 289607\n"
      "event 200000 power-cut 0\n"
      "event 300000 power-restore 0\n"
      "event 650000 power-cut 0\n"
      "event 700000 power-restore 0\n"
      "end\n";
  EpisodeConfig cfg;
  std::string error;
  ASSERT_TRUE(Parse(kSchedule, &cfg, &error)) << error;
  const EpisodeOutcome outcome = RunEpisode(cfg);
  EXPECT_GT(outcome.committed, 0u);
  EXPECT_EQ(outcome.recoveries, 2u);
  EXPECT_EQ(outcome.lost_writes, 0u);
  EXPECT_TRUE(outcome.ok()) << outcome.violations.size() << " violations, "
                            << "first: "
                            << (outcome.violations.empty()
                                    ? std::string()
                                    : outcome.violations[0]);
}

}  // namespace
}  // namespace rlchaos
