// Distributed-tracing contract tests over fleet (E13) chaos episodes:
//
//  1. Trace neutrality: attaching a SpanTracer sink to an episode must not
//     change its outcome hash — across a 200-seed corpus. This is the
//     episode-level half of the "tracing on vs off is byte-identical"
//     claim (the CI smoke diff covers the bench-level half).
//  2. Assembled multi-node traces are well formed: the Chrome export of a
//     traced fleet episode passes tracecheck including the parent-link
//     rules (TC006 resolvable parents, TC007 no cycles), and the causal
//     tree actually stitches client, coordinator and shard spans together.
#include <gtest/gtest.h>

#include <cstdint>
#include <set>
#include <string>

#include "src/faults/chaos/chaos_explorer.h"
#include "src/faults/chaos/schedule.h"
#include "src/obs/chrome_trace.h"
#include "src/obs/critical_path.h"
#include "src/obs/span_tracer.h"
#include "tools/tracecheck/tracecheck.h"

namespace rlchaos {
namespace {

EpisodeConfig SmallFleetConfig(uint64_t seed) {
  GeneratorOptions gen;
  gen.fleet_shards = 2;
  gen.min_faults = 1;
  gen.max_faults = 2;
  gen.run_us_min = 40'000;
  gen.run_us_max = 80'000;
  gen.cross_ratio = 0.6;  // make cross-shard 2PC trees the common case
  return GenerateEpisode(seed, gen);
}

TEST(FleetTraceTest, TwoHundredSeedsAreHashNeutralUnderTracing) {
  uint64_t total_records = 0;
  for (uint64_t seed = 1; seed <= 200; ++seed) {
    const EpisodeConfig cfg = SmallFleetConfig(seed);
    const EpisodeOutcome plain = RunEpisode(cfg);

    rlobs::SpanTracer tracer;
    RunOptions run;
    run.sink = &tracer;
    const EpisodeOutcome traced = RunEpisode(cfg, run);

    ASSERT_EQ(plain.Hash(), traced.Hash()) << "seed " << seed;
    ASSERT_EQ(plain.committed, traced.committed) << "seed " << seed;
    ASSERT_EQ(plain.end_time_ns, traced.end_time_ns) << "seed " << seed;
    total_records += tracer.records().size();
  }
  // The corpus must actually exercise tracing, or the comparison is vacuous.
  EXPECT_GT(total_records, 0u);
}

TEST(FleetTraceTest, AssembledTraceIsWellFormedAndStitchesNodes) {
  const EpisodeConfig cfg = SmallFleetConfig(3);
  rlobs::SpanTracer tracer;
  RunOptions run;
  run.sink = &tracer;
  const EpisodeOutcome out = RunEpisode(cfg, run);
  ASSERT_GT(tracer.records().size(), 0u);
  (void)out;

  const std::string json = rlobs::ExportChromeTrace(tracer);
  const tracecheck::Report r = tracecheck::CheckTraceText(json, "fleet");
  EXPECT_TRUE(r.ok()) << tracecheck::FormatReport(r, "fleet");

  // The causal tree must actually cross node boundaries: client roots,
  // coordinator children, shard grandchildren, with resolvable parents.
  const std::vector<rlobs::SpanNode> spans = tracecheck::ExtractSpans(json);
  std::set<std::string> kinds;
  size_t parented = 0;
  for (const rlobs::SpanNode& s : spans) {
    kinds.insert(s.kind);
    parented += s.parent != 0 ? 1 : 0;
  }
  EXPECT_GT(parented, 0u);
  EXPECT_TRUE(kinds.contains("client-txn"));
  EXPECT_TRUE(kinds.contains("2pc-execute"));
  EXPECT_TRUE(kinds.contains("shard-prepare"));

  // And the critical-path analyzer must see client-txn as a root class
  // whose edges include remote (shard-side) time.
  const rlobs::CriticalPathReport cp = rlobs::AnalyzeCriticalPaths(spans);
  bool found_client_class = false;
  for (const rlobs::CriticalPathClass& cls : cp.classes) {
    if (cls.root_kind == "client-txn") {
      found_client_class = true;
      EXPECT_GT(cls.roots, 0u);
      EXPECT_GT(cls.total_ns, 0);
    }
  }
  EXPECT_TRUE(found_client_class);
}

}  // namespace
}  // namespace rlchaos
