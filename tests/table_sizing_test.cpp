// Token-table sizing: the network-derived line count of the real engines
// (match::token_lines), the explicit EngineOptions::hash_buckets override,
// and the paper's 512 lines kept by the simulator, worlds and the paper
// tables (docs/memory-layout.md, "Line count").
#include <gtest/gtest.h>

#include <bit>

#include "../bench/bench_common.hpp"
#include "engine/engine.hpp"
#include "engine/parallel_engine.hpp"
#include "engine/sequential_engine.hpp"
#include "match/kernel.hpp"
#include "sim/sim_engine.hpp"
#include "workloads/workloads.hpp"
#include "world/world.hpp"

namespace psme {
namespace {

using match::kMaxTokenLines;
using match::kPaperTokenLines;
using match::token_lines_for_joins;

TEST(TableSizing, RuleIsAClampedNonDecreasingPowerOfTwo) {
  std::uint32_t prev = 0;
  for (std::size_t joins = 0; joins <= 5000; ++joins) {
    const std::uint32_t lines = token_lines_for_joins(joins);
    ASSERT_TRUE(std::has_single_bit(lines)) << joins;
    ASSERT_GE(lines, kPaperTokenLines) << joins;
    ASSERT_LE(lines, kMaxTokenLines) << joins;
    ASSERT_GE(lines, prev) << joins;
    prev = lines;
  }
  EXPECT_EQ(token_lines_for_joins(0), 512u);
  EXPECT_EQ(token_lines_for_joins(128), 512u);   // 4 x 128 = 512
  EXPECT_EQ(token_lines_for_joins(129), 1024u);  // 516 rounds up
  EXPECT_EQ(token_lines_for_joins(2048), 8192u);
  EXPECT_EQ(token_lines_for_joins(100000), 8192u);
}

TEST(TableSizing, PaperProgramsGetTheDocumentedSizes) {
  auto lines_of = [](const workloads::Workload& w) {
    const auto program = ops5::Program::from_source(w.source);
    return SequentialEngine(program, {}).stats().hash_lines;
  };
  EXPECT_EQ(lines_of(workloads::weaver()), 8192u);
  EXPECT_EQ(lines_of(workloads::rubik()), 2048u);
  EXPECT_EQ(lines_of(workloads::tourney()), 512u);
}

TEST(TableSizing, ExplicitHashBucketsWinsAndRoundsUp) {
  const auto w = workloads::weaver();
  const auto program = ops5::Program::from_source(w.source);
  EngineOptions opt;
  opt.hash_buckets = 64;
  EXPECT_EQ(SequentialEngine(program, opt).stats().hash_lines, 64u);
  opt.hash_buckets = 1000;
  EXPECT_EQ(SequentialEngine(program, opt).stats().hash_lines, 1024u);
  opt.match_processes = 1;
  EXPECT_EQ(ParallelEngine(program, opt).stats().hash_lines, 1024u);
  sim::SimConfig sim;
  EXPECT_EQ(sim::SimEngine(program, opt, sim).stats().hash_lines, 1024u);
  // 0 is the default and a valid request ("size it for me").
  opt.hash_buckets = 0;
  EXPECT_NO_THROW(validate_options(opt, ExecutionMode::Sequential));
}

TEST(TableSizing, SimulatorWorldsAndPaperTablesKeep512Lines) {
  const auto w = workloads::weaver();
  const auto program = ops5::Program::from_source(w.source);
  EngineOptions opt;  // hash_buckets = 0
  opt.match_processes = 2;
  EXPECT_EQ(sim::SimEngine(program, opt, sim::SimConfig{}).stats().hash_lines,
            kPaperTokenLines);
  world::WorldPool pool(program, opt, 2, opt.match_processes + 1);
  EXPECT_EQ(pool.world(1).stats().hash_lines, kPaperTokenLines);
  EXPECT_EQ(pool.world(1).left_table->size(), kPaperTokenLines);
  pool.reset_world(1);
  EXPECT_EQ(pool.world(1).stats().hash_lines, kPaperTokenLines);

  const bench::ProgramSpec spec{"Weaver", workloads::weaver(6, 2)};
  EXPECT_EQ(bench::run_sequential(spec, match::MemoryStrategy::Hash)
                .stats.hash_lines,
            kPaperTokenLines);
}

TEST(TableSizing, SizedSequentialWeaverMatchesThePaperSizeWithFewerCollisions) {
  const auto w = workloads::weaver();
  const auto program = ops5::Program::from_source(w.source);
  auto run = [&](std::uint32_t buckets) {
    EngineOptions opt;
    opt.hash_buckets = buckets;
    SequentialEngine eng(program, opt);
    workloads::load(eng, w);
    const RunResult r = eng.run();
    return std::make_pair(r.stats, eng.trace());
  };
  const auto [sized, sized_trace] = run(0);
  const auto [paper, paper_trace] = run(kPaperTokenLines);
  EXPECT_EQ(sized.hash_lines, 8192u);
  EXPECT_EQ(paper.hash_lines, kPaperTokenLines);
  EXPECT_EQ(sized_trace, paper_trace);
  EXPECT_EQ(sized.cycles, paper.cycles);
  EXPECT_EQ(sized.firings, paper.firings);
  ASSERT_GT(paper.match.line_collisions, 0u);
  EXPECT_LE(sized.match.line_collisions * 4, paper.match.line_collisions)
      << sized.match.line_collisions << " vs " << paper.match.line_collisions;
}

TEST(TableSizing, ParallelLockCountEqualsTableSize) {
  for (const std::uint32_t buckets : {0u, 100u}) {
    const auto w = workloads::rubik(8);
    const auto program = ops5::Program::from_source(w.source);
    EngineOptions opt;
    opt.match_processes = 1;
    opt.hash_buckets = buckets;
    ParallelEngine eng(program, opt);
    EXPECT_EQ(eng.lock_lines(), eng.stats().hash_lines) << buckets;
    EXPECT_EQ(eng.stats().hash_lines,
              buckets ? 128u : match::token_lines(eng.network()));
  }
}

}  // namespace
}  // namespace psme
