// Reproduction regression tests: the paper's qualitative claims, encoded
// as assertions at reduced scale so CI catches a regression in any of the
// mechanisms behind the tables. (The full-scale numbers live in
// bench/table4_* and EXPERIMENTS.md.)
#include <gtest/gtest.h>

#include "engine/lisp_engine.hpp"
#include "engine/sequential_engine.hpp"
#include "sim/sim_engine.hpp"
#include "workloads/workloads.hpp"

namespace psme {
namespace {

struct Fixture {
  workloads::Workload w;
  ops5::Program program;
  explicit Fixture(workloads::Workload wl)
      : w(std::move(wl)), program(ops5::Program::from_source(w.source)) {}

  RunStats run_seq(match::MemoryStrategy mem) {
    EngineOptions opt;
    opt.memory = mem;
    opt.max_cycles = 1'000'000;
    opt.hash_buckets = match::kPaperTokenLines;  // the paper tables' size
    SequentialEngine eng(program, opt);
    workloads::load(eng, w);
    return eng.run().stats;
  }
  double sim_match_seconds(int procs, int queues,
                           match::LockScheme scheme, bool pipeline) {
    EngineOptions opt;
    opt.match_processes = procs;
    opt.task_queues = queues;
    opt.lock_scheme = scheme;
    opt.max_cycles = 1'000'000;
    sim::SimConfig cfg;
    cfg.pipeline = pipeline;
    sim::SimEngine eng(program, opt, cfg);
    workloads::load(eng, w);
    eng.run();
    return eng.sim_match_seconds();
  }
  double speedup(int procs, int queues, match::LockScheme scheme) {
    const double base =
        sim_match_seconds(1, 1, scheme, /*pipeline=*/false);
    return base / sim_match_seconds(procs, queues, scheme, true);
  }
};

// Table 4-1: hash memories beat list memories, Tourney most of all.
TEST(Reproduction, HashMemoriesBeatListMemories) {
  for (auto make : {+[] { return workloads::tourney(10, false); },
                    +[] { return workloads::rubik(10); }}) {
    Fixture f(make());
    const RunStats vs1 = f.run_seq(match::MemoryStrategy::List);
    const RunStats vs2 = f.run_seq(match::MemoryStrategy::Hash);
    // Same match, fewer tokens examined (the time advantage follows).
    const auto examined = [](const RunStats& s) {
      return s.match.opp_examined[0] + s.match.opp_examined[1] +
             s.match.same_del_examined[0] + s.match.same_del_examined[1];
    };
    EXPECT_LT(examined(vs2), examined(vs1)) << f.w.name;
    EXPECT_EQ(vs1.firings, vs2.firings);
  }
}

// Table 4-4: the lisp-style interpreter is several times slower than vs2.
TEST(Reproduction, LispInterpreterIsMuchSlower) {
  Fixture f(workloads::tourney(10, false));
  EngineOptions opt;
  opt.max_cycles = 1'000'000;
  LispStyleEngine lisp(f.program, opt);
  workloads::load(lisp, f.w);
  const RunStats lr = lisp.run().stats;
  const RunStats vs2 = f.run_seq(match::MemoryStrategy::Hash);
  EXPECT_GT(lr.match_seconds, vs2.match_seconds * 3.0);
}

// Tables 4-5/4-6: a single queue caps speed-up; multiple queues unlock it
// for Weaver/Rubik but not Tourney.
TEST(Reproduction, MultipleQueuesUnlockWeaverAndRubikNotTourney) {
  Fixture weaver(workloads::weaver(8, 2));
  Fixture rubik(workloads::rubik(8));
  Fixture tourney(workloads::tourney(10, false));
  const auto scheme = match::LockScheme::Simple;

  const double weaver_1q = weaver.speedup(13, 1, scheme);
  const double weaver_8q = weaver.speedup(13, 8, scheme);
  EXPECT_GT(weaver_8q, weaver_1q * 1.3);

  const double rubik_8q = rubik.speedup(13, 8, scheme);
  EXPECT_GT(rubik_8q, rubik.speedup(13, 1, scheme) * 1.3);
  EXPECT_GT(rubik_8q, 5.0);  // the best-scaling program

  const double tourney_1q = tourney.speedup(13, 1, scheme);
  const double tourney_8q = tourney.speedup(13, 8, scheme);
  EXPECT_LT(tourney_8q, 4.0);  // stays flat
  EXPECT_LT(tourney_8q, tourney_1q * 1.5);
}

// Table 4-8 vs 4-6: MRSW costs uniprocessor time (rare case must not slow
// the normal case — the paper's Section 5 moral).
TEST(Reproduction, MrswOverheadShowsInUniprocessorTime) {
  Fixture f(workloads::weaver(8, 2));
  const double simple =
      f.sim_match_seconds(1, 1, match::LockScheme::Simple, false);
  const double mrsw =
      f.sim_match_seconds(1, 1, match::LockScheme::Mrsw, false);
  EXPECT_GT(mrsw, simple * 1.05);
}

// Section 4.2: the domain-knowledge rewrite roughly doubles Tourney's
// parallel speed-up.
TEST(Reproduction, TourneyRewriteUnlocksSpeedup) {
  // The cross-product convoy throttles only once the pairing set is big
  // enough; 13 teams (78 pairings) is the bench scale.
  Fixture original(workloads::tourney(13, false));
  Fixture fixed(workloads::tourney(13, true));
  const double s0 = original.speedup(13, 8, match::LockScheme::Mrsw);
  const double s1 = fixed.speedup(13, 8, match::LockScheme::Mrsw);
  EXPECT_GT(s1, s0 * 1.3);
}

// Section 4.1: average task grain sits in the paper's 100-700 instruction
// band under the cost model.
TEST(Reproduction, TaskGrainInPaperBand) {
  for (auto make : {+[] { return workloads::weaver(8, 2); },
                    +[] { return workloads::rubik(8); },
                    +[] { return workloads::tourney(10, false); }}) {
    Fixture f(make());
    EngineOptions opt;
    opt.match_processes = 1;
    opt.task_queues = 1;
    opt.max_cycles = 1'000'000;
    sim::SimConfig cfg;
    cfg.pipeline = false;
    sim::SimEngine eng(f.program, opt, cfg);
    workloads::load(eng, f.w);
    eng.run();
    const double grain =
        eng.sim_match_seconds() * 0.75e6 /
        static_cast<double>(eng.match_stats().tasks_executed);
    EXPECT_GT(grain, 50.0) << f.w.name;
    EXPECT_LT(grain, 700.0) << f.w.name;
  }
}

}  // namespace
}  // namespace psme
