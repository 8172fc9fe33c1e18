// Extra (not a paper table): the token-table line-count sweep behind
// match::token_lines. Every paper program runs with 512, 1024, ... 8192
// lines per side on the sequential engine and on the threaded engine at
// 1+3 with work stealing. Each row is the median of kRepeats fresh
// engines (the line counts interleave within a repeat, so host drift hits
// them alike) and prints:
//   - build ms: engine construction, which includes the one value-
//     initialising pass over both tables (and the lock lines, threaded);
//   - run ms: initial load + run to fixpoint, wall clock;
//   - line_collisions: bucket entries of foreign (node, key) pairs skipped;
//   - opp/act: opposite-memory tokens examined per non-empty probe.
// The header lists the line count the rule clamp(bit_ceil(m x joins),
// 512, 8192) gives each program for multipliers m = 1, 2, 4, 8, so the
// sweep also prices the multiplier choice. See EXPERIMENTS.md.
#include <chrono>
#include <memory>

#include "bench_common.hpp"

using namespace psme;
using namespace psme::bench;

namespace {

using Clock = std::chrono::steady_clock;

struct Sample {
  std::vector<double> build_ms, run_ms, collisions, opp_per_act;
};

std::uint32_t rule_lines(std::size_t joins, std::size_t m) {
  const std::size_t want = std::bit_ceil(m * joins);
  return static_cast<std::uint32_t>(std::clamp<std::size_t>(
      want, match::kPaperTokenLines, match::kMaxTokenLines));
}

}  // namespace

int main() {
  print_header("Token-table line-count sweep (host-dependent)",
               "no paper table; see EXPERIMENTS.md");
  const bool fast = fast_mode();
  const int repeats = fast ? 3 : 9;
  const std::vector<std::uint32_t> lines = {512, 1024, 2048, 4096, 8192};
  const std::vector<ProgramSpec> specs = {
      {"weaver", workloads::weaver(fast ? 20 : 60, 2)},
      {"rubik", workloads::rubik(fast ? 8 : 24)},
      {"tourney", workloads::tourney(fast ? 8 : 14, false)}};

  for (const ProgramSpec& spec : specs) {
    const auto program = ops5::Program::from_source(spec.workload.source);
    for (const int procs : {0, 3}) {
      std::vector<Sample> rows(lines.size());
      std::size_t joins = 0;
      for (int r = 0; r < repeats; ++r) {
        for (std::size_t i = 0; i < lines.size(); ++i) {
          EngineOptions opt;
          opt.hash_buckets = lines[i];
          opt.max_cycles = 10'000'000;
          const auto t0 = Clock::now();
          std::unique_ptr<EngineBase> eng;
          if (procs == 0) {
            eng = std::make_unique<SequentialEngine>(program, opt);
          } else {
            opt.match_processes = procs;
            opt.scheduler = match::SchedulerKind::Steal;
            eng = std::make_unique<ParallelEngine>(program, opt);
          }
          const auto t1 = Clock::now();
          workloads::load(*eng, spec.workload);
          const RunResult res = eng->run();
          const auto t2 = Clock::now();
          joins = eng->network().joins().size();
          const MatchStats& m = res.stats.match;
          Sample& s = rows[i];
          s.build_ms.push_back(
              std::chrono::duration<double, std::milli>(t1 - t0).count());
          s.run_ms.push_back(
              std::chrono::duration<double, std::milli>(t2 - t1).count());
          s.collisions.push_back(static_cast<double>(m.line_collisions));
          const double acts = static_cast<double>(m.opp_activations[0] +
                                                  m.opp_activations[1]);
          s.opp_per_act.push_back(
              acts > 0 ? static_cast<double>(m.opp_examined[0] +
                                             m.opp_examined[1]) /
                             acts
                       : 0.0);
        }
      }
      std::printf("%s, %s, %zu join nodes; rule picks m=1: %u, m=2: %u, "
                  "m=4: %u, m=8: %u lines; %d runs per row\n",
                  spec.label.c_str(),
                  procs == 0 ? "sequential" : "1+3 steal", joins,
                  rule_lines(joins, 1), rule_lines(joins, 2),
                  rule_lines(joins, 4), rule_lines(joins, 8), repeats);
      std::printf("%8s %10s %10s %8s %14s %8s\n", "lines", "run ms", "IQR",
                  "build ms", "collisions", "opp/act");
      for (std::size_t i = 0; i < lines.size(); ++i) {
        const Spread run = spread_of(rows[i].run_ms);
        std::printf("%8u %10.2f %10.2f %8.2f %14.0f %8.2f\n", lines[i],
                    run.median, run.iqr(), spread_of(rows[i].build_ms).median,
                    spread_of(rows[i].collisions).median,
                    spread_of(rows[i].opp_per_act).median);
      }
      std::printf("\n");
    }
  }
  return 0;
}
