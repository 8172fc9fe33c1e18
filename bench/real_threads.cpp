// Extra (not a paper table): wall-clock behaviour of the REAL std::thread
// engine on the build host. On a one-core machine this shows overhead, not
// speed-up — which is why the speed-up tables run on the Multimax
// simulator; on a multi-core host it shows what real threads buy. The
// rows up to 1+3 fit a 4-core host with one core per thread (the control
// helps execute match tasks, so 1+k has k+1 executors); the wider rows
// oversubscribe it.
//
// Every row is kRepeats fresh runs; it prints the median match time and
// its interquartile range, so a bimodal row shows as a wide IQR instead
// of a lucky or unlucky single sample. Each 1+k has a central row (the
// paper's spin-locked queues: one below 1+4, eight from 1+4) and a steal
// row (per-worker work-stealing deques, docs/scheduling.md).
#include <thread>

#include "bench_common.hpp"

using namespace psme;
using namespace psme::bench;

namespace {

constexpr int kRepeats = 7;

void print_row(const char* label, const Spread& s, double seq_median) {
  std::printf("%-16s match %8.2f ms  IQR %6.2f ms  (speed-up vs "
              "sequential: %.2f)\n",
              label, s.median * 1e3, s.iqr() * 1e3, seq_median / s.median);
}

}  // namespace

int main() {
  print_header("Real-thread engine wall-clock scaling (host-dependent)",
               "no paper table; see EXPERIMENTS.md");

  std::printf("host hardware threads: %u, %d runs per row\n\n",
              std::thread::hardware_concurrency(), kRepeats);
  const bool fast = fast_mode();
  ProgramSpec spec{"Rubik", workloads::rubik(fast ? 8 : 24)};
  auto program = ops5::Program::from_source(spec.workload.source);

  std::vector<double> seq_s;
  for (int i = 0; i < kRepeats; ++i)
    // Sized tables, like the threaded rows (EngineOptions defaults).
    seq_s.push_back(
        run_sequential(spec, match::MemoryStrategy::Hash, 0).seconds);
  const Spread seq = spread_of(seq_s);
  print_row("sequential", seq, seq.median);

  for (const int procs : {1, 2, 3, 4, 8, 13}) {
    for (const match::SchedulerKind sched :
         {match::SchedulerKind::Central, match::SchedulerKind::Steal}) {
      EngineOptions opt;
      opt.match_processes = procs;
      opt.scheduler = sched;
      opt.task_queues = procs >= 4 ? 8 : 1;
      opt.max_cycles = 10'000'000;
      std::vector<double> match_s;
      for (int i = 0; i < kRepeats; ++i) {
        ParallelEngine eng(program, opt);
        workloads::load(eng, spec.workload);
        match_s.push_back(eng.run().stats.match_seconds);
      }
      const bool steal = sched == match::SchedulerKind::Steal;
      const std::string label =
          "1+" + std::to_string(procs) + (steal ? " steal" : " central");
      print_row(label.c_str(), spread_of(match_s), seq.median);
    }
  }
  return 0;
}
