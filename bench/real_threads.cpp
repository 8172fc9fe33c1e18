// Extra (not a paper table): wall-clock behaviour of the REAL std::thread
// engine on the build host. On a one-core machine this shows overhead, not
// speed-up — which is why the speed-up tables run on the Multimax
// simulator; on a multi-core host it shows what real threads buy. The
// rows up to 1+3 fit a 4-core host with one core per thread (the control
// helps execute match tasks, so 1+k has k+1 executors); the wider rows
// oversubscribe it.
#include <thread>

#include "bench_common.hpp"

using namespace psme;
using namespace psme::bench;

int main() {
  print_header("Real-thread engine wall-clock scaling (host-dependent)",
               "no paper table; see EXPERIMENTS.md");

  std::printf("host hardware threads: %u\n\n",
              std::thread::hardware_concurrency());
  const bool fast = fast_mode();
  ProgramSpec spec{"Rubik", workloads::rubik(fast ? 8 : 24)};
  auto program = ops5::Program::from_source(spec.workload.source);

  const SeqOutcome seq = run_sequential(spec, match::MemoryStrategy::Hash);
  std::printf("%-14s match %.2f ms\n", "sequential", seq.seconds * 1e3);

  for (const int procs : {1, 2, 3, 4, 8, 13}) {
    EngineOptions opt;
    opt.match_processes = procs;
    opt.task_queues = procs >= 4 ? 8 : 1;
    opt.max_cycles = 10'000'000;
    ParallelEngine eng(program, opt);
    workloads::load(eng, spec.workload);
    const RunResult r = eng.run();
    std::printf("1+%-12d match %.2f ms (speed-up vs sequential: %.2f)\n",
                procs, r.stats.match_seconds * 1e3,
                seq.seconds / r.stats.match_seconds);
  }
  return 0;
}
