// psme_perfbench: the wall-clock benchmark's driver binary.
//
//   psme_perfbench --workload NAME --seed N --seconds S --trace 0|1
//                  [--out PREFIX]
//
// Workloads: solo-seq, solo-threads, serve-worlds, shard-inproc (README.md
// says what each exercises and why). --trace 0 prints the end-to-end
// metrics; --trace 1 makes the separate traced run, prints the per-layer
// metrics and writes PREFIX.trace.json (Chrome trace of the benchmark's
// spans) and PREFIX.metrics.json (the obs registries it attached). The last
// line of stdout is the result JSON; the exit code is non-zero on any
// correctness failure.
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "bench.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace {

struct WorkloadInfo {
  const char* name;
  int threads;  // most runnable threads the workload uses
};
constexpr WorkloadInfo kWorkloads[] = {
    {"solo-seq", 1},
    {"solo-threads", 4},  // control thread + 3 match processes
    {"serve-worlds", 4},  // generator + 3 server workers
    {"shard-inproc", 4},  // coordinator + 3 shard threads
};

int usage(const char* why) {
  std::fprintf(stderr,
               "psme_perfbench: %s\n"
               "usage: psme_perfbench --workload NAME --seed N --seconds S "
               "--trace 0|1 [--out PREFIX]\n"
               "workloads: solo-seq solo-threads serve-worlds shard-inproc\n",
               why);
  return 2;
}

bool parse_u64(const char* s, std::uint64_t* out) {
  char* end = nullptr;
  const unsigned long long v = std::strtoull(s, &end, 10);
  if (!*s || *end) return false;
  *out = v;
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace perfbench;
  Options opt;
  opt.out_prefix = "perfbench";
  std::uint64_t seconds = 0, trace = 2;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (i + 1 >= argc) return usage(("missing value for " + a).c_str());
    const char* v = argv[++i];
    if (a == "--workload") {
      opt.workload = v;
    } else if (a == "--seed") {
      if (!parse_u64(v, &opt.seed)) return usage("bad --seed");
    } else if (a == "--seconds") {
      if (!parse_u64(v, &seconds) || seconds < 1 || seconds > 120)
        return usage("--seconds must be 1..120");
      opt.seconds = static_cast<int>(seconds);
    } else if (a == "--trace") {
      if (!parse_u64(v, &trace) || trace > 1) return usage("--trace is 0 or 1");
      opt.trace = trace == 1;
    } else if (a == "--out") {
      opt.out_prefix = v;
    } else {
      return usage(("unknown option " + a).c_str());
    }
  }
  if (seconds == 0 || trace > 1) return usage("--seconds and --trace are required");

  const WorkloadInfo* info = nullptr;
  for (const WorkloadInfo& w : kWorkloads)
    if (opt.workload == w.name) info = &w;
  if (!info) return usage(("unknown workload '" + opt.workload + "'").c_str());

  const int cpus = available_cpus();
  if (info->threads > cpus) {
    std::fprintf(stderr,
                 "psme_perfbench: %s runs %d threads but only %d CPUs are "
                 "available; refusing an oversubscribed measurement\n",
                 info->name, info->threads, cpus);
    return 3;
  }

  Report report(opt.workload);
  report.stamp("workload", opt.workload);
  report.stamp("seed", std::to_string(opt.seed));
  report.stamp("seconds", std::to_string(opt.seconds));
  report.stamp("trace", opt.trace ? "1" : "0");
  report.stamp("nproc", std::to_string(cpus));
  report.stamp("threads", std::to_string(info->threads));
  report.stamp("build", PERFBENCH_BUILD_TYPE);

  Spans spans;
  try {
    if (opt.workload == "solo-seq" || opt.workload == "solo-threads")
      run_solo(opt, opt.workload == "solo-threads", report, spans);
    else if (opt.workload == "serve-worlds")
      run_serve(opt, report, spans);
    else
      run_shard(opt, report, spans);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "psme_perfbench: %s\n", e.what());
    return 1;
  }

  if (opt.trace) {
    spans.write(opt.out_prefix + ".trace.json",
                {{"workload", opt.workload},
                 {"seed", std::to_string(opt.seed)},
                 {"nproc", std::to_string(cpus)},
                 {"threads", std::to_string(info->threads)},
                 {"build", PERFBENCH_BUILD_TYPE}});
    std::printf("wrote %s.trace.json (%zu spans)\n", opt.out_prefix.c_str(),
                spans.size());
  }
  report.print(opt.trace);
  return report.failed() == 0 ? 0 : 1;
}
