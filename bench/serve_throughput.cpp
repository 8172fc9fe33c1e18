// Serving throughput: closed-loop load against the multi-session server,
// sweeping the worker-pool size. Unlike the table4_* benches this measures
// the serving layer itself (queueing, per-session locking, admission
// control), not the match kernel — the per-request work is a fixed run
// slice on a small sequential engine. Latency percentiles come from the
// psme.serve.latency_us histogram (log2 buckets, so they carry < 2x
// relative error; see docs/serving.md).
//
// Usage: serve_throughput [--json FILE] [--worlds N[,N...]]
// PSME_BENCH_FAST=1 shrinks the fleet for CI.
//
// --worlds switches to the multi-world comparison: N sessions served by
// ONE world::BatchEngine (shared Rete network + bytecode, N world slots)
// versus N engine-per-session SequentialEngines, each timed end to end
// (construction + load + a short run slice, the serving shape). Reported
// as sessions/sec; the batch side's win is the amortized compile and the
// shared read-only program image staying cache-warm across worlds. Each
// world count runs kWorldsRepeats times (batched and per-engine
// alternating) and the JSON carries the median sessions/sec, so one run
// on a loaded host cannot move the CI gate on its own.
#include <chrono>

#include "bench_common.hpp"
#include "serve/loadgen.hpp"
#include "world/batch_engine.hpp"

using namespace psme;
using namespace psme::bench;

namespace {

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

// One serving "session": stand up state for the program, load its initial
// wmes, run a short cycle slice. Returns total cycles run (sanity check:
// both sides must do identical rule work).
constexpr std::uint64_t kSliceCycles = 10;
constexpr int kWorldsRepeats = 5;

int run_worlds_mode(BenchJson& json, const std::vector<std::uint32_t>& counts) {
  // Weaver at small scale: Rete compilation (~1ms) dominates one short
  // session (~0.3ms), the shape where sharing the compiled image pays.
  // Workloads whose per-session run dwarfs compilation (rubik) amortize
  // little — the caveat in EXPERIMENTS.md quantifies both.
  const auto workload = workloads::weaver(8, 2);
  const auto program = ops5::Program::from_source(workload.source);
  EngineOptions opt;
  opt.match_processes = 0;   // inline match: the serving configuration
  opt.hash_buckets = 64;     // small per-world tables; 4096 worlds fit
  opt.max_cycles = kSliceCycles;

  json.stamp("mode", obs::Json("worlds"));
  std::printf("\n=== Batched worlds vs engine-per-session "
              "(median of %d runs) ===\n\n",
              kWorldsRepeats);
  std::printf("%-8s %16s %16s %10s\n", "WORLDS", "batched sess/s",
              "per-eng sess/s", "speedup");

  for (const std::uint32_t w : counts) {
    std::vector<double> solo_rates;
    std::vector<double> batch_rates;
    std::uint64_t batch_cycles = 0;
    for (int rep = 0; rep < kWorldsRepeats; ++rep) {
      // Engine-per-session: each session pays its own Rete compilation.
      auto t0 = std::chrono::steady_clock::now();
      std::uint64_t solo_cycles = 0;
      for (std::uint32_t i = 0; i < w; ++i) {
        SequentialEngine eng(program, opt);
        for (const std::string& wme : workload.initial_wmes) eng.make(wme);
        solo_cycles += eng.run().stats.cycles;
      }
      solo_rates.push_back(w / seconds_since(t0));

      // Batched: one engine, w world slots, one shared compiled image.
      t0 = std::chrono::steady_clock::now();
      EngineOptions bopt = opt;
      bopt.worlds = w;
      world::BatchEngine batch(program, bopt);
      for (std::uint32_t i = 0; i < w; ++i) {
        for (const std::string& wme : workload.initial_wmes)
          batch.make(i, wme);
        batch.set_max_cycles(i, kSliceCycles);
      }
      batch.run_all();
      batch_rates.push_back(w / seconds_since(t0));
      batch_cycles = 0;
      for (std::uint32_t i = 0; i < w; ++i)
        batch_cycles += batch.world(i).stats().cycles;
      if (batch_cycles != solo_cycles) {
        std::fprintf(stderr, "cycle mismatch: batched %llu vs solo %llu\n",
                     static_cast<unsigned long long>(batch_cycles),
                     static_cast<unsigned long long>(solo_cycles));
        return 1;
      }
    }

    const Spread batch_spread = spread_of(batch_rates);
    const double batch_sps = batch_spread.median;
    const double solo_sps = spread_of(solo_rates).median;
    std::printf("%-8u %16.1f %16.1f %9.2fx\n", w, batch_sps, solo_sps,
                batch_sps / solo_sps);
    json.add(obs::Json(obs::JsonObject{
        {"label", obs::Json("worlds=" + std::to_string(w))},
        {"worlds", obs::Json(std::uint64_t{w})},
        {"sessions_per_sec", obs::Json(batch_sps)},
        {"sessions_per_sec_iqr", obs::Json(batch_spread.iqr())},
        {"repeats", obs::Json(kWorldsRepeats)},
        {"per_engine_sessions_per_sec", obs::Json(solo_sps)},
        {"speedup", obs::Json(batch_sps / solo_sps)},
        {"cycles", obs::Json(batch_cycles)},
    }));
  }
  std::printf(
      "\nShape check: speedup grows with the world count as the one-time\n"
      "compile amortizes; it saturates once per-session match work\n"
      "dominates. The batch holds every world's state at once (peak RSS\n"
      "scales with worlds); engine-per-session peaks at one engine.\n");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  BenchJson json("serve_throughput", argc, argv);
  std::vector<std::uint32_t> world_counts;
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) == "--worlds" && i + 1 < argc) {
      std::string list = argv[i + 1];
      for (std::size_t pos = 0; pos < list.size();) {
        const std::size_t comma = list.find(',', pos);
        const std::string tok =
            list.substr(pos, comma == std::string::npos ? comma : comma - pos);
        world_counts.push_back(
            static_cast<std::uint32_t>(std::stoul(tok)));
        if (comma == std::string::npos) break;
        pos = comma + 1;
      }
    }
  }
  if (!world_counts.empty()) return run_worlds_mode(json, world_counts);

  const bool fast = fast_mode();
  const int sessions = fast ? 12 : 64;
  const int worker_counts[] = {1, 2, 4, 8};

  std::printf("\n=== Serving throughput: closed loop, %d sessions ===\n\n",
              sessions);
  std::printf("%-8s %12s %10s %10s %10s %10s\n", "WORKERS", "req/s",
              "mean us", "p50 us", "p95 us", "p99 us");

  for (const int workers : worker_counts) {
    serve::Server server({.workers = workers, .queue_capacity = 4096});
    serve::LoadGenConfig config;
    config.sessions = sessions;
    config.run_slices = fast ? 2 : 4;
    config.run_cycles = 25;
    config.seed = 7;
    config.engine.mode = ExecutionMode::Sequential;
    obs::Registry registry;
    const serve::LoadGenReport r =
        serve::run_loadgen(server, config, registry);
    if (r.divergent > 0) {
      std::fprintf(stderr, "divergent traces: %llu\n",
                   static_cast<unsigned long long>(r.divergent));
      return 1;
    }
    std::printf("%-8d %12.1f %10.1f %10.1f %10.1f %10.1f\n", workers,
                r.throughput_rps, r.latency_mean_us, r.p50_us, r.p95_us,
                r.p99_us);
    obs::JsonObject row = r.to_json().as_object();
    row.emplace_back("label", obs::Json("workers=" + std::to_string(workers)));
    row.emplace_back("workers", obs::Json(workers));
    json.add(obs::Json(std::move(row)));
  }
  std::printf(
      "\nShape check: throughput rises with the pool until the sessions'\n"
      "engines (not the queue) are the bottleneck; tail latency falls as\n"
      "head-of-line blocking spreads over more workers.\n");
  return 0;
}
