// solo-seq and solo-threads: a fresh Engine per run, each program from
// initial load to fixpoint, the three programs round-robin within a round.
#include <cstdio>
#include <fstream>
#include <optional>

#include "bench.hpp"
#include "obs/observability.hpp"

namespace perfbench {
namespace {

constexpr int kWarmupRounds = 2;  // discarded
constexpr int kMinRounds = 5;     // kept, per traced/untraced half

struct Sample {
  double run_ms = 0;  // load + run, wall
  psme::RunStats stats;
};

double ratio(double num, double den) { return den > 0 ? num / den : 0; }

// Medians of the per-layer figures of one program's untraced runs.
void set_layer_metrics(Report& report, const std::string& p,
                       const std::vector<Sample>& samples) {
  std::vector<double> match_ms, control_ms, tasks, ns_per_task, vm_ops,
      collisions, opp, per_cycle, steal, requeues, probes;
  for (const Sample& s : samples) {
    const psme::MatchStats& m = s.stats.match;
    const double t = static_cast<double>(m.tasks_executed);
    match_ms.push_back(s.stats.match_seconds * 1e3);
    control_ms.push_back(s.run_ms - s.stats.match_seconds * 1e3);
    tasks.push_back(t);
    ns_per_task.push_back(ratio(s.stats.match_seconds * 1e9, t));
    vm_ops.push_back(ratio(
        static_cast<double>(m.vm_loads + m.vm_tests + m.vm_branches), t));
    collisions.push_back(static_cast<double>(m.line_collisions));
    opp.push_back(ratio(static_cast<double>(m.opp_examined[0] + m.opp_examined[1]),
                        static_cast<double>(m.opp_activations[0] +
                                            m.opp_activations[1])));
    per_cycle.push_back(ratio(t, static_cast<double>(s.stats.cycles)));
    steal.push_back(ratio(static_cast<double>(m.steal_successes),
                          static_cast<double>(m.steal_attempts)));
    requeues.push_back(static_cast<double>(m.requeues));
    probes.push_back(ratio(static_cast<double>(m.line_probes[0] + m.line_probes[1]),
                           static_cast<double>(m.line_acquisitions[0] +
                                               m.line_acquisitions[1])));
  }
  report.set_median("engine.match_ms." + p, match_ms);
  report.set_median("engine.control_ms." + p, control_ms);
  report.set_median("match.tasks." + p, tasks);
  report.set_median("match.ns_per_task." + p, ns_per_task);
  report.set_median("match.vm_ops_per_task." + p, vm_ops);
  report.set_median("match.line_collisions." + p, collisions);
  report.set_median("match.opp_examined_per_act." + p, opp);
  report.set_median("sched.tasks_per_cycle." + p, per_cycle);
  report.set_median("sched.steal_success_ratio." + p, steal);
  report.set_median("sched.requeues." + p, requeues);
  report.set_median("locks.probes_per_acq." + p, probes);
}

}  // namespace

void run_solo(const Options& opt, bool threaded, Report& report,
              Spans& spans) {
  const std::vector<Prog> progs = default_programs();
  std::vector<Reference> refs;
  for (const Prog& p : progs) refs.push_back(reference_run(p));

  psme::EngineConfig cfg;
  cfg.options.seed = opt.seed;
  if (threaded) {
    cfg.mode = psme::ExecutionMode::ParallelThreads;
    cfg.options.match_processes = 3;
    cfg.options.scheduler = psme::match::SchedulerKind::Steal;
  }

  // Set-up: parse, compile and initial load of every program. One more
  // repetition runs at the start of every round, so setup_s samples the
  // same host conditions as the timed runs.
  std::vector<double> setup_s, parse_ms, build_ms, load_ms;
  std::vector<std::unique_ptr<psme::ops5::Program>> programs;
  double code_insns = 0;
  auto set_up = [&](bool keep) {
    std::vector<std::unique_ptr<psme::ops5::Program>> parsed;
    double parse = 0, build = 0, load = 0;
    code_insns = 0;
    for (const Prog& p : progs) {
      auto span = spans.open("bench.set_up");
      const auto t0 = Clock::now();
      {
        auto s = spans.open("ops5.parse");
        parsed.push_back(std::make_unique<psme::ops5::Program>(
            psme::ops5::Program::from_source(p.workload.source)));
      }
      const auto t1 = Clock::now();
      std::optional<psme::Engine> engine;
      {
        auto s = spans.open("rete.build");
        engine.emplace(*parsed.back(), cfg);
      }
      const auto t2 = Clock::now();
      {
        auto s = spans.open("engine.load");
        psme::workloads::load(*engine, p.workload);
      }
      const auto t3 = Clock::now();
      parse += seconds_between(t0, t1);
      build += seconds_between(t1, t2);
      load += seconds_between(t2, t3);
      code_insns += static_cast<double>(engine->network().code().size());
    }
    if (keep) {
      setup_s.push_back(parse + build + load);
      parse_ms.push_back(parse * 1e3);
      build_ms.push_back(build * 1e3);
      load_ms.push_back(load * 1e3);
    }
    return parsed;
  };
  programs = set_up(false);

  // One obs::Observability per program, attached to the traced runs; its
  // registry accumulates over them.
  std::vector<psme::obs::Observability> observers(progs.size());
  std::vector<std::vector<Sample>> samples(progs.size());
  std::vector<double> round_ms, traced_round_ms;
  const std::size_t start = opt.seed % progs.size();
  const auto deadline = Clock::now() + std::chrono::seconds(opt.seconds);
  CpuRotation rotation;
  const int kinds = opt.trace ? 2 : 1;  // traced runs alternate with untraced

  for (int round = 0;; ++round) {
    const bool traced = round % kinds == 1;
    const bool kept = round / kinds >= kWarmupRounds;
    if (Clock::now() >= deadline && round_ms.size() >= kMinRounds &&
        (!opt.trace || traced_round_ms.size() >= kMinRounds))
      break;
    // The threaded engine spawns its match processes on its first run;
    // they would inherit a pin.
    if (!threaded) rotation.pin(static_cast<std::size_t>(round / kinds));
    spans.enabled = traced;
    auto round_span = spans.open("bench.round", round);
    set_up(kept && !traced);
    double sum_ms = 0;
    for (std::size_t i = 0; i < progs.size(); ++i) {
      const std::size_t idx = (start + i) % progs.size();
      psme::EngineConfig run_cfg = cfg;
      if (traced) run_cfg.options.obs = &observers[idx];
      std::unique_ptr<psme::Engine> engine;
      {
        auto s = spans.open("rete.build", round);
        engine = std::make_unique<psme::Engine>(*programs[idx], run_cfg);
      }
      const auto t0 = Clock::now();
      {
        auto s = spans.open("engine.load", round);
        psme::workloads::load(*engine, progs[idx].workload);
      }
      psme::RunResult result;
      {
        auto s = spans.open("engine.run", round);
        result = engine->run();
      }
      const auto t1 = Clock::now();
      if (traced) observers[idx].export_run(result.stats);

      report.attempt();
      const std::string diff = compare_run(refs[idx], engine->trace(),
                                           result.stats.cycles,
                                           result.stats.firings);
      if (!diff.empty()) report.fail(progs[idx].name + ": " + diff);

      const double ms = seconds_between(t0, t1) * 1e3;
      sum_ms += ms;
      if (kept && !traced) samples[idx].push_back({ms, result.stats});
    }
    if (kept) (traced ? traced_round_ms : round_ms).push_back(sum_ms);
  }
  spans.enabled = false;
  rotation.unpin();

  std::printf("%s: %zu kept rounds (+%d warm-up), %zu traced\n",
              threaded ? "solo-threads" : "solo-seq", round_ms.size(),
              kWarmupRounds, traced_round_ms.size());
  if (!opt.trace) {
    report.set_median("setup_s", setup_s);
    for (std::size_t i = 0; i < progs.size(); ++i) {
      std::vector<double> ms;
      for (const Sample& s : samples[i]) ms.push_back(s.run_ms);
      report.set_median(progs[i].name + "_ms", ms);
    }
    report.set("peak_rss_mb", peak_rss_mb());
    return;
  }

  report.set_median("ops5.parse_ms", parse_ms);
  report.set_median("rete.build_ms", build_ms);
  report.set("rete.code_insns", code_insns);
  report.set_median("engine.load_ms", load_ms);
  for (std::size_t i = 0; i < progs.size(); ++i)
    set_layer_metrics(report, progs[i].name, samples[i]);
  const double base = summarize(round_ms).median;
  report.set("obs.overhead_pct",
             (summarize(traced_round_ms).median - base) / base * 100.0);

  psme::obs::JsonObject merged;
  for (std::size_t i = 0; i < progs.size(); ++i)
    merged.emplace_back(progs[i].name, observers[i].registry.to_json());
  std::ofstream out(opt.out_prefix + ".metrics.json");
  out << psme::obs::Json(std::move(merged)).dump(1) << "\n";
}

}  // namespace perfbench
