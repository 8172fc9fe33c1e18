#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>

#include "bench.hpp"

namespace perfbench {

Summary summarize(std::vector<double> v) {
  Summary s;
  s.n = v.size();
  if (v.empty()) return s;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  s.median = n % 2 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
  if (n < 2) {
    s.q1 = s.q3 = s.median;
    return s;
  }
  // statistics.quantiles(method="exclusive"): position j/4 * (n + 1).
  auto quantile = [&](int j) {
    const double pos = j * static_cast<double>(n + 1) / 4.0;
    const double lo = std::floor(pos);
    const std::size_t i = static_cast<std::size_t>(
        std::clamp(lo, 1.0, static_cast<double>(n - 1)));
    const double frac = pos - static_cast<double>(i);
    return v[i - 1] + (v[i] - v[i - 1]) * frac;
  };
  s.q1 = quantile(1);
  s.q3 = quantile(3);
  return s;
}

double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double rank = std::ceil(p / 100.0 * static_cast<double>(v.size()));
  const std::size_t i = rank < 1 ? 0 : static_cast<std::size_t>(rank) - 1;
  return v[std::min(i, v.size() - 1)];
}

// ---------------------------------------------------------------------------
// Report

namespace {

const char* const kPrograms[] = {"weaver", "rubik", "tourney"};

}  // namespace

Report::Report(const std::string& workload) {
  auto add = [&](const std::string& name, const char* unit, bool e2e) {
    metrics_[name] = Metric{unit, e2e, 0};
    order_.push_back(name);
  };
  const bool serve = workload == "serve-worlds";
  // End to end (BENCHMARK.json "end_to_end", plus serve-worlds' own
  // three); README.md defines each one per workload.
  add("setup_s", "s", true);
  for (const char* p : kPrograms) add(std::string(p) + "_ms", "ms", true);
  if (serve) {
    add("lat_p50_ms", "ms", true);
    add("lat_p90_ms", "ms", true);
    add("max_rate_rps", "1/s", true);
  }
  add("peak_rss_mb", "MB", true);

  // Per layer (BENCHMARK.json "per_layer", plus serve-worlds' serve.* and
  // loadgen.* and shard-inproc's shard.*). A layer a workload bypasses
  // reads 0 there.
  add("ops5.parse_ms", "ms", false);
  add("rete.build_ms", "ms", false);
  add("rete.code_insns", "count", false);
  add("engine.load_ms", "ms", false);
  for (const char* p : kPrograms) {
    const std::string s = std::string(".") + p;
    add("engine.match_ms" + s, "ms", false);
    add("engine.control_ms" + s, "ms", false);
    add("match.tasks" + s, "count", false);
    add("match.ns_per_task" + s, "ns", false);
    add("match.vm_ops_per_task" + s, "count", false);
    add("match.line_collisions" + s, "count", false);
    add("match.opp_examined_per_act" + s, "count", false);
    add("sched.tasks_per_cycle" + s, "count", false);
    add("sched.steal_success_ratio" + s, "ratio", false);
    add("sched.requeues" + s, "count", false);
    add("locks.probes_per_acq" + s, "count", false);
  }
  if (serve) {
    add("serve.service_us.run", "us", false);
    add("serve.service_us.restore", "us", false);
    add("serve.service_us.checkpoint", "us", false);
    add("serve.residence_us_p50", "us", false);
    add("serve.residence_us_p90", "us", false);
    add("serve.handoff_us_p50", "us", false);
    add("serve.backlog_max", "count", false);
    add("serve.shed_overload", "count", false);
    add("serve.shed_deadline", "count", false);
    add("loadgen.lag_ms_p99", "ms", false);
  }
  if (workload == "shard-inproc") {
    for (const char* p : kPrograms) {
      const std::string s = std::string(".") + p;
      add("shard.batches" + s, "count", false);
      add("shard.frames" + s, "count", false);
      add("shard.bytes" + s, "B", false);
      add("shard.forwards" + s, "count", false);
      add("shard.rounds" + s, "count", false);
      add("shard.tasks" + s, "count", false);
      add("shard.priced_speedup" + s, "x", false);
      add("shard.wall_speedup" + s, "x", false);
    }
    add("shard.codec_ns_per_byte", "ns/B", false);
  }
  add("obs.overhead_pct", "%", false);
}

void Report::set(const std::string& name, double value) {
  auto it = metrics_.find(name);
  if (it == metrics_.end()) {
    std::fprintf(stderr, "perfbench: unregistered metric %s\n", name.c_str());
    std::abort();
  }
  it->second.value = value;
}

void Report::set_median(const std::string& name,
                        const std::vector<double>& samples) {
  const Summary s = summarize(samples);
  set(name, s.median);
  std::printf("  %-34s median %12.4f  q1 %12.4f  q3 %12.4f  n=%zu %s\n",
              name.c_str(), s.median, s.q1, s.q3, s.n,
              metrics_[name].unit.c_str());
}

void Report::stamp(const std::string& key, const std::string& value) {
  stamps_.emplace_back(key, value);
}

void Report::fail(const std::string& why) {
  ++failed_;
  // A systematic mismatch repeats every sample; name the first few.
  if (failures_printed_++ < 20)
    std::fprintf(stderr, "perfbench: FAILED: %s\n", why.c_str());
}

void Report::print(bool traced) const {
  std::printf("config:");
  for (const auto& [k, v] : stamps_) std::printf(" %s=%s", k.c_str(), v.c_str());
  std::printf("\n");
  const double ratio = attempted_ ? static_cast<double>(failed_) /
                                        static_cast<double>(attempted_)
                                  : 1.0;
  std::printf("  %-34s %.6g (%llu failed of %llu attempted)\n", "error_ratio",
              ratio, static_cast<unsigned long long>(failed_),
              static_cast<unsigned long long>(attempted_));

  std::string json = "{\"correct\": ";
  json += failed_ == 0 && attempted_ > 0 ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted_);
  json += ", \"failed\": " + std::to_string(failed_);
  json += ", \"metrics\": {";
  bool first = true;
  char buf[64];
  for (const std::string& name : order_) {
    const Metric& m = metrics_.at(name);
    if (m.end_to_end == traced) continue;
    std::printf("  %-34s %.6g %s\n", name.c_str(), m.value, m.unit.c_str());
    std::snprintf(buf, sizeof buf, "%.17g", std::isfinite(m.value) ? m.value : 0);
    json += (first ? "\"" : ", \"") + name + "\": {\"value\": " + buf +
            ", \"unit\": \"" + m.unit + "\"}";
    first = false;
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

// ---------------------------------------------------------------------------
// Spans

Spans::Scope Spans::open(const char* name, std::uint64_t request) {
  if (!enabled) return {};
  const double ts =
      std::chrono::duration<double, std::micro>(Clock::now() - epoch_).count();
  const std::int64_t parent =
      open_.empty() ? -1 : static_cast<std::int64_t>(open_.back());
  events_.push_back({name, request, parent, ts, -1});
  open_.push_back(events_.size() - 1);
  return Scope(this, events_.size() - 1);
}

void Spans::close(std::size_t index) {
  const double now =
      std::chrono::duration<double, std::micro>(Clock::now() - epoch_).count();
  events_[index].dur_us = now - events_[index].ts_us;
  if (!open_.empty() && open_.back() == index) open_.pop_back();
}

void Spans::write(
    const std::string& path,
    const std::vector<std::pair<std::string, std::string>>& meta) const {
  std::ofstream out(path);
  if (!out) {
    std::fprintf(stderr, "perfbench: cannot write %s\n", path.c_str());
    return;
  }
  out << "{\"displayTimeUnit\":\"ms\",\"otherData\":{";
  for (std::size_t i = 0; i < meta.size(); ++i)
    out << (i ? "," : "") << '"' << meta[i].first << "\":\"" << meta[i].second
        << '"';
  out << "},\"traceEvents\":[\n";
  char buf[256];
  for (std::size_t i = 0; i < events_.size(); ++i) {
    const Event& e = events_[i];
    // The layer is the name's prefix up to the first '.'.
    const std::string name = e.name;
    const std::string cat = name.substr(0, name.find('.'));
    std::snprintf(buf, sizeof buf,
                  "{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\",\"pid\":1,"
                  "\"tid\":1,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"span\":%zu,"
                  "\"parent\":%lld,\"request\":%llu}}",
                  e.name, cat.c_str(), e.ts_us, e.dur_us < 0 ? 0 : e.dur_us, i,
                  static_cast<long long>(e.parent),
                  static_cast<unsigned long long>(e.request));
    out << buf << (i + 1 < events_.size() ? ",\n" : "\n");
  }
  out << "]}\n";
}

// ---------------------------------------------------------------------------
// Programs and references

std::vector<Prog> default_programs() {
  return {{"weaver", psme::workloads::weaver()},
          {"rubik", psme::workloads::rubik()},
          {"tourney", psme::workloads::tourney()}};
}

std::vector<Prog> serve_programs() {
  return {{"weaver", psme::workloads::weaver(4, 2)},
          {"rubik", psme::workloads::rubik(10)},
          {"tourney", psme::workloads::tourney(6, false)}};
}

Reference reference_run(const Prog& prog) {
  const auto program = psme::ops5::Program::from_source(prog.workload.source);
  psme::EngineConfig cfg;
  cfg.mode = psme::ExecutionMode::LispStyle;
  psme::Engine engine(program, cfg);
  psme::workloads::load(engine, prog.workload);
  const psme::RunResult r = engine.run();
  return {engine.trace(), r.stats.cycles, r.stats.firings};
}

std::string compare_run(const Reference& ref,
                        const std::vector<psme::FiringRecord>& trace,
                        std::uint64_t cycles, std::uint64_t firings) {
  if (cycles != ref.cycles)
    return "cycles " + std::to_string(cycles) + " != reference " +
           std::to_string(ref.cycles);
  if (firings != ref.firings)
    return "firings " + std::to_string(firings) + " != reference " +
           std::to_string(ref.firings);
  if (trace.size() != ref.trace.size())
    return "trace length " + std::to_string(trace.size()) +
           " != reference " + std::to_string(ref.trace.size());
  for (std::size_t i = 0; i < trace.size(); ++i)
    if (!(trace[i] == ref.trace[i]))
      return "firing " + std::to_string(i) + " differs from the reference";
  return {};
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

int available_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) != 0) return 1;
  return CPU_COUNT(&set);
}

CpuRotation::CpuRotation() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) != 0) return;
  for (int c = 0; c < CPU_SETSIZE; ++c)
    if (CPU_ISSET(c, &set)) cpus_.push_back(c);
}

void CpuRotation::pin(std::size_t turn) {
  if (cpus_.empty()) return;
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpus_[turn % cpus_.size()], &set);
  pinned_ = sched_setaffinity(0, sizeof set, &set) == 0;
}

void CpuRotation::unpin() {
  if (!pinned_) return;
  cpu_set_t set;
  CPU_ZERO(&set);
  for (int c : cpus_) CPU_SET(c, &set);
  sched_setaffinity(0, sizeof set, &set);
  pinned_ = false;
}

}  // namespace perfbench
