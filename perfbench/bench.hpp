// Shared pieces of the wall-clock benchmark: options, sample summaries, the
// result report, the benchmark's own span recorder, and the LispStyle
// reference runs every timed run is checked against.
//
// The benchmark drives the library only through its public calls (see
// README.md); every helper here sits on the benchmark side of that line.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "engine/engine.hpp"
#include "ops5/program.hpp"
#include "workloads/workloads.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  int seconds = 10;
  bool trace = false;
  std::string out_prefix;  // the traced run writes <prefix>.trace.json etc.
};

// Median and quartiles as Python's statistics.quantiles(v, n=4) gives them
// (the "exclusive" method), plus a nearest-rank tail percentile.
struct Summary {
  std::size_t n = 0;
  double q1 = 0, median = 0, q3 = 0;
};
Summary summarize(std::vector<double> v);
double percentile(std::vector<double> v, double p);  // p in [0, 100]

// Collects the run's metrics and correctness tally and prints them: one
// human-readable line per metric (with quartiles where the metric is a
// median of samples), then the result JSON as the last line of stdout.
class Report {
 public:
  // Pre-registers every metric the workload prints.
  explicit Report(const std::string& workload);

  void set(const std::string& name, double value);
  // Records the median of `samples` as the metric and prints its quartiles.
  void set_median(const std::string& name, const std::vector<double>& samples);
  void stamp(const std::string& key, const std::string& value);

  void attempt(std::uint64_t n = 1) { attempted_ += n; }
  // Counts one failed operation and says why on stderr.
  void fail(const std::string& why);
  std::uint64_t failed() const { return failed_; }

  // Prints the report; `traced` selects the per-layer metric set.
  void print(bool traced) const;

 private:
  struct Metric {
    std::string unit;
    bool end_to_end = false;
    double value = 0;
  };
  std::map<std::string, Metric> metrics_;
  std::vector<std::string> order_;
  std::vector<std::pair<std::string, std::string>> stamps_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  std::uint64_t failures_printed_ = 0;
};

// The benchmark's own spans around the public calls it makes, written out
// at the end in Chrome trace_event format. Recording is from the calling
// thread only; a disabled recorder reads no clock.
class Spans {
 public:
  class Scope {
   public:
    Scope() = default;
    Scope(Spans* spans, std::size_t index) : spans_(spans), index_(index) {}
    Scope(Scope&& o) noexcept : spans_(o.spans_), index_(o.index_) {
      o.spans_ = nullptr;
    }
    Scope& operator=(Scope&&) = delete;
    Scope(const Scope&) = delete;
    ~Scope() {
      if (spans_) spans_->close(index_);
    }

   private:
    Spans* spans_ = nullptr;
    std::size_t index_ = 0;
  };

  bool enabled = false;

  // Opens a span named `name` (a layer-qualified call, e.g. "engine.run");
  // its parent is the innermost span still open. `request` groups the
  // spans of one run or request.
  Scope open(const char* name, std::uint64_t request = 0);
  void write(const std::string& path,
             const std::vector<std::pair<std::string, std::string>>& meta)
      const;
  std::size_t size() const { return events_.size(); }

 private:
  struct Event {
    const char* name;
    std::uint64_t request;
    std::int64_t parent;  // index into events_, -1 for a root span
    double ts_us;
    double dur_us;
  };
  void close(std::size_t index);

  Clock::time_point epoch_ = Clock::now();
  std::vector<Event> events_;
  std::vector<std::size_t> open_;
};

// A program at its benchmark scale, parsed once for the reference run.
struct Prog {
  std::string name;  // weaver | rubik | tourney
  psme::workloads::Workload workload;
};
// Generator defaults (solo and shard workloads).
std::vector<Prog> default_programs();
// The serve tier's LoadGen scale.
std::vector<Prog> serve_programs();

// A program's firing trace as computed by the interpreted LispStyle engine,
// an independent matcher rather than the code under test.
struct Reference {
  std::vector<psme::FiringRecord> trace;
  std::uint64_t cycles = 0;
  std::uint64_t firings = 0;
};
Reference reference_run(const Prog& prog);
// Empty when the run agrees with the reference, else what differs.
std::string compare_run(const Reference& ref,
                        const std::vector<psme::FiringRecord>& trace,
                        std::uint64_t cycles, std::uint64_t firings);

double peak_rss_mb();
int available_cpus();

// Rotates the calling thread over the CPUs the process may use. On a
// shared host the CPUs differ in speed from moment to moment, and a
// single-threaded run otherwise keeps whichever one it started on; pinning
// each round to the next CPU in turn makes every run sample all of them
// alike. Threads created while pinned inherit the pin, so multi-threaded
// workloads must not use it.
class CpuRotation {
 public:
  CpuRotation();
  ~CpuRotation() { unpin(); }
  CpuRotation(const CpuRotation&) = delete;
  CpuRotation& operator=(const CpuRotation&) = delete;

  void pin(std::size_t turn);  // to CPU number turn % size()
  void unpin();                // back to the original set

 private:
  std::vector<int> cpus_;
  bool pinned_ = false;
};

// Workload entry points (solo.cpp, serve.cpp, shard.cpp). Each fills the
// end-to-end metrics (untraced) or the per-layer ones (traced) and counts
// attempts and failures into `report`.
void run_solo(const Options& opt, bool threaded, Report& report,
              Spans& spans);
void run_serve(const Options& opt, Report& report, Spans& spans);
void run_shard(const Options& opt, Report& report, Spans& spans);

}  // namespace perfbench
