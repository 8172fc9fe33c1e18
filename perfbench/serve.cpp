// serve-worlds: one Server with 3 workers serving world-slot sessions
// (one BatchEngine per program) under single-threaded open-loop Poisson
// arrivals, with every reply checked against an in-order replay.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <deque>
#include <random>
#include <thread>

#include "bench.hpp"
#include "serve/server.hpp"

namespace perfbench {
namespace {

using psme::serve::Response;
using psme::serve::Server;
using psme::serve::SessionId;

constexpr int kWorkers = 3;
constexpr std::uint32_t kSessionsPerProgram = 16;
constexpr int kSetups = 3;
constexpr const char* kRunLine = "run 8";
constexpr double kCheckpointShare = 0.05;
// Offered rates (requests/s). The nominal rate is where latency is quoted;
// the ladder climbs by 8% a rung to find the highest rate whose p90 stays
// under kP90LimitMs with no errors and no growing backlog (the rung's last
// reply lands within kP90LimitMs of its arrival window's end).
constexpr double kNominalRps = 1000;
constexpr double kLadderStart = 1500;
constexpr double kLadderStep = 1.08;
constexpr int kLadderRungs = 30;
constexpr double kRungSeconds = 0.5;
constexpr double kP90LimitMs = 10.0;
constexpr double kWarmupSeconds = 0.5;

enum class Verb { Run, Restore, Checkpoint };
// Spans of the replay's direct Session::execute calls, by verb.
constexpr const char* kReplaySpan[] = {"serve.execute_run",
                                       "serve.execute_restore",
                                       "serve.execute_checkpoint"};
const char* verb_name(Verb v) {
  return v == Verb::Run ? "run" : v == Verb::Restore ? "restore" : "checkpoint";
}

struct Request {
  std::uint32_t session = 0;  // index into Setup::ids
  Verb verb = Verb::Run;
  std::uint32_t epoch = 0;  // the session's restore count when sent
  int phase = 0;
  double due_us = 0;     // server clock: when the arrival was due
  double submit_us = 0;  // server clock: when submit() was called
  std::future<Response> future;
  Response response;
  bool resolved = false;
};

bool is_shed(const Response& r) {
  return !r.ok && r.text.rfind("overloaded", 0) == 0;
}
bool is_deadline_shed(const Response& r) {
  return !r.ok && r.text.rfind("deadline expired", 0) == 0;
}
bool reports_stop(const Response& r) {
  return r.ok && (r.text.find("reason=halt") != std::string::npos ||
                  r.text.find("reason=empty") != std::string::npos);
}

struct Setup {
  std::vector<std::unique_ptr<psme::ops5::Program>> programs;
  std::unique_ptr<Server> server;
  std::vector<SessionId> ids;          // all sessions, program-major
  std::vector<std::uint32_t> program;  // session -> program index
  std::vector<std::string> restore;    // per program: "restore <ckpt>"
};

// Parse, open the sessions, load the initial working memory through the
// server and capture each program's initial checkpoint.
Setup set_up(const std::vector<Prog>& progs, Report& report, Spans& spans,
             double* parse_s, double* build_s, double* load_s) {
  Setup s;
  auto span = spans.open("bench.set_up");
  const auto t0 = Clock::now();
  for (const Prog& p : progs) {
    auto ps = spans.open("ops5.parse");
    s.programs.push_back(std::make_unique<psme::ops5::Program>(
        psme::ops5::Program::from_source(p.workload.source)));
  }
  const auto t1 = Clock::now();
  psme::serve::ServerConfig scfg;
  scfg.workers = kWorkers;
  s.server = std::make_unique<Server>(scfg);
  for (std::size_t i = 0; i < progs.size(); ++i) {
    auto ws = spans.open("world.open_batch_sessions");
    const auto ids = s.server->open_batch_sessions(*s.programs[i], {},
                                                   kSessionsPerProgram);
    s.ids.insert(s.ids.end(), ids.begin(), ids.end());
    s.program.insert(s.program.end(), ids.size(),
                     static_cast<std::uint32_t>(i));
  }
  const auto t2 = Clock::now();
  // Initial working memory, one `make` call at a time: a session's
  // pipelined requests can execute out of order on this server (ROADMAP
  // P0), which would change the timetags every later reply depends on.
  // The measured traffic below stays pipelined and is checked for it.
  for (std::size_t k = 0; k < s.ids.size(); ++k)
    for (const std::string& wme : progs[s.program[k]].workload.initial_wmes) {
      report.attempt();
      auto ms = spans.open("serve.make", k);
      const Response r = s.server->call(s.ids[k], "make " + wme);
      if (!r.ok) report.fail("serve set-up make: " + r.render());
    }
  for (std::size_t i = 0; i < progs.size(); ++i) {
    const std::size_t k = i * kSessionsPerProgram;
    report.attempt();
    auto cs = spans.open("serve.checkpoint", k);
    const Response r = s.server->call(s.ids[k], "checkpoint");
    if (!r.ok) report.fail("serve set-up checkpoint: " + r.render());
    s.restore.push_back("restore " + r.text);
  }
  const auto t3 = Clock::now();
  *parse_s = seconds_between(t0, t1);
  *build_s = seconds_between(t1, t2);
  *load_s = seconds_between(t2, t3);
  return s;
}

// The single open-loop generator thread: Poisson arrivals, each to a
// uniformly chosen session, pipelined (a session's next request does not
// wait for its previous reply).
class Generator {
 public:
  Generator(Setup& setup, std::uint64_t seed, Spans& spans)
      : setup_(setup),
        spans_(spans),
        rng_(seed),
        epoch_(setup.ids.size(), 0),
        stopped_(setup.ids.size(), -1) {}

  std::deque<Request> log;  // every request, in submission order

  // Sends arrivals at `rate` for `seconds`; returns [first, last) into log.
  std::pair<std::size_t, std::size_t> phase(double rate, double seconds,
                                            int phase) {
    Server& server = *setup_.server;
    std::exponential_distribution<double> gap(rate / 1e6);  // per us
    std::uniform_int_distribution<std::size_t> pick(0, setup_.ids.size() - 1);
    std::uniform_real_distribution<double> unit(0, 1);
    const std::size_t first = log.size();
    const double start = server.now_us();
    const double end = start + seconds * 1e6;
    for (double due = start + gap(rng_); due < end; due += gap(rng_)) {
      for (;;) {
        const double wait = due - server.now_us();
        if (wait <= 0) break;
        poll(16);
        if (wait > 200)
          std::this_thread::sleep_for(
              std::chrono::microseconds(static_cast<long>(wait - 120)));
        else
          std::this_thread::yield();
      }
      Request& r = log.emplace_back();
      r.session = static_cast<std::uint32_t>(pick(rng_));
      r.phase = phase;
      r.due_us = due;
      std::string line = kRunLine;
      if (stopped_[r.session] == static_cast<int>(epoch_[r.session])) {
        r.verb = Verb::Restore;
        line = setup_.restore[setup_.program[r.session]];
        ++epoch_[r.session];
      } else if (unit(rng_) < kCheckpointShare) {
        r.verb = Verb::Checkpoint;
        line = "checkpoint";
      }
      r.epoch = epoch_[r.session];
      auto span = spans_.open("serve.submit", log.size());
      r.submit_us = server.now_us();
      r.future = server.submit(setup_.ids[r.session], std::move(line));
    }
    return {first, log.size()};
  }

  void wait_all() {
    for (; oldest_ < log.size(); ++oldest_) resolve(log[oldest_]);
  }

 private:
  void resolve(Request& r) {
    if (r.resolved) return;
    r.response = r.future.get();
    r.resolved = true;
    if (r.verb == Verb::Run && r.epoch == epoch_[r.session] &&
        reports_stop(r.response))
      stopped_[r.session] = static_cast<int>(r.epoch);
  }
  // Resolves up to `budget` ready replies, oldest first.
  void poll(int budget) {
    for (std::size_t i = oldest_; i < log.size() && budget > 0; ++i, --budget) {
      Request& r = log[i];
      if (!r.resolved && r.future.wait_for(std::chrono::seconds(0)) ==
                             std::future_status::ready)
        resolve(r);
    }
    while (oldest_ < log.size() && log[oldest_].resolved) ++oldest_;
  }

  Setup& setup_;
  Spans& spans_;
  std::mt19937_64 rng_;
  std::vector<std::uint32_t> epoch_;
  std::vector<int> stopped_;  // epoch whose stop a reply reported
  std::size_t oldest_ = 0;
};

struct PhaseStats {
  double rate = 0;
  std::size_t requests = 0, errors = 0, shed = 0, deadline_shed = 0;
  double achieved_rps = 0;  // ok replies per second of the arrival window
  double p50_ms = 0, p90_ms = 0;
  double drain_ms = 0;  // last reply after the arrival window closed
  std::size_t backlog_max = 0;
  std::vector<double> latency_ms[3];  // per program, ok replies
  std::vector<double> all_ms, residence_us, handoff_us, lag_ms;
  bool passes = false;
};

using Ranges = std::vector<std::pair<std::size_t, std::size_t>>;

// Statistics over the requests of `ranges` (segments of one phase kind),
// whose arrival windows sum to `seconds`.
PhaseStats phase_stats(const Setup& setup, const std::deque<Request>& log,
                       const Ranges& ranges, double rate, double seconds) {
  PhaseStats ps;
  ps.rate = rate;
  std::vector<std::pair<double, int>> events;  // (time, +1 enqueue/-1 done)
  for (const auto& [first, last] : ranges) {
    if (first == last) continue;
    const double window_end =
        log[first].due_us + seconds / static_cast<double>(ranges.size()) * 1e6;
    ps.requests += last - first;
    for (std::size_t i = first; i < last; ++i) {
      const Request& r = log[i];
      const Response& resp = r.response;
      ps.lag_ms.push_back((r.submit_us - r.due_us) / 1e3);
      if (!resp.ok) {
        ++ps.errors;
        ps.shed += is_shed(resp);
        ps.deadline_shed += is_deadline_shed(resp);
        ps.all_ms.push_back(HUGE_VAL);  // a refused request misses any limit
        continue;
      }
      const double ms = (resp.complete_us - r.due_us) / 1e3;
      ps.all_ms.push_back(ms);
      ps.latency_ms[setup.program[r.session]].push_back(ms);
      ps.residence_us.push_back(resp.complete_us - resp.enqueue_us);
      ps.handoff_us.push_back(resp.enqueue_us - r.submit_us);
      events.push_back({resp.enqueue_us, +1});
      events.push_back({resp.complete_us, -1});
      ps.drain_ms = std::max(ps.drain_ms, (resp.complete_us - window_end) / 1e3);
    }
  }
  std::sort(events.begin(), events.end());
  long depth = 0;
  for (const auto& [t, d] : events) {
    depth += d;
    ps.backlog_max =
        std::max(ps.backlog_max, static_cast<std::size_t>(std::max(0L, depth)));
  }
  ps.achieved_rps = static_cast<double>(ps.requests - ps.errors) / seconds;
  ps.p50_ms = percentile(ps.all_ms, 50);
  ps.p90_ms = percentile(ps.all_ms, 90);
  ps.passes = ps.requests > 0 && ps.errors == 0 && ps.p90_ms < kP90LimitMs &&
              ps.drain_ms < kP90LimitMs;
  return ps;
}

// Replays every session's commands in submission order directly on fresh
// world-slot sessions and compares each ok reply with the served one
// (replies that are not ok are failures already). Times each verb
// (serve.service_us.<verb>) and checks every completed run's firing trace
// against the LispStyle reference. Returns the compiled programs' size.
double replay_and_check(const std::vector<Prog>& progs, const Setup& setup,
                        const std::vector<Reference>& refs,
                        std::deque<Request>& log, Report& report, Spans& spans,
                        std::vector<double> service_us[3]) {
  std::vector<std::unique_ptr<psme::world::BatchEngine>> batches;
  std::vector<std::unique_ptr<psme::serve::Session>> sessions;
  for (std::size_t i = 0; i < progs.size(); ++i) {
    psme::EngineOptions o;
    o.worlds = kSessionsPerProgram;
    batches.push_back(
        std::make_unique<psme::world::BatchEngine>(*setup.programs[i], o));
    for (std::uint32_t w = 0; w < kSessionsPerProgram; ++w)
      sessions.push_back(std::make_unique<psme::serve::Session>(
          *setup.programs[i], batches.back().get(), w));
  }
  double code_insns = 0;
  for (const auto& batch : batches)
    code_insns += static_cast<double>(batch->network().code().size());
  std::vector<std::size_t> trace_from(sessions.size(), 0);
  std::vector<bool> checked(sessions.size(), false);
  for (std::size_t k = 0; k < sessions.size(); ++k)
    for (const std::string& wme : progs[setup.program[k]].workload.initial_wmes)
      sessions[k]->execute("make " + wme);

  for (std::size_t i = 0; i < log.size(); ++i) {
    Request& r = log[i];
    if (!r.response.ok) continue;
    const std::size_t k = r.session;
    const std::string line =
        r.verb == Verb::Run       ? std::string(kRunLine)
        : r.verb == Verb::Restore ? setup.restore[setup.program[k]]
                                  : std::string("checkpoint");
    auto span = spans.open(kReplaySpan[static_cast<int>(r.verb)], i);
    const auto t0 = Clock::now();
    const Response want = sessions[k]->execute(line);
    service_us[static_cast<int>(r.verb)].push_back(
        seconds_between(t0, Clock::now()) * 1e6);
    if (want.ok != r.response.ok || want.text != r.response.text) {
      const std::string got = r.response.render(), exp = want.render();
      std::size_t at = 0;
      while (at < got.size() && at < exp.size() && got[at] == exp[at]) ++at;
      const std::size_t from = at > 40 ? at - 40 : 0;
      report.fail("serve session " + std::to_string(k) + " request " +
                  std::to_string(i) + " (" + verb_name(r.verb) +
                  "): served '..." + got.substr(from, 100) +
                  "' but in-order replay gives '..." + exp.substr(from, 100) +
                  "'");
      continue;
    }
    if (r.verb == Verb::Restore) {
      trace_from[k] = sessions[k]->trace().size();
      checked[k] = false;
    } else if (r.verb == Verb::Run && reports_stop(want) && !checked[k]) {
      checked[k] = true;
      const auto& trace = sessions[k]->trace();
      const std::vector<psme::FiringRecord> run(
          trace.begin() + static_cast<std::ptrdiff_t>(trace_from[k]),
          trace.end());
      const Reference& ref = refs[setup.program[k]];
      report.attempt();
      // After a restore of the initial checkpoint, `total=` counts the
      // cycles of this run alone.
      const std::size_t at = want.text.find("total=");
      const std::uint64_t cycles =
          at == std::string::npos ? 0 : std::stoull(want.text.substr(at + 6));
      const std::string diff = compare_run(ref, run, cycles, run.size());
      if (!diff.empty())
        report.fail("serve session " + std::to_string(k) + ": " + diff);
    }
  }
  return code_insns;
}

void print_phase(const char* label, const PhaseStats& ps) {
  std::printf(
      "  %-10s rate %7.0f/s  sent %6zu  ok/s %8.1f  p50 %7.3f ms  p90 %7.3f "
      "ms  drain %7.3f ms  backlog max %4zu  err %zu  %s\n",
      label, ps.rate, ps.requests, ps.achieved_rps, ps.p50_ms, ps.p90_ms,
      ps.drain_ms, ps.backlog_max, ps.errors, ps.passes ? "pass" : "FAIL");
}

}  // namespace

void run_serve(const Options& opt, Report& report, Spans& spans) {
  const std::vector<Prog> progs = serve_programs();
  std::vector<Reference> refs;
  for (const Prog& p : progs) refs.push_back(reference_run(p));

  std::vector<double> setup_s, parse_ms, build_ms, load_ms;
  Setup setup;
  for (int rep = 0; rep < kSetups; ++rep) {
    double parse = 0, build = 0, load = 0;
    spans.enabled = opt.trace && rep == kSetups - 1;
    setup = set_up(progs, report, spans, &parse, &build, &load);
    spans.enabled = false;
    setup_s.push_back(parse + build + load);
    parse_ms.push_back(parse * 1e3);
    build_ms.push_back(build * 1e3);
    load_ms.push_back(load * 1e3);
  }

  Generator gen(setup, opt.seed, spans);
  gen.phase(kNominalRps, kWarmupSeconds, -1);
  gen.wait_all();

  // The nominal phase; the traced run alternates untraced and traced
  // quarters of it so obs.overhead_pct compares like with like.
  const double nominal_s = opt.seconds * 0.4;
  const int segments = opt.trace ? 4 : 1;
  Ranges untraced, traced;
  for (int seg = 0; seg < segments; ++seg) {
    spans.enabled = opt.trace && seg % 2 == 1;
    auto span = spans.open("bench.nominal_segment", seg);
    const auto range = gen.phase(kNominalRps, nominal_s / segments, 0);
    gen.wait_all();
    (spans.enabled ? traced : untraced).push_back(range);
  }
  spans.enabled = false;

  // The ladder, ascending until a rung fails.
  std::vector<PhaseStats> rungs;
  double rate = kLadderStart;
  for (int k = 1; k <= kLadderRungs; ++k, rate *= kLadderStep) {
    const auto [first, last] = gen.phase(rate, kRungSeconds, k);
    gen.wait_all();
    rungs.push_back(
        phase_stats(setup, gen.log, {{first, last}}, rate, kRungSeconds));
    if (!rungs.back().passes) break;
  }

  // Every reply must equal an in-order replay; sheds and deadline misses
  // on the ladder's failing rung are capacity signals, anything else that
  // is not ok is a failure.
  for (const Request& r : gen.log) {
    report.attempt();
    const bool capacity_probe = r.phase > 0 && !rungs[r.phase - 1].passes;
    if (!r.response.ok &&
        !(capacity_probe &&
          (is_shed(r.response) || is_deadline_shed(r.response))))
      report.fail(std::string("serve ") + verb_name(r.verb) + ": " +
                  r.response.render().substr(0, 120));
  }
  std::vector<double> service_us[3];
  spans.enabled = opt.trace;
  const double code_insns = replay_and_check(progs, setup, refs, gen.log,
                                             report, spans, service_us);
  spans.enabled = false;
  setup.server->drain();

  const double segment_s = nominal_s / segments;
  const PhaseStats nominal =
      phase_stats(setup, gen.log, untraced, kNominalRps,
                  segment_s * static_cast<double>(untraced.size()));
  print_phase("nominal", nominal);
  double max_rate = nominal.passes ? nominal.achieved_rps : 0;
  std::size_t backlog_max = nominal.backlog_max, shed = 0, deadline_shed = 0;
  for (const PhaseStats& ps : rungs) {
    print_phase(ps.passes ? "rung" : "rung(stop)", ps);
    if (ps.passes) {
      max_rate = ps.achieved_rps;
      backlog_max = std::max(backlog_max, ps.backlog_max);
    }
    shed += ps.shed;
    deadline_shed += ps.deadline_shed;
  }
  std::printf("serve-worlds: %zu sessions, %zu requests, p90 limit %.1f ms\n",
              setup.ids.size(), gen.log.size(), kP90LimitMs);

  if (!opt.trace) {
    report.set_median("setup_s", setup_s);
    for (std::size_t p = 0; p < progs.size(); ++p)
      report.set_median(progs[p].name + "_ms", nominal.latency_ms[p]);
    report.set("lat_p50_ms", nominal.p50_ms);
    report.set("lat_p90_ms", nominal.p90_ms);
    report.set("max_rate_rps", max_rate);
    report.set("peak_rss_mb", peak_rss_mb());
    return;
  }
  report.set_median("ops5.parse_ms", parse_ms);
  report.set_median("rete.build_ms", build_ms);
  report.set("rete.code_insns", code_insns);
  report.set_median("engine.load_ms", load_ms);
  for (int v = 0; v < 3; ++v)
    report.set_median(std::string("serve.service_us.") +
                          verb_name(static_cast<Verb>(v)),
                      service_us[v]);
  report.set_median("serve.residence_us_p50", nominal.residence_us);
  report.set("serve.residence_us_p90", percentile(nominal.residence_us, 90));
  report.set_median("serve.handoff_us_p50", nominal.handoff_us);
  report.set("serve.backlog_max", static_cast<double>(backlog_max));
  report.set("serve.shed_overload", static_cast<double>(shed));
  report.set("serve.shed_deadline", static_cast<double>(deadline_shed));
  report.set("loadgen.lag_ms_p99", percentile(nominal.lag_ms, 99));
  const PhaseStats with_spans =
      phase_stats(setup, gen.log, traced, kNominalRps,
                  segment_s * static_cast<double>(traced.size()));
  report.set("obs.overhead_pct",
             (with_spans.p50_ms - nominal.p50_ms) / nominal.p50_ms * 100.0);
}

}  // namespace perfbench
