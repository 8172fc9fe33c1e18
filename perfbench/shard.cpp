// shard-inproc: one ShardGroup per program, 3 shards on the inproc
// transport with the default keyless and overlap policies; each sample
// resets the group's sessions, reloads them and runs run_all to fixpoint.
#include <cstdio>
#include <fstream>
#include <tuple>

#include "bench.hpp"
#include "obs/observability.hpp"
#include "shard/protocol.hpp"
#include "shard/shard_group.hpp"

namespace perfbench {
namespace {

constexpr std::uint16_t kShards = 3;
constexpr std::uint32_t kSessions = 2;
constexpr int kWarmupRounds = 2;
constexpr int kMinRounds = 5;
constexpr int kCodecReps = 50;

using psme::shard::GroupStats;

GroupStats minus(const GroupStats& b, const GroupStats& a) {
  GroupStats d;
  d.batches = b.batches - a.batches;
  d.frames = b.frames - a.frames;
  d.bytes_sent = b.bytes_sent - a.bytes_sent;
  d.bytes_received = b.bytes_received - a.bytes_received;
  d.forwards = b.forwards - a.forwards;
  d.rounds = b.rounds - a.rounds;
  d.tasks = b.tasks - a.tasks;
  d.makespan_vtime = b.makespan_vtime - a.makespan_vtime;
  return d;
}

std::unique_ptr<psme::shard::ShardGroup> make_group(
    const psme::ops5::Program& program, std::uint64_t seed,
    std::uint16_t shards) {
  psme::EngineOptions options;
  options.seed = seed;
  psme::shard::ShardGroupConfig cfg;
  cfg.shards = shards;
  cfg.sessions = kSessions;
  cfg.transport = psme::shard::TransportKind::InProc;
  return std::make_unique<psme::shard::ShardGroup>(program, options, cfg);
}

void load(psme::shard::ShardGroup& group, const Prog& prog) {
  for (std::uint32_t s = 0; s < kSessions; ++s)
    for (const std::string& wme : prog.workload.initial_wmes)
      group.make(s, wme);
}

struct Sample {
  double ms = 0;  // reload + run_all, every session, wall
  GroupStats stats;
};

// Resets, reloads and runs every session of `group` and checks each
// session's firing trace against the reference.
Sample sample(psme::shard::ShardGroup& group, const Prog& prog,
              const Reference& ref, Report& report, Spans& spans,
              std::uint64_t round) {
  {
    auto s = spans.open("shard.reset_session", round);
    for (std::uint32_t i = 0; i < kSessions; ++i) group.reset_session(i);
  }
  const GroupStats before = group.group_stats();
  const auto t0 = Clock::now();
  {
    auto s = spans.open("shard.make", round);
    load(group, prog);
  }
  {
    auto s = spans.open("shard.run_all", round);
    group.run_all();
  }
  const auto t1 = Clock::now();
  Sample out{seconds_between(t0, t1) * 1e3, {}};
  {
    auto s = spans.open("shard.group_stats", round);
    out.stats = minus(group.group_stats(), before);
  }
  for (std::uint32_t i = 0; i < kSessions; ++i) {
    report.attempt();
    const psme::RunStats st = group.result(i).stats;
    const std::string diff =
        compare_run(ref, group.trace(i), st.cycles, st.firings);
    if (!diff.empty())
      report.fail(prog.name + " session " + std::to_string(i) + ": " + diff);
  }
  return out;
}

// Encodes the group's working memory as WmDelta frames (adds, then
// removes) and decodes it again, checking the round trip. Returns ns/byte.
double codec_ns_per_byte(psme::shard::ShardGroup& group, Report& report,
                         Spans& spans) {
  const std::vector<const psme::Wme*> wmes = group.wm(0).snapshot();
  std::vector<double> ns_per_byte;
  for (int rep = 0; rep < kCodecReps; ++rep) {
    const auto t0 = Clock::now();
    std::string bytes;
    {
      auto s = spans.open("shard.encode", rep);
      psme::shard::BatchWriter writer(psme::shard::kCoordinator, 0);
      for (const std::int8_t sign : {std::int8_t{+1}, std::int8_t{-1}})
        for (const psme::Wme* w : wmes) {
          psme::shard::WmDeltaFrame f;
          f.sign = sign;
          f.tag = w->timetag;
          if (sign > 0) {
            f.cls = w->cls;
            f.fields = w->fields;
          }
          writer.wm_delta(f);
        }
      bytes = writer.take();
    }
    psme::shard::Batch batch;
    {
      auto s = spans.open("shard.decode", rep);
      batch = psme::shard::decode_batch(bytes);
    }
    const auto t1 = Clock::now();
    ns_per_byte.push_back(seconds_between(t0, t1) * 1e9 /
                          static_cast<double>(bytes.size()));
    report.attempt();
    bool same = batch.frames.size() == 2 * wmes.size();
    for (std::size_t i = 0; same && i < wmes.size(); ++i) {
      const auto& add = batch.frames[i].delta;
      const auto& del = batch.frames[wmes.size() + i].delta;
      same = add.sign == 1 && add.tag == wmes[i]->timetag &&
             add.cls == wmes[i]->cls && add.fields == wmes[i]->fields &&
             del.sign == -1 && del.tag == wmes[i]->timetag;
    }
    if (!same) report.fail("shard codec: decoded batch differs from encoded");
  }
  return summarize(ns_per_byte).median;
}

}  // namespace

void run_shard(const Options& opt, Report& report, Spans& spans) {
  const std::vector<Prog> progs = default_programs();
  std::vector<Reference> refs;
  for (const Prog& p : progs) refs.push_back(reference_run(p));

  // Set-up: parse, build the group (compile, start the shard threads,
  // Hello handshake) and load every session. One more repetition runs at
  // the start of every round, so setup_s samples the same host conditions
  // as the timed runs.
  std::vector<double> setup_s, parse_ms, build_ms, load_ms;
  std::vector<std::unique_ptr<psme::ops5::Program>> programs;
  std::vector<std::unique_ptr<psme::shard::ShardGroup>> groups;
  double code_insns = 0;
  auto set_up = [&](bool keep) {
    std::vector<std::unique_ptr<psme::ops5::Program>> parsed;
    std::vector<std::unique_ptr<psme::shard::ShardGroup>> built;
    double parse = 0, build = 0, loading = 0;
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
      {
        auto s = spans.open("shard.group_start");
        built.push_back(make_group(*parsed.back(), opt.seed, kShards));
      }
      const auto t2 = Clock::now();
      {
        auto s = spans.open("shard.make");
        load(*built.back(), p);
      }
      const auto t3 = Clock::now();
      parse += seconds_between(t0, t1);
      build += seconds_between(t1, t2);
      loading += seconds_between(t2, t3);
      code_insns += static_cast<double>(built.back()->network().code().size());
    }
    if (keep) {
      setup_s.push_back(parse + build + loading);
      parse_ms.push_back(parse * 1e3);
      build_ms.push_back(build * 1e3);
      load_ms.push_back(loading * 1e3);
    }
    return std::make_pair(std::move(parsed), std::move(built));
  };
  std::tie(programs, groups) = set_up(false);

  // The traced run also times 1-shard groups, for the wall and priced
  // speed-ups of 3 shards over 1.
  std::vector<std::unique_ptr<psme::shard::ShardGroup>> solo_groups;
  if (opt.trace)
    for (const auto& program : programs)
      solo_groups.push_back(make_group(*program, opt.seed, 1));

  std::vector<std::vector<Sample>> samples(progs.size()), solo(progs.size());
  std::vector<double> round_ms, traced_round_ms;
  const std::size_t start = opt.seed % progs.size();
  const auto deadline = Clock::now() + std::chrono::seconds(opt.seconds);
  // Traced runs cycle untraced, traced and 1-shard rounds.
  const int kinds = opt.trace ? 3 : 1;
  for (int round = 0;; ++round) {
    const int kind = round % kinds;  // 0 untraced, 1 traced, 2 one shard
    const bool kept = round / kinds >= kWarmupRounds;
    if (kind == 0 && Clock::now() >= deadline &&
        round_ms.size() >= kMinRounds &&
        (!opt.trace || traced_round_ms.size() >= kMinRounds))
      break;
    spans.enabled = kind == 1;
    auto round_span = spans.open("bench.round", round);
    // Set-up repetitions' groups are torn down right away.
    if (kind != 2) set_up(kept && kind == 0);
    double sum_ms = 0;
    for (std::size_t i = 0; i < progs.size(); ++i) {
      const std::size_t idx = (start + i) % progs.size();
      auto& group = kind == 2 ? *solo_groups[idx] : *groups[idx];
      const Sample s =
          sample(group, progs[idx], refs[idx], report, spans, round);
      sum_ms += s.ms;
      if (kept && kind == 0) samples[idx].push_back(s);
      if (kept && kind == 2) solo[idx].push_back(s);
    }
    if (kept && kind == 0) round_ms.push_back(sum_ms);
    if (kept && kind == 1) traced_round_ms.push_back(sum_ms);
  }
  spans.enabled = false;
  std::printf("shard-inproc: %u shards x %u sessions, %zu kept rounds (+%d "
              "warm-up), %zu traced\n",
              kShards, kSessions, round_ms.size(), kWarmupRounds,
              traced_round_ms.size());

  if (!opt.trace) {
    report.set_median("setup_s", setup_s);
    for (std::size_t i = 0; i < progs.size(); ++i) {
      std::vector<double> ms;
      for (const Sample& s : samples[i]) ms.push_back(s.ms);
      report.set_median(progs[i].name + "_ms", ms);
    }
    report.set("peak_rss_mb", peak_rss_mb());
    return;
  }

  report.set_median("ops5.parse_ms", parse_ms);
  report.set_median("rete.build_ms", build_ms);
  report.set("rete.code_insns", code_insns);
  report.set_median("engine.load_ms", load_ms);
  psme::obs::Observability obs;
  for (std::size_t i = 0; i < progs.size(); ++i) {
    const std::string& p = progs[i].name;
    std::vector<double> ms, solo_ms, batches, frames, bytes, forwards, rounds,
        tasks;
    for (const Sample& s : samples[i]) {
      ms.push_back(s.ms);
      batches.push_back(static_cast<double>(s.stats.batches));
      frames.push_back(static_cast<double>(s.stats.frames));
      bytes.push_back(
          static_cast<double>(s.stats.bytes_sent + s.stats.bytes_received));
      forwards.push_back(static_cast<double>(s.stats.forwards));
      rounds.push_back(static_cast<double>(s.stats.rounds));
      tasks.push_back(static_cast<double>(s.stats.tasks));
    }
    for (const Sample& s : solo[i]) solo_ms.push_back(s.ms);
    report.set_median("shard.batches." + p, batches);
    report.set_median("shard.frames." + p, frames);
    report.set_median("shard.bytes." + p, bytes);
    report.set_median("shard.forwards." + p, forwards);
    report.set_median("shard.rounds." + p, rounds);
    report.set_median("shard.tasks." + p, tasks);
    const double priced =
        static_cast<double>(solo[i].back().stats.makespan_vtime) /
        static_cast<double>(samples[i].back().stats.makespan_vtime);
    report.set("shard.priced_speedup." + p, priced);
    report.set("shard.wall_speedup." + p,
               summarize(solo_ms).median / summarize(ms).median);
    groups[i]->export_obs(obs.registry);
  }
  spans.enabled = true;
  report.set("shard.codec_ns_per_byte",
             codec_ns_per_byte(*groups[0], report, spans));
  spans.enabled = false;
  const double base = summarize(round_ms).median;
  report.set("obs.overhead_pct",
             (summarize(traced_round_ms).median - base) / base * 100.0);
  std::ofstream out(opt.out_prefix + ".metrics.json");
  out << obs.registry.to_json().dump(1) << "\n";
}

}  // namespace perfbench
