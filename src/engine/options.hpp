// Engine configuration and run results.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <vector>

#include "common/stats.hpp"
#include "match/kernel.hpp"
#include "match/line_locks.hpp"
#include "match/scheduler.hpp"
#include "runtime/conflict_set.hpp"

namespace psme::obs {
struct Observability;  // obs/observability.hpp
}  // namespace psme::obs

namespace psme::rr {
class Recorder;           // rr/recorder.hpp
class ReplayCoordinator;  // rr/replay.hpp
class FaultInjector;      // rr/fault.hpp
}  // namespace psme::rr

namespace psme {

struct EngineOptions {
  // vs1 (per-node linear lists) or vs2/parallel (global hash tables).
  match::MemoryStrategy memory = match::MemoryStrategy::Hash;
  CrStrategy strategy = CrStrategy::Lex;

  // Parallel engines: number of match processes (the "k" in the paper's
  // "1+k"); 0 means match runs inline on the control thread.
  int match_processes = 0;
  int task_queues = 1;
  match::LockScheme lock_scheme = match::LockScheme::Simple;

  // Task-scheduling discipline: the paper's central spin-locked queues
  // (task_queues of them) or per-worker work-stealing deques (see
  // docs/scheduling.md). steal_deque_capacity bounds each worker's deque
  // (rounded up to a power of two); overfull deques spill to a locked
  // overflow list.
  match::SchedulerKind scheduler = match::SchedulerKind::Central;
  std::uint32_t steal_deque_capacity = match::WsDeque::kDefaultCapacity;

  // Token hash tables: lines (buckets) per side, rounded up to a power of
  // two. 0 picks the engine's own size (token_hash_lines below):
  // SequentialEngine and ParallelEngine size their tables from the network
  // (match::token_lines: 4 lines per join node, clamped to [512, 8192]);
  // SimEngine, the parallelism profiler and world::World keep the paper's
  // 512 (match::kPaperTokenLines), the setting behind the paper tables and
  // weaver's "moderate occupancy" there. A non-zero value overrides both.
  std::uint32_t hash_buckets = 0;

  // Multi-world batching (src/world/): number of independent worlds a
  // world::BatchEngine hosts. 0 = not batching (the single-world Engine
  // facade). The facade rejects worlds > 1 — batched execution needs
  // BatchEngine — and any worlds value on engines that cannot share the
  // match kernel (LispStyle, Treat). See validate_options (engine.hpp).
  std::uint32_t worlds = 0;

  // Execute the compiled alpha/beta test programs on the register bytecode
  // VM (rete/bytecode.hpp, docs/join-bytecode.md). Off falls back to the
  // interpreted per-test walk; kept for A/B comparison
  // (bench/micro_match --sweep --no-vm, see EXPERIMENTS.md).
  bool match_vm = true;

  std::uint64_t max_cycles = 1'000'000;

  // Sink for the `write` RHS action; nullptr discards output.
  std::ostream* out = nullptr;

  // OPS5-style watch levels, printed to `out`:
  //   0 = silent, 1 = production firings, 2 = + working-memory changes.
  int watch = 0;

  // Optional observability sink (metrics registry + trace recorder, not
  // owned; must outlive the engine). The parallel and simulator engines
  // wire per-worker histogram shards and emit per-task trace events into
  // it; every engine's end-of-run statistics can be exported into its
  // registry with obs::Observability::export_run. See docs/observability.md.
  obs::Observability* obs = nullptr;

  // Workload seed, stamped into replay logs so recorded runs are
  // reproducible from the command line (tools/psme_cli --seed).
  std::uint64_t seed = 0;

  // Record/replay + fault injection (src/rr/, docs/replay.md). All
  // optional, not owned, must outlive the engine. rr_record captures
  // schedule decisions and cycle digests; rr_replay constrains the
  // scheduler to a recorded decision sequence and checks digests at each
  // quiescent point; rr_faults perturbs workers (stalls, drops, deaths)
  // according to a seeded plan.
  rr::Recorder* rr_record = nullptr;
  rr::ReplayCoordinator* rr_replay = nullptr;
  rr::FaultInjector* rr_faults = nullptr;
};

// The line count a hash-memory engine builds its token tables with: the
// explicit EngineOptions::hash_buckets, else the engine's `sized` default.
inline std::uint32_t token_hash_lines(const EngineOptions& options,
                                      std::uint32_t sized) {
  return options.hash_buckets != 0 ? options.hash_buckets : sized;
}

struct FiringRecord {
  std::uint32_t prod_index = 0;
  std::vector<TimeTag> timetags;  // positive CEs in order
  bool operator==(const FiringRecord&) const = default;
};

enum class StopReason : std::uint8_t { Halt, EmptyConflictSet, MaxCycles };

struct RunResult {
  StopReason reason = StopReason::EmptyConflictSet;
  RunStats stats;
};

}  // namespace psme
