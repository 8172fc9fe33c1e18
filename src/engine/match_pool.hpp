// PSM-E's match processes (Section 3 of the paper), shared by every
// threaded engine: k persistent worker threads, one task scheduler with its
// TaskCount barrier, and per-line locks on the global token hash tables.
// The caller's thread is the control process and pushes root tasks through
// the last scheduler endpoint; worker i uses endpoint i.
//
// "1+k" here means k workers plus a control that helps: where the paper's
// control process idles until TaskCount reaches 0, wait_quiescent() makes
// the control a match process of its own for the rest of the phase. It
// runs the very loop body the workers run (step(): fault hooks, one pop,
// execute) through the control endpoint — under work stealing it pops its
// own root deque LIFO while the workers steal from it FIFO — and reads
// TaskCount only after a pop came back empty. A small phase therefore mostly drains on the
// control thread without a hand-off, and a phase still completes when
// every worker is stalled or dead. (SimEngine keeps the paper's
// non-matching control; its virtual times are the paper's tables.)
//
// Tasks run against a fixed array of world slots, picked by Task::world: a
// slot is a WorldContext (token tables + conflict set) and one token arena
// per endpoint, the control's included. ParallelEngine is a 1-slot pool,
// the threaded world::BatchEngine an N-slot pool. A join task locks
// (line + world * kWorldStride) & mask, `line` being its bucket line in its
// own world's tables: world 0 keeps every line's own lock, so a 1-slot pool
// locks exactly like a table-sized lock array, and tasks of different
// worlds may share a lock (a harmless false conflict) but never miss one.
//
// Workers are spawned on the first begin_run() and parked on a condition
// variable between runs. (The paper spawned and killed per run; under the
// serving layer thread creation would dominate latency.)
//
// EngineOptions hooks: rr_replay swaps in a scheduler that releases tasks
// in recorded order, rr_record logs each task at its commit point,
// rr_faults drives the match-process loop and the lock-delay fault, and
// obs gets per-endpoint histograms plus one trace event per executed or
// requeued task (the control's on stream 0, worker i's on stream i+1).
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "engine/options.hpp"
#include "match/kernel.hpp"
#include "match/line_locks.hpp"
#include "match/scheduler.hpp"

namespace psme {

class MatchPool {
 public:
  struct Slot {
    match::WorldContext* world = nullptr;
    match::BumpArena* arenas = nullptr;  // one per scheduler endpoint
  };

  // `lock_lines` is a power of two, at least the slots' table line count.
  // Throws invalid_argument unless options.match_processes >= 1.
  MatchPool(const rete::Network& network, const EngineOptions& options,
            std::vector<Slot> slots, std::uint32_t lock_lines);
  ~MatchPool();

  // Control process: one root task for a working-memory change of `world`.
  void push_root(std::uint32_t world, const Wme* wme, std::int8_t sign,
                 MatchStats& stats);
  // Control process: executes match tasks through the control endpoint
  // until the match phase is complete. `control` takes the statistics of
  // the tasks it runs (the same MatchStats begin_run attached).
  void wait_quiescent(MatchStats& control);
  // Spawns the workers on the first call, attaches the observability
  // streams (`control` is stream 0, worker i is stream i+1) and wakes them.
  void begin_run(MatchStats& control);
  // Parks the workers and merges their statistics into `into`.
  void end_run(MatchStats& into);

  std::uint64_t threads_spawned() const { return thread_spawns_; }
  std::uint64_t runs_started() const { return runs_started_; }
  // Hash-line locks in the pool (a power of two).
  std::uint32_t lock_lines() const { return lock_mask_ + 1; }

 private:
  struct alignas(64) Worker {  // no false sharing between workers' stats
    MatchStats stats;
    std::thread thread;
  };

  void worker_main(unsigned ep);
  // One turn of match process `ep` (a worker, or the control while it
  // waits): the fault hooks, one pop, and the popped task's execution.
  // False when no task was popped.
  bool step(unsigned ep, match::MatchContext& ctx,
            std::vector<match::Task>& emit_buf, MatchStats& stats);
  match::MatchContext match_context(MatchStats& stats) const;
  // Runs one popped task under the configured lock discipline and pushes
  // its emissions through endpoint `ep`.
  void execute(match::MatchContext& ctx, const match::Task& task,
               std::vector<match::Task>& emit_buf, unsigned ep,
               MatchStats& stats);
  // Odd, so the world term permutes the lock space.
  static constexpr std::uint32_t kWorldStride = 0x9e3779b1u;
  std::uint32_t lock_of(std::uint32_t world, std::uint32_t line) const {
    return (line + world * kWorldStride) & lock_mask_;
  }
  double trace_now_us() const {
    return std::chrono::duration<double, std::micro>(
               std::chrono::steady_clock::now() - trace_epoch_)
        .count();
  }

  const rete::Network& network_;
  const EngineOptions options_;
  const unsigned control_ep_;
  std::vector<Slot> slots_;
  match::LineLocks locks_;
  const std::uint32_t lock_mask_;
  std::unique_ptr<match::Scheduler> sched_;
  std::vector<Worker> workers_;  // endpoint i; threads start at begin_run
  std::vector<match::Task> control_emit_;  // the control's emission buffer
  std::atomic<bool> shutdown_{false};
  // Parking: workers spin on `active_` while a run is live and wait on
  // `pool_cv_` between runs; `parked_` counts waiters (under pool_mu_).
  std::atomic<bool> active_{false};
  std::mutex pool_mu_;
  std::condition_variable pool_cv_;
  int parked_ = 0;
  std::uint64_t thread_spawns_ = 0;
  std::uint64_t runs_started_ = 0;
  std::chrono::steady_clock::time_point trace_epoch_;  // ts 0 of the trace
};

}  // namespace psme
