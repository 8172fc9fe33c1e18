// PSM-E's threaded engine: one control process (the caller's thread) plus
// k match processes (std::thread), cooperating through shared memory as in
// Section 3 of the paper:
//
//  - a single shared Rete network;
//  - global left/right token hash tables with per-line locks (Simple,
//    MRSW or Seqlock scheme);
//  - a task scheduler: the paper's central spin-locked queues, or
//    per-worker lock-free deques with work stealing
//    (EngineOptions::scheduler; see match/scheduler.hpp);
//  - a TaskCount counter for match-phase termination;
//  - the control process pushes root tokens *while still evaluating the
//    RHS*, so match pipelines with RHS evaluation.
//
// One departure: "1+k" means k match processes plus a control that helps.
// Once the RHS is done, the paper's control idles until TaskCount reaches
// 0; here it executes match tasks through its own scheduler endpoint until
// the phase is complete (MatchPool::wait_quiescent), so at 1+k there are
// k+1 executors and a small phase mostly drains on the control thread.
//
// The match processes, scheduler and line locks are a 1-slot MatchPool
// (engine/match_pool.hpp) over this engine's two tables; the same pool
// drives the threaded world::BatchEngine. Workers persist across runs,
// parked between them; threads_spawned() exposes the pool's creation
// count so tests can assert reuse.
#pragma once

#include <chrono>
#include <vector>

#include "engine/engine_base.hpp"
#include "engine/match_pool.hpp"

namespace psme {

class ParallelEngine : public EngineBase {
 public:
  ParallelEngine(const ops5::Program& program, EngineOptions options);

  // Aggregated match-process statistics (valid after run()).
  const MatchStats& match_stats() const { return stats_.match; }

  // Pool lifetime counters: threads created so far, and runs started.
  // threads_spawned() stays at match_processes however many runs execute —
  // the thread-reuse guarantee the serving layer depends on.
  std::uint64_t threads_spawned() const { return pool_.threads_spawned(); }
  std::uint64_t runs_started() const { return pool_.runs_started(); }
  // Hash-line locks: one per token-table line (stats().hash_lines).
  std::uint32_t lock_lines() const { return pool_.lock_lines(); }

 protected:
  void submit_change(const Wme* wme, std::int8_t sign) override;
  void wait_quiescent() override;
  void begin_run() override { pool_.begin_run(stats_.match); }
  void end_run() override { pool_.end_run(stats_.match); }

 private:
  match::HashTokenTable left_table_;
  match::HashTokenTable right_table_;
  match::WorldContext world_;              // the pool's only slot
  std::vector<match::BumpArena> arenas_;  // one per scheduler endpoint
  MatchPool pool_;
  std::chrono::steady_clock::time_point phase_start_;
  bool phase_open_ = false;
};

}  // namespace psme
