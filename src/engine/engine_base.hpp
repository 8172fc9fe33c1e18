// Shared control-process logic for the OPS5 engines.
//
// EngineBase owns everything except match scheduling: the Rete network,
// the conflict set, compiled RHS code, and the recognize-act cycle; the
// session state itself (working memory, trace, stop bookkeeping) and the
// act step are SessionState's. Subclasses decide how a working-memory
// change reaches the matcher (inline, task queues + threads, or the
// Multimax simulator) and what "wait for the match phase to finish" means.
#pragma once

#include <memory>
#include <vector>

#include "engine/options.hpp"
#include "engine/session_state.hpp"
#include "match/memory.hpp"
#include "ops5/parser.hpp"
#include "ops5/program.hpp"
#include "rete/builder.hpp"
#include "rete/network.hpp"
#include "runtime/conflict_set.hpp"
#include "runtime/rhs.hpp"
#include "runtime/working_memory.hpp"

namespace psme {

class EngineBase : public SessionState {
 public:
  EngineBase(const ops5::Program& program, EngineOptions options);
  ~EngineBase() override = default;

  // Runs recognize-act cycles until halt / empty conflict set / max_cycles.
  virtual RunResult run();

  // Captures the engine state between runs (see EngineSnapshot), with the
  // refraction set read from the conflict set.
  EngineSnapshot snapshot_state() const {
    return SessionState::snapshot_state(cs_);
  }
  // restore_state (SessionState) injects a snapshot into a freshly
  // constructed engine; the next run() rebuilds the match memories from
  // the restored working memory and re-applies refraction before firing.

  const ops5::Program& program() const { return program_; }
  const rete::Network& network() const { return *network_; }
  ConflictSet& conflict_set() { return cs_; }
  const EngineOptions& options() const { return options_; }

 protected:
  // Delivers one wme change to the matcher. The parallel engine pushes a
  // root task and returns; the sequential engine matches to fixpoint.
  void submit_change(const Wme* wme, std::int8_t sign) override = 0;
  // Blocks until the match phase is complete (TaskCount == 0).
  virtual void wait_quiescent() = 0;
  // Called at the start / end of run() (spawn / kill the match processes).
  virtual void begin_run() {}
  virtual void end_run() {}

  // Record/replay tap, called at every quiescent point (cycle boundary;
  // cycle 0 = initial wme load): advances the fault injector's cycle clock
  // and feeds WM/conflict-set digests to the recorder and/or replayer.
  // No-op unless EngineOptions carries rr hooks.
  void rr_quiescent_hook();

  EngineOptions options_;
  std::unique_ptr<rete::Network> network_;
  ConflictSet cs_;
  std::vector<CompiledRhs> rhs_;
};

}  // namespace psme
