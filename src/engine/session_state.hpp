// SessionState: the control process's state of one OPS5 session.
//
// PSM-E has one control process whatever matcher sits behind it (paper
// §3): it owns working memory, the firing trace and the stop bookkeeping,
// runs conflict resolution and evaluates the RHS. SessionState is that
// control state, held once for every backend: EngineBase (and through it
// the sequential, threaded, Lisp-style, TREAT and simulated engines),
// world::World (a slot of a world::BatchEngine) and the coordinator-side
// session of a shard::ShardGroup all derive from it. What differs stays
// with the backend: how a WM change reaches the matcher (submit_change),
// where the conflict set lives (a local ConflictSet for fire(); merged
// shard proposals for the shard coordinator, which calls act() itself)
// and how restored refraction is re-applied.
#pragma once

#include <cstdint>
#include <ostream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "engine/options.hpp"
#include "runtime/conflict_set.hpp"
#include "runtime/rhs.hpp"
#include "runtime/working_memory.hpp"

namespace psme {

// Full session state at a quiescent point (between runs): enough to
// reconstruct working memory, the timetag counter, conflict-set refraction,
// and the firing-trace position in a fresh session of any mode. Match
// memories are NOT captured — a restored session rebuilds them by
// replaying the live wmes through its matcher, and the deterministic
// conflict resolution guarantees the resumed run continues the original
// trace. serve/checkpoint.hpp gives this a serialized form.
struct WmeSnapshot {
  TimeTag timetag = 0;
  SymbolId cls = 0;
  std::vector<Value> fields;
};

struct EngineSnapshot {
  TimeTag next_timetag = 1;
  std::vector<WmeSnapshot> wmes;      // live wmes, ascending timetag
  std::vector<FiringRecord> fired;    // live-but-fired instantiations
  std::vector<FiringRecord> trace;    // firing trace so far
  std::uint64_t cycles = 0;
  bool halted = false;
};

class SessionState : public RhsEffects {
 public:
  // `watch_prefix` starts every watch line ("[w3] " for world 3).
  SessionState(const ops5::Program& program, const EngineOptions& options,
               std::string watch_prefix = {});

  // Adds a wme before (or between) runs; e.g. "(goal ^type find)".
  const Wme* make(std::string_view wme_literal);
  const Wme* make(SymbolId cls,
                  const std::vector<std::pair<SymbolId, Value>>& fields);
  // Removes a wme by timetag before (or between) runs.
  void remove(TimeTag tag);
  // Recognize-act cycle cap; serving runs a session in capped slices.
  void set_max_cycles(std::uint64_t n) { max_cycles_ = n; }

  const WorkingMemory& wm() const { return wm_; }
  WorkingMemory& wm() { return wm_; }
  const std::vector<FiringRecord>& trace() const { return trace_; }
  const RunStats& stats() const { return stats_; }
  RunStats& stats() { return stats_; }
  // Stop reason + stats of the last run.
  RunResult result() const { return {last_reason_, stats_}; }

  // Checkpoint (psme.checkpoint.v1 semantics). The make()/remove() changes
  // queued since the last run are part of the state: they restore as wmes
  // the resumed run feeds to the matcher first, exactly what the
  // uninterrupted run would have done. `fired` is the refraction set,
  // which lives with the backend's conflict set.
  EngineSnapshot snapshot_state(std::vector<FiringRecord> fired) const;
  EngineSnapshot snapshot_state(const ConflictSet& cs) const;
  // Injects a snapshot into a fresh session (no wmes made, no cycles run;
  // throws std::logic_error otherwise). The next run rebuilds the match
  // memories from the restored wmes and re-applies refraction.
  void restore_state(const EngineSnapshot& snap);
  // Empties the session back to its constructed state with cycle cap
  // `max_cycles` (the backend rebuilds its own match state).
  void reset_state(std::uint64_t max_cycles);

  // --- The recognize-act cycle, for the backends ------------------------

  // Hands every queued change to `submit(wme, sign)` and empties the queue.
  template <class Submit>
  void flush_pending(Submit&& submit) {
    for (const auto& [wme, sign] : pending_) submit(wme, sign);
    pending_.clear();
  }
  // Re-marks the refraction records a restore queued in the rebuilt
  // conflict set (once, at the first quiescent point of the next run);
  // `mark(record)` does it where the conflict set is not local.
  void apply_restored_refraction(ConflictSet& cs);
  template <class Mark>
  void apply_restored_refraction(Mark&& mark) {
    for (const FiringRecord& rec : restored_fired_) mark(rec);
    restored_fired_.clear();
  }
  // The stop check before conflict resolution: records Halt or MaxCycles
  // and returns true when the session must not fire again.
  bool stopped();
  void stop(StopReason reason) { last_reason_ = reason; }
  // Conflict resolution on `cs` and the act step; records
  // EmptyConflictSet and returns false when nothing is left to fire.
  bool select_and_act(ConflictSet& cs, CrStrategy strategy,
                      const std::vector<CompiledRhs>& rhs);
  // One whole cycle: the stop check, then select_and_act.
  bool fire(ConflictSet& cs, CrStrategy strategy,
            const std::vector<CompiledRhs>& rhs) {
    return !stopped() && select_and_act(cs, strategy, rhs);
  }
  // The act step: counts the cycle, appends the firing record, prints it
  // at watch >= 1 and evaluates the RHS against working memory. The RHS's
  // WM changes print at watch >= 2 and go to submit_change.
  void act(std::uint32_t prod_index, const std::vector<const Wme*>& wmes,
           const CompiledRhs& rhs);

  // RhsEffects (control process only).
  void on_make(const Wme* wme) final;
  void on_remove(const Wme* wme) final;
  void on_write(const std::string& text) final;
  void on_halt() final { halted_ = true; }

 protected:
  // Delivers one RHS change to the matcher. The default queues it for the
  // next flush_pending; engines that match as the RHS runs override it.
  virtual void submit_change(const Wme* wme, std::int8_t sign) {
    pending_.emplace_back(wme, sign);
  }

  const ops5::Program& program_;
  WorkingMemory wm_;
  std::vector<FiringRecord> trace_;
  RunStats stats_;
  bool halted_ = false;
  std::uint64_t max_cycles_;
  StopReason last_reason_ = StopReason::EmptyConflictSet;
  // Changes made since the last flush (make/remove, and RHS changes of
  // backends that keep the default submit_change).
  std::vector<std::pair<const Wme*, std::int8_t>> pending_;
  // Refraction records queued by restore_state().
  std::vector<FiringRecord> restored_fired_;

 private:
  void watch_change(const char* arrow, const Wme* wme);

  std::ostream* out_;
  int watch_;
  std::string watch_prefix_;
};

}  // namespace psme
