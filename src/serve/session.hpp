// Session: one client's engine instance behind a text command protocol.
//
// A session owns an Engine (any execution mode) and executes one command
// per request, with an optional per-request deadline:
//
//   make (class ^attr value ...)      -> ok <timetag>
//   modify <timetag> ^attr value ...  -> ok <new-timetag>   (remove + make)
//   remove <timetag>                  -> ok <timetag>
//   run [max-cycles]                  -> ok cycles=<delta> total=<total>
//                                           reason=<halt|empty|max-cycles>
//   dump                              -> ok <n>\n<wme literal per line>
//   trace                             -> ok <n>\n<prod tag tag ... per line>
//   stats                             -> ok cycles=<n> firings=<n> wm=<n>
//   checkpoint                        -> ok <single-line checkpoint JSON>
//   restore <checkpoint JSON>         -> ok <cycles restored>
//
// Failures answer `err <reason ...>`. `run` executes in small slices and
// checks the deadline between slices, so a request can never overrun its
// deadline by more than one slice; a deadline miss answers
// `err deadline ...` with the state advanced by the cycles already run
// (working memory stays consistent — slicing stops only at quiescent
// points). `restore` replaces the engine with a fresh instance of the same
// mode restored from the checkpoint.
//
// Sessions are not internally synchronized: the Server serializes the
// requests of one session and runs different sessions in parallel.
//
// Three backends: a session owns an Engine (engine-per-session, any
// execution mode), is bound to one world slot of a shared
// world::BatchEngine (Server::open_batch_sessions), or is bound to one
// session slot of a shard::ShardGroup (Server::open_shard_sessions) —
// same protocol, same responses, N sessions over one compiled Rete
// network. World- and shard-backed `restore` reset the slot and replay
// the checkpoint into it instead of replacing an engine; for a
// shard-backed session that is the drain/migration path — the same
// psme.checkpoint.v1 document restores into a group with a different
// shard count or transport.
#pragma once

#include <chrono>
#include <memory>
#include <string>

#include "engine/engine.hpp"
#include "world/batch_engine.hpp"

namespace psme::rr {
struct SessionTranscript;  // rr/session_rr.hpp
}
namespace psme::shard {
class ShardGroup;  // shard/shard_group.hpp
}

namespace psme::serve {

using Deadline = std::chrono::steady_clock::time_point;
inline constexpr std::chrono::steady_clock::time_point kNoDeadline =
    std::chrono::steady_clock::time_point::max();

struct Response {
  bool ok = false;
  std::string text;  // payload after the ok/err verb
  // Server stamps (microseconds since the server's epoch); zero when the
  // session is driven directly.
  double enqueue_us = 0;
  double complete_us = 0;

  std::string render() const { return (ok ? "ok " : "err ") + text; }
};

class Session {
 public:
  // `program` must outlive the session. The engine is constructed
  // immediately (Rete compilation happens here, not per request).
  Session(const ops5::Program& program, EngineConfig config);
  // World-backed session: slot `slot` of `batch` (not owned; must outlive
  // the session). The BatchEngine must run inline match (its run_world is
  // what `run` slices call, concurrently across sessions).
  Session(const ops5::Program& program, world::BatchEngine* batch,
          std::uint32_t slot);
  // Shard-backed session: session slot `slot` of `group` (not owned;
  // must outlive the session). Requests serialize on the group's own
  // mutex, so the Server's front tier opens one ShardGroup per lane.
  Session(const ops5::Program& program, shard::ShardGroup* group,
          std::uint32_t slot);

  // Executes one protocol command. Never throws: protocol and engine
  // errors come back as `err` responses.
  Response execute(const std::string& line, Deadline deadline = kNoDeadline);

  // Engine-backed sessions only (null for world-/shard-backed ones).
  const psme::Engine* engine() const { return engine_.get(); }
  const std::vector<FiringRecord>& trace() const { return state_->trace(); }
  std::uint64_t requests() const { return requests_; }

  // Record every (command, response) pair into `t` (not owned; must
  // outlive the session; nullptr disables). rr::replay_transcript re-runs
  // the transcript bit-identically offline.
  void set_transcript(rr::SessionTranscript* t) { transcript_ = t; }

  // Recognize-act cycles per deadline-check slice of `run`.
  static constexpr std::uint64_t kRunSlice = 32;

 private:
  Response dispatch(const std::string& line, Deadline deadline);
  Response cmd_make(const std::string& args);
  Response cmd_modify(const std::string& args);
  Response cmd_remove(const std::string& args);
  Response cmd_run(const std::string& args, Deadline deadline);
  Response cmd_dump() const;
  Response cmd_trace() const;
  Response cmd_stats() const;
  Response cmd_checkpoint() const;
  Response cmd_restore(const std::string& args);

  // Backend seam: the mutating commands go through these, so the command
  // implementations are single-sourced across the three backends; readers
  // go through state_.
  const Wme* do_make(const std::string& literal);
  const Wme* do_make(SymbolId cls,
                     const std::vector<std::pair<SymbolId, Value>>& fields);
  void do_remove(TimeTag tag);
  StopReason run_slice(std::uint64_t cycle_cap);

  const ops5::Program& program_;
  EngineConfig config_;
  std::unique_ptr<psme::Engine> engine_;   // engine-per-session backend
  world::BatchEngine* batch_ = nullptr;    // world-slot backend (not owned)
  shard::ShardGroup* group_ = nullptr;     // shard-slot backend (not owned)
  std::uint32_t slot_ = 0;
  // The backend's control state (engine, world slot or shard session),
  // read by trace/dump/stats; re-pointed when restore replaces the engine.
  const SessionState* state_ = nullptr;
  std::uint64_t requests_ = 0;
  rr::SessionTranscript* transcript_ = nullptr;
};

}  // namespace psme::serve
