#include "serve/session.hpp"

#include <charconv>
#include <limits>
#include <sstream>

#include "common/symbol_table.hpp"
#include "ops5/parser.hpp"
#include "rr/session_rr.hpp"
#include "serve/checkpoint.hpp"
#include "shard/shard_group.hpp"

namespace psme::serve {

namespace {

std::string trim(std::string_view s) {
  const auto first = s.find_first_not_of(" \t\r\n");
  if (first == std::string_view::npos) return "";
  const auto last = s.find_last_not_of(" \t\r\n");
  return std::string(s.substr(first, last - first + 1));
}

// Splits "verb rest..." at the first whitespace run.
std::pair<std::string, std::string> split_verb(const std::string& line) {
  const auto sp = line.find_first_of(" \t");
  if (sp == std::string::npos) return {line, ""};
  return {line.substr(0, sp), trim(line.substr(sp + 1))};
}

bool parse_u64(const std::string& s, std::uint64_t* out) {
  const char* b = s.data();
  const char* e = b + s.size();
  const auto [ptr, ec] = std::from_chars(b, e, *out);
  return ec == std::errc() && ptr == e;
}

const char* reason_name(StopReason r) {
  switch (r) {
    case StopReason::Halt: return "halt";
    case StopReason::EmptyConflictSet: return "empty";
    case StopReason::MaxCycles: return "max-cycles";
  }
  return "?";
}

Response ok(std::string text) { return {true, std::move(text)}; }
Response err(std::string text) { return {false, std::move(text)}; }

}  // namespace

Session::Session(const ops5::Program& program, EngineConfig config)
    : program_(program),
      config_(config),
      engine_(std::make_unique<psme::Engine>(program, config)),
      state_(&engine_->base()) {}

Session::Session(const ops5::Program& program, world::BatchEngine* batch,
                 std::uint32_t slot)
    : program_(program),
      batch_(batch),
      slot_(slot),
      state_(&batch->world(slot)) {
  if (batch_->options().match_processes != 0)
    throw std::invalid_argument(
        "world-backed sessions need an inline BatchEngine "
        "(match_processes == 0): run_world slices execute on the "
        "request thread");
}

Session::Session(const ops5::Program& program, shard::ShardGroup* group,
                 std::uint32_t slot)
    : program_(program),
      group_(group),
      slot_(slot),
      state_(&group->state(slot)) {}

const Wme* Session::do_make(const std::string& literal) {
  if (group_) return group_->make(slot_, literal);
  return batch_ ? batch_->make(slot_, literal) : engine_->make(literal);
}

const Wme* Session::do_make(
    SymbolId cls, const std::vector<std::pair<SymbolId, Value>>& fields) {
  if (group_) return group_->make(slot_, cls, fields);
  return batch_ ? batch_->make(slot_, cls, fields)
                : engine_->make(cls, fields);
}

void Session::do_remove(TimeTag tag) {
  if (group_)
    group_->remove(slot_, tag);
  else if (batch_)
    batch_->remove(slot_, tag);
  else
    engine_->remove(tag);
}

StopReason Session::run_slice(std::uint64_t cycle_cap) {
  if (group_) {
    group_->set_max_cycles(slot_, cycle_cap);
    return group_->run_session(slot_).reason;
  }
  if (batch_) {
    batch_->set_max_cycles(slot_, cycle_cap);
    return batch_->run_world(slot_).reason;
  }
  engine_->base().set_max_cycles(cycle_cap);
  return engine_->run().reason;
}

Response Session::execute(const std::string& line, Deadline deadline) {
  ++requests_;
  Response r;
  try {
    r = dispatch(trim(line), deadline);
  } catch (const std::exception& e) {
    r = err(std::string("exception: ") + e.what());
  }
  if (transcript_) transcript_->entries.push_back({line, r.ok, r.text});
  return r;
}

Response Session::dispatch(const std::string& line, Deadline deadline) {
  if (line.empty()) return err("empty command");
  if (std::chrono::steady_clock::now() > deadline)
    return err("deadline before execution");
  const auto [verb, args] = split_verb(line);
  if (verb == "make") return cmd_make(args);
  if (verb == "modify") return cmd_modify(args);
  if (verb == "remove") return cmd_remove(args);
  if (verb == "run") return cmd_run(args, deadline);
  if (verb == "dump") return cmd_dump();
  if (verb == "trace") return cmd_trace();
  if (verb == "stats") return cmd_stats();
  if (verb == "checkpoint") return cmd_checkpoint();
  if (verb == "restore") return cmd_restore(args);
  return err("unknown command " + verb);
}

Response Session::cmd_make(const std::string& args) {
  const Wme* wme = do_make(args);
  return ok(std::to_string(wme->timetag));
}

Response Session::cmd_modify(const std::string& args) {
  const auto [tag_str, updates] = split_verb(args);
  std::uint64_t tag = 0;
  if (!parse_u64(tag_str, &tag)) return err("modify: bad timetag");
  const Wme* old = state_->wm().find(tag);
  if (!old) return err("modify: no live wme " + tag_str);
  if (updates.empty()) return err("modify: no field updates");

  // Parse "^attr value ..." by borrowing the wme-literal parser, then lay
  // the updates over a copy of the old wme's slots.
  const std::string cls_name = symbol_name(old->cls);
  const ops5::WmeLiteral lit =
      ops5::parse_wme_literal("(" + cls_name + " " + updates + ")");
  std::vector<Value> fields = old->fields;
  const ops5::ClassInfo& info = program_.class_of(old->cls);
  for (const auto& [attr, value] : lit.fields) {
    auto it = info.slots.find(intern(attr));
    if (it == info.slots.end())
      return err("modify: class " + cls_name + " has no attribute " + attr);
    fields[it->second] = value;
  }
  std::vector<std::pair<SymbolId, Value>> pairs;
  for (std::size_t slot = 0; slot < fields.size(); ++slot)
    if (!fields[slot].is_nil())
      pairs.emplace_back(info.slot_attrs[slot], fields[slot]);

  do_remove(tag);  // OPS5 modify is remove + make (fresh timetag)
  const Wme* wme = do_make(old->cls, pairs);
  return ok(std::to_string(wme->timetag));
}

Response Session::cmd_remove(const std::string& args) {
  std::uint64_t tag = 0;
  if (!parse_u64(args, &tag)) return err("remove: bad timetag");
  if (!state_->wm().find(tag)) return err("remove: no live wme " + args);
  do_remove(tag);
  return ok(args);
}

Response Session::cmd_run(const std::string& args, Deadline deadline) {
  std::uint64_t budget = 0;
  const bool bounded = !args.empty();
  if (bounded && !parse_u64(args, &budget)) return err("run: bad cycle count");

  const std::uint64_t start = state_->stats().cycles;
  const std::uint64_t target =
      bounded ? start + budget : std::numeric_limits<std::uint64_t>::max();
  StopReason reason = StopReason::MaxCycles;
  for (;;) {
    const std::uint64_t cur = state_->stats().cycles;
    if (cur >= target) break;
    reason = run_slice(std::min(target, cur + kRunSlice));
    if (reason != StopReason::MaxCycles) break;  // halt / empty conflict set
    if (state_->stats().cycles >= target) break;
    if (std::chrono::steady_clock::now() > deadline) {
      const std::uint64_t done = state_->stats().cycles;
      return err("deadline cycles=" + std::to_string(done - start) +
                 " total=" + std::to_string(done));
    }
  }
  const std::uint64_t total = state_->stats().cycles;
  return ok("cycles=" + std::to_string(total - start) +
            " total=" + std::to_string(total) +
            " reason=" + reason_name(reason));
}

Response Session::cmd_dump() const {
  const auto wmes = state_->wm().snapshot();
  std::ostringstream out;
  out << wmes.size();
  for (const Wme* w : wmes)
    out << "\n" << w->timetag << ": " << wme_to_string(*w, program_);
  return ok(out.str());
}

Response Session::cmd_trace() const {
  const auto& trace = this->trace();
  std::ostringstream out;
  out << trace.size();
  for (const FiringRecord& rec : trace) {
    out << "\n" << symbol_name(program_.productions()[rec.prod_index].name);
    for (const TimeTag t : rec.timetags) out << " " << t;
  }
  return ok(out.str());
}

Response Session::cmd_stats() const {
  const RunStats& s = state_->stats();
  return ok("cycles=" + std::to_string(s.cycles) +
            " firings=" + std::to_string(s.firings) +
            " wm=" + std::to_string(state_->wm().size()));
}

Response Session::cmd_checkpoint() const {
  if (group_)
    return ok(Checkpoint::capture(program_, group_->snapshot_session(slot_))
                  .serialize());
  if (batch_)
    return ok(Checkpoint::capture(program_, batch_->snapshot_world(slot_))
                  .serialize());
  return ok(Checkpoint::capture(engine_->base()).serialize());
}

Response Session::cmd_restore(const std::string& args) {
  if (args.empty()) return err("restore: missing checkpoint JSON");
  const Checkpoint ckpt = Checkpoint::deserialize(args);
  if (group_) {
    // Migration landing point: the checkpoint may come from any engine
    // mode or any other shard topology.
    ckpt.verify(program_);
    group_->reset_session(slot_);
    group_->restore_session(slot_, ckpt.snapshot);
  } else if (batch_) {
    // A world slot is reusable state, not a disposable engine: verify the
    // fingerprint first, then rebuild the slot in place.
    ckpt.verify(program_);
    batch_->reset_world(slot_);
    batch_->restore_world(slot_, ckpt.snapshot);
  } else {
    auto fresh = std::make_unique<psme::Engine>(program_, config_);
    ckpt.restore(fresh->base());
    engine_ = std::move(fresh);
    state_ = &engine_->base();
  }
  return ok(std::to_string(ckpt.snapshot.cycles));
}

}  // namespace psme::serve
