#include "engine/session_state.hpp"

#include <stdexcept>

#include "common/symbol_table.hpp"
#include "ops5/parser.hpp"

namespace psme {

SessionState::SessionState(const ops5::Program& program,
                           const EngineOptions& options,
                           std::string watch_prefix)
    : program_(program),
      wm_(program),
      max_cycles_(options.max_cycles),
      out_(options.out),
      watch_(options.watch),
      watch_prefix_(std::move(watch_prefix)) {}

const Wme* SessionState::make(std::string_view wme_literal) {
  const ops5::WmeLiteral lit = ops5::parse_wme_literal(wme_literal);
  std::vector<std::pair<SymbolId, Value>> fields;
  fields.reserve(lit.fields.size());
  for (const auto& [attr, value] : lit.fields)
    fields.emplace_back(intern(attr), value);
  return make(intern(lit.cls), fields);
}

const Wme* SessionState::make(
    SymbolId cls, const std::vector<std::pair<SymbolId, Value>>& fields) {
  const Wme* wme = wm_.make(cls, wm_.build_fields(cls, fields));
  pending_.emplace_back(wme, +1);
  return wme;
}

void SessionState::remove(TimeTag tag) {
  const Wme* wme = wm_.find(tag);
  if (!wme) throw std::invalid_argument("remove: no live wme with timetag");
  pending_.emplace_back(wme, -1);
  wm_.remove(wme);
}

EngineSnapshot SessionState::snapshot_state(
    std::vector<FiringRecord> fired) const {
  EngineSnapshot snap;
  snap.next_timetag = wm_.last_timetag() + 1;
  for (const Wme* w : wm_.snapshot())
    snap.wmes.push_back({w->timetag, w->cls, w->fields});
  snap.fired = std::move(fired);
  snap.trace = trace_;
  snap.cycles = stats_.cycles;
  snap.halted = halted_;
  return snap;
}

EngineSnapshot SessionState::snapshot_state(const ConflictSet& cs) const {
  std::vector<FiringRecord> fired;
  for (const Instantiation& inst : cs.snapshot())
    if (inst.fired) fired.push_back({inst.prod_index, inst.tags_in_order()});
  return snapshot_state(std::move(fired));
}

void SessionState::restore_state(const EngineSnapshot& snap) {
  if (wm_.size() != 0 || !trace_.empty() || stats_.cycles != 0)
    throw std::logic_error("restore: session is not fresh (reset first)");
  for (const WmeSnapshot& w : snap.wmes) {
    const Wme* wme = wm_.make_with_tag(w.timetag, w.cls, w.fields);
    pending_.emplace_back(wme, +1);
  }
  wm_.set_next_tag(snap.next_timetag);
  restored_fired_ = snap.fired;
  trace_ = snap.trace;
  stats_.cycles = snap.cycles;
  stats_.firings = snap.cycles;
  halted_ = snap.halted;
}

void SessionState::reset_state(std::uint64_t max_cycles) {
  wm_.clear();
  trace_.clear();
  stats_ = RunStats{};
  halted_ = false;
  max_cycles_ = max_cycles;
  last_reason_ = StopReason::EmptyConflictSet;
  pending_.clear();
  restored_fired_.clear();
}

void SessionState::apply_restored_refraction(ConflictSet& cs) {
  apply_restored_refraction([&cs](const FiringRecord& rec) {
    cs.mark_fired(rec.prod_index, rec.timetags);
  });
}

bool SessionState::stopped() {
  if (halted_) {
    last_reason_ = StopReason::Halt;
    return true;
  }
  if (stats_.cycles >= max_cycles_) {
    last_reason_ = StopReason::MaxCycles;
    return true;
  }
  return false;
}

bool SessionState::select_and_act(ConflictSet& cs, CrStrategy strategy,
                                  const std::vector<CompiledRhs>& rhs) {
  const auto inst = cs.select_and_fire(strategy);
  if (!inst) {
    last_reason_ = StopReason::EmptyConflictSet;
    return false;
  }
  act(inst->prod_index, inst->wmes, rhs[inst->prod_index]);
  return true;
}

void SessionState::act(std::uint32_t prod_index,
                       const std::vector<const Wme*>& wmes,
                       const CompiledRhs& rhs) {
  ++stats_.cycles;
  ++stats_.firings;
  FiringRecord rec;
  rec.prod_index = prod_index;
  rec.timetags.reserve(wmes.size());
  for (const Wme* wme : wmes) rec.timetags.push_back(wme->timetag);
  if (watch_ >= 1 && out_) {
    *out_ << watch_prefix_ << stats_.cycles << ". "
          << symbol_name(program_.productions()[prod_index].name);
    for (const TimeTag t : rec.timetags) *out_ << " " << t;
    *out_ << "\n";
  }
  trace_.push_back(std::move(rec));
  run_rhs(rhs, program_, wmes, wm_, *this);
}

void SessionState::watch_change(const char* arrow, const Wme* wme) {
  if (watch_ >= 2 && out_)
    *out_ << watch_prefix_ << arrow << wme->timetag << ": "
          << wme_to_string(*wme, program_) << "\n";
}

void SessionState::on_make(const Wme* wme) {
  watch_change("=>WM: ", wme);
  submit_change(wme, +1);
}

void SessionState::on_remove(const Wme* wme) {
  watch_change("<=WM: ", wme);
  submit_change(wme, -1);
}

void SessionState::on_write(const std::string& text) {
  if (out_) *out_ << text;
}

}  // namespace psme
