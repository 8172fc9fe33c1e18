// Working memory: owns all wmes and assigns timetags.
//
// Only the control process mutates working memory (RHS evaluation); match
// processes hold const pointers. Removed wmes are retained until the next
// quiescent point (end of the match phase) because in-flight tokens may
// still reference them, then reclaimed by collect().
#pragma once

#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

#include "runtime/wme.hpp"

namespace psme {

class WorkingMemory {
 public:
  explicit WorkingMemory(const ops5::Program& program) : program_(program) {}

  // Creates a wme with the next timetag. `fields` must be sized to the
  // class's slot count (use build_fields for attr/value pairs).
  const Wme* make(SymbolId cls, std::vector<Value> fields);

  // Convenience: build the slot vector from attribute/value pairs.
  std::vector<Value> build_fields(
      SymbolId cls,
      const std::vector<std::pair<SymbolId, Value>>& pairs) const;

  // Marks the wme removed; the storage stays valid until collect().
  void remove(const Wme* wme);

  bool is_live(const Wme* wme) const { return live_.count(wme->timetag) > 0; }
  const Wme* find(TimeTag tag) const;
  std::size_t size() const { return live_.size(); }
  TimeTag last_timetag() const { return next_tag_ - 1; }

  // Frees removed wmes. Call only when no match task can reference them.
  void collect() { retired_.clear(); }
  // Drops every wme and restarts timetags at 1 (a session reset).
  void clear() {
    next_tag_ = 1;
    live_.clear();
    retired_.clear();
  }

  // Checkpoint restore: re-creates a wme under its original timetag.
  // `tag` must be unused and below the restored counter.
  const Wme* make_with_tag(TimeTag tag, SymbolId cls,
                           std::vector<Value> fields);
  // Checkpoint restore: continues timetag allocation from `next` (which
  // must be past every live tag).
  void set_next_tag(TimeTag next);

  // Live wmes sorted by timetag (for tests and wm dumps).
  std::vector<const Wme*> snapshot() const;

 private:
  const ops5::Program& program_;
  TimeTag next_tag_ = 1;
  std::unordered_map<TimeTag, std::unique_ptr<Wme>> live_;
  std::vector<std::unique_ptr<Wme>> retired_;
};

}  // namespace psme
