// The matcher's unit of work (the paper's "task", Section 3.1).
//
// A task is an independently schedulable node activation:
//  - Root: one wme change; runs the (grouped) constant-test node activations
//    for the wme's class and schedules the resulting join activations;
//  - JoinLeft / JoinRight: one activation of a coalesced memory+two-input
//    node — update own-side memory, probe the opposite memory, schedule
//    matching pairs as new tasks;
//  - Terminal: insert/delete one instantiation in the conflict set.
#pragma once

#include <cstdint>

#include "rete/network.hpp"
#include "runtime/token.hpp"

namespace psme::match {

enum class TaskKind : std::uint8_t { Root, JoinLeft, JoinRight, Terminal };

struct Task {
  TaskKind kind = TaskKind::Root;
  std::int8_t sign = +1;  // +1 add, -1 delete
  // Owning world (src/world/). Single-world engines leave it 0; the batch
  // engine stamps it on roots and the kernel propagates it to every task
  // an activation emits, so any worker can resolve the right WorldContext.
  std::uint32_t world = 0;
  const rete::JoinNode* join = nullptr;
  const rete::TerminalNode* terminal = nullptr;
  const Token* token = nullptr;  // JoinLeft / Terminal payload
  const Wme* wme = nullptr;      // Root / JoinRight payload

  Side side() const {
    return kind == TaskKind::JoinRight ? Side::Right : Side::Left;
  }
};

// The root task of one working-memory change (+1 add, -1 delete).
inline Task root_task(const Wme* wme, std::int8_t sign,
                      std::uint32_t world = 0) {
  Task t;
  t.sign = sign;
  t.world = world;
  t.wme = wme;
  return t;
}

}  // namespace psme::match
