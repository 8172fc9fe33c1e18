#include "engine/sequential_engine.hpp"

#include <chrono>

namespace psme {

SequentialEngine::SequentialEngine(const ops5::Program& program,
                                   EngineOptions options)
    : EngineBase(program, options) {
  ctx_.strategy = options_.memory;
  if (options_.memory == match::MemoryStrategy::Hash) {
    const std::uint32_t lines =
        token_hash_lines(options_, match::token_lines(*network_));
    left_table_ = std::make_unique<match::HashTokenTable>(lines);
    right_table_ = std::make_unique<match::HashTokenTable>(lines);
    world_.left_table = left_table_.get();
    world_.right_table = right_table_.get();
    stats_.hash_lines = left_table_->size();
  } else {
    list_mems_ =
        std::make_unique<match::ListMemories>(network_->num_list_memories());
    world_.list_mems = list_mems_.get();
  }
  world_.conflict_set = &cs_;
  ctx_.arena = &arena_;
  ctx_.stats = &stats_.match;
  if (options_.match_vm) ctx_.code = &network_->code();
}

void SequentialEngine::submit_change(const Wme* wme, std::int8_t sign) {
  using Clock = std::chrono::steady_clock;
  const auto start = Clock::now();
  queue_.push_back(match::root_task(wme, sign));
  match::drain_fifo(ctx_, world_, *network_, queue_, emit_buf_);
  stats_.match_seconds +=
      std::chrono::duration<double>(Clock::now() - start).count();
}

}  // namespace psme
