#include "engine/parallel_engine.hpp"

#include <algorithm>
#include <stdexcept>

namespace psme {

ParallelEngine::ParallelEngine(const ops5::Program& program,
                               EngineOptions options)
    : EngineBase(program, options),
      left_table_(token_hash_lines(options_, match::token_lines(*network_))),
      right_table_(left_table_.size()),
      world_{.left_table = &left_table_,
             .right_table = &right_table_,
             .conflict_set = &cs_},
      arenas_(static_cast<std::size_t>(
          std::max(options_.match_processes, 0) + 1)),
      // Lock count follows the table's rounded (power-of-two) line count,
      // not the requested bucket count: line_of() indexes the rounded
      // space, and a non-power-of-two request would otherwise leave lines
      // without locks.
      pool_(*network_, options_, {{&world_, arenas_.data()}},
            left_table_.size()) {
  if (options_.memory != match::MemoryStrategy::Hash)
    throw std::invalid_argument(
        "the parallel matcher uses the global hash-table memories (vs2)");
  stats_.hash_lines = left_table_.size();
}

void ParallelEngine::submit_change(const Wme* wme, std::int8_t sign) {
  if (!phase_open_) {
    phase_open_ = true;
    phase_start_ = std::chrono::steady_clock::now();
  }
  pool_.push_root(0, wme, sign, stats_.match);
}

void ParallelEngine::wait_quiescent() {
  pool_.wait_quiescent(stats_.match);
  if (phase_open_) {
    phase_open_ = false;
    stats_.match_seconds +=
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      phase_start_)
            .count();
  }
}

}  // namespace psme
