#include "world/batch_engine.hpp"

#include <bit>
#include <stdexcept>

#include "rr/digest.hpp"
#include "rr/fault.hpp"

namespace psme::world {

BatchEngine::BatchEngine(const ops5::Program& program, EngineOptions options)
    : options_(options),
      pool_(program, options,
            options.worlds == 0 ? 1u : options.worlds,
            options.match_processes + 1) {
  if (options_.worlds == 0)
    throw std::invalid_argument("BatchEngine: options.worlds must be >= 1");
  if (options_.memory != match::MemoryStrategy::Hash)
    throw std::invalid_argument(
        "BatchEngine: worlds use the global hash-table memories (vs2)");
  if (options_.rr_record || options_.rr_replay)
    throw std::invalid_argument(
        "BatchEngine: record/replay hooks are single-world; use "
        "set_digest_capture for per-world digests");
  if (options_.match_vm) code_ = &pool_.network().code();
  if (options_.match_processes > 0) {
    std::vector<MatchPool::Slot> slots;
    slots.reserve(pool_.size());
    for (std::uint32_t i = 0; i < pool_.size(); ++i)
      slots.push_back({&pool_.world(i).ctx, pool_.world(i).arenas.data()});
    // Shared lock space across worlds: at least the per-world line count,
    // widened up to 8x as worlds grow so same-bucket-different-world
    // false sharing stays rare. Power-of-two by construction.
    const std::uint32_t lines = pool_.world(0).left_table->size();
    const std::uint32_t mult = std::min<std::uint32_t>(
        std::bit_ceil(std::max(1u, pool_.size())), 8u);
    match_pool_ = std::make_unique<MatchPool>(pool_.network(), options_,
                                              std::move(slots), lines * mult);
  }
}

void BatchEngine::submit_change(World& w, const Wme* wme, std::int8_t sign) {
  if (match_pool_) {
    match_pool_->push_root(w.id, wme, sign, batch_match_stats_);
    return;
  }
  w.inline_queue.push_back(match::root_task(wme, sign, w.id));
  drain_world_queue(w);
}

void BatchEngine::drain_world_queue(World& w) {
  match::MatchContext ctx;
  ctx.strategy = match::MemoryStrategy::Hash;
  ctx.arena = &w.arenas[0];
  ctx.stats = &w.stats().match;
  ctx.code = code_;
  match::drain_fifo(ctx, w.ctx, pool_.network(), w.inline_queue, w.emit_buf);
}

void BatchEngine::flush_pending(World& w) {
  w.flush_pending([&](const Wme* wme, std::int8_t sign) {
    submit_change(w, wme, sign);
  });
}

void BatchEngine::capture_digest(World& w) {
  if (!digest_capture_) return;
  const std::uint64_t cycle = w.stats().cycles;
  if (!w.digests.empty() && w.digests.back().cycle == cycle) return;
  w.digests.push_back({cycle, rr::wm_digest(w.wm()), rr::cs_digest(*w.cs)});
}

bool BatchEngine::fire_one(World& w) {
  if (!w.fire(*w.cs, options_.strategy, pool_.rhs())) {
    w.live = false;
    return false;
  }
  flush_pending(w);  // the RHS's changes reach the matcher
  return true;
}

void BatchEngine::run_all() {
  if (match_pool_) match_pool_->begin_run(batch_match_stats_);
  // Initial load: every world's pending changes enter the shared stream.
  for (std::uint32_t i = 0; i < pool_.size(); ++i) {
    World& w = pool_.world(i);
    w.live = true;
    flush_pending(w);
  }
  // Inline mode drained eagerly; the threaded control drains here.
  if (match_pool_) match_pool_->wait_quiescent(batch_match_stats_);
  std::uint64_t round = 0;
  if (options_.rr_faults) options_.rr_faults->set_cycle(round);
  for (std::uint32_t i = 0; i < pool_.size(); ++i) {
    World& w = pool_.world(i);
    w.wm().collect();
    w.apply_restored_refraction(*w.cs);
    capture_digest(w);
  }
  // Batch rounds: every live world fires one instantiation and evaluates
  // its RHS (root tasks from all worlds pipeline into the match), then ONE
  // barrier covers them all — the per-cycle quiescence cost amortizes over
  // the whole batch.
  std::vector<std::uint32_t> fired;
  fired.reserve(pool_.size());
  for (;;) {
    fired.clear();
    for (std::uint32_t i = 0; i < pool_.size(); ++i) {
      World& w = pool_.world(i);
      if (!w.live) continue;
      if (fire_one(w)) fired.push_back(i);
    }
    if (fired.empty()) break;
    if (match_pool_) match_pool_->wait_quiescent(batch_match_stats_);
    if (options_.rr_faults) options_.rr_faults->set_cycle(++round);
    for (const std::uint32_t i : fired) {
      World& w = pool_.world(i);
      w.wm().collect();
      capture_digest(w);
    }
  }
  if (match_pool_) match_pool_->end_run(batch_match_stats_);
}

RunResult BatchEngine::run_world(std::uint32_t wi) {
  if (options_.match_processes > 0)
    throw std::logic_error(
        "run_world: single-world runs need inline match "
        "(match_processes == 0); use run_all for the threaded pool");
  World& w = pool_.world(wi);
  flush_pending(w);
  w.wm().collect();
  w.apply_restored_refraction(*w.cs);
  capture_digest(w);
  for (;;) {
    w.live = true;
    if (!fire_one(w)) break;
    w.wm().collect();
    capture_digest(w);
  }
  return w.result();
}

}  // namespace psme::world
