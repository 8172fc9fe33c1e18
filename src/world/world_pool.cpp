#include "world/world.hpp"

#include <stdexcept>
#include <string>

#include "rete/builder.hpp"

namespace psme::world {

std::uint64_t WorldPool::world_seed(std::uint64_t base, std::uint32_t id) {
  // splitmix64 of (base + id): adjacent world ids get uncorrelated seeds.
  std::uint64_t z = base + 0x9e3779b97f4a7c15ull * (id + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

WorldPool::WorldPool(const ops5::Program& program,
                     const EngineOptions& options, std::uint32_t num_worlds,
                     int endpoints)
    : program_(program),
      options_(options),
      endpoints_(endpoints),
      network_(rete::build_network(program)),
      rhs_(compile_rhs(program)) {
  if (num_worlds == 0)
    throw std::invalid_argument("WorldPool: need at least one world");
  if (endpoints < 1)
    throw std::invalid_argument("WorldPool: need at least one endpoint");
  worlds_.reserve(num_worlds);
  for (std::uint32_t i = 0; i < num_worlds; ++i)
    worlds_.push_back(
        std::make_unique<World>(i, program_, options_, endpoints_));
}

World::World(std::uint32_t world_id, const ops5::Program& program,
             const EngineOptions& options, int endpoints)
    : SessionState(program, options, "[w" + std::to_string(world_id) + "] "),
      id(world_id),
      seed(WorldPool::world_seed(options.seed, world_id)),
      arenas(static_cast<std::size_t>(endpoints)) {
  build_match_state(options);
}

void World::build_match_state(const EngineOptions& options) {
  cs = std::make_unique<ConflictSet>(program_);
  // Sized per engine, not per world: a pool of N worlds keeps the paper's
  // 512 lines each unless the options set an explicit size.
  const std::uint32_t lines = token_hash_lines(options, match::kPaperTokenLines);
  left_table = std::make_unique<match::HashTokenTable>(lines);
  right_table = std::make_unique<match::HashTokenTable>(lines);
  ctx.left_table = left_table.get();
  ctx.right_table = right_table.get();
  stats_.hash_lines = left_table->size();
  ctx.conflict_set = cs.get();
}

void World::reset(const EngineOptions& options) {
  // Poison before the new state exists: any pointer that survived the
  // reset now reads arena garbage, never a live token of the next epoch.
  for (match::BumpArena& a : arenas) a.reset(/*poison=*/true);
  reset_state(options.max_cycles);
  inline_queue.clear();
  emit_buf.clear();
  digests.clear();
  live = false;
  build_match_state(options);
}

EngineSnapshot WorldPool::snapshot_world(std::uint32_t wi) const {
  const World& w = world(wi);
  return w.snapshot_state(*w.cs);
}

void WorldPool::reset_world(std::uint32_t wi) { world(wi).reset(options_); }

void WorldPool::restore_world(std::uint32_t wi, const EngineSnapshot& snap) {
  world(wi).restore_state(snap);
}

}  // namespace psme::world
