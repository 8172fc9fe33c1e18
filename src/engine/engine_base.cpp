#include "engine/engine_base.hpp"

#include <chrono>

#include "rr/fault.hpp"
#include "rr/recorder.hpp"
#include "rr/replay.hpp"

namespace psme {

EngineBase::EngineBase(const ops5::Program& program, EngineOptions options)
    : SessionState(program, options),
      options_(options),
      network_(rete::build_network(program)),
      cs_(program),
      rhs_(compile_rhs(program)) {}

void EngineBase::rr_quiescent_hook() {
  if (options_.rr_faults) options_.rr_faults->set_cycle(stats_.cycles);
  if (options_.rr_record) options_.rr_record->on_quiescent(wm_, cs_);
  if (options_.rr_replay) options_.rr_replay->on_quiescent(wm_, cs_);
}

RunResult EngineBase::run() {
  using Clock = std::chrono::steady_clock;
  const auto run_start = Clock::now();
  begin_run();

  // Feed initial working memory to the matcher.
  flush_pending([this](const Wme* wme, std::int8_t sign) {
    submit_change(wme, sign);
  });
  wait_quiescent();
  wm_.collect();
  apply_restored_refraction(cs_);
  rr_quiescent_hook();

  while (fire(cs_, options_.strategy, rhs_)) {
    wait_quiescent();
    wm_.collect();
    rr_quiescent_hook();
  }

  end_run();
  stats_.total_seconds +=
      std::chrono::duration<double>(Clock::now() - run_start).count();
  return result();
}

}  // namespace psme
