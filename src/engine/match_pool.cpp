#include "engine/match_pool.hpp"

#include <algorithm>
#include <stdexcept>

#include "obs/observability.hpp"
#include "obs/task_events.hpp"
#include "rr/fault.hpp"
#include "rr/recorder.hpp"
#include "rr/replay.hpp"

namespace psme {

MatchPool::MatchPool(const rete::Network& network,
                     const EngineOptions& options, std::vector<Slot> slots,
                     std::uint32_t lock_lines)
    : network_(network),
      options_(options),
      control_ep_(static_cast<unsigned>(options.match_processes)),
      slots_(std::move(slots)),
      locks_(lock_lines, options.lock_scheme),
      lock_mask_(lock_lines - 1),
      workers_(static_cast<std::size_t>(
          std::max(options.match_processes, 0))) {
  if (options_.match_processes < 1)
    throw std::invalid_argument(
        "a match pool needs at least one match process");
  const int endpoints = options_.match_processes + 1;
  // Replay: the scheduler that releases tasks in recorded order
  // (rr/replay.hpp) stands in for the configured discipline.
  sched_ = options_.rr_replay
               ? rr::make_replay_scheduler(options_.rr_replay, endpoints)
               : match::make_scheduler(options_.scheduler,
                                       options_.task_queues, endpoints,
                                       options_.steal_deque_capacity);
}

MatchPool::~MatchPool() {
  {
    std::lock_guard<std::mutex> lk(pool_mu_);
    shutdown_.store(true, std::memory_order_release);
    active_.store(false, std::memory_order_release);
  }
  pool_cv_.notify_all();
  for (Worker& w : workers_)
    if (w.thread.joinable()) w.thread.join();
}

void MatchPool::push_root(std::uint32_t world, const Wme* wme,
                          std::int8_t sign, MatchStats& stats) {
  sched_->push(match::root_task(wme, sign, world), control_ep_, stats);
}

namespace {
// Idle back-off of a match process whose pop came back empty: spin
// politely, then yield so the other processes (on small hosts, the
// control thread too) can run.
void back_off(std::uint32_t& idle) {
  if (++idle >= 16)
    std::this_thread::yield();
  else
    SpinLock::cpu_relax();
}
}  // namespace

void MatchPool::wait_quiescent(MatchStats& control) {
  // All of the phase's root pushes are in: arm the replayer's
  // stuck-schedule detection.
  if (options_.rr_replay) options_.rr_replay->phase_pushed();
  match::MatchContext ctx = match_context(control);
  // TaskCount is read only after a failed pop: a control that keeps
  // finding work never polls the shared counter.
  std::uint32_t idle = 0;
  for (;;) {
    if (step(control_ep_, ctx, control_emit_, control)) {
      idle = 0;
    } else if (sched_->phase_complete()) {
      return;
    } else {
      back_off(idle);
    }
  }
}

void MatchPool::begin_run(MatchStats& control) {
  ++runs_started_;
  if (thread_spawns_ == 0) {
    for (unsigned i = 0; i < control_ep_; ++i) {
      workers_[i].thread = std::thread([this, i] { worker_main(i); });
      ++thread_spawns_;
    }
  }
  if (options_.obs) {
    options_.obs->trace.enable(static_cast<int>(control_ep_) + 1, "wall");
    options_.obs->attach_worker(control, 0);
    for (unsigned i = 0; i < control_ep_; ++i)
      options_.obs->attach_worker(workers_[i].stats,
                                  static_cast<int>(i) + 1);
    trace_epoch_ = std::chrono::steady_clock::now();
  }
  {
    std::lock_guard<std::mutex> lk(pool_mu_);
    active_.store(true, std::memory_order_release);
  }
  pool_cv_.notify_all();
}

void MatchPool::end_run(MatchStats& into) {
  active_.store(false, std::memory_order_release);
  // Wait for every worker to park, so their stats are quiescent to merge
  // (the task queues are already drained: the run reached quiescence).
  {
    std::unique_lock<std::mutex> lk(pool_mu_);
    pool_cv_.wait(lk, [this] {
      return parked_ == static_cast<int>(workers_.size());
    });
  }
  for (Worker& w : workers_) {
    into.merge(w.stats);
    w.stats = MatchStats{};  // histogram pointers re-wired at begin_run
  }
}

match::MatchContext MatchPool::match_context(MatchStats& stats) const {
  match::MatchContext ctx;
  ctx.strategy = match::MemoryStrategy::Hash;
  ctx.stats = &stats;
  if (options_.match_vm) ctx.code = &network_.code();
  return ctx;
}

void MatchPool::worker_main(unsigned ep) {
  Worker& w = workers_[ep];
  match::MatchContext ctx = match_context(w.stats);
  std::vector<match::Task> emit_buf;
  for (;;) {
    {
      // Park between runs; begin_run() wakes the pool.
      std::unique_lock<std::mutex> lk(pool_mu_);
      ++parked_;
      pool_cv_.notify_all();
      pool_cv_.wait(lk, [this] {
        return active_.load(std::memory_order_acquire) ||
               shutdown_.load(std::memory_order_acquire);
      });
      --parked_;
      if (shutdown_.load(std::memory_order_acquire)) return;
    }
    std::uint32_t idle = 0;
    while (active_.load(std::memory_order_acquire) &&
           !shutdown_.load(std::memory_order_acquire)) {
      if (step(ep, ctx, emit_buf, w.stats))
        idle = 0;
      else
        back_off(idle);  // between phases, starved, dead or failed a pop
    }
  }
}

bool MatchPool::step(unsigned ep, match::MatchContext& ctx,
                     std::vector<match::Task>& emit_buf, MatchStats& stats) {
  rr::FaultInjector* faults = options_.rr_faults;
  if (faults) {
    if (faults->worker_dead(ep)) return false;
    if (const std::uint32_t us = faults->stall(ep))
      std::this_thread::sleep_for(std::chrono::microseconds(us));
    if (faults->fail_pop(ep)) return false;
  }
  match::Task task;
  if (!sched_->try_pop(&task, ep, stats)) return false;
  if (faults) {
    if (faults->drop_requeue(ep)) {
      sched_->requeue(task, ep, stats);
      return true;
    }
    if (faults->lose_task(ep)) {
      sched_->task_done();  // the bug: discarded but counted done
      return true;
    }
  }
  execute(ctx, task, emit_buf, ep, stats);
  return true;
}

void MatchPool::execute(match::MatchContext& ctx, const match::Task& task,
                        std::vector<match::Task>& emit_buf, unsigned ep,
                        MatchStats& stats) {
  const Slot& slot = slots_[task.world];
  match::WorldContext& world = *slot.world;
  // The (world, endpoint) arena: race-free without synchronization, and
  // every allocation is attributable to exactly one world.
  ctx.arena = &slot.arenas[ep];

  obs::TraceRecorder* tracer =
      options_.obs && options_.obs->trace.enabled() ? &options_.obs->trace
                                                    : nullptr;
  double ts0 = 0;
  std::uint64_t line0 = 0, queue0 = 0;
  if (tracer) {
    ts0 = trace_now_us();
    line0 = stats.line_probes[0] + stats.line_probes[1];
    queue0 = stats.queue_probes;
  }
  // Stamps one complete event covering the task just processed (including
  // the emission pushes) with the lock probes it accrued, on the
  // endpoint's own stream: 0 for the control, i+1 for worker i.
  auto record = [&](obs::TraceEventKind kind) {
    tracer->record(
        ep == control_ep_ ? 0 : static_cast<int>(ep) + 1,
        {ts0, trace_now_us() - ts0, kind, task.sign, obs::trace_node_of(task),
         static_cast<std::uint32_t>(stats.line_probes[0] +
                                    stats.line_probes[1] - line0),
         static_cast<std::uint32_t>(stats.queue_probes - queue0)});
  };
  // Record/replay: join tasks are logged at their commit point — while the
  // line lock that orders them against conflicting activations is still
  // held — so the log order is a valid serialization. (Completion order is
  // not: a worker descheduled between releasing its line and logging lets
  // a later lock epoch log first, and a replay in that inverted order
  // probes an opposite memory the original update hadn't reached.)
  auto rr_commit = [&] {
    if (options_.rr_record) options_.rr_record->on_commit(ep, task);
  };
  // A join's commit point: DelayLockRelease dawdles with the lock held.
  auto commit = [&] {
    rr_commit();
    if (!options_.rr_faults) return;
    if (const std::uint32_t us = options_.rr_faults->lock_delay(ep))
      std::this_thread::sleep_for(std::chrono::microseconds(us));
  };

  emit_buf.clear();
  switch (task.kind) {
    case match::TaskKind::Root:
      match::process_root(ctx, world, network_, task, emit_buf);
      break;
    case match::TaskKind::Terminal:
      match::process_terminal(ctx, world, task);
      break;
    case match::TaskKind::JoinLeft:
    case match::TaskKind::JoinRight: {
      // One task_hash per task: the hash that picked the line is handed to
      // the update phase instead of being re-derived there.
      const std::uint64_t hash = match::task_hash(task);
      const std::uint32_t line =
          lock_of(task.world, world.left_table->line_of(hash));
      const Side side = task.side();
      const bool negative = task.join->kind == rete::JoinKind::Negative;
      switch (locks_.scheme()) {
        case match::LockScheme::Simple:
          locks_.lock_exclusive(line, side, stats);
          match::process_join(ctx, world, task, emit_buf, nullptr, &hash);
          commit();
          locks_.unlock_exclusive(line);
          break;
        case match::LockScheme::Seqlock: {
          // Optimistic scheme: probe the opposite memory with no lock held,
          // then validate the line's sequence under the writer lock before
          // applying the memory update (kernel.hpp, SpecProbe). A retry may
          // come from another world's commit on a shared lock: a false
          // conflict, never a missed one.
          std::uint32_t retries = 0;
          bool committed = false;
          while (!negative && !committed &&
                 retries <= match::kSeqlockMaxRetries) {
            emit_buf.clear();
            const std::uint32_t s0 = locks_.seq_begin(line);
            match::SpecProbe spec;
            match::speculate_join_probe(ctx, world, task, hash, emit_buf,
                                        spec);
            if (!locks_.try_writer_commit(line, s0, side, stats)) {
              ++retries;
              continue;
            }
            const match::MemUpdate update =
                match::process_join_update(ctx, world, task, nullptr, &hash);
            if (update.outcome == match::MemUpdate::Outcome::Inserted ||
                update.outcome == match::MemUpdate::Outcome::Removed) {
              match::commit_spec_probe(ctx, task, spec);
            } else {
              emit_buf.clear();  // annihilated/parked: no probe happens
            }
            commit();
            locks_.unlock_writer(line);
            committed = true;
          }
          if (!negative) {
            stats.seq_retries += retries;
            if (stats.seq_retry_hist) stats.seq_retry_hist->record(retries);
            if (!committed) stats.seq_fallbacks += 1;
          }
          if (!committed) {
            // Negative nodes mutate opposite-side entries, so they never
            // speculate; a positive one whose retry budget ran out on a
            // pathologically hot line falls back too. Either way the whole
            // activation runs under the writer lock, like Simple would.
            emit_buf.clear();
            locks_.lock_writer(line, side, stats);
            match::process_join(ctx, world, task, emit_buf, nullptr, &hash);
            commit();
            locks_.unlock_writer(line);
          }
          break;
        }
        case match::LockScheme::Mrsw: {
          // Negative nodes take the line exclusively; either way a line held
          // by the other side sends the task back to the scheduler.
          if (!(negative ? locks_.try_enter_exclusive(line, side, stats)
                         : locks_.try_enter(line, side, stats))) {
            sched_->requeue(task, ep, stats);  // still counted in TaskCount
            if (tracer) record(obs::trace_requeue_kind_of(task));
            return;
          }
          if (negative) {
            match::process_join(ctx, world, task, emit_buf, nullptr, &hash);
            commit();
            locks_.leave_exclusive(line);
            break;
          }
          locks_.lock_modification(line, side, stats);
          const match::MemUpdate update =
              match::process_join_update(ctx, world, task, nullptr, &hash);
          // The memory update is what conflicting opposite-side tasks
          // observe; the probe after unlock only reads the already-frozen
          // opposite side.
          commit();
          locks_.unlock_modification(line);
          match::process_join_probe(ctx, world, task, update, emit_buf);
          locks_.leave(line);
          break;
        }
      }
      break;
    }
  }
  // Root and Terminal tasks commute (roots only read shared state,
  // terminals serialize on the conflict set's own lock), so logging them
  // here — before their emissions are published, keeping the log causal —
  // is still a valid serialization.
  if (task.kind == match::TaskKind::Root ||
      task.kind == match::TaskKind::Terminal)
    rr_commit();
  // Batched handoff: all emissions of this task are published in one
  // scheduler operation (a single release store in the steal discipline).
  sched_->push_batch(emit_buf.data(), emit_buf.size(), ep, stats);
  stats.tasks_executed += 1;
  sched_->task_done();
  if (tracer) record(obs::trace_kind_of(task.kind));
}

}  // namespace psme
