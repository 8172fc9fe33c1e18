#include "match/line_locks.hpp"

#include <cassert>

#include "obs/metrics.hpp"

// -fsanitize=thread (PSME_SANITIZE=thread) defines __SANITIZE_THREAD__ on
// GCC; Clang reports it through __has_feature.
#if defined(__SANITIZE_THREAD__)
#define PSME_TSAN 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define PSME_TSAN 1
#endif
#endif
#ifdef PSME_TSAN
#include <sanitizer/tsan_interface.h>
#endif

namespace psme::match {

namespace {
inline void sample_line_probes(MatchStats& stats, int si,
                               std::uint64_t probes) {
  stats.line_probes[si] += probes;
  stats.line_acquisitions[si] += 1;
  if (stats.line_probe_hist[si]) stats.line_probe_hist[si]->record(probes);
}
}  // namespace

LineLocks::LineLocks(std::uint32_t num_lines, LockScheme scheme)
    : scheme_(scheme), lines_(num_lines) {}

void LineLocks::lock_exclusive(std::uint32_t line, Side side,
                               MatchStats& stats) {
  const int si = side_index(side);
  sample_line_probes(stats, si, lines_[line].simple.lock());
}

void LineLocks::unlock_exclusive(std::uint32_t line) {
  lines_[line].simple.unlock();
}

bool LineLocks::try_enter(std::uint32_t line, Side side, MatchStats& stats) {
  Line& l = lines_[line];
  const int si = side_index(side);
  const std::uint8_t mine = side == Side::Left ? kLeft : kRight;
  sample_line_probes(stats, si, l.guard.lock());
  if (l.flag == kUnused || l.flag == mine) {
    l.flag = mine;
    ++l.users;
    l.guard.unlock();
    return true;
  }
  l.guard.unlock();
  return false;
}

void LineLocks::leave(std::uint32_t line) {
  Line& l = lines_[line];
  l.guard.lock();
  assert(l.users > 0);
  if (--l.users == 0) l.flag = kUnused;
  l.guard.unlock();
}

bool LineLocks::try_enter_exclusive(std::uint32_t line, Side side,
                                    MatchStats& stats) {
  Line& l = lines_[line];
  const int si = side_index(side);
  sample_line_probes(stats, si, l.guard.lock());
  if (l.flag == kUnused) {
    l.flag = kExclusive;
    l.users = 1;
    l.guard.unlock();
    return true;
  }
  l.guard.unlock();
  return false;
}

void LineLocks::leave_exclusive(std::uint32_t line) { leave(line); }

void LineLocks::lock_modification(std::uint32_t line, Side side,
                                  MatchStats& stats) {
  const int si = side_index(side);
  sample_line_probes(stats, si, lines_[line].modification.lock());
}

void LineLocks::unlock_modification(std::uint32_t line) {
  lines_[line].modification.unlock();
}

// Seqlock memory ordering. Writers mark the sequence odd with a relaxed
// store *after* taking the modification lock; every subsequent mutation of
// reader-visible bucket state goes through seq_store (a release store), so
// no mutation can be reordered before the odd mark. unlock_writer publishes
// the even sequence with a release store, ordering all mutations before it.
// Readers load the sequence with acquire and re-check it behind an acquire
// fence, so any data they read between begin and validate is ordered inside
// the window the two sequence values delimit. ThreadSanitizer does not model
// fences, so a TSan build replaces the fence with __tsan_acquire on the
// sequence word (Boehm, "Can Seqlocks Get Along with Programming Language
// Memory Models?", MSPC 2012, gives this reader form): the check then
// acquires what the last writer released, which is what the fence gives
// the reader that validates. The counter is 32 bits: a false "unchanged"
// verdict would need 2^31 writer commits inside one speculative probe,
// which cannot happen.

std::uint32_t LineLocks::seq_begin(std::uint32_t line) const {
  const Line& l = lines_[line];
  for (;;) {
    const std::uint32_t s = l.seq.load(std::memory_order_acquire);
    if ((s & 1u) == 0) return s;
    SpinLock::cpu_relax();
  }
}

bool LineLocks::seq_validate(std::uint32_t line, std::uint32_t s0) const {
  const std::atomic<std::uint32_t>& seq = lines_[line].seq;
#ifdef PSME_TSAN
  __tsan_acquire(const_cast<std::atomic<std::uint32_t>*>(&seq));
#else
  std::atomic_thread_fence(std::memory_order_acquire);
#endif
  return seq.load(std::memory_order_relaxed) == s0;
}

bool LineLocks::try_writer_commit(std::uint32_t line, std::uint32_t s0,
                                  Side side, MatchStats& stats) {
  Line& l = lines_[line];
  sample_line_probes(stats, side_index(side), l.modification.lock());
  // Writers only advance the sequence while holding the lock we now own, so
  // this comparison cannot go stale before we mark the line odd ourselves.
  if (l.seq.load(std::memory_order_relaxed) != s0) {
    l.modification.unlock();
    return false;
  }
  l.seq.store(s0 + 1, std::memory_order_relaxed);
  return true;
}

void LineLocks::lock_writer(std::uint32_t line, Side side, MatchStats& stats) {
  Line& l = lines_[line];
  sample_line_probes(stats, side_index(side), l.modification.lock());
  l.seq.store(l.seq.load(std::memory_order_relaxed) + 1,
              std::memory_order_relaxed);
}

void LineLocks::unlock_writer(std::uint32_t line) {
  Line& l = lines_[line];
  l.seq.store(l.seq.load(std::memory_order_relaxed) + 1,
              std::memory_order_release);
  l.modification.unlock();
}

}  // namespace psme::match
