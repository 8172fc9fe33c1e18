// Bounded Chase-Lev work-stealing deque for match tasks.
//
// One owner pushes and pops at the bottom without any lock (a release
// publication, and seq_cst on the take path's bottom/top accesses); any
// number of thieves steal the oldest task from the top with a single CAS.
// This is the per-worker discipline the paper's central queues lack: the
// owner's fast path never touches a shared lock word, so the Table 4-7
// contention climb disappears by construction. The algorithm is the C11
// formulation of Chase-Lev (Le, Pop, Cohen, Zappa Nardelli, "Correct and
// Efficient Work-Stealing for Weak Memory Models"), with each fence's
// ordering moved onto the atomic access it orders: the release fence of
// push becomes a release store of bottom, the seq_cst fences of take and
// steal become seq_cst accesses of bottom and top. ThreadSanitizer does
// not model std::atomic_thread_fence, but it does model orderings on
// operations, and on x86 these compile to the same or cheaper
// instructions (the take path's MOV + MFENCE becomes one XCHG). The deque
// is restricted to a fixed-capacity ring: instead of growing, a full
// deque rejects the push and the caller spills to a spin-locked overflow
// list (see scheduler.hpp), which keeps every slot access inside a
// bounded, pre-allocated array.
//
// Slots store the 5-word Task packed into atomic words, so a thief racing
// a wrapped-around owner reads torn-but-discarded data instead of a data
// race: if the owner overwrote the slot, the owner must first have
// observed top past the thief's index, and the thief's CAS fails. The
// payload words are published per slot — pointers stored relaxed, then the
// header word with release; the reader loads the header with acquire
// before the pointers. That pairing (beside the release of bottom) also
// hands the thief a happens-before edge to the pointed-to Token/Wme
// contents.
#pragma once

#include <atomic>
#include <cstdint>
#include <vector>

#include "match/task.hpp"

namespace psme::match {

class WsDeque {
 public:
  static constexpr std::uint32_t kDefaultCapacity = 4096;

  enum class Steal : std::uint8_t {
    Got,    // *out holds the stolen task
    Empty,  // nothing to steal
    Lost,   // raced with the owner or another thief; retry is fair game
  };

  explicit WsDeque(std::uint32_t capacity = kDefaultCapacity)
      : mask_(round_up_pow2(capacity) - 1),
        slots_(static_cast<std::size_t>(mask_) + 1) {}

  std::uint32_t capacity() const { return mask_ + 1; }

  // Owner only. False when full: the caller must spill elsewhere.
  bool push(const Task& t) { return push_batch(&t, 1) == 1; }

  // Owner only: write up to n tasks into free slots and publish them with
  // ONE release of bottom — the batched handoff. Returns how many fit;
  // the tail [r, n) must be spilled by the caller.
  std::size_t push_batch(const Task* tasks, std::size_t n) {
    const std::int64_t b = bottom_.load(std::memory_order_relaxed);
    const std::int64_t t = top_.load(std::memory_order_acquire);
    const std::int64_t free =
        static_cast<std::int64_t>(capacity()) - (b - t);
    const std::size_t r =
        free <= 0 ? 0
                  : (n < static_cast<std::size_t>(free)
                         ? n
                         : static_cast<std::size_t>(free));
    for (std::size_t i = 0; i < r; ++i) store_slot(b + static_cast<std::int64_t>(i), tasks[i]);
    bottom_.store(b + static_cast<std::int64_t>(r),
                  std::memory_order_release);
    return r;
  }

  // Owner only: LIFO take from the bottom.
  bool pop(Task* out) {
    const std::int64_t b = bottom_.load(std::memory_order_relaxed) - 1;
    // Store-then-load across two locations: seq_cst on both keeps a thief
    // from taking the element this pop also takes (the Dekker pattern).
    bottom_.store(b, std::memory_order_seq_cst);
    std::int64_t t = top_.load(std::memory_order_seq_cst);
    if (t <= b) {
      *out = load_slot(b);
      if (t == b) {
        // Last element: race the thieves for it.
        const bool won = top_.compare_exchange_strong(
            t, t + 1, std::memory_order_seq_cst, std::memory_order_relaxed);
        bottom_.store(b + 1, std::memory_order_relaxed);
        return won;
      }
      return true;
    }
    bottom_.store(b + 1, std::memory_order_relaxed);  // was empty
    return false;
  }

  // Any thread: FIFO steal from the top.
  Steal steal(Task* out) {
    std::int64_t t = top_.load(std::memory_order_seq_cst);
    const std::int64_t b = bottom_.load(std::memory_order_seq_cst);
    if (t >= b) return Steal::Empty;
    *out = load_slot(t);  // possibly stale; validated by the CAS
    if (!top_.compare_exchange_strong(t, t + 1, std::memory_order_seq_cst,
                                      std::memory_order_relaxed))
      return Steal::Lost;
    return Steal::Got;
  }

  // Racy size estimate (exact when only the owner is active).
  std::int64_t approx_size() const {
    const std::int64_t b = bottom_.load(std::memory_order_relaxed);
    const std::int64_t t = top_.load(std::memory_order_relaxed);
    return b > t ? b - t : 0;
  }

 private:
  // A Task flattened into 5 independently-atomic words. Torn reads across
  // words are possible for a thief that subsequently loses its CAS; every
  // consumed value was published by the owner's release store of w[0].
  struct Slot {
    std::atomic<std::uint64_t> w[5];
  };

  static std::uint32_t round_up_pow2(std::uint32_t v) {
    if (v < 2) return 2;
    std::uint32_t p = 1;
    while (p < v) p <<= 1;
    return p;
  }

  void store_slot(std::int64_t idx, const Task& t) {
    Slot& s = slots_[static_cast<std::size_t>(idx) & mask_];
    // Header word: kind in bits 0-7, sign in 8-15, world id in 16-47 —
    // the multi-world batch engine rides the same five-word slot.
    const std::uint64_t head = static_cast<std::uint64_t>(
                                   static_cast<std::uint8_t>(t.kind)) |
                               (static_cast<std::uint64_t>(
                                    static_cast<std::uint8_t>(t.sign))
                                << 8) |
                               (static_cast<std::uint64_t>(t.world) << 16);
    s.w[1].store(reinterpret_cast<std::uintptr_t>(t.join),
                 std::memory_order_relaxed);
    s.w[2].store(reinterpret_cast<std::uintptr_t>(t.terminal),
                 std::memory_order_relaxed);
    s.w[3].store(reinterpret_cast<std::uintptr_t>(t.token),
                 std::memory_order_relaxed);
    s.w[4].store(reinterpret_cast<std::uintptr_t>(t.wme),
                 std::memory_order_relaxed);
    // Header last, with release: a reader that acquires w[0] sees the
    // pointer words above AND everything the owner wrote into the pointed-
    // to Token/Wme before pushing.
    s.w[0].store(head, std::memory_order_release);
  }

  Task load_slot(std::int64_t idx) const {
    const Slot& s = slots_[static_cast<std::size_t>(idx) & mask_];
    const std::uint64_t head = s.w[0].load(std::memory_order_acquire);
    Task t;
    t.kind = static_cast<TaskKind>(head & 0xff);
    t.sign = static_cast<std::int8_t>(
        static_cast<std::uint8_t>((head >> 8) & 0xff));
    t.world = static_cast<std::uint32_t>((head >> 16) & 0xffffffffull);
    t.join = reinterpret_cast<const rete::JoinNode*>(
        static_cast<std::uintptr_t>(s.w[1].load(std::memory_order_relaxed)));
    t.terminal = reinterpret_cast<const rete::TerminalNode*>(
        static_cast<std::uintptr_t>(s.w[2].load(std::memory_order_relaxed)));
    t.token = reinterpret_cast<const Token*>(
        static_cast<std::uintptr_t>(s.w[3].load(std::memory_order_relaxed)));
    t.wme = reinterpret_cast<const Wme*>(
        static_cast<std::uintptr_t>(s.w[4].load(std::memory_order_relaxed)));
    return t;
  }

  std::uint32_t mask_;
  std::vector<Slot> slots_;
  alignas(64) std::atomic<std::int64_t> top_{0};
  alignas(64) std::atomic<std::int64_t> bottom_{0};
};

}  // namespace psme::match
