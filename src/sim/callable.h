// Move-only type-erased `void()` callable with a small-buffer store.
// The event queue keeps one per pending event; std::function heap-allocates
// for all but the tiniest captures, and that allocation dominated
// schedule() in protocol-heavy runs. Captures up to kInlineBytes live in
// place: a `this` pointer plus up to five 8-byte scalars, which covers the
// timer, pacing and link lambdas. Larger ones fall back to the heap and
// are counted; a capture holding a net::Packet (80 bytes) is one of them,
// which is why links keep packets in their own FIFOs instead.
#pragma once

#include <cstddef>
#include <cstdint>
#include <new>
#include <type_traits>
#include <utility>

namespace fiveg::sim {

/// Move-only replacement for std::function<void()>.
class Callable {
 public:
  static constexpr std::size_t kInlineBytes = 48;

  Callable() noexcept {}  // NOLINT: union member stays uninitialized

  template <class F, class Fn = std::decay_t<F>,
            class = std::enable_if_t<!std::is_same_v<Fn, Callable> &&
                                     std::is_invocable_r_v<void, Fn&>>>
  // NOLINTNEXTLINE(google-explicit-constructor): lambdas convert implicitly
  Callable(F&& f) {
    if constexpr (sizeof(Fn) <= kInlineBytes &&
                  alignof(Fn) <= alignof(std::max_align_t) &&
                  std::is_nothrow_move_constructible_v<Fn>) {
      ::new (static_cast<void*>(buf_)) Fn(std::forward<F>(f));
      ops_ = &InlineOps<Fn>::kOps;
    } else {
      ++heap_fallbacks();
      ptr_ = new Fn(std::forward<F>(f));
      ops_ = &HeapOps<Fn>::kOps;
    }
  }

  /// Running count of heap-fallback constructions on this thread (captures
  /// too big for the inline buffer). The self-profiler snapshots deltas of
  /// this to attribute event-core allocations per run; the inline fast path
  /// never touches it.
  static std::uint64_t& heap_fallbacks() noexcept {
    thread_local std::uint64_t count = 0;
    return count;
  }

  Callable(Callable&& other) noexcept { move_from(other); }
  Callable& operator=(Callable&& other) noexcept {
    if (this != &other) {
      reset();
      move_from(other);
    }
    return *this;
  }
  Callable(const Callable&) = delete;
  Callable& operator=(const Callable&) = delete;
  ~Callable() { reset(); }

  /// Destroys the target (releasing its captures); leaves *this empty.
  void reset() noexcept {
    if (ops_ != nullptr) {
      ops_->destroy(this);
      ops_ = nullptr;
    }
  }

  [[nodiscard]] explicit operator bool() const noexcept {
    return ops_ != nullptr;
  }

  /// Invokes the target. Precondition: non-empty.
  void operator()() { ops_->invoke(this); }

 private:
  struct Ops {
    void (*invoke)(Callable*);
    void (*destroy)(Callable*);
    // Moves the target out of `from` into raw storage of `to` (which must
    // be empty); `from` is left with its target destroyed.
    void (*relocate)(Callable* from, Callable* to);
  };

  template <class Fn>
  struct InlineOps {
    static Fn* target(Callable* c) noexcept {
      return std::launder(reinterpret_cast<Fn*>(c->buf_));
    }
    static void invoke(Callable* c) { (*target(c))(); }
    static void destroy(Callable* c) { target(c)->~Fn(); }
    static void relocate(Callable* from, Callable* to) {
      ::new (static_cast<void*>(to->buf_)) Fn(std::move(*target(from)));
      target(from)->~Fn();
    }
    static constexpr Ops kOps{&invoke, &destroy, &relocate};
  };

  template <class Fn>
  struct HeapOps {
    static void invoke(Callable* c) { (*static_cast<Fn*>(c->ptr_))(); }
    static void destroy(Callable* c) { delete static_cast<Fn*>(c->ptr_); }
    static void relocate(Callable* from, Callable* to) {
      to->ptr_ = from->ptr_;
    }
    static constexpr Ops kOps{&invoke, &destroy, &relocate};
  };

  void move_from(Callable& other) noexcept {
    ops_ = other.ops_;
    if (ops_ != nullptr) {
      ops_->relocate(&other, this);
      other.ops_ = nullptr;
    }
  }

  union {
    alignas(std::max_align_t) unsigned char buf_[kInlineBytes];
    void* ptr_;
  };
  const Ops* ops_ = nullptr;
};

}  // namespace fiveg::sim
