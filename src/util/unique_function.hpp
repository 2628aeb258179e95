// Move-only callable wrapper with a small-buffer optimization.
//
// The event kernel schedules millions of callbacks per run; std::function
// heap-allocates any capture larger than its tiny internal buffer (16 bytes
// in libstdc++), which makes the allocator the hottest symbol in event-heavy
// profiles. UniqueFunction stores captures up to kBufferSize bytes inline,
// never requires the callable to be copyable, and falls back to the heap
// only for oversized captures. It is intentionally minimal: no target_type,
// no allocator support, invocation through one indirect call.
#pragma once

#include <cstddef>
#include <memory>
#include <new>
#include <type_traits>
#include <utility>

#include "util/assert.hpp"

namespace hls {

template <typename Signature>
class UniqueFunction;

template <typename R, typename... Args>
class UniqueFunction<R(Args...)> {
 public:
  /// Inline capture capacity. Sized so the protocol engine's continuation
  /// captures (this + an 8-byte transaction ticket + a member-function
  /// pointer + a small payload, with a 16-byte Itanium-ABI member pointer)
  /// fit without touching the heap; the whole wrapper is 80 bytes.
  static constexpr std::size_t kBufferSize = 56;

  UniqueFunction() noexcept = default;
  UniqueFunction(std::nullptr_t) noexcept {}  // NOLINT(google-explicit-constructor): mirrors std::function

  template <typename F,
            typename = std::enable_if_t<
                !std::is_same_v<std::decay_t<F>, UniqueFunction> &&
                std::is_invocable_r_v<R, std::decay_t<F>&, Args...>>>
  UniqueFunction(F&& f) {  // NOLINT(google-explicit-constructor): mirrors std::function
    using D = std::decay_t<F>;
    if constexpr (fits_inline<D>() && std::is_trivially_copyable_v<D> &&
                  std::is_trivially_destructible_v<D>) {
      // Trivial captures (pointers + ids — the simulator's common case) are
      // moved by plain buffer copy and need no destruction: null move_ /
      // destroy_ pointers mark this, keeping entry moves free of indirect
      // calls.
      ::new (static_cast<void*>(buffer_)) D(std::forward<F>(f));
      invoke_ = &invoke_inline<D>;
    } else if constexpr (fits_inline<D>()) {
      ::new (static_cast<void*>(buffer_)) D(std::forward<F>(f));
      invoke_ = &invoke_inline<D>;
      move_ = &move_inline<D>;
      destroy_ = &destroy_inline<D>;
    } else {
      ::new (static_cast<void*>(buffer_)) D*(new D(std::forward<F>(f)));
      invoke_ = &invoke_heap<D>;
      move_ = &move_heap;
      destroy_ = &destroy_heap<D>;
    }
  }

  UniqueFunction(UniqueFunction&& other) noexcept { move_from(std::move(other)); }

  UniqueFunction& operator=(UniqueFunction&& other) noexcept {
    if (this != &other) {
      reset();
      move_from(std::move(other));
    }
    return *this;
  }

  UniqueFunction(const UniqueFunction&) = delete;
  UniqueFunction& operator=(const UniqueFunction&) = delete;

  ~UniqueFunction() { reset(); }

  R operator()(Args... args) {
    HLS_ASSERT(invoke_ != nullptr, "calling an empty UniqueFunction");
    return invoke_(buffer_, std::forward<Args>(args)...);
  }

  explicit operator bool() const noexcept { return invoke_ != nullptr; }

 private:
  template <typename D>
  static constexpr bool fits_inline() {
    return sizeof(D) <= kBufferSize &&
           alignof(D) <= alignof(std::max_align_t) &&
           std::is_nothrow_move_constructible_v<D>;
  }

  template <typename D>
  static R invoke_inline(void* buf, Args&&... args) {
    return (*std::launder(reinterpret_cast<D*>(buf)))(std::forward<Args>(args)...);
  }
  template <typename D>
  static void move_inline(void* dst, void* src) noexcept {
    D* s = std::launder(reinterpret_cast<D*>(src));
    ::new (dst) D(std::move(*s));
    s->~D();
  }
  template <typename D>
  static void destroy_inline(void* buf) noexcept {
    std::launder(reinterpret_cast<D*>(buf))->~D();
  }

  template <typename D>
  static R invoke_heap(void* buf, Args&&... args) {
    return (**std::launder(reinterpret_cast<D**>(buf)))(std::forward<Args>(args)...);
  }
  static void move_heap(void* dst, void* src) noexcept {
    ::new (dst) void*(*std::launder(reinterpret_cast<void**>(src)));
  }
  template <typename D>
  static void destroy_heap(void* buf) noexcept {
    delete *std::launder(reinterpret_cast<D**>(buf));
  }

  void move_from(UniqueFunction&& other) noexcept {
    if (other.invoke_ != nullptr) {
      if (other.move_ != nullptr) {
        other.move_(buffer_, other.buffer_);
      } else {
        __builtin_memcpy(buffer_, other.buffer_, kBufferSize);
      }
      invoke_ = other.invoke_;
      move_ = other.move_;
      destroy_ = other.destroy_;
      other.invoke_ = nullptr;
      other.move_ = nullptr;
      other.destroy_ = nullptr;
    }
  }

  void reset() noexcept {
    if (invoke_ != nullptr) {
      if (destroy_ != nullptr) {
        destroy_(buffer_);
      }
      invoke_ = nullptr;
      move_ = nullptr;
      destroy_ = nullptr;
    }
  }

  alignas(std::max_align_t) unsigned char buffer_[kBufferSize];
  R (*invoke_)(void*, Args&&...) = nullptr;
  void (*move_)(void* dst, void* src) noexcept = nullptr;
  void (*destroy_)(void*) noexcept = nullptr;
};

}  // namespace hls
