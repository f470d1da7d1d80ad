#pragma once

#include <cstddef>
#include <functional>
#include <new>
#include <type_traits>
#include <utility>

namespace curb::sim {

namespace detail {

/// Callables at or under this size (and alignment of max_align_t) live
/// inline inside the EventFn itself — no allocation at all. 64 bytes covers
/// every hot-path lambda in the bus and protocol layers (the bus delivery
/// capture is 56 bytes).
inline constexpr std::size_t kEventInlineSize = 64;

}  // namespace detail

/// Move-only type-erased `void()` callable for simulator events.
///
/// Unlike std::function it never heap-allocates for callables up to 64
/// bytes (libstdc++'s std::function spills to the heap past 16). Larger or
/// over-aligned callables are allocated with `new T`, which honours their
/// alignment; the protocol stack schedules almost none of them.
class EventFn {
 public:
  EventFn() noexcept = default;
  EventFn(std::nullptr_t) noexcept {}  // NOLINT(google-explicit-constructor)

  template <typename F>
    requires(!std::is_same_v<std::remove_cvref_t<F>, EventFn> &&
             std::is_invocable_r_v<void, std::remove_cvref_t<F>&>)
  EventFn(F&& fn) {  // NOLINT(google-explicit-constructor)
    using T = std::remove_cvref_t<F>;
    constexpr bool fits_inline = sizeof(T) <= detail::kEventInlineSize &&
                                 alignof(T) <= alignof(std::max_align_t) &&
                                 std::is_nothrow_move_constructible_v<T>;
    if constexpr (fits_inline) {
      ::new (static_cast<void*>(storage_)) T(std::forward<F>(fn));
      ops_ = &kOps<InlineOps<T>>;
    } else {
      ::new (static_cast<void*>(storage_)) T*(new T(std::forward<F>(fn)));
      ops_ = &kOps<HeapOps<T>>;
    }
  }

  EventFn(EventFn&& other) noexcept { move_from(other); }

  EventFn& operator=(EventFn&& other) noexcept {
    if (this != &other) {
      reset();
      move_from(other);
    }
    return *this;
  }

  EventFn(const EventFn&) = delete;
  EventFn& operator=(const EventFn&) = delete;

  ~EventFn() { reset(); }

  void operator()() {
    if (ops_ == nullptr) throw std::bad_function_call{};
    ops_->invoke(storage_);
  }

  [[nodiscard]] explicit operator bool() const noexcept { return ops_ != nullptr; }

 private:
  struct Ops {
    void (*invoke)(void* storage);
    void (*destroy)(void* storage) noexcept;
    void (*relocate)(void* dst, void* src) noexcept;
  };

  template <typename T>
  struct InlineOps {
    static void invoke(void* storage) { (*static_cast<T*>(storage))(); }
    static void destroy(void* storage) noexcept { static_cast<T*>(storage)->~T(); }
    static void relocate(void* dst, void* src) noexcept {
      ::new (dst) T(std::move(*static_cast<T*>(src)));
      static_cast<T*>(src)->~T();
    }
  };

  template <typename T>
  struct HeapOps {
    static T* slot(void* storage) { return *static_cast<T**>(storage); }
    static void invoke(void* storage) { (*slot(storage))(); }
    static void destroy(void* storage) noexcept { delete slot(storage); }
    static void relocate(void* dst, void* src) noexcept { ::new (dst) T*(slot(src)); }
  };

  template <typename OpsImpl>
  static constexpr Ops kOps{&OpsImpl::invoke, &OpsImpl::destroy, &OpsImpl::relocate};

  void move_from(EventFn& other) noexcept {
    ops_ = other.ops_;
    if (ops_ != nullptr) {
      ops_->relocate(storage_, other.storage_);
      other.ops_ = nullptr;
    }
  }

  void reset() noexcept {
    if (ops_ != nullptr) {
      ops_->destroy(storage_);
      ops_ = nullptr;
    }
  }

  const Ops* ops_ = nullptr;
  alignas(std::max_align_t) unsigned char storage_[detail::kEventInlineSize];
};

}  // namespace curb::sim
