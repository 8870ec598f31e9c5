// Small-buffer-optimized callable: a move-only std::function replacement
// whose inline storage absorbs the capture sizes this codebase actually
// uses (a `this` pointer, a couple of references), so storing or rebinding
// a callback performs no heap allocation.
//
// Callables that are too large, over-aligned, or throwing-move fall back to
// a single heap allocation — functionality is never lost, only the
// no-allocation guarantee. The cluster's event path (PeriodicTask rearming
// every manager tick and SLA sample) stays allocation-free because its
// lambdas capture exactly one pointer.
#pragma once

#include <cstddef>
#include <memory>
#include <new>
#include <type_traits>
#include <utility>

namespace pas::common {

template <typename Signature, std::size_t Capacity = 48>
class InplaceFunction;

template <typename R, typename... Args, std::size_t Capacity>
class InplaceFunction<R(Args...), Capacity> {
 public:
  InplaceFunction() = default;

  template <typename F,
            typename = std::enable_if_t<
                !std::is_same_v<std::decay_t<F>, InplaceFunction> &&
                std::is_invocable_r_v<R, std::decay_t<F>&, Args...>>>
  InplaceFunction(F&& f) {  // NOLINT(google-explicit-constructor)
    emplace(std::forward<F>(f));
  }

  InplaceFunction(InplaceFunction&& other) noexcept { move_from(std::move(other)); }

  InplaceFunction& operator=(InplaceFunction&& other) noexcept {
    if (this != &other) {
      reset();
      move_from(std::move(other));
    }
    return *this;
  }

  InplaceFunction(const InplaceFunction&) = delete;
  InplaceFunction& operator=(const InplaceFunction&) = delete;

  ~InplaceFunction() { reset(); }

  [[nodiscard]] explicit operator bool() const { return vtable_ != nullptr; }

  R operator()(Args... args) {
    return vtable_->invoke(&storage_, std::forward<Args>(args)...);
  }

  void reset() {
    if (vtable_ != nullptr) {
      vtable_->destroy(&storage_);
      vtable_ = nullptr;
    }
  }

 private:
  struct VTable {
    R (*invoke)(void* storage, Args&&... args);
    // Move-constructs dst's payload from src's and destroys src's.
    void (*relocate)(void* dst, void* src);
    void (*destroy)(void* storage);
  };

  template <typename F>
  static constexpr bool fits_inline() {
    return sizeof(F) <= Capacity && alignof(F) <= alignof(std::max_align_t) &&
           std::is_nothrow_move_constructible_v<F>;
  }

  template <typename F>
  void emplace(F&& f) {
    using Fn = std::decay_t<F>;
    if constexpr (fits_inline<Fn>()) {
      ::new (static_cast<void*>(&storage_)) Fn(std::forward<F>(f));
      static constexpr VTable vt{
          [](void* s, Args&&... args) -> R {
            return (*std::launder(reinterpret_cast<Fn*>(s)))(
                std::forward<Args>(args)...);
          },
          [](void* dst, void* src) {
            Fn* from = std::launder(reinterpret_cast<Fn*>(src));
            ::new (dst) Fn(std::move(*from));
            from->~Fn();
          },
          [](void* s) { std::launder(reinterpret_cast<Fn*>(s))->~Fn(); },
      };
      vtable_ = &vt;
    } else {
      ::new (static_cast<void*>(&storage_)) Fn*(new Fn(std::forward<F>(f)));
      static constexpr VTable vt{
          [](void* s, Args&&... args) -> R {
            return (**std::launder(reinterpret_cast<Fn**>(s)))(
                std::forward<Args>(args)...);
          },
          [](void* dst, void* src) {
            Fn** from = std::launder(reinterpret_cast<Fn**>(src));
            ::new (dst) Fn*(*from);
            *from = nullptr;
          },
          [](void* s) { delete *std::launder(reinterpret_cast<Fn**>(s)); },
      };
      vtable_ = &vt;
    }
  }

  void move_from(InplaceFunction&& other) noexcept {
    vtable_ = other.vtable_;
    if (vtable_ != nullptr) {
      vtable_->relocate(&storage_, &other.storage_);
      other.vtable_ = nullptr;
    }
  }

  alignas(std::max_align_t) std::byte storage_[Capacity < sizeof(void*)
                                                   ? sizeof(void*)
                                                   : Capacity];
  const VTable* vtable_ = nullptr;
};

}  // namespace pas::common
