// Error handling helpers.
//
// HADES follows the C++ Core Guidelines: configuration and construction
// errors throw `hades::error`; internal invariants are checked with
// `require()` which throws `hades::invariant_violation` — tests rely on
// these being real exceptions rather than aborts.
#pragma once

#include <stdexcept>
#include <string>
#include <type_traits>

namespace hades {

class error : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

class invariant_violation : public std::logic_error {
 public:
  using std::logic_error::logic_error;
};

/// Precondition / invariant check. Always on (safety-critical domain).
/// The `const char*` overloads matter: literal messages must not construct
/// a temporary std::string on the hot path when the condition holds (the
/// event core and the wire are gated on zero steady-state allocations).
inline void require(bool condition, const char* message) {
  if (!condition) throw invariant_violation(message);
}
inline void require(bool condition, const std::string& message) {
  if (!condition) throw invariant_violation(message);
}
/// Lazy form for formatted messages (ids, names): `message` is a callable
/// returning the text and runs only on failure, so a check on a per-event
/// path builds no string while it holds.
template <typename F>
  requires std::is_invocable_r_v<std::string, F&>
inline void require(bool condition, F&& message) {
  if (!condition) throw invariant_violation(message());
}

/// Configuration validation helper: throws hades::error on failure.
inline void validate(bool condition, const char* message) {
  if (!condition) throw error(message);
}
inline void validate(bool condition, const std::string& message) {
  if (!condition) throw error(message);
}
template <typename F>
  requires std::is_invocable_r_v<std::string, F&>
inline void validate(bool condition, F&& message) {
  if (!condition) throw error(message());
}

}  // namespace hades
