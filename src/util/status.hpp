// Error handling primitives for the ATLANTIS libraries.
//
// Unrecoverable misuse (bad configuration, out-of-range port widths,
// netlist violations) throws util::Error; recoverable outcomes are
// returned as values. This follows the C++ Core Guidelines (E.2/E.14):
// exceptions for errors that cannot be handled locally, types for the rest.
#pragma once

#include <optional>
#include <stdexcept>
#include <string>
#include <utility>

namespace atlantis::util {

/// Base exception for all ATLANTIS library errors.
class Error : public std::runtime_error {
 public:
  explicit Error(std::string what) : std::runtime_error(std::move(what)) {}
};

/// Thrown when a design exceeds a hardware resource budget
/// (gates, pins, memory size, backplane lines).
class CapacityError : public Error {
 public:
  using Error::Error;
};

/// Thrown when an API is driven in an invalid order
/// (e.g. DMA before configuration, simulation of an unelaborated design).
class StateError : public Error {
 public:
  using Error::Error;
};

/// Recoverable failure classification for the fault/recovery layer.
/// These travel by value through Result<T>; unrecoverable misuse keeps
/// throwing the exception types above.
enum class ErrorCode {
  kOk = 0,
  kDmaStall,          // DMA hung until the watchdog fired
  kDmaAbort,          // PCI master/target abort
  kLinkError,         // S-Link transmission error (LDERR)
  kTruncatedFrame,    // event fragment lost its end marker
  kXoff,              // link stuck in flow control
  kSeu,               // single-event upset in memory or configuration
  kConfigCrc,         // configuration CRC failure
  kBoardDead,         // whole-board drop-out
  kTimeout,           // recovery exceeded its time budget
  kRetriesExhausted,  // all retry attempts failed
  kOverloaded,        // admission control refused the request
  kSnapshotVersion,   // snapshot stream from an incompatible major version
  kSnapshotCorrupt,   // snapshot stream truncated or failed its CRC
  kJobNotPending,     // checkpoint/migrate target is not a pending job
  kCircuitOpen,       // circuit breaker refused the operation
  kServiceCrash,      // the serving process itself went down
  kAdmissionReject,   // QoS/SLO admission control refused the job up front
  kShardOverload,     // every candidate shard's bounded queue is full
};

/// One past the last ErrorCode value. Keep in sync with the enum above;
/// the status unit test iterates [0, kErrorCodeCount) and fails on any
/// code whose name falls through to "unknown".
inline constexpr int kErrorCodeCount =
    static_cast<int>(ErrorCode::kShardOverload) + 1;

/// Stable lowercase name ("dma_stall", "config_crc", ...).
const char* error_code_name(ErrorCode code);

/// Value-or-error return for recoverable outcomes (E.2/E.14: types for
/// errors a caller can handle locally). A Result is either ok() and
/// carries a T, or carries an ErrorCode plus a human-readable message.
/// value() on a failed Result throws util::Error — reaching for a value
/// without checking is misuse, not a recoverable condition.
template <typename T>
class [[nodiscard]] Result {
 public:
  /// Implicit success wrapper, so `return transfer;` just works.
  Result(T value) : value_(std::move(value)) {}

  static Result failure(ErrorCode code, std::string message = {}) {
    Result r;
    r.code_ = code;
    r.message_ = std::move(message);
    return r;
  }

  bool ok() const { return value_.has_value(); }
  explicit operator bool() const { return ok(); }

  /// kOk when ok(); the failure classification otherwise.
  ErrorCode error() const { return code_; }
  const std::string& message() const { return message_; }

  T& value() {
    require_ok();
    return *value_;
  }
  const T& value() const {
    require_ok();
    return *value_;
  }
  T value_or(T fallback) const { return ok() ? *value_ : std::move(fallback); }

  /// The one bridge back into the throwing world: returns the value, or
  /// throws util::StateError naming the ErrorCode. Every recoverable
  /// operation has a single Result-returning verb (DMA, configuration,
  /// task switch, self test, S-Link fragment, submit, restore); a caller
  /// that wants an exception writes `.value_or_throw()`.
  T& value_or_throw() {
    if (!ok()) throw_state_error();
    return *value_;
  }
  const T& value_or_throw() const {
    if (!ok()) throw_state_error();
    return *value_;
  }

 private:
  Result() = default;
  void require_ok() const {
    if (!ok()) {
      throw Error(std::string("Result::value() on failure (") +
                  error_code_name(code_) +
                  (message_.empty() ? ")" : "): " + message_));
    }
  }
  [[noreturn]] void throw_state_error() const {
    throw StateError(std::string(error_code_name(code_)) +
                     (message_.empty() ? "" : ": " + message_));
  }

  std::optional<T> value_;
  ErrorCode code_ = ErrorCode::kOk;
  std::string message_;
};

namespace detail {
[[noreturn]] void throw_check_failure(const char* expr, const char* file,
                                      int line, const std::string& msg);
}  // namespace detail

}  // namespace atlantis::util

/// Precondition check that is active in all build types.
/// Usage: ATLANTIS_CHECK(width > 0, "port width must be positive");
#define ATLANTIS_CHECK(expr, msg)                                           \
  do {                                                                      \
    if (!(expr)) {                                                          \
      ::atlantis::util::detail::throw_check_failure(#expr, __FILE__,        \
                                                    __LINE__, (msg));       \
    }                                                                       \
  } while (false)
