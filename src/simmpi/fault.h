#pragma once

// Deterministic message-fault injection for the simulated MPI runtime.
//
// A FaultInjector installed on a Runtime (set_fault_injector) turns two
// things on at once:
//
//  1. An *integrity layer*: every envelope is stamped with a per-edge
//     sequence number and an FNV-1a payload checksum at send, and verified
//     at the matching wait. Violations surface as brickx::Error with a
//     "fault detected:" diagnostic — never as silently wrong data.
//  2. A *fault schedule*: the k-th message on edge (src, dst, tag) is
//     perturbed according to a pure hash of (seed, src, dst, tag, k), so
//     the schedule is bit-reproducible regardless of how the rank threads
//     interleave. Kinds:
//       Delay     — add virtual seconds to the receiver-visible arrival;
//                   data is untouched, only the clock shifts.
//       Drop      — the payload never arrives; the receiver surfaces the
//                   loss as an error (modeling a reliability-layer
//                   timeout) instead of hanging the simulation.
//       Duplicate — the envelope is delivered twice; the replay trips the
//                   sequence check at a later matching receive, or is
//                   swept and counted as leftover after run().
//       Reorder   — the envelope is held by the sender and released after
//                   its next send to the same destination (or at its next
//                   wait/collective, whichever comes first); an aggregated
//                   sub is delivered behind its frame's other subs. Arrival
//                   times stay put. Matching is by (source, tag, part), so
//                   this is harmless unless two messages share an edge —
//                   where the sequence check fires.
//       Truncate  — the payload is cut short; caught by the size check.
//       Corrupt   — one payload byte is flipped; caught by the checksum.
//
// With a schedule of only Delay (and/or Reorder) faults, delivered data is
// bit-identical to the fault-free run — src/check's oracle asserts exactly
// that, and that every corrupting kind is *detected*.

#include <cstddef>
#include <cstdint>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <tuple>

namespace brickx::mpi {

enum class FaultKind : std::uint8_t {
  None,
  Delay,
  Drop,
  Duplicate,
  Reorder,
  Truncate,
  Corrupt,
};

const char* fault_name(FaultKind k);

/// Per-message fault probabilities (each in [0, 1], summing to <= 1) plus
/// the schedule seed. All-zero probabilities mean "no injector needed";
/// harness::run only installs one when any() is true.
struct FaultSpec {
  std::uint64_t seed = 1;
  double delay = 0.0;
  double drop = 0.0;
  double duplicate = 0.0;
  double reorder = 0.0;
  double truncate = 0.0;
  double corrupt = 0.0;
  /// Injected delays are uniform in (0, max_delay] virtual seconds.
  double max_delay = 5e-5;

  [[nodiscard]] bool any() const;
  /// True when a kind that can change or lose payload bytes is enabled
  /// (anything but Delay/Reorder) — such schedules must end in detection.
  [[nodiscard]] bool corrupting() const;
};

/// Parse "delay=0.3,corrupt=0.01,seed=7,max-delay=1e-5" (any subset of
/// keys: delay drop duplicate reorder truncate corrupt seed max-delay);
/// "none" or "" yields the all-zero spec. std::nullopt on malformed input.
std::optional<FaultSpec> parse_fault_spec(std::string_view s);
std::string describe(const FaultSpec& spec);

/// What actually happened, readable after run() from any thread.
struct FaultCounts {
  std::int64_t messages = 0;  ///< messages the injector inspected
  std::int64_t delayed = 0;
  std::int64_t dropped = 0;
  std::int64_t duplicated = 0;
  std::int64_t reordered = 0;
  std::int64_t truncated = 0;
  std::int64_t corrupted = 0;
  std::int64_t detected = 0;  ///< integrity violations raised by receivers
  std::int64_t leftover = 0;  ///< undelivered envelopes swept after run()

  [[nodiscard]] std::int64_t injected() const {
    return delayed + dropped + duplicated + reordered + truncated + corrupted;
  }
  /// Faults that must surface as an error if their message is received.
  [[nodiscard]] std::int64_t corrupting_injected() const {
    return dropped + truncated + corrupted;
  }
};

/// FNV-1a 64-bit over a byte range — the payload checksum of the
/// integrity layer.
std::uint64_t checksum_bytes(const void* p, std::size_t n);

/// Seeded, thread-safe, interleaving-independent fault schedule. The
/// caller owns it (like the obs Collector) and reads counts() after run().
class FaultInjector {
 public:
  explicit FaultInjector(FaultSpec spec);

  [[nodiscard]] const FaultSpec& spec() const { return spec_; }

  struct Decision {
    FaultKind kind = FaultKind::None;
    double delay = 0.0;          ///< Delay: virtual seconds to add
    std::size_t truncate_to = 0; ///< Truncate: new payload size (< bytes)
    std::size_t corrupt_at = 0;  ///< Corrupt: payload byte index to flip
  };

  /// Decide the fate of the next message on edge (src, dst, tag). The
  /// result depends only on (spec.seed, src, dst, tag, per-edge ordinal) —
  /// never on timing. Zero-byte payloads downgrade Truncate/Corrupt to
  /// None (there is nothing to damage).
  Decision decide(int src, int dst, int tag, std::size_t bytes);

  [[nodiscard]] FaultCounts counts() const;
  void note_detected();
  void note_leftover(std::int64_t n);
  /// Forget per-edge ordinals and counts (schedule restarts from the top).
  void reset();

 private:
  FaultSpec spec_;
  mutable std::mutex mu_;
  std::map<std::tuple<int, int, int>, std::uint64_t> edge_ordinal_;
  FaultCounts counts_;
};

}  // namespace brickx::mpi
