// Deterministic fault-injection hooks for the collation service.
//
// Robustness claims that cannot be exercised in CI are wishes, not
// properties. Every failure mode the service defends against — lossy or
// duplicating networks, reordered delivery, a disk that fails an append, a
// snapshot that rots on disk, a process that dies mid-ingest — can be
// scheduled here *deterministically* (counter-based, no clocks, no RNG), so
// the crash-recovery parity tests replay the exact same fault schedule on
// every run.
#pragma once

#include <cstdint>

namespace wafp::service {

/// All counters are 1-based ordinals over the relevant event stream and
/// 0 disables the fault. Faults compose; each is evaluated independently.
struct FaultPlan {
  /// Drop every Nth *accepted* submission before it reaches the queue
  /// (simulates client/network loss; the collation result legitimately
  /// changes, which tests assert).
  std::uint64_t drop_every = 0;

  /// Enqueue every Nth accepted submission twice (duplicate delivery; must
  /// NOT change the collated components — add_observation is idempotent).
  std::uint64_t duplicate_every = 0;

  /// Swap every Nth accepted submission with the one queued before it on
  /// the same shard (pairwise reordering; must not change components
  /// either).
  std::uint64_t reorder_every = 0;

  /// Fail WAL append number N of each shard transiently: the first attempt
  /// reports failure, the retry succeeds. Exercises the retry/backoff
  /// policy.
  std::uint64_t fail_append_at = 0;

  /// Fail every Nth WAL append transiently (as above, recurring).
  std::uint64_t fail_append_every = 0;

  /// Fail *every attempt* of WAL append number N, including retries —
  /// the submission surfaces as a hard ingest error.
  std::uint64_t fail_append_hard_at = 0;

  /// Flip one byte of the snapshot file right after it is written, so the
  /// next recovery must detect the corruption via checksum.
  bool corrupt_snapshot = false;
};

/// True when 1-based ordinal `n` matches an `every`-style period. The
/// engine's router counts accepted submissions (drop, duplicate, reorder);
/// each shard counts its own WAL appends (the append faults).
[[nodiscard]] inline bool fault_hits(std::uint64_t n, std::uint64_t every) {
  return every != 0 && n % every == 0;
}

}  // namespace wafp::service
