// Service-backed collection parity: route a study dataset's observations
// through the full CollationService pipeline (validation, queue, WAL,
// snapshots, optional fault schedule) and check the resulting collated
// components against a directly built FingerprintGraph. This is the bridge
// between the offline study harness and the online service — the paper's
// collation is one algorithm, so both paths must agree bit-for-bit.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>

#include "service/fault_injection.h"
#include "study/dataset.h"

namespace wafp::study {

struct ServiceParityReport {
  std::uint64_t direct_checksum = 0;   // FingerprintGraph built in-process
  std::uint64_t service_checksum = 0;  // CollationService-ingested graph
  std::uint64_t submitted = 0;
  std::uint64_t accepted = 0;
  std::uint64_t applied = 0;

  [[nodiscard]] bool match() const {
    return direct_checksum == service_checksum;
  }
};

/// Submit every (user, iteration) digest of `vector` through a collation
/// engine with `shards` shards (as service::make_engine, 0 is read as 1)
/// and compare components with the direct graph — parity must hold at
/// every shard count.
/// `state_dir` empty = in-memory service; otherwise the service checkpoints
/// there (and the comparison exercises WAL + snapshot codepaths too).
/// `faults` lets callers schedule duplicate/reorder noise — the checksums
/// must still match; drops legitimately break parity (that is the point of
/// testing with them).
[[nodiscard]] ServiceParityReport service_collation_parity(
    const Dataset& dataset, fingerprint::VectorId vector,
    const service::FaultPlan& faults = {}, const std::string& state_dir = {},
    std::size_t shards = 1);

}  // namespace wafp::study
