// Per-layer unit costs for the traced run: a workload's own records and
// reads replayed through the public functions of the capsule, crypto,
// store and wire modules, timed from the benchmark side.
#pragma once

#include <filesystem>
#include <vector>

#include "bench.hpp"

namespace perfbench {

struct ReplayInput {
  /// The workload's data capsule and its state on the primary replica.
  const capsule::Metadata* metadata = nullptr;
  const capsule::CapsuleState* state = nullptr;
  std::string strategy;
  /// Payloads re-appended through a fresh Writer, CapsuleState and store.
  std::vector<Bytes> payloads;
  /// Point reads replayed as range proofs of one record.
  std::vector<std::uint64_t> point_seqnos;
  /// Length of the replayed read response (records).
  std::uint64_t range_len = 1;
  /// A server principal to address the replay store's delegation to.
  const trust::Principal* server = nullptr;
  Rng* key_rng = nullptr;
};

/// capsule.*, crypto.*, store.ingest_us/sync_us and wire.* metrics.
Metrics replay_layers(const ReplayInput& in, bool tiny, Ledger& ledger);

}  // namespace perfbench
