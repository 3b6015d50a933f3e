// Key-value store CAAPI (§V-B).
//
// "DataCapsules are sufficient to implement any convenient, mutable data
// storage repository."  The KV store materializes a mutable map from an
// append-only capsule of put/del operations.  Every K operations the
// writer emits a *checkpoint* record containing the full snapshot; paired
// with the checkpoint hash-pointer strategy, a cold reader recovers the
// current state by fetching only the latest checkpoint plus the tail —
// the paper's "a file-system interface on a DataCapsule may make all
// records include a hash-pointer to a checkpoint record".
#pragma once

#include <map>
#include <optional>
#include <string>

#include "caapi/mount.hpp"
#include "client/client.hpp"
#include "harness/scenario.hpp"

namespace gdp::caapi {

class GdpKvStore {
 public:
  /// Shared CAAPI entry point.  Create-new mints keys and places a fresh
  /// kv capsule; open-existing attaches a *read-only* recovered view of
  /// another writer's capsule (puts/dels fail with kPermissionDenied —
  /// the kv capsule is strict-single-writer).
  static Result<GdpKvStore> mount(const Mount& m);

  Status put(const std::string& key, const std::string& value);
  Status del(const std::string& key);
  std::optional<std::string> get(const std::string& key) const;
  std::size_t size() const { return map_.size(); }

  /// Cold recovery: fetch latest checkpoint + tail only (not the whole
  /// history).  Returns the number of records fetched, for the
  /// checkpoint-efficiency assertions and benches.
  Result<std::uint64_t> recover(const capsule::Metadata& metadata);

  const capsule::Metadata& metadata() const { return setup_.metadata; }

 private:
  GdpKvStore(harness::Scenario& scenario, client::GdpClient& client,
             MountOptions options, harness::CapsuleSetup setup,
             std::optional<capsule::Writer> writer);

  Status append_op(Bytes payload);
  Status apply(BytesView payload);
  Bytes snapshot_payload() const;

  harness::Scenario& scenario_;
  client::GdpClient& client_;
  MountOptions options_;
  harness::CapsuleSetup setup_;
  std::optional<capsule::Writer> writer_;  ///< absent on read-only mounts
  std::map<std::string, std::string> map_;
  std::uint64_t ops_since_checkpoint_ = 0;
};

}  // namespace gdp::caapi
