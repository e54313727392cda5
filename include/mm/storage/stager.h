// Data Stagers (paper §III-B "Persistently Integrating Memory with
// Storage"): pluggable backends that serialize/deserialize vector pages to
// persistent objects, selected by the vector key's URL scheme.
//
//   posix://  flat binary file, bytes map 1:1
//   shdf://   a real mini HDF5-like single-file container with named
//             datasets (the URL fragment names the dataset)
//   spar://   a real mini parquet-like columnar format: rows of float32
//             columns stored column-major in row groups; the stager
//             transposes between the app's row-major view and the file
//             layout on every read/write (the fragment gives the schema,
//             e.g. "f4x3" = 3 float32 columns)
//
// Stagers perform real file I/O; simulated PFS time is charged by the
// runtime around these calls.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "mm/util/status.h"
#include "mm/util/uri.h"

namespace mm::storage {

class Stager {
 public:
  virtual ~Stager() = default;

  /// Byte size of the object (dataset for shdf, row data for spar).
  virtual StatusOr<std::uint64_t> Size(const Uri& uri) = 0;

  /// Creates (or truncates) the object with the given byte size.
  virtual Status Create(const Uri& uri, std::uint64_t size) = 0;

  /// Reads [offset, offset+size) of the object's logical byte stream.
  virtual Status Read(const Uri& uri, std::uint64_t offset, std::uint64_t size,
                      std::vector<std::uint8_t>* out) = 0;

  /// Writes [offset, offset+size) of the object's logical byte stream. The
  /// raw-pointer form is the primary virtual so pooled task payloads and
  /// journal records stage out without a std::vector round trip.
  virtual Status Write(const Uri& uri, std::uint64_t offset,
                       const std::uint8_t* data, std::uint64_t size) = 0;

  /// Convenience wrapper over the raw-pointer overload.
  Status Write(const Uri& uri, std::uint64_t offset,
               const std::vector<std::uint8_t>& data) {
    return Write(uri, offset, data.data(), data.size());
  }

  virtual bool Exists(const Uri& uri) = 0;
  virtual Status Remove(const Uri& uri) = 0;

  /// Rejects a key this backend cannot address faithfully (kInvalidArgument).
  /// StagerRegistry::Resolve applies it, so no vector binds to such a key.
  virtual Status CheckUri(const Uri& /*uri*/) const { return Status::Ok(); }
};

/// Scheme -> stager dispatch. Thread-safe after construction.
class StagerRegistry {
 public:
  /// Registry with posix, shdf, and spar registered.
  static StagerRegistry& Default();

  /// Registers (or replaces) a stager for `scheme`.
  void Register(const std::string& scheme, std::unique_ptr<Stager> stager);

  /// Stager for `scheme`; error when unknown.
  StatusOr<Stager*> Get(const std::string& scheme) const;

  /// Parses `key` and returns (stager, uri) once the stager accepts it.
  StatusOr<std::pair<Stager*, Uri>> Resolve(const std::string& key) const;

 private:
  std::unordered_map<std::string, std::unique_ptr<Stager>> stagers_;
};

std::unique_ptr<Stager> MakePosixStager();
std::unique_ptr<Stager> MakeShdfStager();
std::unique_ptr<Stager> MakeSparStager();

}  // namespace mm::storage
