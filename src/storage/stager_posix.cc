// Flat-file staging backend: object bytes map 1:1 to a file on disk.
#include <cstdio>
#include <filesystem>
#include <fstream>

#include "mm/storage/stager.h"

namespace mm::storage {

namespace {

class PosixStager final : public Stager {
 public:
  Status CheckUri(const Uri& uri) const override {
    // A flat file has no sub-objects: ignoring the fragment would alias
    // every `path:fragment` key onto the one file at `path`.
    if (uri.fragment.empty()) return Status::Ok();
    return InvalidArgument("posix key '" + uri.ToString() +
                           "' names a fragment, but a flat file has none");
  }

  StatusOr<std::uint64_t> Size(const Uri& uri) override {
    std::error_code ec;
    auto size = std::filesystem::file_size(uri.path, ec);
    if (ec) return NotFound("no such file: " + uri.path);
    return static_cast<std::uint64_t>(size);
  }

  Status Create(const Uri& uri, std::uint64_t size) override {
    std::error_code ec;
    std::filesystem::path parent =
        std::filesystem::path(uri.path).parent_path();
    if (!parent.empty()) std::filesystem::create_directories(parent, ec);
    std::ofstream out(uri.path, std::ios::binary | std::ios::trunc);
    if (!out) return IoError("cannot create file: " + uri.path);
    out.close();
    std::filesystem::resize_file(uri.path, size, ec);
    if (ec) return IoError("cannot size file: " + uri.path);
    return Status::Ok();
  }

  Status Read(const Uri& uri, std::uint64_t offset, std::uint64_t size,
              std::vector<std::uint8_t>* out) override {
    std::ifstream in(uri.path, std::ios::binary);
    if (!in) return NotFound("no such file: " + uri.path);
    in.seekg(static_cast<std::streamoff>(offset));
    out->resize(size);
    in.read(reinterpret_cast<char*>(out->data()),
            static_cast<std::streamsize>(size));
    if (in.gcount() != static_cast<std::streamsize>(size)) {
      return OutOfRange("short read from " + uri.path + " at offset " +
                        std::to_string(offset));
    }
    return Status::Ok();
  }

  Status Write(const Uri& uri, std::uint64_t offset, const std::uint8_t* data,
               std::uint64_t size) override {
    // in|out keeps existing content; create the file first if absent.
    if (!std::filesystem::exists(uri.path)) {
      MM_RETURN_IF_ERROR(Create(uri, 0));
    }
    std::fstream out(uri.path,
                     std::ios::binary | std::ios::in | std::ios::out);
    if (!out) return IoError("cannot open file for write: " + uri.path);
    out.seekp(static_cast<std::streamoff>(offset));
    out.write(reinterpret_cast<const char*>(data),
              static_cast<std::streamsize>(size));
    if (!out) return IoError("short write to " + uri.path);
    return Status::Ok();
  }

  bool Exists(const Uri& uri) override {
    return std::filesystem::exists(uri.path);
  }

  Status Remove(const Uri& uri) override {
    std::error_code ec;
    if (!std::filesystem::remove(uri.path, ec) || ec) {
      return NotFound("cannot remove: " + uri.path);
    }
    return Status::Ok();
  }
};

}  // namespace

std::unique_ptr<Stager> MakePosixStager() {
  return std::make_unique<PosixStager>();
}

}  // namespace mm::storage
