#include "mm/storage/stager.h"

namespace mm::storage {

StagerRegistry& StagerRegistry::Default() {
  static StagerRegistry* registry = [] {
    auto* r = new StagerRegistry();
    r->Register("posix", MakePosixStager());
    r->Register("file", MakePosixStager());  // alias used in paper examples
    r->Register("shdf", MakeShdfStager());
    r->Register("spar", MakeSparStager());
    return r;
  }();
  return *registry;
}

void StagerRegistry::Register(const std::string& scheme,
                              std::unique_ptr<Stager> stager) {
  stagers_[scheme] = std::move(stager);
}

StatusOr<Stager*> StagerRegistry::Get(const std::string& scheme) const {
  auto it = stagers_.find(scheme);
  if (it == stagers_.end()) {
    return NotFound("no stager registered for scheme '" + scheme + "'");
  }
  return it->second.get();
}

StatusOr<std::pair<Stager*, Uri>> StagerRegistry::Resolve(
    const std::string& key) const {
  MM_ASSIGN_OR_RETURN(Uri uri, ParseUri(key));
  MM_ASSIGN_OR_RETURN(Stager * stager, Get(uri.scheme));
  MM_RETURN_IF_ERROR(stager->CheckUri(uri));
  return std::make_pair(stager, uri);
}

}  // namespace mm::storage
