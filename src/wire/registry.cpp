#include "wire/registry.hpp"

#include <algorithm>

namespace shadow::wire {

Bytes Registry::encode(const std::string& header, const std::any& body) const {
  const auto it = entries_.find(header);
  SHADOW_CHECK_MSG(it != entries_.end(), "no codec registered for header '" + header + "'");
  return it->second.encode(body);
}

std::shared_ptr<const std::any> Registry::decode(const std::string& header, ByteView data) const {
  const auto it = entries_.find(header);
  SHADOW_CHECK_MSG(it != entries_.end(), "no codec registered for header '" + header + "'");
  return it->second.decode(std::move(data));
}

std::vector<std::string> Registry::headers() const {
  std::vector<std::string> out;
  out.reserve(entries_.size());
  for (const auto& [header, entry] : entries_) out.push_back(header);
  std::sort(out.begin(), out.end());
  return out;
}

Registry& registry() {
  static Registry instance;
  return instance;
}

}  // namespace shadow::wire
