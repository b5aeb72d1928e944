// Bidirectional string <-> dense-id mapping. Graphs, traces and label sets
// all address entities (hosts, domains, IPs) by dense 32-bit ids so adjacency
// structures stay compact; this interner owns the strings.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

namespace dnsembed::util {

/// Transparent string hash: with std::equal_to<> it lets a map keyed by
/// std::string be searched with a string_view, without building a
/// temporary std::string per lookup.
struct StringViewHash {
  using is_transparent = void;
  std::size_t operator()(std::string_view key) const noexcept {
    return std::hash<std::string_view>{}(key);
  }
};

class StringInterner {
 public:
  using Id = std::uint32_t;

  /// Return the id for key, inserting it if new.
  Id intern(std::string_view key) {
    const auto it = index_.find(key);
    if (it != index_.end()) return it->second;
    const Id id = static_cast<Id>(strings_.size());
    strings_.emplace_back(key);
    index_.emplace(strings_.back(), id);
    return id;
  }

  /// Lookup without inserting.
  std::optional<Id> find(std::string_view key) const {
    const auto it = index_.find(key);
    if (it == index_.end()) return std::nullopt;
    return it->second;
  }

  /// The string for an id; throws std::out_of_range for unknown ids.
  const std::string& name(Id id) const {
    if (id >= strings_.size()) throw std::out_of_range{"StringInterner: bad id"};
    return strings_[id];
  }

  std::size_t size() const noexcept { return strings_.size(); }
  bool empty() const noexcept { return strings_.empty(); }

  /// All interned strings, indexed by id.
  const std::vector<std::string>& names() const noexcept { return strings_; }

 private:
  std::vector<std::string> strings_;
  std::unordered_map<std::string, Id, StringViewHash, std::equal_to<>> index_;
};

}  // namespace dnsembed::util
