// Bit-exact text encoding for IEEE-754 doubles: renders the raw bit pattern
// as fixed-width lowercase hex. Used by the scaler's artifact payload, where
// a decimal round-trip would perturb the low bits and break the resumable
// pipeline's bit-identical-report guarantee.
#pragma once

#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>

#include "util/hash.hpp"

namespace dnsembed::util {

inline std::string double_to_hex(double value) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &value, sizeof(bits));
  return hex64(bits);
}

inline bool hex_to_double(std::string_view text, double& out) noexcept {
  std::uint64_t bits = 0;
  if (!parse_hex64(text, bits)) return false;
  std::memcpy(&out, &bits, sizeof(out));
  return true;
}

}  // namespace dnsembed::util
