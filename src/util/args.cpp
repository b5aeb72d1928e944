#include "util/args.hpp"

#include <charconv>
#include <stdexcept>

namespace dnsembed::util {

ArgParser::ArgParser(int argc, const char* const* argv) {
  for (int i = 1; i < argc; ++i) {
    const std::string_view token{argv[i]};
    if (token.rfind("--", 0) == 0) {
      Option option;
      option.name = std::string{token};
      if (i + 1 < argc && std::string_view{argv[i + 1]}.rfind("--", 0) != 0) {
        option.value = std::string{argv[i + 1]};
        ++i;
      }
      options_.push_back(std::move(option));
    } else {
      positionals_.emplace_back(token);
    }
  }
}

std::optional<std::string> ArgParser::positional(std::size_t index) const {
  if (index >= positionals_.size()) return std::nullopt;
  return positionals_[index];
}

bool ArgParser::has(std::string_view name) const {
  for (const auto& option : options_) {
    if (option.name == name) return true;
  }
  return false;
}

std::optional<std::string> ArgParser::get(std::string_view name) const {
  for (const auto& option : options_) {
    if (option.name == name && option.value.has_value()) return option.value;
  }
  return std::nullopt;
}

std::string ArgParser::get_or(std::string_view name, std::string fallback) const {
  const auto value = get(name);
  return value ? *value : fallback;
}

std::int64_t ArgParser::get_int_or(std::string_view name, std::int64_t fallback) const {
  const auto value = get(name);
  if (!value) return fallback;
  const std::string& text = *value;
  std::int64_t out = 0;
  const auto [ptr, ec] = std::from_chars(text.data(), text.data() + text.size(), out);
  if (ec != std::errc{} || ptr != text.data() + text.size()) {
    throw std::invalid_argument{"bad integer for " + std::string{name} + ": " + text};
  }
  return out;
}

double ArgParser::get_double_or(std::string_view name, double fallback) const {
  const auto value = get(name);
  if (!value) return fallback;
  const std::string& text = *value;
  try {
    std::size_t consumed = 0;
    const double out = std::stod(text, &consumed);
    if (consumed != text.size()) throw std::invalid_argument{""};
    return out;
  } catch (const std::exception&) {
    throw std::invalid_argument{"bad number for " + std::string{name} + ": " + text};
  }
}

}  // namespace dnsembed::util
