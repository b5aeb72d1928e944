// Minimal command-line parsing for the tools: "--flag", "--key value",
// and positional arguments, with typed accessors. Options nobody asks for
// are ignored, so a removed flag stays harmless in old scripts. No
// external dependencies, exact error messages.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace dnsembed::util {

class ArgParser {
 public:
  /// Parse argv[1..). Tokens starting with "--" are options; an option is
  /// a flag when followed by another option or nothing, otherwise it takes
  /// the next token as its value. Everything else is positional.
  ArgParser(int argc, const char* const* argv);

  /// First positional argument (e.g. the subcommand), if any.
  std::optional<std::string> positional(std::size_t index) const;
  std::size_t positional_count() const noexcept { return positionals_.size(); }

  /// Option present (with or without a value).
  bool has(std::string_view name) const;

  /// The option's value; nullopt when absent or used as a bare flag.
  std::optional<std::string> get(std::string_view name) const;
  std::string get_or(std::string_view name, std::string fallback) const;

  /// Typed accessors; throw std::invalid_argument on unparsable values.
  std::int64_t get_int_or(std::string_view name, std::int64_t fallback) const;
  double get_double_or(std::string_view name, double fallback) const;

 private:
  struct Option {
    std::string name;  // includes leading "--"
    std::optional<std::string> value;
  };

  std::vector<Option> options_;
  std::vector<std::string> positionals_;
};

}  // namespace dnsembed::util
