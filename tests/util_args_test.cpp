// Tests for the command-line argument parser used by the tools.
#include <gtest/gtest.h>

#include "util/args.hpp"

namespace dnsembed::util {
namespace {

ArgParser parse(std::initializer_list<const char*> tokens) {
  std::vector<const char*> argv{"prog"};
  argv.insert(argv.end(), tokens);
  return ArgParser{static_cast<int>(argv.size()), argv.data()};
}

TEST(Args, PositionalsAndOptions) {
  const auto args = parse({"simulate", "extra", "--out", "trace.log", "--verbose"});
  EXPECT_EQ(args.positional(0), "simulate");
  EXPECT_EQ(args.positional(1), "extra");
  EXPECT_FALSE(args.positional(2).has_value());
  EXPECT_EQ(args.positional_count(), 2u);
  EXPECT_EQ(args.get("--out"), "trace.log");
  EXPECT_TRUE(args.has("--verbose"));
  EXPECT_FALSE(args.get("--verbose").has_value());  // bare trailing flag
  EXPECT_FALSE(args.has("--missing"));
}

TEST(Args, OptionGreedilyConsumesNextNonOptionToken) {
  // Documented rule: "--flag value" binds the value even if the caller
  // meant a positional; flags must come after positionals or before
  // other options.
  const auto args = parse({"--verbose", "extra"});
  EXPECT_EQ(args.get("--verbose"), "extra");
  EXPECT_EQ(args.positional_count(), 0u);
}

TEST(Args, FlagFollowedByOptionTakesNoValue) {
  const auto args = parse({"--flag", "--out", "x"});
  EXPECT_TRUE(args.has("--flag"));
  EXPECT_FALSE(args.get("--flag").has_value());
  EXPECT_EQ(args.get("--out"), "x");
}

TEST(Args, TypedAccessors) {
  const auto args = parse({"--n", "42", "--x", "2.5", "--neg", "-7"});
  EXPECT_EQ(args.get_int_or("--n", 0), 42);
  EXPECT_EQ(args.get_int_or("--neg", 0), -7);
  EXPECT_EQ(args.get_int_or("--missing", 99), 99);
  EXPECT_DOUBLE_EQ(args.get_double_or("--x", 0.0), 2.5);
  EXPECT_DOUBLE_EQ(args.get_double_or("--missing", 1.5), 1.5);
  EXPECT_EQ(args.get_or("--missing", "fallback"), "fallback");
}

TEST(Args, TypedAccessorsRejectGarbage) {
  const auto args = parse({"--n", "12abc", "--x", "not-a-number"});
  EXPECT_THROW(args.get_int_or("--n", 0), std::invalid_argument);
  EXPECT_THROW(args.get_double_or("--x", 0.0), std::invalid_argument);
}

TEST(Args, EmptyCommandLine) {
  const auto args = parse({});
  EXPECT_FALSE(args.positional(0).has_value());
  EXPECT_EQ(args.positional_count(), 0u);
}

TEST(Args, NegativeNumberAsValue) {
  // "-7" does not start with "--" so it is consumed as a value.
  const auto args = parse({"--offset", "-7"});
  EXPECT_EQ(args.get_int_or("--offset", 0), -7);
}

}  // namespace
}  // namespace dnsembed::util
