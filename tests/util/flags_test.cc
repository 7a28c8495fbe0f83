// FlagParser contract tests: typed binding, --name=value and --name value
// forms, switch semantics, the single optional positional, rejection of
// unknown/incomplete/malformed flags, and the generated help text.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "util/flags.h"

namespace wafp::util {
namespace {

/// Build a mutable argv from string literals (parse takes char**).
class Argv {
 public:
  explicit Argv(std::initializer_list<const char*> args) {
    storage_.emplace_back("prog");
    for (const char* arg : args) storage_.emplace_back(arg);
    for (std::string& s : storage_) pointers_.push_back(s.data());
  }
  [[nodiscard]] int argc() const { return static_cast<int>(pointers_.size()); }
  [[nodiscard]] char** argv() { return pointers_.data(); }

 private:
  std::vector<std::string> storage_;
  std::vector<char*> pointers_;
};

struct Flags {
  FlagParser parser{"prog", "test binary"};
  std::string dir;
  std::size_t count = 7;
  std::uint64_t period = 0;
  double ratio = 1.5;
  bool fast = false;
  std::size_t positional = 100;

  Flags() {
    parser.flag("--dir", &dir, "a string flag");
    parser.flag("--count", &count, "a size_t flag");
    parser.flag("--period", &period, "a uint64 flag");
    parser.flag("--ratio", &ratio, "a double flag");
    parser.flag("--fast", &fast, "a switch");
    parser.positional("items", &positional, "item count", /*min=*/1);
  }
};

TEST(FlagParserTest, DefaultsSurviveAnEmptyCommandLine) {
  Flags f;
  Argv argv({});
  EXPECT_TRUE(f.parser.parse(argv.argc(), argv.argv()));
  EXPECT_EQ(f.dir, "");
  EXPECT_EQ(f.count, 7u);
  EXPECT_FALSE(f.fast);
  EXPECT_EQ(f.positional, 100u);
}

TEST(FlagParserTest, BindsEveryTypeInBothForms) {
  Flags f;
  Argv argv({"42", "--dir", "/tmp/x", "--count=9", "--period", "31",
             "--ratio=0.25", "--fast"});
  ASSERT_TRUE(f.parser.parse(argv.argc(), argv.argv()));
  EXPECT_EQ(f.positional, 42u);
  EXPECT_EQ(f.dir, "/tmp/x");
  EXPECT_EQ(f.count, 9u);
  EXPECT_EQ(f.period, 31u);
  EXPECT_DOUBLE_EQ(f.ratio, 0.25);
  EXPECT_TRUE(f.fast);
}

TEST(FlagParserTest, UnknownFlagIsAHardError) {
  Flags f;
  Argv argv({"--bogus"});
  EXPECT_FALSE(f.parser.parse(argv.argc(), argv.argv()));
  EXPECT_EQ(f.parser.exit_code(), 2);
}

TEST(FlagParserTest, MissingValueIsAHardError) {
  // The classic hand-rolled-loop bug: a trailing value flag must not
  // silently parse as "flag ignored" or eat a neighboring argument.
  Flags f;
  Argv argv({"--count"});
  EXPECT_FALSE(f.parser.parse(argv.argc(), argv.argv()));
  EXPECT_EQ(f.parser.exit_code(), 2);
}

TEST(FlagParserTest, MalformedNumbersAreRejected) {
  for (const char* bad : {"--count=abc", "--count=12x", "--count=-3",
                          "--count=99999999999999999999", "--ratio=zz"}) {
    Flags f;
    Argv argv({bad});
    EXPECT_FALSE(f.parser.parse(argv.argc(), argv.argv())) << bad;
    EXPECT_EQ(f.parser.exit_code(), 2) << bad;
  }
}

TEST(FlagParserTest, SwitchRejectsAValue) {
  Flags f;
  Argv argv({"--fast=1"});
  EXPECT_FALSE(f.parser.parse(argv.argc(), argv.argv()));
  EXPECT_EQ(f.parser.exit_code(), 2);
}

TEST(FlagParserTest, PositionalValidatesMinimumAndArity) {
  {
    Flags f;
    Argv argv({"0"});  // below min=1
    EXPECT_FALSE(f.parser.parse(argv.argc(), argv.argv()));
  }
  {
    Flags f;
    Argv argv({"5", "6"});  // only one positional is declared
    EXPECT_FALSE(f.parser.parse(argv.argc(), argv.argv()));
  }
  {
    Flags f;
    Argv argv({"five"});
    EXPECT_FALSE(f.parser.parse(argv.argc(), argv.argv()));
  }
}

TEST(FlagParserTest, HelpStopsParsingWithExitCodeZero) {
  Flags f;
  Argv argv({"--help"});
  EXPECT_FALSE(f.parser.parse(argv.argc(), argv.argv()));
  EXPECT_EQ(f.parser.exit_code(), 0);
}

TEST(FlagParserTest, HelpTextListsEveryFlagWithDefaults) {
  Flags f;
  const std::string help = f.parser.help_text();
  for (const char* expected :
       {"usage: prog", "items", "--dir", "--count", "--period", "--ratio",
        "--fast", "(default: 7)", "(default: false)", "test binary"}) {
    EXPECT_NE(help.find(expected), std::string::npos)
        << "help text missing " << expected << "\n" << help;
  }
}

TEST(FlagParserTest, UnsignedFlagEnforcesItsMinimum) {
  for (const char* arg : {"--users=0", "--users=abc"}) {
    FlagParser parser("prog", "");
    std::size_t users = 5;
    parser.flag("--users", &users, "a count", /*min=*/1);
    Argv argv({arg});
    EXPECT_FALSE(parser.parse(argv.argc(), argv.argv())) << arg;
    EXPECT_EQ(parser.exit_code(), 2) << arg;
    EXPECT_EQ(users, 5u) << arg;
  }
  FlagParser parser("prog", "");
  std::size_t users = 5;
  parser.flag("--users", &users, "a count", /*min=*/1);
  Argv argv({"--users=1"});
  EXPECT_TRUE(parser.parse(argv.argc(), argv.argv()));
  EXPECT_EQ(users, 1u);
}

TEST(FlagParserTest, RangeCheckedAgainstTheTargetWidth) {
  FlagParser parser("prog", "");
  std::uint32_t narrow = 0;
  parser.flag("--narrow", &narrow, "a uint32 flag");
  {
    Argv argv({"--narrow=4294967295"});
    EXPECT_TRUE(parser.parse(argv.argc(), argv.argv()));
    EXPECT_EQ(narrow, 4294967295u);
  }
  {
    FlagParser strict("prog", "");
    std::uint32_t target = 0;
    strict.flag("--narrow", &target, "a uint32 flag");
    Argv argv({"--narrow=4294967296"});  // one past the type's range
    EXPECT_FALSE(strict.parse(argv.argc(), argv.argv()));
  }
}

}  // namespace
}  // namespace wafp::util
