// FlagParser: the one command-line parser for the repo's binaries.
//
// Every example and bench binary used to hand-roll the same strcmp/strtoul
// loop, and each copy re-discovered the same footguns (a typo'd flag
// falling through to a positional, a value-less flag eating the next
// argument, no --help). This parser centralizes the contract:
//
//   * typed flags bind directly to variables (bool switch, string,
//     unsigned integer, double) whose initial value is the default;
//   * both `--name value` and `--name=value` are accepted;
//   * unknown flags and flags missing their value are hard errors (exit
//     code 2), never silent fallthrough;
//   * --help / -h prints a generated usage text (flag, value placeholder,
//     help line, default) and exits 0;
//   * at most one optional *positional* argument is supported, which is
//     what the binaries actually use (a count), with full validation.
//
// Usage:
//   util::FlagParser flags("tracking_server", "Online collation demo.");
//   flags.flag("--state-dir", &state_dir, "persist WAL + snapshots here");
//   flags.flag("--fsync-wal", &fsync, "fdatasync every WAL append");
//   flags.positional("num_visitors", &n, "visitors to enrol", /*min=*/1);
//   if (!flags.parse(argc, argv)) return flags.exit_code();
#pragma once

#include <cstdint>
#include <functional>
#include <limits>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

namespace wafp::util {

class FlagParser {
 public:
  FlagParser(std::string_view program, std::string_view description);

  /// Boolean switch: present = true; takes no value.
  void flag(std::string_view name, bool* value, std::string_view help);
  void flag(std::string_view name, std::string* value, std::string_view help);
  void flag(std::string_view name, double* value, std::string_view help);

  /// Any unsigned integer target (size_t, uint64_t, uint32_t, ...);
  /// rejects non-numeric text, trailing junk, out-of-range values, and
  /// values below `min` (a count that must not be 0 passes min = 1).
  template <typename T>
    requires(std::is_unsigned_v<T> && !std::is_same_v<T, bool>)
  void flag(std::string_view name, T* value, std::string_view help,
            std::uint64_t min = 0) {
    add_flag(name, help, std::to_string(*value), /*is_switch=*/false,
             [value, min](std::string_view text) {
               std::uint64_t parsed = 0;
               if (!parse_u64(text, parsed) || parsed < min) return false;
               if (parsed > std::uint64_t{std::numeric_limits<T>::max()}) {
                 return false;
               }
               *value = static_cast<T>(parsed);
               return true;
             });
  }

  /// Optional positional argument (an unsigned count >= `min`). At most one
  /// may be registered; a second registration is a programming error.
  void positional(std::string_view name, std::size_t* value,
                  std::string_view help, std::size_t min = 0);

  /// Parse argv. True = proceed with the program. False = stop and return
  /// exit_code(): 0 after --help, 2 after a usage error (already reported
  /// on stderr).
  [[nodiscard]] bool parse(int argc, char** argv);
  [[nodiscard]] int exit_code() const { return exit_code_; }

  /// The generated --help text (also printed by parse()).
  [[nodiscard]] std::string help_text() const;

 private:
  struct Flag {
    std::string name;
    std::string help;
    std::string default_text;
    bool is_switch = false;
    std::function<bool(std::string_view)> set;
  };

  void add_flag(std::string_view name, std::string_view help,
                std::string default_text, bool is_switch,
                std::function<bool(std::string_view)> set);
  [[nodiscard]] Flag* find(std::string_view name);
  [[nodiscard]] std::string usage_line() const;

  /// Strict decimal parse: the whole string, no sign, no overflow.
  static bool parse_u64(std::string_view text, std::uint64_t& out);

  std::string program_;
  std::string description_;
  std::vector<Flag> flags_;

  bool has_positional_ = false;
  std::string positional_name_;
  std::string positional_help_;
  std::size_t* positional_value_ = nullptr;
  std::size_t positional_min_ = 0;

  int exit_code_ = 0;
};

}  // namespace wafp::util
