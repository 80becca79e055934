// Minimal --key=value command-line parsing for examples and benches.
//
// Every experiment binary accepts overrides such as --n=1000000 --x=4
// --ranks=16 --seed=42; unknown keys and values that do not parse as a
// whole throw std::invalid_argument, so typos never silently run the
// default workload.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace pagen {

/// Parsed command line. Only `--key=value` and `--flag` forms are accepted.
class Cli {
 public:
  /// @param allowed_keys keys this binary understands; anything else is an
  ///   error. `--help` is always recognized.
  Cli(int argc, const char* const* argv, std::vector<std::string> allowed_keys);

  [[nodiscard]] bool has(const std::string& key) const;

  // Each getter returns `def` when the key is absent and otherwise accepts
  // one form, throwing std::invalid_argument (naming the flag and the
  // value) on anything else:
  //   get_u64     a plain decimal integer below 2^64 ("1e9", "-1", "4x" fail)
  //   get_int     a plain decimal integer in [0, 2^31 - 1] (counts such as
  //               --ranks, which an int holds)
  //   get_double  a number the conversion consumes whole ("0.5x" fails)
  //   get_bool    true, 1, yes, false, 0 or no (a bare --flag is true)
  [[nodiscard]] std::uint64_t get_u64(const std::string& key,
                                      std::uint64_t def) const;
  [[nodiscard]] int get_int(const std::string& key, int def) const;
  [[nodiscard]] double get_double(const std::string& key, double def) const;
  [[nodiscard]] std::string get_str(const std::string& key,
                                    std::string def) const;
  [[nodiscard]] bool get_bool(const std::string& key, bool def) const;

  /// True when --help was passed; callers should print usage and exit 0.
  [[nodiscard]] bool help() const { return help_; }

  /// Render "usage: prog --a=.. --b=.." for the allowed keys.
  [[nodiscard]] std::string usage(const std::string& prog) const;

 private:
  std::map<std::string, std::string> values_;
  std::vector<std::string> allowed_;
  bool help_ = false;
};

}  // namespace pagen
