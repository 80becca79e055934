#include "util/cli.h"

#include <algorithm>
#include <charconv>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <system_error>

namespace pagen {

Cli::Cli(int argc, const char* const* argv,
         std::vector<std::string> allowed_keys)
    : allowed_(std::move(allowed_keys)) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      help_ = true;
      continue;
    }
    if (arg.rfind("--", 0) != 0) {
      throw std::invalid_argument("unexpected positional argument: " + arg);
    }
    arg.erase(0, 2);
    std::string key = arg;
    std::string value = "true";
    if (const auto eq = arg.find('='); eq != std::string::npos) {
      key = arg.substr(0, eq);
      value = arg.substr(eq + 1);
    }
    if (std::find(allowed_.begin(), allowed_.end(), key) == allowed_.end()) {
      throw std::invalid_argument("unknown option --" + key);
    }
    values_[key] = value;
  }
}

namespace {

[[noreturn]] void bad_value(const std::string& key, const std::string& value,
                            const char* expected) {
  throw std::invalid_argument("bad value for --" + key + ": '" + value +
                              "' (expected " + expected + ")");
}

/// The whole of `value` as a T, or invalid_argument naming the flag.
template <typename T>
T parse_whole(const std::string& key, const std::string& value,
              const char* expected) {
  T out{};
  const char* last = value.data() + value.size();
  const auto [end, ec] = std::from_chars(value.data(), last, out);
  if (ec != std::errc() || end != last) bad_value(key, value, expected);
  return out;
}

}  // namespace

bool Cli::has(const std::string& key) const { return values_.count(key) != 0; }

std::uint64_t Cli::get_u64(const std::string& key, std::uint64_t def) const {
  const auto it = values_.find(key);
  if (it == values_.end()) return def;
  return parse_whole<std::uint64_t>(key, it->second,
                                    "a decimal integer below 2^64");
}

int Cli::get_int(const std::string& key, int def) const {
  const auto it = values_.find(key);
  if (it == values_.end()) return def;
  constexpr const char* kExpected = "a decimal integer in [0, 2^31 - 1]";
  const auto v = parse_whole<std::uint64_t>(key, it->second, kExpected);
  if (v > static_cast<std::uint64_t>(std::numeric_limits<int>::max())) {
    bad_value(key, it->second, kExpected);
  }
  return static_cast<int>(v);
}

double Cli::get_double(const std::string& key, double def) const {
  const auto it = values_.find(key);
  if (it == values_.end()) return def;
  return parse_whole<double>(key, it->second, "a number");
}

std::string Cli::get_str(const std::string& key, std::string def) const {
  const auto it = values_.find(key);
  if (it == values_.end()) return def;
  return it->second;
}

bool Cli::get_bool(const std::string& key, bool def) const {
  const auto it = values_.find(key);
  if (it == values_.end()) return def;
  const std::string& s = it->second;
  if (s == "true" || s == "1" || s == "yes") return true;
  if (s == "false" || s == "0" || s == "no") return false;
  bad_value(key, s, "one of true, 1, yes, false, 0, no");
}

std::string Cli::usage(const std::string& prog) const {
  std::ostringstream os;
  os << "usage: " << prog;
  for (const auto& k : allowed_) os << " [--" << k << "=VALUE]";
  return os.str();
}

}  // namespace pagen
