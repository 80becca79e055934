#include "util/bytes_file.h"

#include <cstdio>
#include <fstream>
#include <span>

#include "util/error.h"
#include "util/hash.h"

namespace pagen {
namespace {

/// Bytes of the little-endian FNV-1a seal.
constexpr std::size_t kSealBytes = 8;

/// Write `bytes` to a sibling temp file, then rename it over `path`.
void save_bytes_atomic(const std::string& path,
                       const std::vector<std::uint8_t>& bytes) {
  const std::string tmp = path + ".tmp";
  {
    std::ofstream os(tmp, std::ios::binary | std::ios::trunc);
    PAGEN_CHECK_MSG(os.is_open(), "cannot open " << tmp << " for writing");
    os.write(reinterpret_cast<const char*>(bytes.data()),
             static_cast<std::streamsize>(bytes.size()));
    os.flush();
    PAGEN_CHECK_MSG(os.good(), "write failed for " << tmp);
  }
  PAGEN_CHECK_MSG(std::rename(tmp.c_str(), path.c_str()) == 0,
                  "atomic rename to " << path << " failed");
}

}  // namespace

bool try_load_bytes(const std::string& path, std::vector<std::uint8_t>& out) {
  out.clear();
  std::ifstream is(path, std::ios::binary);
  if (!is.is_open()) return false;
  is.seekg(0, std::ios::end);
  const std::streamsize size = is.tellg();
  is.seekg(0, std::ios::beg);
  out.resize(static_cast<std::size_t>(size));
  if (size > 0) is.read(reinterpret_cast<char*>(out.data()), size);
  PAGEN_CHECK_MSG(is.good(), "read failed for " << path);
  return true;
}

std::uint64_t save_sealed(const std::string& path,
                          std::vector<std::uint8_t> payload) {
  const std::uint64_t seal = fnv1a(payload);
  for (std::size_t i = 0; i < kSealBytes; ++i) {
    payload.push_back(static_cast<std::uint8_t>(seal >> (8 * i)));
  }
  save_bytes_atomic(path, payload);
  return seal;
}

std::optional<std::uint64_t> try_load_sealed(
    const std::string& path, std::vector<std::uint8_t>& payload) {
  if (!try_load_bytes(path, payload)) return std::nullopt;
  PAGEN_CHECK_MSG(payload.size() > kSealBytes,
                  "sealed file " << path << " is too short");
  const std::size_t size = payload.size() - kSealBytes;
  std::uint64_t seal = 0;
  for (std::size_t i = 0; i < kSealBytes; ++i) {
    seal |= static_cast<std::uint64_t>(payload[size + i]) << (8 * i);
  }
  PAGEN_CHECK_MSG(fnv1a(std::span(payload).first(size)) == seal,
                  "seal mismatch in " << path);
  payload.resize(size);
  return seal;
}

}  // namespace pagen
