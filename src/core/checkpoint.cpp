#include "core/checkpoint.h"

#include <filesystem>
#include <utility>

#include "store/format.h"
#include "util/bytes_file.h"
#include "util/error.h"

namespace pagen::core {
namespace {

/// "pagnckp3": format magic + version in one varint-framed constant. v2
/// appended an FNV-1a content checksum trailer; v3 adds p's bit pattern and
/// the owned-node fingerprint to the header. Older files fail the magic
/// check and are treated as corrupt — regenerate, never restore garbage.
constexpr std::uint64_t kMagic = 0x7061676e636b7033ULL;

/// F entries are biased by one on disk so kNil (all-ones) stays a one-byte
/// varint instead of ten.
constexpr std::uint64_t encode_f(NodeId v) { return v == kNil ? 0 : v + 1; }
constexpr NodeId decode_f(std::uint64_t raw) {
  return raw == 0 ? kNil : static_cast<NodeId>(raw - 1);
}

/// A declared element count can never exceed the bytes left in the payload
/// (every varint element is at least one byte) — rejects the huge-alloc /
/// silent-garbage parses a corrupted count would otherwise cause.
std::size_t checked_count(const std::vector<std::uint8_t>& body,
                          std::size_t pos, std::uint64_t count, Rank rank) {
  PAGEN_CHECK_MSG(count <= body.size() - pos,
                  "checkpoint for rank " << rank << " declares " << count
                                         << " elements with only "
                                         << (body.size() - pos)
                                         << " payload bytes left");
  return static_cast<std::size_t>(count);
}

}  // namespace

std::string checkpoint_path(const std::string& dir, Rank rank) {
  return dir + "/pagen-ckpt-" + std::to_string(rank);
}

void save_checkpoint(const std::string& dir, const RankCheckpoint& ck) {
  // Racing create_directories from several rank threads is fine: it only
  // fails on a real error, not on "already exists".
  std::filesystem::create_directories(dir);
  std::vector<std::uint8_t> buf;
  buf.reserve(48 + ck.f.size() * 2);
  store::put_varint(buf, kMagic);
  store::put_varint(buf, ck.n);
  store::put_varint(buf, ck.x);
  store::put_varint(buf, ck.p_bits);
  store::put_varint(buf, ck.seed);
  store::put_varint(buf, static_cast<std::uint64_t>(ck.rank));
  store::put_varint(buf, static_cast<std::uint64_t>(ck.nranks));
  store::put_varint(buf, ck.owned_hash);
  store::put_varint(buf, ck.f.size());
  for (const NodeId v : ck.f) store::put_varint(buf, encode_f(v));
  store::put_varint(buf, ck.attempts.size());
  for (const std::uint32_t a : ck.attempts) store::put_varint(buf, a);
  store::put_varint(buf, ck.locked_copy.size());
  for (const std::uint8_t l : ck.locked_copy) store::put_varint(buf, l);
  save_sealed(checkpoint_path(dir, ck.rank), std::move(buf));
}

bool load_checkpoint(const std::string& dir, Rank rank, RankCheckpoint& out) {
  // The seal is checked before a single field is parsed: a truncated,
  // extended, or bit-flipped file fails here, never restores garbage.
  std::vector<std::uint8_t> body;
  if (!try_load_sealed(checkpoint_path(dir, rank), body)) return false;
  std::size_t pos = 0;
  PAGEN_CHECK_MSG(store::get_varint(body, pos) == kMagic,
                  "bad checkpoint magic for rank " << rank);
  out.n = store::get_varint(body, pos);
  out.x = store::get_varint(body, pos);
  out.p_bits = store::get_varint(body, pos);
  out.seed = store::get_varint(body, pos);
  out.rank = static_cast<std::int32_t>(store::get_varint(body, pos));
  out.nranks = static_cast<std::int32_t>(store::get_varint(body, pos));
  out.owned_hash = store::get_varint(body, pos);
  PAGEN_CHECK_MSG(out.rank == rank, "checkpoint rank mismatch");
  out.f.resize(checked_count(body, pos, store::get_varint(body, pos), rank));
  for (NodeId& v : out.f) v = decode_f(store::get_varint(body, pos));
  out.attempts.resize(
      checked_count(body, pos, store::get_varint(body, pos), rank));
  for (std::uint32_t& a : out.attempts) {
    a = static_cast<std::uint32_t>(store::get_varint(body, pos));
  }
  out.locked_copy.resize(
      checked_count(body, pos, store::get_varint(body, pos), rank));
  for (std::uint8_t& l : out.locked_copy) {
    l = static_cast<std::uint8_t>(store::get_varint(body, pos));
  }
  PAGEN_CHECK_MSG(pos == body.size(),
                  "trailing bytes in checkpoint for rank " << rank);
  return true;
}

}  // namespace pagen::core
