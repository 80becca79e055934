// Whole-file byte I/O: the tolerant read, and the sealed file — the one
// crash-consistent, integrity-checked file format that checkpoints
// (core/checkpoint.h) and the store manifest (store/edge_writer.h) share.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

namespace pagen {

/// Read a whole file into `out`. Returns false (leaving `out` empty) when
/// the file does not exist or cannot be opened — a missing checkpoint means
/// "recover from nothing", not an error.
[[nodiscard]] bool try_load_bytes(const std::string& path,
                                  std::vector<std::uint8_t>& out);

/// Write `payload` followed by its 8-byte little-endian FNV-1a
/// (util/hash.h) atomically: the bytes land in a sibling temp file first
/// and are renamed into place, so a reader (or a crash mid-write) never
/// observes a torn file. Returns the seal.
std::uint64_t save_sealed(const std::string& path,
                          std::vector<std::uint8_t> payload);

/// Read a file written by save_sealed and check its seal before the caller
/// parses a byte. Returns the seal with the payload alone in `payload`, or
/// nullopt (and an empty `payload`) when the file does not exist. Throws
/// CheckError naming `path` when the file is too short to hold a seal or
/// the seal does not match — truncation, trailing junk and bit flips.
[[nodiscard]] std::optional<std::uint64_t> try_load_sealed(
    const std::string& path, std::vector<std::uint8_t>& payload);

}  // namespace pagen
