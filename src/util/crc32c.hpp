#pragma once

/// \file crc32c.hpp
/// CRC32C (Castagnoli, polynomial 0x1EDC6F41) over byte ranges.
///
/// The checksum the `.lsblk` container uses for its blocks, directory
/// tail, and commit footer (storage/format.hpp). Dispatches once at
/// startup to the SSE4.2 / ARMv8 CRC instructions when the host has
/// them; otherwise a slice-by-8 table fallback — both produce the
/// standard CRC32C test vectors (RFC 3720 appendix B.4), so containers
/// move between hosts with and without the hardware path.

#include <cstddef>
#include <cstdint>

namespace logstruct::util {

/// One-shot CRC32C of a byte range.
[[nodiscard]] std::uint32_t crc32c(const void* data, std::size_t bytes);

/// Streaming form: feed the previous return value back as `seed` to
/// extend a checksum across discontiguous chunks. Start with seed 0.
[[nodiscard]] std::uint32_t crc32c_extend(std::uint32_t seed,
                                          const void* data,
                                          std::size_t bytes);

/// True when the process-wide dispatch picked a hardware CRC path
/// (informational — results are identical either way).
[[nodiscard]] bool crc32c_hardware_accelerated();

}  // namespace logstruct::util
