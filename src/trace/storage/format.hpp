#pragma once

/// \file format.hpp
/// The versioned `.lsblk` on-disk container (docs/FORMATS.md).
///
/// Layout: a fixed header, then data blocks appended in whatever order
/// the writer's columns filled them (the paged layout is what lets a
/// single streaming pass interleave appends to every column with bounded
/// RAM), then the *tail* — per-column block-offset tables, per-column
/// CRC32C tables, the column directory, the trace-metadata blob — and
/// finally a fixed-size commit footer:
///
///   [Header]                     40 B; directory_offset patched at finish
///   [block][block]...            raw column data, block_bytes each
///                                (a column's last block may be short)
///   [offset tables]              u64 file offset per block, per column
///   [crc tables]                 u32 CRC32C per block, per column
///   [directory]                  ColumnDesc per column
///   [metadata blob]              trace tables that stay RAM-resident
///   [CommitFooter]               40 B; written + fsynced LAST
///
/// Durability contract: finish() fsyncs the data blocks, then writes the
/// tail and the patched header and fsyncs again, and only then writes +
/// fsyncs the footer. A valid footer therefore proves the whole file is
/// exactly what the writer committed (its tail_crc covers every tail
/// byte, its header_crc the patched header); a missing or garbled footer
/// proves a torn write. A header whose version is not kFormatVersion is
/// refused at open.
///
/// Every integer is little-endian; the container is written and read on
/// the same host class (this is a working-set spill format first, an
/// interchange format second), so no byte-swapping is performed.

#include <cstdint>

namespace logstruct::trace::storage {

inline constexpr std::uint32_t kMagic = 0x4b4c4253u;  // "SBLK"
inline constexpr std::uint32_t kFormatVersion = 2;

/// Footer magic "SBLKCMT2": distinct from kMagic so a footer read from a
/// wild offset can never be mistaken for a header (and vice versa).
inline constexpr std::uint64_t kFooterMagic = 0x32544d434b4c4253ull;

/// Stable column identifiers. Values are written to disk — append only.
enum class ColumnId : std::uint32_t {
  Events = 0,        ///< trace::Event, frozen id order
  Blocks = 1,        ///< trace::SerialBlock (POD), frozen id order
  Idles = 2,         ///< trace::IdleSpan, recorded order
  DepSend = 3,       ///< EventId, dep-table row order
  DepRecv = 4,       ///< EventId, aligned with DepSend
  DepKind = 5,       ///< trace::DepKind, aligned with DepSend
  DepBegin = 6,      ///< i32 CSR index over the p2p prefix (events+1)
  BlockEvents = 7,   ///< EventId, grouped by block, (time, id) order
  BlockEvBegin = 8,  ///< i64 CSR index over BlockEvents (blocks+1)
  ChareEvents = 9,   ///< EventId, grouped by chare, (time, id) order
  ChareBlocks = 10,  ///< BlockId, grouped by chare, (begin, id) order
  ProcBlocks = 11,   ///< BlockId, grouped by proc, (begin, id) order
};
inline constexpr std::uint32_t kNumColumns = 12;

struct FileHeader {
  std::uint32_t magic = kMagic;
  std::uint32_t version = kFormatVersion;
  std::uint32_t block_bytes = 0;
  std::uint32_t num_columns = kNumColumns;
  std::uint64_t directory_offset = 0;  ///< patched at finish()
  std::uint64_t meta_offset = 0;
  std::uint64_t meta_bytes = 0;
};
static_assert(sizeof(FileHeader) == 40, "on-disk header layout");

/// One directory entry. The column's block-offset table lives at
/// `offsets_offset` (ceil(byte_size / payload) u64 file positions) and
/// its CRC32C table at `crcs_offset` (one u32 per block, same count);
/// both are 0 when the column is empty.
struct ColumnDesc {
  std::uint32_t id = 0;
  std::uint32_t elem_bytes = 0;
  std::uint64_t byte_size = 0;
  std::uint64_t offsets_offset = 0;
  std::uint64_t crcs_offset = 0;
};
static_assert(sizeof(ColumnDesc) == 32, "on-disk directory layout");

/// The commit record, at the very end of the file. Only written (and
/// fsynced) after every byte it vouches for is durable.
struct CommitFooter {
  std::uint64_t magic = kFooterMagic;
  std::uint32_t version = kFormatVersion;
  std::uint32_t header_crc = 0;   ///< CRC32C of the final 40-byte header
  std::uint64_t tail_offset = 0;  ///< first byte after the last data block
  std::uint64_t file_bytes = 0;   ///< total size including this footer
  std::uint32_t tail_crc = 0;     ///< CRC32C over [tail_offset, footer)
  std::uint32_t footer_crc = 0;   ///< CRC32C of the preceding 36 bytes
};
static_assert(sizeof(CommitFooter) == 40, "on-disk footer layout");

}  // namespace logstruct::trace::storage
