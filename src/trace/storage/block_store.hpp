#pragma once

/// \file block_store.hpp
/// Writer and reader for the `.lsblk` container (storage/format.hpp).
///
/// BlockStoreWriter streams any number of columns concurrently with
/// bounded RAM: one block_bytes buffer per column; a full buffer is
/// CRC32C-summed, appended to the file immediately, and only its u64
/// offset + u32 checksum are retained. finish() makes the container
/// crash-safe: fsync the data blocks, write offset tables + CRC tables +
/// directory + metadata blob and patch the header, fsync again, then
/// write + fsync the commit footer and fsync the parent directory — a
/// valid footer proves a complete commit across power loss.
///
/// BlockStore mmap-free reads: read_block() pread()s one block into a
/// caller buffer and verifies its checksum before returning, so
/// corrupt bytes can never reach the block cache or a pinned span.
/// Opening is cheap — header, footer, directory, offset + CRC tables,
/// and the metadata blob only. All I/O goes through the process
/// IoEngine (storage/io_engine.hpp): transient faults retry with
/// backoff; terminal failures throw StorageError with full context.
///
/// Recovering opens (OpenOptions::recover) never throw on corrupt
/// *content*: problems become RecoveryReport diagnostics, unreadable or
/// checksum-failing blocks are quarantined by scan_blocks(), and
/// salvageable() says whether enough survived (header + directory +
/// metadata) to rebuild a trace from the surviving blocks.
///
/// Each open store gets a process-unique generation id, which keys the
/// global block cache and the thread-local cursors (storage/column.hpp),
/// so a recycled address can never alias a dead store's cached blocks.

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "trace/diagnostics.hpp"
#include "trace/storage/format.hpp"
#include "trace/storage/io_engine.hpp"

namespace logstruct::trace::storage {

class BlockStoreWriter {
 public:
  /// Opens `path` for writing (truncates). Throws StorageError on I/O
  /// failure, here and in append/finish.
  BlockStoreWriter(const std::string& path, std::uint32_t block_bytes);
  ~BlockStoreWriter();

  BlockStoreWriter(const BlockStoreWriter&) = delete;
  BlockStoreWriter& operator=(const BlockStoreWriter&) = delete;

  /// Append `bytes` of raw elements to a column. Interleaving appends to
  /// different columns is the intended use.
  void append(ColumnId col, const void* data, std::size_t bytes);

  /// Record the element size of a column before its first append. Blocks
  /// carry floor(block_bytes / elem_bytes) * elem_bytes payload bytes so
  /// no element ever straddles a block boundary.
  void set_elem_bytes(ColumnId col, std::uint32_t elem_bytes);

  /// Commit: flush partials, fsync data, write tables + directory +
  /// `metadata`, patch the header, fsync, write + fsync the footer,
  /// fsync the parent directory. No append() after finish().
  void finish(const std::string& metadata);

  [[nodiscard]] const std::string& path() const { return path_; }

 private:
  struct ColState {
    std::vector<char> buffer;
    std::vector<std::uint64_t> block_offsets;
    std::vector<std::uint32_t> block_crcs;
    std::uint64_t byte_size = 0;
    std::uint32_t elem_bytes = 0;
    std::uint32_t payload = 0;  ///< bytes per full block, elem-aligned
  };

  void flush_block(ColState& col);
  void write_raw(const void* data, std::size_t bytes);
  /// write_raw that also folds the bytes into the running tail CRC.
  void write_tail(const void* data, std::size_t bytes);

  IoEngine* io_ = nullptr;
  std::string path_;
  int fd_ = -1;
  std::uint32_t block_bytes_ = 0;
  std::uint64_t file_pos_ = 0;
  std::uint32_t tail_crc_ = 0;
  bool finished_ = false;
  ColState cols_[kNumColumns];
};

/// How BlockStore treats a damaged container.
struct OpenOptions {
  /// false (default): strict — throw StorageError at the first problem.
  /// true: recover — collect diagnostics into `report`, keep whatever
  /// parses; the caller checks salvageable() before reading.
  bool recover = false;
  /// Required in recover mode: where structural diagnostics land.
  RecoveryReport* report = nullptr;

  [[nodiscard]] static OpenOptions strict() { return {}; }
  [[nodiscard]] static OpenOptions recovering(RecoveryReport* report) {
    OpenOptions o;
    o.recover = true;
    o.report = report;
    return o;
  }
};

/// Verification status of one block (fsck surface).
enum class BlockStatus : std::uint8_t {
  Ok = 0,  ///< readable; checksum matched
  ChecksumMismatch = 1,
  Unreadable = 2,
};

class BlockStore {
 public:
  /// Opens an existing container. Strict mode throws StorageError on a
  /// missing file, bad magic, a version other than kFormatVersion, a
  /// torn tail, or an invalid footer; recover mode records diagnostics
  /// instead (see OpenOptions).
  explicit BlockStore(const std::string& path,
                      const OpenOptions& options = {});
  ~BlockStore();

  BlockStore(const BlockStore&) = delete;
  BlockStore& operator=(const BlockStore&) = delete;

  /// Unlink the backing file now; the open fd keeps the data readable.
  /// Used for freeze-time spill stores so crashes never leak temp files.
  void unlink_backing_file();

  [[nodiscard]] std::uint32_t block_bytes() const { return block_bytes_; }
  [[nodiscard]] std::uint64_t generation() const { return generation_; }
  [[nodiscard]] const std::string& metadata() const { return metadata_; }
  [[nodiscard]] const std::string& path() const { return path_; }

  /// True when a valid commit footer proved a complete commit.
  [[nodiscard]] bool footer_valid() const { return footer_valid_; }
  /// Recover mode: true when header + directory + metadata parsed well
  /// enough to serve reads. Strict opens are always salvageable (they
  /// would have thrown otherwise).
  [[nodiscard]] bool salvageable() const { return salvageable_; }

  [[nodiscard]] std::uint64_t column_bytes(ColumnId col) const {
    return cols_[static_cast<std::uint32_t>(col)].byte_size;
  }
  [[nodiscard]] std::uint32_t column_elem_bytes(ColumnId col) const {
    return cols_[static_cast<std::uint32_t>(col)].elem_bytes;
  }
  /// Payload bytes per full block of this column (element-aligned).
  [[nodiscard]] std::uint32_t column_payload(ColumnId col) const {
    return cols_[static_cast<std::uint32_t>(col)].payload;
  }

  /// Bytes in one block: column_payload() except a column's last block.
  [[nodiscard]] std::uint32_t block_size(ColumnId col,
                                         std::uint32_t block) const;
  [[nodiscard]] std::uint32_t num_blocks(ColumnId col) const {
    return static_cast<std::uint32_t>(
        cols_[static_cast<std::uint32_t>(col)].block_offsets.size());
  }

  /// pread one whole block into `out` (must hold block_size()) and
  /// verify its checksum (a mismatch is re-read once before it counts).
  /// Throws StorageError — BlockChecksumMismatch, BlockUnreadable, or
  /// ContainerTruncated — instead of ever returning corrupt bytes.
  /// Thread-safe (stateless pread).
  void read_block(ColumnId col, std::uint32_t block, void* out) const;

  /// Verify one block without keeping the bytes (fsck / scan surface).
  [[nodiscard]] BlockStatus verify_block(ColumnId col,
                                         std::uint32_t block) const;

  /// Verify every block of every column; quarantine the bad ones (their
  /// read_block() then fails fast without I/O) and record one Error
  /// diagnostic each into `report` (when non-null). Returns the number
  /// of quarantined blocks. Idempotent.
  std::int64_t scan_blocks(RecoveryReport* report);

  /// True when scan_blocks() quarantined this block.
  [[nodiscard]] bool is_quarantined(ColumnId col,
                                    std::uint32_t block) const {
    const auto& q = cols_[static_cast<std::uint32_t>(col)].quarantined;
    return block < q.size() && q[block] != 0;
  }
  [[nodiscard]] std::int64_t num_quarantined() const {
    return quarantined_count_;
  }

 private:
  struct ColState {
    std::vector<std::uint64_t> block_offsets;
    std::vector<std::uint32_t> block_crcs;
    std::vector<std::uint8_t> quarantined;  ///< filled by scan_blocks
    /// Verify-once-per-open memo: set after a block's checksum
    /// first verifies. The file is immutable while open, so a cache
    /// re-fault of an already-verified block serves the same committed
    /// bytes and skips the CRC — otherwise a starved cache would pay
    /// the full checksum rate on every eviction cycle. The audit
    /// surfaces (verify_block / scan_blocks) always re-check.
    std::unique_ptr<std::atomic<std::uint8_t>[]> verified;
    std::uint64_t byte_size = 0;
    std::uint32_t elem_bytes = 0;
    std::uint32_t payload = 0;
  };

  void open_impl(const OpenOptions& options);
  /// Core of read_block without the quarantine fast-fail (scan uses
  /// it). `audit` forces the checksum even when the verify-once memo
  /// says this block already passed.
  void read_block_checked(ColumnId col, std::uint32_t block, void* out,
                          bool audit = false) const;

  IoEngine* io_ = nullptr;
  int fd_ = -1;
  std::string path_;
  std::uint32_t block_bytes_ = 0;
  std::uint64_t generation_ = 0;
  std::uint64_t data_limit_ = 0;  ///< every data block ends at/before this
  bool footer_valid_ = false;
  bool salvageable_ = false;
  std::int64_t quarantined_count_ = 0;
  std::string metadata_;
  ColState cols_[kNumColumns];
};

}  // namespace logstruct::trace::storage
