#include "trace/storage/block_store.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <cstddef>
#include <cstring>
#include <sstream>

#include "obs/obs.hpp"
#include "trace/storage/block_cache.hpp"
#include "util/crc32c.hpp"

namespace logstruct::trace::storage {

namespace {

std::string open_msg(const char* what, const std::string& path,
                     const std::string& why) {
  return "lsblk: " + std::string(what) + " '" + path + "': " + why;
}

std::string block_msg(const std::string& path, ColumnId col,
                      std::uint32_t block, std::uint64_t offset,
                      const std::string& why) {
  std::ostringstream os;
  os << "lsblk: block '" << path << "' col="
     << static_cast<std::uint32_t>(col) << " block=" << block
     << " offset=" << offset << ": " << why;
  return os.str();
}

}  // namespace

// ---------------------------------------------------------------- writer

BlockStoreWriter::BlockStoreWriter(const std::string& path,
                                   std::uint32_t block_bytes)
    : io_(&IoEngine::current()), path_(path), block_bytes_(block_bytes) {
  if (block_bytes_ < 4096) block_bytes_ = 4096;
  fd_ = io_->open(path.c_str(), O_CREAT | O_TRUNC | O_RDWR | O_CLOEXEC,
                  0644);
  if (fd_ < 0)
    throw StorageError(DiagCode::IoError,
                       open_msg("create", path, std::strerror(errno)));
  FileHeader header;
  header.block_bytes = block_bytes_;
  write_raw(&header, sizeof(header));
}

BlockStoreWriter::~BlockStoreWriter() {
  if (fd_ >= 0) io_->close(fd_);
}

void BlockStoreWriter::write_raw(const void* data, std::size_t bytes) {
  IoContext ctx;
  ctx.op = "write";
  ctx.path = &path_;
  pwrite_all(*io_, fd_, data, bytes, file_pos_, ctx);
  file_pos_ += bytes;
}

void BlockStoreWriter::write_tail(const void* data, std::size_t bytes) {
  tail_crc_ = util::crc32c_extend(tail_crc_, data, bytes);
  write_raw(data, bytes);
}

void BlockStoreWriter::set_elem_bytes(ColumnId col, std::uint32_t elem_bytes) {
  ColState& c = cols_[static_cast<std::uint32_t>(col)];
  if (elem_bytes == 0 || elem_bytes > block_bytes_)
    throw StorageError(DiagCode::IoError,
                       open_msg("write", path_, "bad element size"));
  c.elem_bytes = elem_bytes;
  c.payload = block_bytes_ / elem_bytes * elem_bytes;
}

void BlockStoreWriter::append(ColumnId col, const void* data,
                              std::size_t bytes) {
  ColState& c = cols_[static_cast<std::uint32_t>(col)];
  if (c.payload == 0)
    throw StorageError(DiagCode::IoError,
                       open_msg("write", path_,
                                "append before set_elem_bytes"));
  c.byte_size += bytes;
  const char* p = static_cast<const char*>(data);
  while (bytes > 0) {
    if (c.buffer.capacity() == 0) c.buffer.reserve(c.payload);
    const std::size_t room = c.payload - c.buffer.size();
    const std::size_t take = bytes < room ? bytes : room;
    c.buffer.insert(c.buffer.end(), p, p + take);
    p += take;
    bytes -= take;
    if (c.buffer.size() == c.payload) flush_block(c);
  }
}

void BlockStoreWriter::flush_block(ColState& col) {
  if (col.buffer.empty()) return;
  col.block_offsets.push_back(file_pos_);
  col.block_crcs.push_back(util::crc32c(col.buffer.data(), col.buffer.size()));
  write_raw(col.buffer.data(), col.buffer.size());
  col.buffer.clear();
}

void BlockStoreWriter::finish(const std::string& metadata) {
  if (finished_) return;
  finished_ = true;
  for (ColState& c : cols_) flush_block(c);

  IoContext sync_ctx;
  sync_ctx.op = "commit";
  sync_ctx.path = &path_;

  // (1) Every data block durable before any pointer to it exists.
  fsync_all(*io_, fd_, sync_ctx);

  const std::uint64_t tail_offset = file_pos_;
  tail_crc_ = 0;

  std::uint64_t offsets_offsets[kNumColumns] = {};
  std::uint64_t crcs_offsets[kNumColumns] = {};
  for (std::uint32_t i = 0; i < kNumColumns; ++i) {
    ColState& c = cols_[i];
    if (c.block_offsets.empty()) continue;
    offsets_offsets[i] = file_pos_;
    write_tail(c.block_offsets.data(),
               c.block_offsets.size() * sizeof(std::uint64_t));
  }
  for (std::uint32_t i = 0; i < kNumColumns; ++i) {
    ColState& c = cols_[i];
    if (c.block_crcs.empty()) continue;
    crcs_offsets[i] = file_pos_;
    write_tail(c.block_crcs.data(),
               c.block_crcs.size() * sizeof(std::uint32_t));
  }

  FileHeader header;
  header.block_bytes = block_bytes_;
  header.directory_offset = file_pos_;
  for (std::uint32_t i = 0; i < kNumColumns; ++i) {
    ColumnDesc desc;
    desc.id = i;
    desc.elem_bytes = cols_[i].elem_bytes;
    desc.byte_size = cols_[i].byte_size;
    desc.offsets_offset = offsets_offsets[i];
    desc.crcs_offset = crcs_offsets[i];
    write_tail(&desc, sizeof(desc));
  }

  header.meta_offset = file_pos_;
  header.meta_bytes = metadata.size();
  write_tail(metadata.data(), metadata.size());

  // (2) Tail + patched header durable before the commit footer: a
  // reader that sees the footer may trust everything it covers.
  IoContext hdr_ctx;
  hdr_ctx.op = "write header";
  hdr_ctx.path = &path_;
  pwrite_all(*io_, fd_, &header, sizeof(header), 0, hdr_ctx);
  fsync_all(*io_, fd_, sync_ctx);

  CommitFooter footer;
  footer.header_crc = util::crc32c(&header, sizeof(header));
  footer.tail_offset = tail_offset;
  footer.file_bytes = file_pos_ + sizeof(CommitFooter);
  footer.tail_crc = tail_crc_;
  footer.footer_crc = util::crc32c(&footer, offsetof(CommitFooter, footer_crc));
  write_raw(&footer, sizeof(footer));
  fsync_all(*io_, fd_, sync_ctx);

  // (3) The directory entry itself, for freshly created files.
  fsync_parent_dir(*io_, path_);
  io_->close(fd_);
  fd_ = -1;
}

// ---------------------------------------------------------------- reader

BlockStore::BlockStore(const std::string& path, const OpenOptions& options)
    : io_(&IoEngine::current()),
      path_(path),
      generation_(next_store_generation()) {
  if (!options.recover) {
    open_impl(options);
    salvageable_ = true;
    return;
  }
  try {
    open_impl(options);
    salvageable_ = true;
  } catch (const StorageError& e) {
    if (options.report != nullptr)
      options.report->add(e.code(), Severity::Fatal, e.what());
    salvageable_ = false;
  } catch (const std::exception& e) {
    if (options.report != nullptr)
      options.report->add(DiagCode::BadHeader, Severity::Fatal, e.what());
    salvageable_ = false;
  }
}

void BlockStore::open_impl(const OpenOptions& options) {
  fd_ = io_->open(path_.c_str(), O_RDONLY | O_CLOEXEC, 0);
  if (fd_ < 0)
    throw StorageError(DiagCode::IoError,
                       open_msg("open", path_, std::strerror(errno)));
  const std::int64_t fsize = io_->file_size(fd_);
  if (fsize < static_cast<std::int64_t>(sizeof(FileHeader)))
    throw StorageError(
        DiagCode::ContainerTruncated,
        open_msg("open", path_, "file shorter than the header"));

  IoContext hdr_ctx;
  hdr_ctx.op = "read header";
  hdr_ctx.path = &path_;
  FileHeader header;
  pread_all(*io_, fd_, &header, sizeof(header), 0, hdr_ctx);
  if (header.magic != kMagic)
    throw StorageError(DiagCode::BadHeader,
                       open_msg("open", path_, "bad magic"));
  if (header.version != kFormatVersion)
    throw StorageError(DiagCode::BadHeader,
                       open_msg("open", path_, "unsupported version"));
  if (header.num_columns != kNumColumns || header.block_bytes == 0)
    throw StorageError(DiagCode::BadHeader,
                       open_msg("open", path_, "corrupt header"));
  block_bytes_ = header.block_bytes;
  if (header.directory_offset == 0 ||
      header.directory_offset > static_cast<std::uint64_t>(fsize))
    throw StorageError(
        DiagCode::ContainerTruncated,
        open_msg("open", path_,
                 "never finalized (torn mid-freeze?): no directory"));

  // --- commit footer --------------------------------------------------
  std::uint64_t tail_offset = header.directory_offset;
  const auto verify_footer = [&]() -> std::string {
    if (fsize < static_cast<std::int64_t>(sizeof(FileHeader) +
                                          sizeof(CommitFooter)))
      return "file too short for a footer";
    CommitFooter footer;
    IoContext ctx;
    ctx.op = "read footer";
    ctx.path = &path_;
    try {
      pread_all(*io_, fd_, &footer, sizeof(footer),
                static_cast<std::uint64_t>(fsize) - sizeof(CommitFooter),
                ctx);
    } catch (const std::exception& e) {
      return e.what();
    }
    if (footer.magic != kFooterMagic) return "footer magic missing";
    if (util::crc32c(&footer, offsetof(CommitFooter, footer_crc)) !=
        footer.footer_crc)
      return "footer checksum mismatch";
    if (footer.version != kFormatVersion) return "footer version mismatch";
    if (footer.file_bytes != static_cast<std::uint64_t>(fsize))
      return "footer disagrees with file size";
    if (footer.header_crc != util::crc32c(&header, sizeof(header)))
      return "header checksum mismatch";
    if (footer.tail_offset >
        static_cast<std::uint64_t>(fsize) - sizeof(CommitFooter))
      return "footer tail offset out of range";
    std::uint64_t tail_bytes = static_cast<std::uint64_t>(fsize) -
                               sizeof(CommitFooter) - footer.tail_offset;
    // Stream the tail CRC in bounded chunks: the tail carries the
    // metadata blob, which can be tens of MB on large traces, and the
    // open must not spike RSS by its full size.
    std::vector<char> chunk(
        static_cast<std::size_t>(std::min<std::uint64_t>(
            tail_bytes > 0 ? tail_bytes : 1, 1u << 20)));
    ctx.op = "read tail";
    std::uint32_t tail_crc = 0;
    std::uint64_t at = footer.tail_offset;
    try {
      while (tail_bytes > 0) {
        const std::size_t n = static_cast<std::size_t>(
            std::min<std::uint64_t>(tail_bytes, chunk.size()));
        pread_all(*io_, fd_, chunk.data(), n, at, ctx);
        tail_crc = util::crc32c_extend(tail_crc, chunk.data(), n);
        at += n;
        tail_bytes -= n;
      }
    } catch (const std::exception& e) {
      return e.what();
    }
    if (tail_crc != footer.tail_crc) return "tail checksum mismatch";
    tail_offset = footer.tail_offset;
    return {};
  };
  const std::string bad = verify_footer();
  if (bad.empty()) {
    footer_valid_ = true;
  } else if (!options.recover) {
    throw StorageError(DiagCode::ContainerTruncated,
                       open_msg("open", path_,
                                "commit footer invalid (" + bad + ")"));
  } else {
    options.report->add(
        DiagCode::ContainerTruncated, Severity::Error,
        open_msg("open", path_,
                 "commit footer invalid (" + bad +
                     "); salvaging from the directory scan"));
    tail_offset = header.directory_offset;
  }
  data_limit_ = tail_offset;

  // --- directory, offset tables, checksum tables ------------------------
  if (header.directory_offset + kNumColumns * sizeof(ColumnDesc) >
      static_cast<std::uint64_t>(fsize))
    throw StorageError(DiagCode::ContainerTruncated,
                       open_msg("open", path_, "directory out of range"));

  const auto corrupt_dir = [&](const char* why) -> StorageError {
    return StorageError(DiagCode::ContainerTruncated,
                        open_msg("open", path_,
                                 std::string("corrupt directory: ") + why));
  };

  std::uint64_t pos = header.directory_offset;
  IoContext dir_ctx;
  dir_ctx.op = "read directory";
  dir_ctx.path = &path_;
  for (std::uint32_t i = 0; i < kNumColumns; ++i) {
    ColumnDesc desc;
    pread_all(*io_, fd_, &desc, sizeof(desc), pos, dir_ctx);
    pos += sizeof(desc);
    if (desc.id != i) throw corrupt_dir("column ids out of order");
    ColState& c = cols_[i];
    c.byte_size = desc.byte_size;
    c.elem_bytes = desc.elem_bytes;
    if (desc.byte_size == 0) continue;
    if (desc.elem_bytes == 0 || desc.elem_bytes > block_bytes_)
      throw corrupt_dir("element size out of range");
    c.payload = block_bytes_ / desc.elem_bytes * desc.elem_bytes;
    const std::uint64_t blocks =
        (desc.byte_size + c.payload - 1) / c.payload;
    if (desc.offsets_offset < sizeof(FileHeader) ||
        desc.offsets_offset + blocks * sizeof(std::uint64_t) >
            static_cast<std::uint64_t>(fsize))
      throw corrupt_dir("offset table out of range");
    c.block_offsets.resize(static_cast<std::size_t>(blocks));
    IoContext tab_ctx;
    tab_ctx.op = "read offset table";
    tab_ctx.path = &path_;
    tab_ctx.column = static_cast<std::int32_t>(i);
    pread_all(*io_, fd_, c.block_offsets.data(),
              blocks * sizeof(std::uint64_t), desc.offsets_offset, tab_ctx);
    if (desc.crcs_offset < sizeof(FileHeader) ||
        desc.crcs_offset + blocks * sizeof(std::uint32_t) >
            static_cast<std::uint64_t>(fsize))
      throw corrupt_dir("checksum table out of range");
    c.block_crcs.resize(static_cast<std::size_t>(blocks));
    tab_ctx.op = "read checksum table";
    pread_all(*io_, fd_, c.block_crcs.data(), blocks * sizeof(std::uint32_t),
              desc.crcs_offset, tab_ctx);
    // Value-initialized (all zero): nothing is verified yet.
    c.verified.reset(
        new std::atomic<std::uint8_t>[static_cast<std::size_t>(blocks)]());
    // Pre-quarantine blocks whose recorded offsets cannot be right: in
    // strict mode that is a corrupt directory; in recover mode only the
    // affected blocks are lost, not the file.
    c.quarantined.assign(static_cast<std::size_t>(blocks), 0);
    for (std::uint32_t b = 0; b < blocks; ++b) {
      const std::uint64_t off = c.block_offsets[b];
      const std::uint64_t size = block_size(static_cast<ColumnId>(i), b);
      if (off >= sizeof(FileHeader) && off + size <= data_limit_) continue;
      if (!options.recover) throw corrupt_dir("block offset out of range");
      c.quarantined[b] = 1;
      ++quarantined_count_;
      options.report->add(
          DiagCode::BlockUnreadable, Severity::Error,
          block_msg(path_, static_cast<ColumnId>(i), b, off,
                    "recorded offset out of range; block quarantined"));
    }
  }

  // --- metadata blob ----------------------------------------------------
  if (header.meta_offset + header.meta_bytes >
          static_cast<std::uint64_t>(fsize) ||
      (header.meta_bytes > 0 && header.meta_offset < sizeof(FileHeader)))
    throw StorageError(DiagCode::ContainerTruncated,
                       open_msg("open", path_, "metadata out of range"));
  metadata_.resize(header.meta_bytes);
  if (header.meta_bytes > 0) {
    IoContext meta_ctx;
    meta_ctx.op = "read metadata";
    meta_ctx.path = &path_;
    pread_all(*io_, fd_, metadata_.data(), header.meta_bytes,
              header.meta_offset, meta_ctx);
  }
}

BlockStore::~BlockStore() {
  BlockCache::global().purge(generation_);
  if (fd_ >= 0) io_->close(fd_);
}

void BlockStore::unlink_backing_file() { ::unlink(path_.c_str()); }

std::uint32_t BlockStore::block_size(ColumnId col,
                                     std::uint32_t block) const {
  const ColState& c = cols_[static_cast<std::uint32_t>(col)];
  const std::uint64_t begin = std::uint64_t{block} * c.payload;
  const std::uint64_t left = c.byte_size - begin;
  return left < c.payload ? static_cast<std::uint32_t>(left) : c.payload;
}

void BlockStore::read_block_checked(ColumnId col, std::uint32_t block,
                                    void* out, bool audit) const {
  const ColState& c = cols_[static_cast<std::uint32_t>(col)];
  const std::uint32_t size = block_size(col, block);
  const std::uint64_t offset = c.block_offsets[block];
  IoContext ctx;
  ctx.op = "read block";
  ctx.path = &path_;
  ctx.column = static_cast<std::int32_t>(col);
  ctx.block = static_cast<std::int64_t>(block);
  pread_all(*io_, fd_, out, size, offset, ctx);
  // Verify-once-per-open: the first read of each block pays the CRC;
  // later cache re-faults of a block that already verified serve the
  // same immutable committed bytes and skip it (a starved cache would
  // otherwise pay the full checksum rate on every eviction cycle).
  // Audit surfaces (verify_block / scan_blocks) always re-check.
  std::atomic<std::uint8_t>* verified = c.verified.get();
  if (!audit && verified[block].load(std::memory_order_relaxed) != 0)
    return;
  const std::uint32_t want = c.block_crcs[block];
  if (util::crc32c(out, size) == want) {
    verified[block].store(1, std::memory_order_relaxed);
    return;
  }
  // One re-read: corruption picked up in flight heals; rot on the
  // platter does not (the fault engine's bit flips are offset-keyed for
  // exactly this reason).
  OBS_COUNTER_INC("trace/storage/io/retries");
  pread_all(*io_, fd_, out, size, offset, ctx);
  const std::uint32_t got = util::crc32c(out, size);
  if (got == want) {
    verified[block].store(1, std::memory_order_relaxed);
    return;
  }
  OBS_COUNTER_INC("trace/storage/io/gave_up");
  std::ostringstream why;
  why << "checksum mismatch (stored=0x" << std::hex << want
      << " computed=0x" << got << ")";
  throw StorageError(DiagCode::BlockChecksumMismatch,
                     block_msg(path_, col, block, offset, why.str()));
}

void BlockStore::read_block(ColumnId col, std::uint32_t block,
                            void* out) const {
  const ColState& c = cols_[static_cast<std::uint32_t>(col)];
  if (block < c.quarantined.size() && c.quarantined[block] != 0)
    throw StorageError(
        DiagCode::BlockChecksumMismatch,
        block_msg(path_, col, block,
                  block < c.block_offsets.size() ? c.block_offsets[block]
                                                 : 0,
                  "block is quarantined"));
  read_block_checked(col, block, out);
}

BlockStatus BlockStore::verify_block(ColumnId col,
                                     std::uint32_t block) const {
  std::vector<char> scratch(block_size(col, block));
  try {
    read_block_checked(col, block, scratch.data(), /*audit=*/true);
  } catch (const StorageError& e) {
    return e.code() == DiagCode::BlockChecksumMismatch
               ? BlockStatus::ChecksumMismatch
               : BlockStatus::Unreadable;
  }
  return BlockStatus::Ok;
}

std::int64_t BlockStore::scan_blocks(RecoveryReport* report) {
  std::int64_t total = 0;
  for (std::uint32_t i = 0; i < kNumColumns; ++i) {
    ColState& c = cols_[i];
    const std::uint32_t blocks =
        static_cast<std::uint32_t>(c.block_offsets.size());
    if (c.quarantined.size() < blocks) c.quarantined.assign(blocks, 0);
    for (std::uint32_t b = 0; b < blocks; ++b) {
      if (c.quarantined[b] != 0) {
        ++total;
        continue;
      }
      std::vector<char> scratch(block_size(static_cast<ColumnId>(i), b));
      try {
        read_block_checked(static_cast<ColumnId>(i), b, scratch.data(),
                           /*audit=*/true);
        continue;
      } catch (const StorageError& e) {
        c.quarantined[b] = 1;
        ++total;
        if (report != nullptr) {
          const DiagCode code =
              e.code() == DiagCode::BlockChecksumMismatch
                  ? DiagCode::BlockChecksumMismatch
                  : DiagCode::BlockUnreadable;
          report->add(code, Severity::Error, e.what());
        }
      }
    }
  }
  quarantined_count_ = total;
  return total;
}

}  // namespace logstruct::trace::storage
