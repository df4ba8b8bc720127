#pragma once

/// \file io_engine.hpp
/// The I/O seam of the blocked storage layer (docs/ROBUSTNESS.md).
///
/// Every open/pread/pwrite/fsync the `.lsblk` reader and writer issue
/// goes through an IoEngine, so fault injection is a link-free swap: the
/// default engine forwards to the raw syscalls; FaultyIoEngine wraps any
/// engine and injects deterministic, seed-driven faults (EINTR storms,
/// transient EIO, ENOSPC, short reads/writes, post-read bit flips,
/// truncate-at-offset). `LOGSTRUCT_IO_FAULTS=<spec>` installs a fault
/// engine process-wide, which is how the io-faults CI job runs the
/// entire blocked-storage suite against a hostile disk.
///
/// The pread_all/pwrite_all helpers add the robustness policy on top of
/// the engine: EINTR is always resumed, transient-class errno (EIO,
/// EAGAIN) is retried with bounded exponential backoff (obs counters
/// `trace/storage/io/retries` and `trace/storage/io/gave_up`), and every
/// terminal failure throws a StorageError carrying a structured DiagCode
/// plus full context — path, column, block, offset, bytes remaining.
///
/// Fault spec grammar: comma/semicolon-separated `key=value` pairs.
///   seed=N         SplitMix64 seed; faults are a pure function of it
///   eintr=P        probability a pread/pwrite attempt returns EINTR
///   eio=P          probability of a *transient* EIO (a retry re-rolls)
///   short_read=P   probability a pread returns only part of the range
///   short_write=P  probability a pwrite accepts only part of the range
///   bitflip=P      per-64-byte-cell probability of a *persistent*
///                  post-read bit flip (keyed on file offset, so every
///                  re-read sees the same corruption — checksum fodder)
///   enospc_at=N    writes fail with ENOSPC once the engine has written
///                  N bytes total (the crash-during-freeze torture knob)
///   truncate_at=N  reads at offsets >= N hit EOF (a torn file's tail)

#include <atomic>
#include <cstdint>
#include <stdexcept>
#include <string>

#include "trace/diagnostics.hpp"

namespace logstruct::trace::storage {

/// A storage-layer failure with machine-readable provenance. The code is
/// one of the reader DiagCodes (IoError, ContainerTruncated,
/// BlockUnreadable, BlockChecksumMismatch, BadHeader), so recovering
/// opens can convert catches into RecoveryReport entries verbatim.
class StorageError : public std::runtime_error {
 public:
  StorageError(DiagCode code, const std::string& what)
      : std::runtime_error(what), code_(code) {}
  [[nodiscard]] DiagCode code() const { return code_; }

 private:
  DiagCode code_;
};

/// Virtual syscall surface. Implementations must be thread-safe (the
/// block cache preads concurrently). Raw results follow POSIX
/// conventions: negative return = errno is set.
class IoEngine {
 public:
  virtual ~IoEngine() = default;

  virtual int open(const char* path, int flags, int mode) = 0;
  virtual int close(int fd) = 0;
  virtual long pread(int fd, void* buf, std::size_t bytes,
                     std::uint64_t offset) = 0;
  virtual long pwrite(int fd, const void* buf, std::size_t bytes,
                      std::uint64_t offset) = 0;
  virtual int fsync(int fd) = 0;
  /// Size of the open file, or -1 with errno set.
  virtual std::int64_t file_size(int fd) = 0;

  /// The raw-syscall engine (process singleton).
  static IoEngine& system();

  /// The engine storage uses by default: system(), unless
  /// LOGSTRUCT_IO_FAULTS installed a fault engine at first use or a test
  /// called set_current().
  static IoEngine& current();

  /// Override the process-wide engine (nullptr restores the default).
  /// Not thread-safe against in-flight I/O; tests install before work.
  static void set_current(IoEngine* engine);
};

/// Parsed LOGSTRUCT_IO_FAULTS spec (grammar in the file comment).
struct FaultSpec {
  std::uint64_t seed = 1;
  double eintr = 0.0;
  double eio = 0.0;
  double short_read = 0.0;
  double short_write = 0.0;
  double bitflip = 0.0;
  std::uint64_t enospc_at = 0;    ///< 0 = unlimited
  std::uint64_t truncate_at = 0;  ///< 0 = no truncation

  /// Parse "seed=7,eio=0.05,...". Unknown keys / garbled values throw
  /// std::invalid_argument so a typo in CI never silently disables the
  /// fault matrix.
  static FaultSpec parse(const std::string& spec);
};

/// Deterministic fault-injecting wrapper. Transient faults (eintr, eio,
/// short_*) are keyed on a monotone call counter, so a retry re-rolls;
/// persistent faults (bitflip, truncate_at, enospc_at) are keyed on file
/// offset or cumulative bytes, so retries keep failing — exactly the
/// split the retry/quarantine policy needs to be testable.
class FaultyIoEngine : public IoEngine {
 public:
  explicit FaultyIoEngine(const FaultSpec& spec,
                          IoEngine* inner = nullptr);

  int open(const char* path, int flags, int mode) override;
  int close(int fd) override;
  long pread(int fd, void* buf, std::size_t bytes,
             std::uint64_t offset) override;
  long pwrite(int fd, const void* buf, std::size_t bytes,
              std::uint64_t offset) override;
  int fsync(int fd) override;
  std::int64_t file_size(int fd) override;

  [[nodiscard]] const FaultSpec& spec() const { return spec_; }
  /// Faults injected so far (any class).
  [[nodiscard]] std::uint64_t faults_injected() const {
    return faults_.load(std::memory_order_relaxed);
  }
  /// Cumulative bytes accepted by pwrite (the enospc_at budget meter).
  [[nodiscard]] std::uint64_t bytes_written() const {
    return written_.load(std::memory_order_relaxed);
  }

 private:
  bool roll(double p, std::uint64_t stream);
  FaultSpec spec_;
  IoEngine* inner_;
  std::atomic<std::uint64_t> calls_{0};
  std::atomic<std::uint64_t> written_{0};
  std::atomic<std::uint64_t> faults_{0};
};

/// Context threaded into the retry helpers so every failure message and
/// StorageError names exactly what was being touched.
struct IoContext {
  const char* op = "io";          ///< "read block", "write header", ...
  const std::string* path = nullptr;
  std::int32_t column = -1;       ///< ColumnId, when one applies
  std::int64_t block = -1;        ///< block index within the column
};

/// Read exactly `bytes` at `offset`, resuming EINTR and short reads,
/// retrying transient errno with exponential backoff. Throws
/// StorageError(BlockUnreadable) when retries are exhausted and
/// StorageError(ContainerTruncated) on EOF before `bytes`.
void pread_all(IoEngine& io, int fd, void* data, std::size_t bytes,
               std::uint64_t offset, const IoContext& ctx);

/// Write exactly `bytes` at `offset` under the same policy; ENOSPC is
/// terminal (StorageError(IoError)) — no backoff can conjure disk space.
void pwrite_all(IoEngine& io, int fd, const void* data, std::size_t bytes,
                std::uint64_t offset, const IoContext& ctx);

/// fsync with transient retry; terminal failure throws
/// StorageError(IoError).
void fsync_all(IoEngine& io, int fd, const IoContext& ctx);

/// fsync the directory containing `path` so a fresh file's directory
/// entry is durable (a no-op when the parent cannot be opened — some
/// filesystems refuse O_RDONLY on directories; creation is best-effort
/// there).
void fsync_parent_dir(IoEngine& io, const std::string& path);

}  // namespace logstruct::trace::storage
