#ifndef WSQ_STORAGE_SPILL_H_
#define WSQ_STORAGE_SPILL_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <string_view>

#include "common/result.h"
#include "common/status.h"
#include "storage/disk_manager.h"
#include "storage/page.h"

namespace wsq {

class SpillFile;
class SpillManager;

/// Counters exposed for tests, the \memory shell command, and the
/// wsq_spill_* metric series.
struct SpillStats {
  uint64_t files_created = 0;
  uint64_t files_removed = 0;
  uint64_t runs_written = 0;
  uint64_t records_written = 0;
  uint64_t bytes_written = 0;
  uint64_t bytes_read = 0;
};

/// Metadata for one sorted run inside a SpillFile. Kept in memory only:
/// spill files are transient scratch space for a single query — after a
/// crash there is nothing to recover, the query is gone.
struct SpillRun {
  PageId first_page = 0;
  uint64_t records = 0;
  /// Payload bytes (record bodies + their u32 length prefixes).
  uint64_t bytes = 0;
};

/// Appends length-prefixed records to a new run: a byte stream of
/// [u32 len][len bytes]... chunked into checksummed kPageDataSize page
/// payloads through the DiskManager layer; each page is appended
/// (stamped and written) exactly once. One writer at a time per file;
/// runs occupy consecutive pages.
class SpillWriter {
 public:
  explicit SpillWriter(SpillFile* file);

  SpillWriter(const SpillWriter&) = delete;
  SpillWriter& operator=(const SpillWriter&) = delete;

  Status Append(std::string_view record);

  /// Flushes the final partial page and returns the run's metadata.
  /// The writer must not be used afterwards.
  Result<SpillRun> Finish();

 private:
  Status PutBytes(const char* data, size_t n);
  /// Records a flight-recorder spill_fail event on any write failure.
  Status FlushPage();
  Status FlushPageImpl();

  SpillFile* file_;
  char frame_[kPageSize];
  size_t frame_used_ = 0;  // payload bytes in frame_
  SpillRun run_;
  bool started_ = false;
  bool finished_ = false;
};

/// Streams the records of one run back, verifying page checksums as it
/// goes (a torn or bit-rotted spill page surfaces as Status::DataLoss,
/// failing the query cleanly instead of returning wrong rows).
class SpillReader {
 public:
  SpillReader(SpillFile* file, const SpillRun& run);

  SpillReader(const SpillReader&) = delete;
  SpillReader& operator=(const SpillReader&) = delete;

  /// Next record into `record`; false at end of run.
  Result<bool> Next(std::string* record);

 private:
  Status GetBytes(char* out, size_t n);

  SpillFile* file_;
  SpillRun run_;
  char frame_[kPageSize];
  size_t frame_offset_ = kPageDataSize;  // exhausted → read next page
  PageId next_page_;
  uint64_t remaining_bytes_;
  uint64_t remaining_records_;
};

/// One temp spill device (by default a FileDiskManager over a
/// self-deleting temp file). Destruction removes the backing file, so
/// error paths can never leak scratch space: the operator's unique_ptr
/// going out of scope IS the cleanup.
class SpillFile {
 public:
  ~SpillFile();

  SpillFile(const SpillFile&) = delete;
  SpillFile& operator=(const SpillFile&) = delete;

  DiskManager* disk() { return disk_.get(); }

 private:
  friend class SpillManager;
  friend class SpillWriter;
  friend class SpillReader;

  SpillFile(SpillManager* manager, std::unique_ptr<DiskManager> disk,
            std::function<void()> cleanup)
      : manager_(manager),
        disk_(std::move(disk)),
        cleanup_(std::move(cleanup)) {}

  SpillManager* manager_;
  std::unique_ptr<DiskManager> disk_;
  std::function<void()> cleanup_;
};

/// Factory + ledger for a database's spill scratch files. The default
/// backend is FileDiskManager (SyncPolicy::kNone — scratch data needs
/// checksums, not durability) over `$TMPDIR`; tests subclass NewDevice
/// to run spills on an InMemoryDiskManager or behind the PR 2
/// fault-injection harness.
class SpillManager {
 public:
  struct Options {
    /// Directory for temp files; empty = $TMPDIR, falling back to /tmp.
    std::string dir;
  };

  SpillManager() : SpillManager(Options{}) {}
  explicit SpillManager(Options options);
  virtual ~SpillManager();

  SpillManager(const SpillManager&) = delete;
  SpillManager& operator=(const SpillManager&) = delete;

  /// Creates a fresh, empty spill device.
  Result<std::unique_ptr<SpillFile>> Create();

  SpillStats stats() const;
  /// Spill files currently alive (0 after every query has torn down:
  /// the leak check the chaos suite asserts on).
  size_t active_files() const {
    return active_files_.load(std::memory_order_relaxed);
  }

 protected:
  struct Device {
    std::unique_ptr<DiskManager> disk;
    /// Invoked on SpillFile destruction (removes the backing file).
    std::function<void()> cleanup;
  };

  /// Seam for the crash harness: override to back spills with a
  /// FaultInjectingDiskManager or an in-memory store.
  virtual Result<Device> NewDevice();

 private:
  friend class SpillFile;
  friend class SpillWriter;
  friend class SpillReader;

  Options options_;
  std::atomic<uint64_t> next_file_id_{1};
  std::atomic<size_t> active_files_{0};
  std::atomic<uint64_t> files_created_{0};
  std::atomic<uint64_t> files_removed_{0};
  std::atomic<uint64_t> runs_written_{0};
  std::atomic<uint64_t> records_written_{0};
  std::atomic<uint64_t> bytes_written_{0};
  std::atomic<uint64_t> bytes_read_{0};
  /// Metrics-registry collector handle, removed in the destructor.
  uint64_t collector_id_ = 0;
};

}  // namespace wsq

#endif  // WSQ_STORAGE_SPILL_H_
