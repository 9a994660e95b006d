#ifndef WSQ_STORAGE_DISK_MANAGER_H_
#define WSQ_STORAGE_DISK_MANAGER_H_

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "common/thread_annotations.h"
#include "storage/page.h"

namespace wsq {

/// How aggressively file-backed storage makes writes durable.
enum class SyncPolicy {
  /// No explicit flushing: fastest, durable only on clean close.
  kNone,
  /// fflush to the OS on Sync(): survives process crashes, not power
  /// loss.
  kFlush,
  /// fflush + fsync on Sync(): survives power loss. The default.
  kFull,
};

/// Abstraction over the backing store of fixed-size pages.
///
/// Persistent implementations maintain the checksummed page header
/// (see page.h): WritePage stamps it over the first kPageHeaderSize
/// bytes of the frame, ReadPage verifies it and reports corruption as
/// Status::DataLoss. The header region of a caller's frame is owned by
/// the DiskManager; callers must keep their payload within
/// Page::data() / kPageDataSize.
class DiskManager {
 public:
  virtual ~DiskManager() = default;

  /// Reads page `page_id` into `out` (a full kPageSize frame).
  virtual Status ReadPage(PageId page_id, char* out) = 0;

  /// Writes the kPageSize frame at `data` to page `page_id`.
  virtual Status WritePage(PageId page_id, const char* data) = 0;

  /// Extends the store by one page holding the kPageSize frame at
  /// `data` and returns its id: one stamped write where AllocatePage
  /// followed by WritePage costs two.
  virtual Result<PageId> AppendPage(const char* data) = 0;

  /// Extends the store by one zeroed page and returns its id (an
  /// AppendPage of a zero frame).
  Result<PageId> AllocatePage();

  /// Number of allocated pages.
  virtual PageId NumPages() const = 0;

  /// Makes previously written pages durable per the backend's
  /// SyncPolicy. Writes are NOT durable until Sync() returns OK.
  virtual Status Sync() { return Status::OK(); }
};

/// Heap-allocated page store; the default for tests and benchmarks.
/// Stores raw frames verbatim (no header stamping or verification).
class InMemoryDiskManager : public DiskManager {
 public:
  InMemoryDiskManager() = default;

  Status ReadPage(PageId page_id, char* out) override;
  Status WritePage(PageId page_id, const char* data) override;
  Result<PageId> AppendPage(const char* data) override;
  PageId NumPages() const override;

 private:
  mutable Mutex mu_;
  std::vector<std::unique_ptr<char[]>> pages_ WSQ_GUARDED_BY(mu_);
};

/// File-backed page store for persistent databases. Stamps and
/// verifies the checksummed page header; buffers writes in stdio and
/// makes them durable on Sync() per the SyncPolicy.
class FileDiskManager : public DiskManager {
 public:
  /// Opens (creating if necessary) the database file at `path`.
  /// Rejects files whose size is not a multiple of kPageSize
  /// (Status::DataLoss: a torn final page must not be silently
  /// rounded away).
  static Result<std::unique_ptr<FileDiskManager>> Open(
      const std::string& path, SyncPolicy sync = SyncPolicy::kFull);

  ~FileDiskManager() override;

  Status ReadPage(PageId page_id, char* out) override;
  Status WritePage(PageId page_id, const char* data) override;
  Result<PageId> AppendPage(const char* data) override;
  PageId NumPages() const override;
  Status Sync() override;

  const std::string& path() const { return path_; }

 private:
  FileDiskManager(std::string path, std::FILE* file, PageId num_pages,
                  SyncPolicy sync)
      : path_(std::move(path)),
        file_(file),
        num_pages_(num_pages),
        sync_(sync) {}

  // Page I/O under this lock IS the design: one stdio handle, one
  // seek-then-read/write pair at a time; interleaving seeks from two
  // threads would corrupt pages.
  // wsqcheck: allow(blocking-under-lock)
  mutable Mutex mu_;
  /// path_ and sync_ are immutable after construction (read without
  /// mu_).
  std::string path_;
  std::FILE* file_ WSQ_GUARDED_BY(mu_);
  PageId num_pages_ WSQ_GUARDED_BY(mu_);
  SyncPolicy sync_;
  /// Write-ordering stamp for page headers; monotonic per open.
  uint64_t next_lsn_ WSQ_GUARDED_BY(mu_) = 1;
};

}  // namespace wsq

#endif  // WSQ_STORAGE_DISK_MANAGER_H_
