#ifndef WSQ_STORAGE_HEAP_FILE_H_
#define WSQ_STORAGE_HEAP_FILE_H_

#include <string>
#include <string_view>

#include "common/result.h"
#include "common/status.h"
#include "storage/buffer_pool.h"
#include "storage/page.h"

namespace wsq {

/// An unordered collection of variable-length records stored in a linked
/// list of slotted pages.
///
/// Page layout:
///   [ next_page:int32 | num_slots:uint16 | free_end:uint16 |
///     slot[0] .. slot[n-1] | ... free ... | record data (grows down) ]
/// Each slot is {offset:uint16, length:uint16}; a deleted record keeps its
/// slot with offset == kTombstone.
class HeapFile {
 public:
  /// Wraps an existing file rooted at `first_page`, or an empty one when
  /// `first_page` is kInvalidPageId (the first insert allocates it).
  /// When reopening an existing chain the tail page is located lazily
  /// on the first insert.
  explicit HeapFile(BufferPool* pool, PageId first_page = kInvalidPageId)
      : pool_(pool),
        first_page_(first_page),
        last_page_(first_page),
        tail_known_(first_page == kInvalidPageId) {}

  /// Appends a record; returns its Rid.
  Result<Rid> Insert(std::string_view record);

  /// Fetches the record at `rid`.
  Result<std::string> Get(Rid rid) const;

  /// Points `*record` at the record at `rid` inside its page, which
  /// `*pin` keeps pinned. A pin that already holds rid's page is reused;
  /// otherwise it is released and moved to that page, so reading rids
  /// in page order costs one FetchPage per page. The view is valid
  /// while `*pin` holds the page.
  Status Get(Rid rid, PageGuard* pin, std::string_view* record) const;

  /// Tombstones the record at `rid`.
  Status Delete(Rid rid);

  /// Root page of the file; kInvalidPageId while empty.
  PageId first_page() const { return first_page_; }

  /// Number of live (non-deleted) records; O(pages).
  Result<int64_t> Count() const;

 private:
  friend class HeapFileScanner;

  /// Walks the page chain to locate the true tail after a reopen.
  Status ResolveTail();

  BufferPool* pool_;
  PageId first_page_;
  PageId last_page_;
  bool tail_known_;
};

/// Forward scan over all live records of a HeapFile.
///
/// The scanner keeps its current page pinned between Next calls, so a
/// scan costs one FetchPage per page and hands out records as views
/// into the page. The pin is dropped when the scan moves to the next
/// page, at end of file, on Reset, and on destruction.
class HeapFileScanner {
 public:
  explicit HeapFileScanner(const HeapFile* file);

  /// Advances to the next record. Returns false at end of file.
  /// On success fills `rid` and `record` (both may be null); the view
  /// is valid until the next call to Next or Reset, or the scanner's
  /// destruction.
  Result<bool> Next(Rid* rid, std::string_view* record);

  /// Restarts the scan from the beginning.
  void Reset();

 private:
  const HeapFile* file_;
  PageId current_page_;
  uint16_t next_slot_ = 0;
  PageGuard pin_;  // holds current_page_ while it is being read
};

}  // namespace wsq

#endif  // WSQ_STORAGE_HEAP_FILE_H_
