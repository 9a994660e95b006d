#include "storage/heap_file.h"

#include <cstring>

#include "common/macros.h"
#include "common/strings.h"

namespace wsq {

namespace {

constexpr size_t kHeaderSize = 8;   // next_page + num_slots + free_end
constexpr size_t kSlotSize = 4;     // offset + length
constexpr uint16_t kTombstone = 0xFFFF;

int32_t GetNextPage(const char* data) {
  int32_t v;
  std::memcpy(&v, data, 4);
  return v;
}
void SetNextPage(char* data, int32_t v) { std::memcpy(data, &v, 4); }

uint16_t GetNumSlots(const char* data) {
  uint16_t v;
  std::memcpy(&v, data + 4, 2);
  return v;
}
void SetNumSlots(char* data, uint16_t v) { std::memcpy(data + 4, &v, 2); }

uint16_t GetFreeEnd(const char* data) {
  uint16_t v;
  std::memcpy(&v, data + 6, 2);
  return v;
}
void SetFreeEnd(char* data, uint16_t v) { std::memcpy(data + 6, &v, 2); }

void GetSlot(const char* data, uint16_t slot, uint16_t* offset,
             uint16_t* length) {
  const char* p = data + kHeaderSize + slot * kSlotSize;
  std::memcpy(offset, p, 2);
  std::memcpy(length, p + 2, 2);
}

void SetSlot(char* data, uint16_t slot, uint16_t offset, uint16_t length) {
  char* p = data + kHeaderSize + slot * kSlotSize;
  std::memcpy(p, &offset, 2);
  std::memcpy(p + 2, &length, 2);
}

void InitPage(char* data) {
  SetNextPage(data, kInvalidPageId);
  SetNumSlots(data, 0);
  SetFreeEnd(data, static_cast<uint16_t>(kPageDataSize));
}

size_t FreeSpace(const char* data) {
  size_t used_front = kHeaderSize + GetNumSlots(data) * kSlotSize;
  return GetFreeEnd(data) - used_front;
}

}  // namespace

Status HeapFile::ResolveTail() {
  if (tail_known_) return Status::OK();
  PageId current = first_page_;
  while (current != kInvalidPageId) {
    WSQ_ASSIGN_OR_RETURN(Page * page, pool_->FetchPage(current));
    PageGuard guard(pool_, page);
    PageId next = GetNextPage(page->data());
    if (next == kInvalidPageId) break;
    current = next;
  }
  last_page_ = current;
  tail_known_ = true;
  return Status::OK();
}

Result<Rid> HeapFile::Insert(std::string_view record) {
  const size_t need = record.size() + kSlotSize;
  if (record.size() + kSlotSize + kHeaderSize > kPageDataSize) {
    return Status::InvalidArgument(
        StrFormat("record of %zu bytes exceeds page capacity",
                  record.size()));
  }
  WSQ_RETURN_IF_ERROR(ResolveTail());

  if (first_page_ == kInvalidPageId) {
    WSQ_ASSIGN_OR_RETURN(Page * page, pool_->NewPage());
    InitPage(page->data());
    first_page_ = last_page_ = page->page_id();
    WSQ_RETURN_IF_ERROR(pool_->UnpinPage(page->page_id(), /*dirty=*/true));
  }

  WSQ_ASSIGN_OR_RETURN(Page * page, pool_->FetchPage(last_page_));
  PageGuard guard(pool_, page);

  if (FreeSpace(page->data()) < need) {
    WSQ_ASSIGN_OR_RETURN(Page * fresh, pool_->NewPage());
    InitPage(fresh->data());
    SetNextPage(page->data(), fresh->page_id());
    guard.MarkDirty();
    guard.Release();
    last_page_ = fresh->page_id();
    page = fresh;
    guard = PageGuard(pool_, page);
  }

  char* data = page->data();
  uint16_t slot = GetNumSlots(data);
  uint16_t offset =
      static_cast<uint16_t>(GetFreeEnd(data) - record.size());
  std::memcpy(data + offset, record.data(), record.size());
  SetSlot(data, slot, offset, static_cast<uint16_t>(record.size()));
  SetNumSlots(data, slot + 1);
  SetFreeEnd(data, offset);
  guard.MarkDirty();
  return Rid{page->page_id(), slot};
}

Result<std::string> HeapFile::Get(Rid rid) const {
  PageGuard pin;
  std::string_view record;
  WSQ_RETURN_IF_ERROR(Get(rid, &pin, &record));
  return std::string(record);
}

Status HeapFile::Get(Rid rid, PageGuard* pin,
                     std::string_view* record) const {
  if (pin->get() == nullptr || pin->get()->page_id() != rid.page_id) {
    // Drop the old pin first: a tiny pool may have no frame to spare.
    pin->Release();
    WSQ_ASSIGN_OR_RETURN(Page * page, pool_->FetchPage(rid.page_id));
    *pin = PageGuard(pool_, page);
  }
  const char* data = pin->get()->data();
  if (rid.slot >= GetNumSlots(data)) {
    return Status::NotFound(StrFormat("no slot %u on page %d", rid.slot,
                                      rid.page_id));
  }
  uint16_t offset, length;
  GetSlot(data, rid.slot, &offset, &length);
  if (offset == kTombstone) {
    return Status::NotFound("record was deleted");
  }
  *record = std::string_view(data + offset, length);
  return Status::OK();
}

Status HeapFile::Delete(Rid rid) {
  WSQ_ASSIGN_OR_RETURN(Page * page, pool_->FetchPage(rid.page_id));
  PageGuard guard(pool_, page);
  char* data = page->data();
  if (rid.slot >= GetNumSlots(data)) {
    return Status::NotFound(StrFormat("no slot %u on page %d", rid.slot,
                                      rid.page_id));
  }
  uint16_t offset, length;
  GetSlot(data, rid.slot, &offset, &length);
  if (offset == kTombstone) {
    return Status::NotFound("record already deleted");
  }
  SetSlot(data, rid.slot, kTombstone, 0);
  guard.MarkDirty();
  return Status::OK();
}

Result<int64_t> HeapFile::Count() const {
  int64_t count = 0;
  HeapFileScanner scanner(this);
  while (true) {
    WSQ_ASSIGN_OR_RETURN(bool more, scanner.Next(nullptr, nullptr));
    if (!more) break;
    ++count;
  }
  return count;
}

HeapFileScanner::HeapFileScanner(const HeapFile* file)
    : file_(file), current_page_(file->first_page_) {}

void HeapFileScanner::Reset() {
  pin_.Release();
  current_page_ = file_->first_page_;
  next_slot_ = 0;
}

Result<bool> HeapFileScanner::Next(Rid* rid, std::string_view* record) {
  while (current_page_ != kInvalidPageId) {
    if (pin_.get() == nullptr) {
      WSQ_ASSIGN_OR_RETURN(Page * page,
                           file_->pool_->FetchPage(current_page_));
      pin_ = PageGuard(file_->pool_, page);
    }
    // Slot count and chain pointer are re-read on every call: rows
    // appended to the pinned page since the last call are still seen.
    const char* data = pin_->data();
    uint16_t num_slots = GetNumSlots(data);
    while (next_slot_ < num_slots) {
      uint16_t slot = next_slot_++;
      uint16_t offset, length;
      GetSlot(data, slot, &offset, &length);
      if (offset == kTombstone) continue;
      if (rid != nullptr) *rid = Rid{current_page_, slot};
      if (record != nullptr) *record = std::string_view(data + offset, length);
      return true;
    }
    current_page_ = GetNextPage(data);
    next_slot_ = 0;
    pin_.Release();
  }
  return false;
}

}  // namespace wsq
