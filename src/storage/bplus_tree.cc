#include "storage/bplus_tree.h"

#include <algorithm>
#include <cstring>

#include "common/macros.h"
#include "common/strings.h"

namespace wsq {

namespace {

// --- Key encoding -------------------------------------------------------
// Tag byte then a representation whose byte order matches value order
// within a type. Cross-type order follows the tag.
constexpr char kTagInt = 0x02;
constexpr char kTagDouble = 0x03;
constexpr char kTagString = 0x04;

void PutBigEndian64(std::string* out, uint64_t v) {
  for (int shift = 56; shift >= 0; shift -= 8) {
    out->push_back(static_cast<char>((v >> shift) & 0xFF));
  }
}

uint64_t GetBigEndian64(const char* p) {
  uint64_t v = 0;
  for (int i = 0; i < 8; ++i) {
    v = (v << 8) | static_cast<unsigned char>(p[i]);
  }
  return v;
}

}  // namespace

Result<std::string> EncodeBTreeKey(const Value& key) {
  std::string out;
  switch (key.type()) {
    case TypeId::kInt64:
      out.push_back(kTagInt);
      // Flip the sign bit so unsigned byte order equals signed order.
      PutBigEndian64(&out, static_cast<uint64_t>(key.AsInt()) ^
                               (1ull << 63));
      return out;
    case TypeId::kDouble: {
      out.push_back(kTagDouble);
      uint64_t bits;
      double d = key.AsDouble();
      std::memcpy(&bits, &d, 8);
      // IEEE-754 total-order transform.
      if (bits & (1ull << 63)) {
        bits = ~bits;
      } else {
        bits |= (1ull << 63);
      }
      PutBigEndian64(&out, bits);
      return out;
    }
    case TypeId::kString: {
      // Layout (fixed width = kMaxKeyBytes): tag, raw bytes, zero
      // padding, then a big-endian u16 length in the final two bytes.
      // Bytes-before-length keeps memcmp order lexicographic even for
      // strings with embedded NULs (the trailing length breaks the
      // prefix tie).
      const std::string& s = key.AsString();
      if (s.size() + 3 > BPlusTree::kMaxKeyBytes) {
        return Status::InvalidArgument(
            StrFormat("index key too long (%zu bytes, max %zu)",
                      s.size(), BPlusTree::kMaxKeyBytes - 3));
      }
      out.push_back(kTagString);
      out.append(s);
      out.append(BPlusTree::kMaxKeyBytes - 2 - out.size(), '\0');
      out.push_back(static_cast<char>((s.size() >> 8) & 0xFF));
      out.push_back(static_cast<char>(s.size() & 0xFF));
      return out;
    }
    case TypeId::kNull:
      return Status::InvalidArgument("NULL cannot be an index key");
    case TypeId::kPlaceholder:
      return Status::Internal("placeholder cannot be an index key");
  }
  return Status::Internal("unknown key type");
}

Result<Value> DecodeBTreeKey(std::string_view bytes) {
  if (bytes.empty()) return Status::IOError("empty index key");
  switch (bytes[0]) {
    case kTagInt: {
      if (bytes.size() < 9) return Status::IOError("truncated int key");
      uint64_t v = GetBigEndian64(bytes.data() + 1) ^ (1ull << 63);
      return Value::Int(static_cast<int64_t>(v));
    }
    case kTagDouble: {
      if (bytes.size() < 9) {
        return Status::IOError("truncated double key");
      }
      uint64_t bits = GetBigEndian64(bytes.data() + 1);
      if (bits & (1ull << 63)) {
        bits &= ~(1ull << 63);
      } else {
        bits = ~bits;
      }
      double d;
      std::memcpy(&d, &bits, 8);
      return Value::Real(d);
    }
    case kTagString: {
      if (bytes.size() < BPlusTree::kMaxKeyBytes) {
        return Status::IOError("truncated string key");
      }
      size_t hi = static_cast<unsigned char>(
          bytes[BPlusTree::kMaxKeyBytes - 2]);
      size_t lo = static_cast<unsigned char>(
          bytes[BPlusTree::kMaxKeyBytes - 1]);
      size_t len = (hi << 8) | lo;
      if (len + 3 > BPlusTree::kMaxKeyBytes) {
        return Status::IOError("corrupt string key length");
      }
      return Value::Str(std::string(bytes.substr(1, len)));
    }
    default:
      return Status::IOError("bad index key tag");
  }
}

namespace {

// --- Node layout ---------------------------------------------------------
// [ is_leaf:u8 | num_keys:u16 | next_leaf:i32 ] then entries.
// Every entry carries a composite (key, rid) in a fixed slot, so
// duplicates order deterministically and separators partition strictly.
constexpr size_t kHeaderBytes = 7;
constexpr size_t kKeySlot = BPlusTree::kMaxKeyBytes;  // zero-padded
constexpr size_t kRidBytes = 6;                       // page:i32 + slot:u16
constexpr size_t kEntryBytes = kKeySlot + kRidBytes;  // leaf entry
// Internal node: child0:i32 after the header, then (entry, child:i32).
constexpr size_t kInternalEntryBytes = kEntryBytes + 4;

constexpr size_t kLeafCapacity =
    (kPageDataSize - kHeaderBytes) / kEntryBytes;
constexpr size_t kInternalCapacity =
    (kPageDataSize - kHeaderBytes - 4) / kInternalEntryBytes;

bool IsLeaf(const char* d) { return d[0] != 0; }
void SetLeaf(char* d, bool leaf) { d[0] = leaf ? 1 : 0; }

uint16_t NumKeys(const char* d) {
  uint16_t v;
  std::memcpy(&v, d + 1, 2);
  return v;
}
void SetNumKeys(char* d, uint16_t v) { std::memcpy(d + 1, &v, 2); }

PageId NextLeaf(const char* d) {
  PageId v;
  std::memcpy(&v, d + 3, 4);
  return v;
}
void SetNextLeaf(char* d, PageId v) { std::memcpy(d + 3, &v, 4); }

// Composite entry = padded key + rid.
struct Entry {
  std::string key;  // encoded, unpadded
  Rid rid;
};

char* LeafEntryPtr(char* d, size_t i) {
  return d + kHeaderBytes + i * kEntryBytes;
}
const char* LeafEntryPtr(const char* d, size_t i) {
  return d + kHeaderBytes + i * kEntryBytes;
}

char* InternalChild0Ptr(char* d) { return d + kHeaderBytes; }
const char* InternalChild0Ptr(const char* d) { return d + kHeaderBytes; }
char* InternalEntryPtr(char* d, size_t i) {
  return d + kHeaderBytes + 4 + i * kInternalEntryBytes;
}
const char* InternalEntryPtr(const char* d, size_t i) {
  return d + kHeaderBytes + 4 + i * kInternalEntryBytes;
}

void WriteEntryAt(char* p, const std::string& key, Rid rid) {
  std::memset(p, 0, kKeySlot);
  std::memcpy(p, key.data(), key.size());
  std::memcpy(p + kKeySlot, &rid.page_id, 4);
  std::memcpy(p + kKeySlot + 4, &rid.slot, 2);
}

/// An entry read in place: `key` points into the pinned page, so it is
/// valid only while the page stays pinned. Lookups compare these; only
/// the split paths, which rewrite the page, copy entries out.
struct EntryView {
  std::string_view key;  // the padded kKeySlot bytes
  Rid rid;
};

EntryView ViewEntryAt(const char* p) {
  EntryView e;
  e.key = std::string_view(p, kKeySlot);
  std::memcpy(&e.rid.page_id, p + kKeySlot, 4);
  std::memcpy(&e.rid.slot, p + kKeySlot + 4, 2);
  return e;
}

Entry ReadEntryAt(const char* p) {
  EntryView v = ViewEntryAt(p);
  return Entry{std::string(v.key), v.rid};
}

PageId ReadChildAt(const char* d, size_t i) {
  // child i: child0 for i==0, else the pointer after entry i-1.
  PageId v;
  if (i == 0) {
    std::memcpy(&v, InternalChild0Ptr(d), 4);
  } else {
    std::memcpy(&v, InternalEntryPtr(d, i - 1) + kEntryBytes, 4);
  }
  return v;
}

void WriteChildAt(char* d, size_t i, PageId child) {
  if (i == 0) {
    std::memcpy(InternalChild0Ptr(d), &child, 4);
  } else {
    std::memcpy(InternalEntryPtr(d, i - 1) + kEntryBytes, &child, 4);
  }
}

/// Byte-order comparison of encoded keys (padding-insensitive: the
/// encoding is self-delimiting and zero bytes never terminate early
/// because string keys carry an explicit length).
int CompareKeys(std::string_view a, std::string_view b) {
  // Compare up to the shorter meaningful prefix; padded slots compare
  // fine because both sides are padded with zeros past their encoding.
  size_t n = std::min(a.size(), b.size());
  int c = std::memcmp(a.data(), b.data(), n);
  if (c != 0) return c;
  if (a.size() == b.size()) return 0;
  // Zero padding: treat the shorter as extended with zeros.
  const std::string_view& longer = a.size() > b.size() ? a : b;
  for (size_t i = n; i < longer.size(); ++i) {
    if (longer[i] != 0) return a.size() > b.size() ? 1 : -1;
  }
  return 0;
}

int CompareComposite(std::string_view ak, Rid ar, std::string_view bk,
                     Rid br) {
  int c = CompareKeys(ak, bk);
  if (c != 0) return c;
  if (ar.page_id != br.page_id) {
    return ar.page_id < br.page_id ? -1 : 1;
  }
  if (ar.slot != br.slot) return ar.slot < br.slot ? -1 : 1;
  return 0;
}

}  // namespace

Result<PageId> BPlusTree::FindLeaf(const std::string& key) const {
  PageId current = root_;
  while (true) {
    WSQ_ASSIGN_OR_RETURN(Page * page, pool_->FetchPage(current));
    PageGuard guard(pool_, page);
    const char* d = page->data();
    if (IsLeaf(d)) return current;
    // Leftmost child whose subtree may contain `key`: descend into
    // child i where separator[i-1] <= (key, min_rid) < separator[i].
    size_t n = NumKeys(d);
    size_t child = 0;
    for (size_t i = 0; i < n; ++i) {
      EntryView sep = ViewEntryAt(InternalEntryPtr(d, i));
      if (CompareComposite(key, Rid{-1, 0}, sep.key, sep.rid) >= 0) {
        child = i + 1;
      } else {
        break;
      }
    }
    current = ReadChildAt(d, child);
  }
}

Status BPlusTree::Insert(const Value& key, Rid rid) {
  WSQ_ASSIGN_OR_RETURN(std::string encoded, EncodeBTreeKey(key));

  if (root_ == kInvalidPageId) {
    WSQ_ASSIGN_OR_RETURN(Page * page, pool_->NewPage());
    PageGuard guard(pool_, page);
    char* d = page->data();
    std::memset(d, 0, kPageDataSize);
    SetLeaf(d, true);
    SetNumKeys(d, 1);
    SetNextLeaf(d, kInvalidPageId);
    WriteEntryAt(LeafEntryPtr(d, 0), encoded, rid);
    guard.MarkDirty();
    root_ = page->page_id();
    return Status::OK();
  }

  SplitResult split;
  WSQ_RETURN_IF_ERROR(InsertInto(root_, encoded, rid, &split));
  if (!split.split) return Status::OK();

  // Grow a new internal root.
  WSQ_ASSIGN_OR_RETURN(Page * page, pool_->NewPage());
  PageGuard guard(pool_, page);
  char* d = page->data();
  std::memset(d, 0, kPageDataSize);
  SetLeaf(d, false);
  SetNumKeys(d, 1);
  SetNextLeaf(d, kInvalidPageId);
  WriteChildAt(d, 0, root_);
  // The separator carries the composite of the new node's first entry.
  Entry sep;
  sep.key = split.separator.substr(0, kKeySlot);
  std::memcpy(&sep.rid.page_id, split.separator.data() + kKeySlot, 4);
  std::memcpy(&sep.rid.slot, split.separator.data() + kKeySlot + 4, 2);
  WriteEntryAt(InternalEntryPtr(d, 0), sep.key, sep.rid);
  WriteChildAt(d, 1, split.new_page);
  guard.MarkDirty();
  root_ = page->page_id();
  return Status::OK();
}

Status BPlusTree::InsertInto(PageId page_id, const std::string& key,
                             Rid rid, SplitResult* out) {
  out->split = false;
  WSQ_ASSIGN_OR_RETURN(Page * page, pool_->FetchPage(page_id));
  PageGuard guard(pool_, page);
  char* d = page->data();
  size_t n = NumKeys(d);

  if (!IsLeaf(d)) {
    // Choose the child, recurse, then absorb a possible child split.
    size_t child_idx = 0;
    for (size_t i = 0; i < n; ++i) {
      EntryView sep = ViewEntryAt(InternalEntryPtr(d, i));
      if (CompareComposite(key, rid, sep.key, sep.rid) >= 0) {
        child_idx = i + 1;
      } else {
        break;
      }
    }
    PageId child = ReadChildAt(d, child_idx);
    guard.Release();

    SplitResult child_split;
    WSQ_RETURN_IF_ERROR(InsertInto(child, key, rid, &child_split));
    if (!child_split.split) return Status::OK();

    WSQ_ASSIGN_OR_RETURN(page, pool_->FetchPage(page_id));
    PageGuard reguard(pool_, page);
    d = page->data();
    n = NumKeys(d);

    // Insert (separator, new_page) after child_idx.
    if (n < kInternalCapacity) {
      std::memmove(InternalEntryPtr(d, child_idx + 1),
                   InternalEntryPtr(d, child_idx),
                   (n - child_idx) * kInternalEntryBytes);
      std::memcpy(InternalEntryPtr(d, child_idx),
                  child_split.separator.data(), kEntryBytes);
      std::memcpy(InternalEntryPtr(d, child_idx) + kEntryBytes,
                  &child_split.new_page, 4);
      SetNumKeys(d, static_cast<uint16_t>(n + 1));
      reguard.MarkDirty();
      return Status::OK();
    }

    // Split this internal node. Collect entries + children, insert the
    // new separator, redistribute.
    struct InternalEntry {
      std::string composite;  // kEntryBytes
      PageId child;
    };
    std::vector<InternalEntry> entries;
    entries.reserve(n + 1);
    for (size_t i = 0; i < n; ++i) {
      InternalEntry e;
      e.composite.assign(InternalEntryPtr(d, i), kEntryBytes);
      e.child = ReadChildAt(d, i + 1);
      entries.push_back(std::move(e));
    }
    InternalEntry added;
    added.composite = child_split.separator;
    added.child = child_split.new_page;
    entries.insert(entries.begin() + static_cast<ptrdiff_t>(child_idx),
                   std::move(added));

    size_t mid = entries.size() / 2;  // entries[mid] moves up
    WSQ_ASSIGN_OR_RETURN(Page * right, pool_->NewPage());
    PageGuard right_guard(pool_, right);
    char* rd = right->data();
    std::memset(rd, 0, kPageDataSize);
    SetLeaf(rd, false);
    SetNextLeaf(rd, kInvalidPageId);
    WriteChildAt(rd, 0, entries[mid].child);
    size_t right_count = entries.size() - mid - 1;
    for (size_t i = 0; i < right_count; ++i) {
      std::memcpy(InternalEntryPtr(rd, i),
                  entries[mid + 1 + i].composite.data(), kEntryBytes);
      WriteChildAt(rd, i + 1, entries[mid + 1 + i].child);
    }
    SetNumKeys(rd, static_cast<uint16_t>(right_count));
    right_guard.MarkDirty();

    PageId child0 = ReadChildAt(d, 0);
    std::memset(d + kHeaderBytes, 0, kPageDataSize - kHeaderBytes);
    WriteChildAt(d, 0, child0);
    for (size_t i = 0; i < mid; ++i) {
      std::memcpy(InternalEntryPtr(d, i), entries[i].composite.data(),
                  kEntryBytes);
      WriteChildAt(d, i + 1, entries[i].child);
    }
    SetNumKeys(d, static_cast<uint16_t>(mid));
    reguard.MarkDirty();

    out->split = true;
    out->separator = entries[mid].composite;
    out->new_page = right->page_id();
    return Status::OK();
  }

  // Leaf: position by composite order.
  size_t pos = 0;
  for (; pos < n; ++pos) {
    EntryView e = ViewEntryAt(LeafEntryPtr(d, pos));
    int c = CompareComposite(key, rid, e.key, e.rid);
    if (c == 0) {
      return Status::AlreadyExists("duplicate index entry");
    }
    if (c < 0) break;
  }

  if (n < kLeafCapacity) {
    std::memmove(LeafEntryPtr(d, pos + 1), LeafEntryPtr(d, pos),
                 (n - pos) * kEntryBytes);
    WriteEntryAt(LeafEntryPtr(d, pos), key, rid);
    SetNumKeys(d, static_cast<uint16_t>(n + 1));
    guard.MarkDirty();
    return Status::OK();
  }

  // Split the leaf.
  std::vector<Entry> entries;
  entries.reserve(n + 1);
  for (size_t i = 0; i < n; ++i) {
    entries.push_back(ReadEntryAt(LeafEntryPtr(d, i)));
  }
  Entry added;
  added.key.assign(kKeySlot, '\0');
  std::memcpy(added.key.data(), key.data(), key.size());
  added.rid = rid;
  entries.insert(entries.begin() + static_cast<ptrdiff_t>(pos),
                 std::move(added));

  size_t mid = entries.size() / 2;
  WSQ_ASSIGN_OR_RETURN(Page * right, pool_->NewPage());
  PageGuard right_guard(pool_, right);
  char* rd = right->data();
  std::memset(rd, 0, kPageDataSize);
  SetLeaf(rd, true);
  SetNextLeaf(rd, NextLeaf(d));
  for (size_t i = mid; i < entries.size(); ++i) {
    WriteEntryAt(LeafEntryPtr(rd, i - mid), entries[i].key,
                 entries[i].rid);
  }
  SetNumKeys(rd, static_cast<uint16_t>(entries.size() - mid));
  right_guard.MarkDirty();

  for (size_t i = 0; i < mid; ++i) {
    WriteEntryAt(LeafEntryPtr(d, i), entries[i].key, entries[i].rid);
  }
  SetNumKeys(d, static_cast<uint16_t>(mid));
  SetNextLeaf(d, right->page_id());
  guard.MarkDirty();

  out->split = true;
  out->separator.assign(kEntryBytes, '\0');
  std::memcpy(out->separator.data(), entries[mid].key.data(), kKeySlot);
  std::memcpy(out->separator.data() + kKeySlot, &entries[mid].rid.page_id,
              4);
  std::memcpy(out->separator.data() + kKeySlot + 4,
              &entries[mid].rid.slot, 2);
  out->new_page = right->page_id();
  return Status::OK();
}

Status BPlusTree::Remove(const Value& key, Rid rid) {
  if (root_ == kInvalidPageId) {
    return Status::NotFound("index is empty");
  }
  WSQ_ASSIGN_OR_RETURN(std::string encoded, EncodeBTreeKey(key));
  bool removed = false;
  WSQ_RETURN_IF_ERROR(RemoveFrom(root_, encoded, rid, &removed));
  if (!removed) return Status::NotFound("index entry not found");
  return Status::OK();
}

Status BPlusTree::RemoveFrom(PageId page_id, const std::string& key,
                             Rid rid, bool* removed) {
  WSQ_ASSIGN_OR_RETURN(Page * page, pool_->FetchPage(page_id));
  PageGuard guard(pool_, page);
  char* d = page->data();
  size_t n = NumKeys(d);

  if (!IsLeaf(d)) {
    size_t child_idx = 0;
    for (size_t i = 0; i < n; ++i) {
      EntryView sep = ViewEntryAt(InternalEntryPtr(d, i));
      if (CompareComposite(key, rid, sep.key, sep.rid) >= 0) {
        child_idx = i + 1;
      } else {
        break;
      }
    }
    PageId child = ReadChildAt(d, child_idx);
    guard.Release();
    return RemoveFrom(child, key, rid, removed);
  }

  for (size_t i = 0; i < n; ++i) {
    EntryView e = ViewEntryAt(LeafEntryPtr(d, i));
    int c = CompareComposite(key, rid, e.key, e.rid);
    if (c == 0) {
      std::memmove(LeafEntryPtr(d, i), LeafEntryPtr(d, i + 1),
                   (n - i - 1) * kEntryBytes);
      SetNumKeys(d, static_cast<uint16_t>(n - 1));
      guard.MarkDirty();
      *removed = true;
      return Status::OK();
    }
    if (c < 0) break;
  }
  return Status::OK();
}

Result<std::vector<Rid>> BPlusTree::SearchEqual(const Value& key) const {
  std::vector<Rid> out;
  if (root_ == kInvalidPageId) return out;
  WSQ_ASSIGN_OR_RETURN(std::string encoded, EncodeBTreeKey(key));
  WSQ_ASSIGN_OR_RETURN(PageId leaf, FindLeaf(encoded));

  PageId current = leaf;
  while (current != kInvalidPageId) {
    WSQ_ASSIGN_OR_RETURN(Page * page, pool_->FetchPage(current));
    PageGuard guard(pool_, page);
    const char* d = page->data();
    size_t n = NumKeys(d);
    bool past = false;
    for (size_t i = 0; i < n; ++i) {
      EntryView e = ViewEntryAt(LeafEntryPtr(d, i));
      int c = CompareKeys(encoded, e.key);
      if (c == 0) {
        out.push_back(e.rid);
      } else if (c < 0) {
        past = true;
        break;
      }
    }
    if (past) break;
    current = NextLeaf(d);
  }
  return out;
}

Result<std::vector<Rid>> BPlusTree::SearchRange(
    const Value* lo, bool lo_inclusive, const Value* hi,
    bool hi_inclusive) const {
  std::vector<Rid> out;
  if (root_ == kInvalidPageId) return out;

  std::string lo_key, hi_key;
  if (lo != nullptr) {
    WSQ_ASSIGN_OR_RETURN(lo_key, EncodeBTreeKey(*lo));
  }
  if (hi != nullptr) {
    WSQ_ASSIGN_OR_RETURN(hi_key, EncodeBTreeKey(*hi));
  }

  // Start at the leftmost leaf that can contain the lower bound (or
  // the leftmost leaf overall when unbounded below).
  PageId current;
  if (lo != nullptr) {
    WSQ_ASSIGN_OR_RETURN(current, FindLeaf(lo_key));
  } else {
    current = root_;
    while (true) {
      WSQ_ASSIGN_OR_RETURN(Page * page, pool_->FetchPage(current));
      PageGuard guard(pool_, page);
      if (IsLeaf(page->data())) break;
      current = ReadChildAt(page->data(), 0);
    }
  }

  while (current != kInvalidPageId) {
    WSQ_ASSIGN_OR_RETURN(Page * page, pool_->FetchPage(current));
    PageGuard guard(pool_, page);
    const char* d = page->data();
    size_t n = NumKeys(d);
    bool past = false;
    for (size_t i = 0; i < n; ++i) {
      EntryView e = ViewEntryAt(LeafEntryPtr(d, i));
      if (lo != nullptr) {
        int c = CompareKeys(e.key, lo_key);
        if (c < 0 || (c == 0 && !lo_inclusive)) continue;
      }
      if (hi != nullptr) {
        int c = CompareKeys(e.key, hi_key);
        if (c > 0 || (c == 0 && !hi_inclusive)) {
          // Keys only grow along the chain; equal keys may continue,
          // so only a strictly-greater key terminates the scan.
          if (c > 0) {
            past = true;
            break;
          }
          continue;
        }
      }
      out.push_back(e.rid);
    }
    if (past) break;
    current = NextLeaf(d);
  }
  return out;
}

Result<std::vector<std::pair<Value, Rid>>> BPlusTree::ScanAll() const {
  std::vector<std::pair<Value, Rid>> out;
  if (root_ == kInvalidPageId) return out;

  // Descend to the leftmost leaf.
  PageId current = root_;
  while (true) {
    WSQ_ASSIGN_OR_RETURN(Page * page, pool_->FetchPage(current));
    PageGuard guard(pool_, page);
    const char* d = page->data();
    if (IsLeaf(d)) break;
    current = ReadChildAt(d, 0);
  }

  while (current != kInvalidPageId) {
    WSQ_ASSIGN_OR_RETURN(Page * page, pool_->FetchPage(current));
    PageGuard guard(pool_, page);
    const char* d = page->data();
    size_t n = NumKeys(d);
    for (size_t i = 0; i < n; ++i) {
      EntryView e = ViewEntryAt(LeafEntryPtr(d, i));
      WSQ_ASSIGN_OR_RETURN(Value v, DecodeBTreeKey(e.key));
      out.emplace_back(std::move(v), e.rid);
    }
    current = NextLeaf(d);
  }
  return out;
}

Result<int64_t> BPlusTree::Count() const {
  WSQ_ASSIGN_OR_RETURN(auto all, ScanAll());
  return static_cast<int64_t>(all.size());
}

Status BPlusTree::CheckInvariants() const {
  if (root_ == kInvalidPageId) return Status::OK();

  // Full scan must be sorted by composite.
  WSQ_ASSIGN_OR_RETURN(auto all, ScanAll());
  for (size_t i = 1; i < all.size(); ++i) {
    WSQ_ASSIGN_OR_RETURN(std::string prev,
                         EncodeBTreeKey(all[i - 1].first));
    WSQ_ASSIGN_OR_RETURN(std::string cur, EncodeBTreeKey(all[i].first));
    if (CompareComposite(prev, all[i - 1].second, cur,
                         all[i].second) >= 0) {
      return Status::Internal(
          StrFormat("leaf chain out of order at entry %zu", i));
    }
  }

  // All leaves at the same depth; every node's entries sorted.
  struct Frame {
    PageId page;
    int depth;
  };
  std::vector<Frame> stack = {{root_, 0}};
  int leaf_depth = -1;
  while (!stack.empty()) {
    Frame f = stack.back();
    stack.pop_back();
    WSQ_ASSIGN_OR_RETURN(Page * page, pool_->FetchPage(f.page));
    PageGuard guard(pool_, page);
    const char* d = page->data();
    size_t n = NumKeys(d);
    for (size_t i = 1; i < n; ++i) {
      EntryView a = IsLeaf(d) ? ViewEntryAt(LeafEntryPtr(d, i - 1))
                              : ViewEntryAt(InternalEntryPtr(d, i - 1));
      EntryView b = IsLeaf(d) ? ViewEntryAt(LeafEntryPtr(d, i))
                              : ViewEntryAt(InternalEntryPtr(d, i));
      if (CompareComposite(a.key, a.rid, b.key, b.rid) >= 0) {
        return Status::Internal("node entries out of order");
      }
    }
    if (IsLeaf(d)) {
      if (leaf_depth < 0) leaf_depth = f.depth;
      if (leaf_depth != f.depth) {
        return Status::Internal("leaves at different depths");
      }
    } else {
      if (n == 0) return Status::Internal("empty internal node");
      for (size_t i = 0; i <= n; ++i) {
        stack.push_back({ReadChildAt(d, i), f.depth + 1});
      }
    }
  }
  return Status::OK();
}

}  // namespace wsq
