#ifndef WSQ_CATALOG_CATALOG_H_
#define WSQ_CATALOG_CATALOG_H_

#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "storage/bplus_tree.h"
#include "storage/heap_file.h"
#include "types/row.h"
#include "types/schema.h"

namespace wsq {

/// One side of a range restriction on an indexed column.
struct IndexBound {
  std::optional<Value> value;  // nullopt = unbounded
  bool inclusive = true;
};

/// The keys an index lookup reads: lo <?= key <?= hi. Both sides holding
/// the same value inclusively make it an equality probe.
struct IndexRange {
  IndexBound lo;
  IndexBound hi;

  static IndexRange Equal(const Value& key) {
    return IndexRange{IndexBound{key, true}, IndexBound{key, true}};
  }
  bool IsEquality() const;
};

/// A secondary index over one column of a stored table (the Redbase IX
/// component): a B+ tree mapping column values to rids. NULL values are
/// not indexed.
class IndexInfo {
 public:
  IndexInfo(std::string name, size_t column, BufferPool* pool,
            PageId root = kInvalidPageId)
      : name_(std::move(name)), column_(column), tree_(pool, root) {}

  const std::string& name() const { return name_; }
  /// Indexed column's position within the table schema.
  size_t column() const { return column_; }
  BPlusTree* tree() { return &tree_; }
  const BPlusTree* tree() const { return &tree_; }

  /// Rids whose key lies in `range`, in (key, rid) order.
  Result<std::vector<Rid>> Search(const IndexRange& range) const;

 private:
  std::string name_;
  size_t column_;
  BPlusTree tree_;
};

/// A stored table: schema plus backing heap file.
class TableInfo {
 public:
  TableInfo(std::string name, Schema schema, BufferPool* pool,
            PageId first_page = kInvalidPageId)
      : name_(std::move(name)),
        schema_(std::move(schema)),
        heap_(pool, first_page) {}

  const std::string& name() const { return name_; }
  const Schema& schema() const { return schema_; }
  HeapFile* heap() { return &heap_; }
  const HeapFile* heap() const { return &heap_; }

  /// Type-checks `row` against the schema, appends it, and maintains
  /// every index.
  Status Insert(const Row& row);

  /// Removes the row at `rid`, maintaining every index.
  Status Delete(Rid rid);

  /// Creates (and bulk-builds) an index on `column_name`. One index per
  /// column; duplicate names or columns are rejected.
  Result<IndexInfo*> CreateIndex(const std::string& index_name,
                                 const std::string& column_name,
                                 BufferPool* pool);

  /// Re-attaches a persisted index (database reopen); does not rebuild.
  Result<IndexInfo*> AttachIndex(const std::string& index_name,
                                 size_t column, PageId root,
                                 BufferPool* pool);

  /// Index on `column_name`, or null.
  IndexInfo* FindIndexOn(const std::string& column_name) const;

  const std::vector<std::unique_ptr<IndexInfo>>& indexes() const {
    return indexes_;
  }

  /// Materializes every live row (test/loader convenience; query
  /// execution streams through exec::SeqScan instead).
  Result<std::vector<Row>> ScanAll() const;

  /// Number of live rows.
  Result<int64_t> NumRows() const { return heap_.Count(); }

 private:
  std::string name_;
  Schema schema_;
  HeapFile heap_;
  std::vector<std::unique_ptr<IndexInfo>> indexes_;
};

/// Streaming reader of a stored table's rows. Pins one heap page at a
/// time (see HeapFileScanner) and decodes each record straight from
/// the page into the caller's row.
class TableScanner {
 public:
  explicit TableScanner(const TableInfo* table)
      : scanner_(table->heap()) {}

  /// Returns false at end of table; otherwise overwrites `*row` in
  /// place (see DeserializeRowInto).
  Result<bool> Next(Row* row);

  void Reset() { scanner_.Reset(); }

 private:
  HeapFileScanner scanner_;
};

/// Name → stored table registry. Virtual tables are registered separately
/// (vtab::VirtualTableRegistry) because they have no storage.
class Catalog {
 public:
  explicit Catalog(BufferPool* pool) : pool_(pool) {}

  Catalog(const Catalog&) = delete;
  Catalog& operator=(const Catalog&) = delete;

  /// Creates an empty table. Column qualifiers are set to the table name.
  /// Fails with AlreadyExists on duplicate names (case-insensitive).
  Result<TableInfo*> CreateTable(const std::string& name,
                                 const Schema& schema);

  /// Re-registers a table whose heap file already exists on disk
  /// (database reopen path; see catalog_serde.h).
  Result<TableInfo*> AttachTable(const std::string& name,
                                 const Schema& schema, PageId first_page);

  /// Case-insensitive lookup.
  Result<TableInfo*> GetTable(const std::string& name) const;

  bool HasTable(const std::string& name) const {
    return GetTable(name).ok();
  }

  Status DropTable(const std::string& name);

  /// Table names in creation order.
  std::vector<std::string> ListTables() const;

 private:
  BufferPool* pool_;
  // Keyed by lower-cased name; value keeps the original spelling.
  std::map<std::string, std::unique_ptr<TableInfo>> tables_;
  std::vector<std::string> creation_order_;
};

}  // namespace wsq

#endif  // WSQ_CATALOG_CATALOG_H_
