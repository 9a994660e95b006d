#include "catalog/catalog.h"

#include <algorithm>

#include "common/macros.h"
#include "common/strings.h"
#include "storage/serde.h"

namespace wsq {

namespace {
// NULL is compatible with any column type.
bool TypeCompatible(TypeId column, TypeId value) {
  if (value == TypeId::kNull) return true;
  if (column == TypeId::kDouble && value == TypeId::kInt64) return true;
  return column == value;
}
}  // namespace

namespace {
// NULL keys are not indexed (SQL comparisons with NULL never match).
bool Indexable(const Value& v) { return !v.is_null(); }
}  // namespace

bool IndexRange::IsEquality() const {
  return lo.value.has_value() && hi.value.has_value() && lo.inclusive &&
         hi.inclusive && lo.value->Compare(*hi.value) == 0;
}

Result<std::vector<Rid>> IndexInfo::Search(const IndexRange& range) const {
  if (range.IsEquality()) return tree_.SearchEqual(*range.lo.value);
  const Value* lo = range.lo.value.has_value() ? &*range.lo.value : nullptr;
  const Value* hi = range.hi.value.has_value() ? &*range.hi.value : nullptr;
  return tree_.SearchRange(lo, range.lo.inclusive, hi, range.hi.inclusive);
}

Status TableInfo::Insert(const Row& row) {
  if (row.size() != schema_.NumColumns()) {
    return Status::TypeError(
        StrFormat("table %s expects %zu columns, got %zu", name_.c_str(),
                  schema_.NumColumns(), row.size()));
  }
  for (size_t i = 0; i < row.size(); ++i) {
    if (!TypeCompatible(schema_.column(i).type, row.value(i).type())) {
      return Status::TypeError(StrFormat(
          "column %s expects %s, got %s",
          schema_.column(i).QualifiedName().c_str(),
          std::string(TypeIdToString(schema_.column(i).type)).c_str(),
          std::string(TypeIdToString(row.value(i).type())).c_str()));
    }
  }
  WSQ_ASSIGN_OR_RETURN(std::string bytes, SerializeRow(row));
  WSQ_ASSIGN_OR_RETURN(Rid rid, heap_.Insert(bytes));
  for (const auto& index : indexes_) {
    const Value& key = row.value(index->column());
    if (!Indexable(key)) continue;
    WSQ_RETURN_IF_ERROR(index->tree()->Insert(key, rid));
  }
  return Status::OK();
}

Status TableInfo::Delete(Rid rid) {
  WSQ_ASSIGN_OR_RETURN(std::string bytes, heap_.Get(rid));
  WSQ_ASSIGN_OR_RETURN(Row row, DeserializeRow(bytes));
  for (const auto& index : indexes_) {
    const Value& key = row.value(index->column());
    if (!Indexable(key)) continue;
    WSQ_RETURN_IF_ERROR(index->tree()->Remove(key, rid));
  }
  return heap_.Delete(rid);
}

Result<IndexInfo*> TableInfo::CreateIndex(const std::string& index_name,
                                          const std::string& column_name,
                                          BufferPool* pool) {
  WSQ_ASSIGN_OR_RETURN(size_t column, schema_.Find("", column_name));
  for (const auto& index : indexes_) {
    if (EqualsIgnoreCase(index->name(), index_name)) {
      return Status::AlreadyExists("index already exists: " + index_name);
    }
    if (index->column() == column) {
      return Status::AlreadyExists("column already indexed: " +
                                   column_name);
    }
  }
  auto index = std::make_unique<IndexInfo>(index_name, column, pool);
  // Bulk-build from existing rows.
  HeapFileScanner scanner(&heap_);
  Rid rid;
  std::string_view bytes;
  Row row;
  while (true) {
    WSQ_ASSIGN_OR_RETURN(bool more, scanner.Next(&rid, &bytes));
    if (!more) break;
    WSQ_RETURN_IF_ERROR(DeserializeRowInto(bytes, &row));
    const Value& key = row.value(column);
    if (!Indexable(key)) continue;
    WSQ_RETURN_IF_ERROR(index->tree()->Insert(key, rid));
  }
  IndexInfo* ptr = index.get();
  indexes_.push_back(std::move(index));
  return ptr;
}

Result<IndexInfo*> TableInfo::AttachIndex(const std::string& index_name,
                                          size_t column, PageId root,
                                          BufferPool* pool) {
  if (column >= schema_.NumColumns()) {
    return Status::IOError("index column out of range: " + index_name);
  }
  auto index =
      std::make_unique<IndexInfo>(index_name, column, pool, root);
  IndexInfo* ptr = index.get();
  indexes_.push_back(std::move(index));
  return ptr;
}

IndexInfo* TableInfo::FindIndexOn(const std::string& column_name) const {
  auto col = schema_.Find("", column_name);
  if (!col.ok()) return nullptr;
  for (const auto& index : indexes_) {
    if (index->column() == *col) return index.get();
  }
  return nullptr;
}

Result<std::vector<Row>> TableInfo::ScanAll() const {
  std::vector<Row> rows;
  TableScanner scanner(this);
  Row row;
  while (true) {
    WSQ_ASSIGN_OR_RETURN(bool more, scanner.Next(&row));
    if (!more) break;
    rows.push_back(std::move(row));
  }
  return rows;
}

Result<bool> TableScanner::Next(Row* row) {
  std::string_view record;
  WSQ_ASSIGN_OR_RETURN(bool more, scanner_.Next(nullptr, &record));
  if (!more) return false;
  WSQ_RETURN_IF_ERROR(DeserializeRowInto(record, row));
  return true;
}

Result<TableInfo*> Catalog::CreateTable(const std::string& name,
                                        const Schema& schema) {
  return AttachTable(name, schema, kInvalidPageId);
}

Result<TableInfo*> Catalog::AttachTable(const std::string& name,
                                        const Schema& schema,
                                        PageId first_page) {
  std::string key = ToLower(name);
  if (tables_.count(key) > 0) {
    return Status::AlreadyExists("table already exists: " + name);
  }
  auto table = std::make_unique<TableInfo>(
      name, schema.WithQualifier(name), pool_, first_page);
  TableInfo* ptr = table.get();
  tables_[key] = std::move(table);
  creation_order_.push_back(name);
  return ptr;
}

Result<TableInfo*> Catalog::GetTable(const std::string& name) const {
  auto it = tables_.find(ToLower(name));
  if (it == tables_.end()) {
    return Status::NotFound("no such table: " + name);
  }
  return it->second.get();
}

Status Catalog::DropTable(const std::string& name) {
  std::string key = ToLower(name);
  auto it = tables_.find(key);
  if (it == tables_.end()) {
    return Status::NotFound("no such table: " + name);
  }
  std::string original = it->second->name();
  tables_.erase(it);
  creation_order_.erase(
      std::remove(creation_order_.begin(), creation_order_.end(), original),
      creation_order_.end());
  return Status::OK();
}

std::vector<std::string> Catalog::ListTables() const {
  return creation_order_;
}

}  // namespace wsq
