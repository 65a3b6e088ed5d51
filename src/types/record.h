#ifndef SEQ_TYPES_RECORD_H_
#define SEQ_TYPES_RECORD_H_

#include <cstddef>
#include <string>
#include <utility>
#include <vector>

#include "types/schema.h"
#include "types/span.h"
#include "types/value.h"

namespace seq {

/// A non-null record: one value per schema field, in schema order. The
/// Null record of the paper is modeled by absence (operators yield only
/// non-null records), so no null flag lives here.
using Record = std::vector<Value>;

/// A record paired with the position it occupies. The unit of data flow in
/// the execution engine; streams yield PosRecords in increasing position
/// order.
struct PosRecord {
  Position pos;
  Record rec;
};

/// A reusable column of rows for batch-at-a-time execution: parallel
/// arrays of positions and records with a fixed capacity. Clear() resets
/// the row count but keeps every record's buffer, so a batch that is
/// refilled by the same operator reaches an allocation-free steady state:
/// a Value is a fixed 16 bytes, so refilling a slot copies values into the
/// slot's existing vector (short strings inline, long ones by sharing their
/// refcounted heap block) and allocates nothing.
///
/// Ownership/reuse rules (see docs/execution.md):
///  * the driver that allocates a batch owns it; each operator in a
///    NextBatch chain may rewrite the rows in place (filter compaction,
///    projection) as long as every slot keeps *a* buffer — swap or move
///    values between slots, never move a slot's vector away;
///  * consumers may move values *out* of a row's record but must not hold
///    references to slots past the next refill;
///  * Append() hands back the slot's previous buffer unchanged — fill it
///    with AssignRecord / resize + assign rather than assuming it is empty.
class RecordBatch {
 public:
  static constexpr size_t kDefaultCapacity = 1024;

  explicit RecordBatch(size_t capacity = kDefaultCapacity)
      : positions_(capacity), records_(capacity) {}

  size_t capacity() const { return records_.size(); }
  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  bool full() const { return size_ == records_.size(); }

  /// Resets the row count; record buffers are retained for reuse.
  void Clear() { size_ = 0; }

  /// Drops the rows at index `n` and beyond (n <= size()); their record
  /// buffers are retained. Used by in-place filtering stages.
  void Truncate(size_t n) { size_ = n; }

  Position pos(size_t i) const { return positions_[i]; }
  Position& pos(size_t i) { return positions_[i]; }
  const Record& rec(size_t i) const { return records_[i]; }
  Record& rec(size_t i) { return records_[i]; }

  /// Appends a row: stamps its position and returns the reusable record
  /// buffer for the new slot. Requires !full().
  Record& Append(Position p) {
    positions_[size_] = p;
    return records_[size_++];
  }

 private:
  size_t size_ = 0;
  std::vector<Position> positions_;
  std::vector<Record> records_;
};

/// Copies `src` into `dst` field-by-field, reusing dst's vector buffer.
/// Each field copy is a 16-byte copy (plus a reference-count increment for
/// a string longer than Value::kInlineCapacity).
inline void AssignRecord(Record& dst, const Record& src) {
  dst.resize(src.size());
  for (size_t i = 0; i < src.size(); ++i) dst[i] = src[i];
}

/// Moves src's values into `dst` field-by-field. Unlike `dst =
/// std::move(src)`, both vectors keep their buffers, so batch slots on
/// either side stay reusable.
inline void MoveRecordValues(Record& dst, Record& src) {
  dst.resize(src.size());
  for (size_t i = 0; i < src.size(); ++i) dst[i] = std::move(src[i]);
}

/// Approximate heap footprint of one record in bytes: vector header plus
/// one 16-byte Value per field plus the heap blocks of strings too long to
/// store inline. Used by the operator-cache memory budget
/// (QueryGuards::max_cache_bytes); an estimate is enough — the budget
/// models memory pressure, not an allocator.
inline int64_t ApproxRecordBytes(const Record& rec) {
  size_t bytes = sizeof(Record) + rec.size() * sizeof(Value);
  for (const Value& v : rec) bytes += v.HeapBytes();
  return static_cast<int64_t>(bytes);
}

/// True if `rec` matches `schema` arity and field types.
bool RecordMatchesSchema(const Record& rec, const Schema& schema);

/// "(pos: name=value, ...)" for debugging and example output.
std::string RecordToString(const Record& rec, const Schema& schema);
std::string PosRecordToString(const PosRecord& pr, const Schema& schema);

}  // namespace seq

#endif  // SEQ_TYPES_RECORD_H_
