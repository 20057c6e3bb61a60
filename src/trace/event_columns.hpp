// Columnar (SoA) trace event storage, the form trace files decode into.
// Events are decomposed into eight fixed-width columns plus a deduplicated
// string table, so hot analysis loops (TraceIndex) scan contiguous
// timestamp / pid / probe arrays instead of chasing variant payloads, and
// the layout maps 1:1 onto the on-disk .ttb format.
//
// Per-type packing of the generic argument columns (unused fields are 0):
//
//   type            aux           arg_a                 arg_b       arg_c
//   RmwCreateNode   -             -                     -           node str
//   CallbackStart   kind          -                     -           -
//   CallbackEnd     kind          -                     -           -
//   TimerCall       -             callback_id           -           -
//   Take            take_kind     callback_id           src_ts      topic str
//   TakeTypeErased  dispatch 0/1  -                     -           -
//   SyncOperator    -             callback_id           -           -
//   DdsWrite        -             -                     src_ts      topic str
//   SchedSwitch     prev_state    prev_pid|next_pid<<32 cpu|prev_prio<<32
//                                                                   next_prio
//   SchedWakeup     -             woken_pid|cpu<<32     -           -
//
// String columns hold indices into the table; index 0 is always "".
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "trace/event.hpp"

namespace tetra::trace {

struct PackedRow;

/// Non-owning view over columnar event storage. The pointers may target an
/// EventColumns instance or a memory-mapped .ttb file — analysis code is
/// agnostic. All accessors are bounds-unchecked except str().
struct ColumnsView {
  const std::int64_t* time = nullptr;
  const std::uint64_t* arg_a = nullptr;
  const std::int64_t* arg_b = nullptr;
  const std::int32_t* pid = nullptr;
  const std::uint32_t* arg_c = nullptr;
  const std::uint8_t* probe = nullptr;
  const std::uint8_t* type = nullptr;
  const std::uint8_t* aux = nullptr;
  std::size_t count = 0;

  /// String table: offsets has string_count + 1 entries; string i spans
  /// blob[offsets[i], offsets[i + 1]).
  const std::uint32_t* str_offsets = nullptr;
  std::size_t string_count = 0;
  const char* blob = nullptr;
  std::size_t blob_size = 0;

  /// Bounds-checked string lookup; throws std::invalid_argument on a bad
  /// index (possible with corrupt .ttb input).
  std::string_view str(std::uint32_t index) const;

  /// Decoded accessors for the packed sched columns.
  std::int32_t sched_prev_pid(std::size_t i) const {
    return static_cast<std::int32_t>(static_cast<std::uint32_t>(arg_a[i]));
  }
  std::int32_t sched_next_pid(std::size_t i) const {
    return static_cast<std::int32_t>(
        static_cast<std::uint32_t>(arg_a[i] >> 32));
  }
  std::int32_t sched_cpu(std::size_t i) const {
    return static_cast<std::int32_t>(
        static_cast<std::uint32_t>(static_cast<std::uint64_t>(arg_b[i])));
  }
  std::int32_t sched_prev_prio(std::size_t i) const {
    return static_cast<std::int32_t>(
        static_cast<std::uint32_t>(static_cast<std::uint64_t>(arg_b[i]) >> 32));
  }
  std::int32_t sched_next_prio(std::size_t i) const {
    return static_cast<std::int32_t>(arg_c[i]);
  }
  std::int32_t wakeup_pid(std::size_t i) const { return sched_prev_pid(i); }
  std::int32_t wakeup_cpu(std::size_t i) const { return sched_next_pid(i); }

  /// Rows [first, first + n) over the same string table.
  ColumnsView rows(std::size_t first, std::size_t n) const;

  /// Row i in packed form; arg_c still indexes this view's table.
  PackedRow row(std::size_t i) const;
};

/// Whether rows of `type` carry a string (arg_c indexes the table).
inline bool carries_string(EventType type) {
  return type == EventType::RmwCreateNode || type == EventType::Take ||
         type == EventType::DdsWrite;
}

/// True when the view's time column is non-decreasing.
bool is_time_sorted(const ColumnsView& view);

/// The two 32-bit halves of a packed sched argument.
inline std::uint64_t pack_pid_pair(std::int32_t low, std::int32_t high) {
  return static_cast<std::uint64_t>(static_cast<std::uint32_t>(low)) |
         (static_cast<std::uint64_t>(static_cast<std::uint32_t>(high)) << 32);
}

/// One event in packed column form (see the table above).
struct PackedRow {
  std::int64_t time = 0;
  std::uint64_t arg_a = 0;
  std::int64_t arg_b = 0;
  std::int32_t pid = 0;
  std::uint32_t arg_c = 0;
  std::uint8_t probe = 0;
  std::uint8_t type = 0;
  std::uint8_t aux = 0;
};

/// Owning columnar store: rows are appended, shift() rewrites them and
/// erase_front() drops a prefix.
class EventColumns {
 public:
  EventColumns();
  /// Packs heap events, in order.
  explicit EventColumns(const EventVector& events);

  void append(const TraceEvent& event);
  void append(const EventVector& events);
  /// Appends a row whose arg_c, for a string-bearing type, already
  /// indexes this table (see intern()).
  void append(const PackedRow& row);
  /// Bulk append; fixed columns are copied, and each source string used by
  /// a string-bearing row is interned once. Throws std::invalid_argument
  /// on a string index outside the source table.
  void append(const ColumnsView& view);
  /// Appends rows `rows` of `view`, in that order, interning each source
  /// string once at its first use.
  void append(const ColumnsView& view, const std::vector<std::size_t>& rows);

  /// Moves every row along the clock by `offset`: the time column, and
  /// the source timestamps of Take and DdsWrite rows (the write/take
  /// matching key), so shifted segments still match publications.
  void shift(Duration offset);

  /// Drops the first n rows in place, keeping the string table, unless
  /// the table would hold more strings than rows remain (a stream of
  /// ever-new names): then the remaining rows are copied into a fresh
  /// table, interned in first-use order, so it stays bounded by the rows.
  void erase_front(std::size_t n);

  void reserve(std::size_t additional_events);

  std::size_t size() const { return time_.size(); }
  bool empty() const { return time_.empty(); }

  /// View over the current content. Invalidated by any append.
  ColumnsView view() const;

  /// Interns a string, returning its table index ("" is always 0).
  std::uint32_t intern(std::string_view s);

  /// Table index of an already interned string, or nullopt; never interns.
  std::optional<std::uint32_t> lookup(std::string_view s) const;

 private:
  /// This table's index of string `from` of `view`, interning it at its
  /// first use; `remap` caches the answers per source index.
  std::uint32_t intern_from(const ColumnsView& view, std::uint32_t from,
                            std::vector<std::uint32_t>& remap);

  std::vector<std::int64_t> time_;
  std::vector<std::uint64_t> arg_a_;
  std::vector<std::int64_t> arg_b_;
  std::vector<std::int32_t> pid_;
  std::vector<std::uint32_t> arg_c_;
  std::vector<std::uint8_t> probe_;
  std::vector<std::uint8_t> type_;
  std::vector<std::uint8_t> aux_;
  std::vector<std::uint32_t> str_offsets_;  ///< string_count + 1 entries
  std::string blob_;
  struct StringHash : std::hash<std::string_view> {
    using is_transparent = void;  // find() by string_view, no copy
  };
  std::unordered_map<std::string, std::uint32_t, StringHash, std::equal_to<>>
      intern_;
};

/// Stable sort by (time, row order) that leaves time-sorted rows as they
/// are; a sorted copy re-interns its strings in first-use order, the
/// table packing the sorted events would give. Returns true when the
/// rows were already sorted.
bool sort_by_time(EventColumns& columns);

/// Reconstructs one TraceEvent from columnar storage, validating every
/// enum-bearing and string-index field (throws std::invalid_argument on
/// corrupt data, std::out_of_range on a bad row index).
TraceEvent materialize_event(const ColumnsView& view, std::size_t i);

/// Reconstructs the whole view in row order.
EventVector materialize(const ColumnsView& view);

/// O(n) structural validation: probe/type/enum ranges and string indices.
/// Throws std::invalid_argument naming the first offending row. Used when
/// opening untrusted .ttb files so later scans can skip per-row checks.
void validate_columns(const ColumnsView& view);

}  // namespace tetra::trace
