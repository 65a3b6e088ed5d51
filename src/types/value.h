#ifndef SEQ_TYPES_VALUE_H_
#define SEQ_TYPES_VALUE_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>

#include "common/logging.h"

namespace seq {

/// The atomic attribute types of the record model (paper §2: "indivisible
/// atomic types of fixed size"). Strings are included for names/labels in
/// the motivating workloads and are treated as atomic.
enum class TypeId : uint8_t {
  kInt64 = 0,
  kDouble = 1,
  kBool = 2,
  kString = 3,
};

/// Stable name for a type ("int64", "double", "bool", "string").
const char* TypeName(TypeId type);

/// True for kInt64 and kDouble.
bool IsNumeric(TypeId type);

/// A single attribute value. Values are small, copyable, and totally
/// ordered within compatible types; int64 and double compare numerically
/// against each other.
///
/// Layout (16 bytes): bytes 0-13 hold the payload, byte 14 the inline
/// string length (or kHeapLen), byte 15 the TypeId. int64, double and bool
/// use the first 8 payload bytes. Strings of up to kInlineCapacity bytes
/// live inline, so copying one is a 16-byte memcpy with no allocation;
/// longer strings live in one immutable heap block with an atomic
/// reference count, shared by every copy of the value.
class Value {
 public:
  /// Longest string stored inline.
  static constexpr size_t kInlineCapacity = 14;

  /// Default: int64 zero. Needed for container resizing; never produced by
  /// the engine otherwise.
  Value() noexcept { std::memset(raw_, 0, sizeof(raw_)); }

  static Value Int64(int64_t v) { return Value(TypeId::kInt64, &v); }
  static Value Double(double v) { return Value(TypeId::kDouble, &v); }
  static Value Bool(bool v) {
    uint8_t b = v ? 1 : 0;
    return Value(TypeId::kBool, &b);
  }
  static Value String(std::string_view s);

  Value(const Value& other) noexcept {
    std::memcpy(raw_, other.raw_, sizeof(raw_));
    if (is_heap()) heap()->refs.fetch_add(1, std::memory_order_relaxed);
  }
  Value(Value&& other) noexcept {
    std::memcpy(raw_, other.raw_, sizeof(raw_));
    if (is_heap()) std::memset(other.raw_, 0, sizeof(other.raw_));
  }
  Value& operator=(const Value& other) noexcept {
    if (other.is_heap()) {
      // Retain before releasing: `other` may be a copy sharing our block.
      other.heap()->refs.fetch_add(1, std::memory_order_relaxed);
    }
    if (is_heap()) Release();
    std::memcpy(raw_, other.raw_, sizeof(raw_));
    return *this;
  }
  Value& operator=(Value&& other) noexcept {
    if (this != &other) {
      if (is_heap()) Release();
      std::memcpy(raw_, other.raw_, sizeof(raw_));
      if (is_heap()) std::memset(other.raw_, 0, sizeof(other.raw_));
    }
    return *this;
  }
  ~Value() {
    if (is_heap()) Release();
  }

  TypeId type() const { return static_cast<TypeId>(raw_[kTypeByte]); }

  int64_t int64() const {
    SEQ_DCHECK(type() == TypeId::kInt64);
    return Payload<int64_t>();
  }
  double dbl() const {
    SEQ_DCHECK(type() == TypeId::kDouble);
    return Payload<double>();
  }
  bool boolean() const {
    SEQ_DCHECK(type() == TypeId::kBool);
    return raw_[0] != 0;
  }
  /// The string's bytes, valid while this value (or a copy sharing its heap
  /// block) is alive and unassigned. The engine's hot paths use this.
  std::string_view str_view() const {
    SEQ_DCHECK(type() == TypeId::kString);
    if (is_heap()) {
      const HeapString* h = heap();
      return std::string_view(h->data(), h->size);
    }
    return std::string_view(reinterpret_cast<const char*>(raw_),
                            raw_[kLenByte]);
  }
  /// An owned copy of the string.
  std::string str() const { return std::string(str_view()); }

  /// Numeric value as double; requires a numeric type.
  double AsDouble() const {
    switch (type()) {
      case TypeId::kInt64:
        return static_cast<double>(Payload<int64_t>());
      case TypeId::kDouble:
        return Payload<double>();
      default:
        SEQ_CHECK_MSG(false, "AsDouble on non-numeric value");
    }
  }

  /// Three-way comparison: negative / zero / positive. Numeric types
  /// compare across int64/double; otherwise both values must share a type.
  int Compare(const Value& other) const;

  bool operator==(const Value& other) const { return Compare(other) == 0; }
  bool operator!=(const Value& other) const { return Compare(other) != 0; }
  bool operator<(const Value& other) const { return Compare(other) < 0; }

  /// Hash suitable for unordered containers; numeric values that compare
  /// equal hash equal, and a string hashes as std::hash<std::string>.
  size_t Hash() const;

  std::string ToString() const;

  /// Heap bytes this value owns (a shared block counts in full for every
  /// copy): 0 for everything but strings longer than kInlineCapacity.
  size_t HeapBytes() const {
    return is_heap() ? sizeof(HeapString) + heap()->size : 0;
  }

 private:
  /// Header of a long string's heap block; the bytes follow it.
  struct HeapString {
    std::atomic<size_t> refs;
    size_t size;
    const char* data() const { return reinterpret_cast<const char*>(this + 1); }
  };

  static constexpr size_t kLenByte = 14;
  static constexpr size_t kTypeByte = 15;
  static constexpr uint8_t kHeapLen = 0xFF;

  Value(TypeId type, const void* payload) noexcept {
    std::memset(raw_, 0, sizeof(raw_));
    std::memcpy(raw_, payload,
                type == TypeId::kBool ? sizeof(uint8_t) : sizeof(int64_t));
    raw_[kTypeByte] = static_cast<uint8_t>(type);
  }

  template <typename T>
  T Payload() const {
    T v;
    std::memcpy(&v, raw_, sizeof(T));
    return v;
  }
  bool is_heap() const { return raw_[kLenByte] == kHeapLen; }
  HeapString* heap() const { return Payload<HeapString*>(); }
  void Release() noexcept;

  alignas(8) uint8_t raw_[16];
};

static_assert(sizeof(Value) == 16, "Value must stay 16 bytes");

}  // namespace seq

#endif  // SEQ_TYPES_VALUE_H_
