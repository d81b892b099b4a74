// Byte-exact serialization helpers for the durable-run journal (src/run).
// Values are encoded little-endian; doubles are encoded as their IEEE-754
// bit pattern, so a round trip reproduces every value bit for bit — the
// journal's replay-equals-recompute contract depends on it.
//
// ByteReader never throws on malformed input: every accessor checks the
// remaining length, and a failed read latches ok() == false and returns a
// zero value.  Callers validate the record checksum first and treat a
// !ok() reader as corruption, not a crash.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>
#include <vector>

namespace poc {

/// CRC-64/XZ (ECMA-182 polynomial, reflected) over a byte range.  Used as
/// the per-record journal checksum: strong enough to catch truncation and
/// bit flips, cheap enough to run on every append.
std::uint64_t crc64(const std::uint8_t* data, std::size_t size);
inline std::uint64_t crc64(const std::vector<std::uint8_t>& bytes) {
  return crc64(bytes.data(), bytes.size());
}

/// Append-only little-endian encoder.
class ByteWriter {
 public:
  void u8(std::uint8_t v) { buf_.push_back(v); }
  void u32(std::uint32_t v) { append(&v, sizeof v); }
  void u64(std::uint64_t v) { append(&v, sizeof v); }
  void i64(std::int64_t v) { u64(static_cast<std::uint64_t>(v)); }
  void f64(double v) {
    std::uint64_t bits;
    std::memcpy(&bits, &v, sizeof bits);
    u64(bits);
  }
  /// Length-prefixed (u32) byte string.
  void str(std::string_view s) {
    u32(static_cast<std::uint32_t>(s.size()));
    append(s.data(), s.size());
  }
  void bytes(const std::uint8_t* data, std::size_t size) {
    append(data, size);
  }

  const std::vector<std::uint8_t>& data() const { return buf_; }
  std::vector<std::uint8_t> take() { return std::move(buf_); }
  std::size_t size() const { return buf_.size(); }

 private:
  void append(const void* p, std::size_t n) {
    const auto* b = static_cast<const std::uint8_t*>(p);
    buf_.insert(buf_.end(), b, b + n);
  }
  std::vector<std::uint8_t> buf_;
};

/// Bounds-checked little-endian decoder over a borrowed byte range.
class ByteReader {
 public:
  ByteReader(const std::uint8_t* data, std::size_t size)
      : data_(data), size_(size) {}
  explicit ByteReader(const std::vector<std::uint8_t>& bytes)
      : ByteReader(bytes.data(), bytes.size()) {}

  std::uint8_t u8() {
    std::uint8_t v = 0;
    read(&v, sizeof v);
    return v;
  }
  std::uint32_t u32() {
    std::uint32_t v = 0;
    read(&v, sizeof v);
    return v;
  }
  std::uint64_t u64() {
    std::uint64_t v = 0;
    read(&v, sizeof v);
    return v;
  }
  std::int64_t i64() { return static_cast<std::int64_t>(u64()); }
  double f64() {
    const std::uint64_t bits = u64();
    double v = 0.0;
    std::memcpy(&v, &bits, sizeof v);
    return v;
  }
  std::string str() {
    const std::uint32_t n = u32();
    if (n > remaining()) {
      ok_ = false;
      return {};
    }
    std::string s(reinterpret_cast<const char*>(data_ + pos_), n);
    pos_ += n;
    return s;
  }

  /// A u32 item count for items of at least `min_item_bytes` each.  A
  /// count the bytes left cannot hold fails the reader and reads as 0, so
  /// an untrusted count never sizes an allocation or a loop.
  std::uint32_t count(std::size_t min_item_bytes) {
    const std::uint32_t n = u32();
    if (n > remaining() / min_item_bytes) {
      ok_ = false;
      return 0;
    }
    return n;
  }

  std::size_t remaining() const { return size_ - pos_; }
  /// False once any read ran past the end; all later reads return zeros.
  bool ok() const { return ok_; }
  /// ok() and fully consumed — the strict success test for a payload.
  bool done() const { return ok_ && pos_ == size_; }

 private:
  void read(void* out, std::size_t n) {
    if (!ok_ || n > remaining()) {
      ok_ = false;
      return;
    }
    std::memcpy(out, data_ + pos_, n);
    pos_ += n;
  }
  const std::uint8_t* data_;
  std::size_t size_;
  std::size_t pos_ = 0;
  bool ok_ = true;
};

}  // namespace poc
