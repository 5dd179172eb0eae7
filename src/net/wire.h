#ifndef SUBEX_NET_WIRE_H_
#define SUBEX_NET_WIRE_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace subex {

/// Append-only little-endian byte serializer, the encoding half of the
/// wire protocol. Doubles are serialized as their IEEE-754 bit pattern, so
/// a score vector survives the network bitwise-intact — the property the
/// "served results equal in-process results" guarantee rests on.
class WireWriter {
 public:
  void PutU8(std::uint8_t v) { bytes_.push_back(v); }
  void PutU16(std::uint16_t v);
  void PutU32(std::uint32_t v);
  void PutU64(std::uint64_t v);
  void PutI32(std::int32_t v) { PutU32(static_cast<std::uint32_t>(v)); }
  void PutDouble(double v);
  /// u32 byte count + raw bytes.
  void PutString(const std::string& s);
  /// u32 element count + doubles.
  void PutDoubles(const std::vector<double>& v);

  const std::vector<std::uint8_t>& bytes() const { return bytes_; }
  std::vector<std::uint8_t> Take() { return std::move(bytes_); }

 private:
  std::vector<std::uint8_t> bytes_;
};

/// Bounds-checked little-endian reader over a received payload. Any read
/// past the end (or an implausible embedded length) trips a sticky error
/// flag and yields zero values; callers check `ok()` once after decoding a
/// whole message instead of after every field.
class WireReader {
 public:
  WireReader(const std::uint8_t* data, std::size_t size)
      : data_(data), size_(size) {}
  explicit WireReader(const std::vector<std::uint8_t>& bytes)
      : WireReader(bytes.data(), bytes.size()) {}

  std::uint8_t GetU8();
  std::uint16_t GetU16();
  std::uint32_t GetU32();
  std::uint64_t GetU64();
  std::int32_t GetI32() { return static_cast<std::int32_t>(GetU32()); }
  double GetDouble();
  std::string GetString();
  std::vector<double> GetDoubles();

  /// False once any read ran past the available bytes.
  bool ok() const { return ok_; }
  /// Bytes not yet consumed.
  std::size_t remaining() const { return size_ - pos_; }
  /// True when the payload was consumed exactly (and no read failed).
  bool AtEnd() const { return ok_ && pos_ == size_; }
  /// Trips the sticky error: the caller found a read value invalid.
  void Fail() { ok_ = false; }

 private:
  bool Take(std::size_t n, const std::uint8_t** out);

  const std::uint8_t* data_;
  std::size_t size_;
  std::size_t pos_ = 0;
  bool ok_ = true;
};

}  // namespace subex

#endif  // SUBEX_NET_WIRE_H_
