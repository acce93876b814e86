// Bounds-checked big-endian byte readers/writers used by all wire codecs.
// Network byte order (big endian) is the default; pcap headers use the
// explicit *Le variants.
#pragma once

#include <cstdint>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

namespace sentinel::net {

/// Error thrown when a codec reads past the end of a buffer or encounters a
/// structurally invalid message.
class CodecError : public std::runtime_error {
 public:
  explicit CodecError(const std::string& what) : std::runtime_error(what) {}
};

/// Appends integers and byte ranges to a growable buffer in network order.
class ByteWriter {
 public:
  ByteWriter() = default;
  explicit ByteWriter(std::size_t reserve) { buffer_.reserve(reserve); }

  void WriteU8(std::uint8_t v) { buffer_.push_back(v); }
  void WriteU16(std::uint16_t v) {
    buffer_.push_back(static_cast<std::uint8_t>(v >> 8));
    buffer_.push_back(static_cast<std::uint8_t>(v));
  }
  void WriteU32(std::uint32_t v) {
    WriteU16(static_cast<std::uint16_t>(v >> 16));
    WriteU16(static_cast<std::uint16_t>(v));
  }
  void WriteU64(std::uint64_t v) {
    WriteU32(static_cast<std::uint32_t>(v >> 32));
    WriteU32(static_cast<std::uint32_t>(v));
  }
  void WriteU16Le(std::uint16_t v) {
    buffer_.push_back(static_cast<std::uint8_t>(v));
    buffer_.push_back(static_cast<std::uint8_t>(v >> 8));
  }
  void WriteU32Le(std::uint32_t v) {
    WriteU16Le(static_cast<std::uint16_t>(v));
    WriteU16Le(static_cast<std::uint16_t>(v >> 16));
  }
  void WriteBytes(std::span<const std::uint8_t> bytes) {
    buffer_.insert(buffer_.end(), bytes.begin(), bytes.end());
  }
  void WriteString(std::string_view s) {
    buffer_.insert(buffer_.end(), s.begin(), s.end());
  }
  void WriteZeros(std::size_t count) {
    buffer_.insert(buffer_.end(), count, std::uint8_t{0});
  }

  /// Overwrites two bytes at `offset` (for length/checksum backpatching).
  void PatchU16(std::size_t offset, std::uint16_t v) {
    if (offset + 2 > buffer_.size()) throw CodecError("PatchU16 out of range");
    buffer_[offset] = static_cast<std::uint8_t>(v >> 8);
    buffer_[offset + 1] = static_cast<std::uint8_t>(v);
  }

  [[nodiscard]] std::size_t size() const { return buffer_.size(); }
  [[nodiscard]] std::span<const std::uint8_t> bytes() const { return buffer_; }
  [[nodiscard]] std::vector<std::uint8_t> Take() && {
    return std::move(buffer_);
  }

 private:
  std::vector<std::uint8_t> buffer_;
};

/// Sequential reader over a fixed byte span; every access is bounds-checked
/// and throws CodecError on overrun so malformed frames cannot cause UB.
class ByteReader {
 public:
  explicit ByteReader(std::span<const std::uint8_t> data) : data_(data) {}

  [[nodiscard]] std::size_t remaining() const { return data_.size() - pos_; }
  [[nodiscard]] std::size_t position() const { return pos_; }
  [[nodiscard]] bool AtEnd() const { return pos_ == data_.size(); }

  std::uint8_t ReadU8() {
    Require(1);
    return data_[pos_++];
  }
  std::uint16_t ReadU16() {
    Require(2);
    const std::uint16_t v = static_cast<std::uint16_t>(
        (std::uint16_t{data_[pos_]} << 8) | data_[pos_ + 1]);
    pos_ += 2;
    return v;
  }
  std::uint32_t ReadU32() {
    const std::uint32_t hi = ReadU16();
    return (hi << 16) | ReadU16();
  }
  std::uint64_t ReadU64() {
    const std::uint64_t hi = ReadU32();
    return (hi << 32) | ReadU32();
  }
  std::uint16_t ReadU16Le() {
    Require(2);
    const std::uint16_t v = static_cast<std::uint16_t>(
        std::uint16_t{data_[pos_]} | (std::uint16_t{data_[pos_ + 1]} << 8));
    pos_ += 2;
    return v;
  }
  std::uint32_t ReadU32Le() {
    const std::uint32_t lo = ReadU16Le();
    return lo | (std::uint32_t{ReadU16Le()} << 16);
  }
  std::span<const std::uint8_t> ReadBytes(std::size_t count) {
    Require(count);
    auto out = data_.subspan(pos_, count);
    pos_ += count;
    return out;
  }
  void Skip(std::size_t count) {
    Require(count);
    pos_ += count;
  }
  /// Reads a u32 element count, rejecting it when that many elements of at
  /// least `min_element_bytes` each could not fit in the bytes left — so an
  /// untrusted count cannot size an allocation before any element is read.
  std::uint32_t ReadCount(std::size_t min_element_bytes) {
    const std::uint32_t count = ReadU32();
    if (count > remaining() / min_element_bytes)
      throw CodecError("count " + std::to_string(count) + " of >= " +
                       std::to_string(min_element_bytes) +
                       "-byte elements exceeds the " +
                       std::to_string(remaining()) + " bytes left");
    return count;
  }
  /// Peeks without consuming.
  [[nodiscard]] std::uint8_t PeekU8() const {
    if (remaining() < 1) throw CodecError("peek past end");
    return data_[pos_];
  }
  /// Remaining bytes as a span (not consumed).
  [[nodiscard]] std::span<const std::uint8_t> rest() const {
    return data_.subspan(pos_);
  }

 private:
  void Require(std::size_t count) const {
    if (remaining() < count)
      throw CodecError("read past end of buffer (need " +
                       std::to_string(count) + ", have " +
                       std::to_string(remaining()) + ")");
  }

  std::span<const std::uint8_t> data_;
  std::size_t pos_ = 0;
};

}  // namespace sentinel::net
