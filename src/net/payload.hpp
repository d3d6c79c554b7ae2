// Immutable, refcounted payload buffer.
//
// A packet's payload bytes used to live in a std::vector that was deep-copied
// at every fabric hop closure, every retransmission-queue entry and every
// delivery — for a 4 KB segment that is kilobytes of memcpy plus a heap
// allocation per copy. PayloadRef shares one immutable buffer instead: a copy
// is a refcount bump. The bytes are never mutated in place; the fabric's
// fault injection goes through corrupted(), which copies-on-write (corruption
// is rare, copies per transmission are not).
//
// No checksum is computed over the bytes: the fault that changes them also
// sets Packet::corrupt_marker, and that marker is the receiver's CRC verdict.
#pragma once

#include <algorithm>
#include <cstdint>
#include <initializer_list>
#include <memory>
#include <span>
#include <vector>

namespace sanfault::net {

class PayloadRef {
 public:
  PayloadRef() = default;
  PayloadRef(std::vector<std::uint8_t> bytes)  // NOLINT(google-explicit-constructor)
      : buf_(bytes.empty() ? nullptr
                           : std::make_shared<const Bytes>(std::move(bytes))) {}
  PayloadRef(std::initializer_list<std::uint8_t> bytes)
      : PayloadRef(std::vector<std::uint8_t>(bytes)) {}

  [[nodiscard]] std::size_t size() const { return buf_ ? buf_->size() : 0; }
  [[nodiscard]] bool empty() const { return size() == 0; }
  [[nodiscard]] const std::uint8_t* data() const {
    return buf_ ? buf_->data() : nullptr;
  }
  [[nodiscard]] const std::uint8_t* begin() const { return data(); }
  [[nodiscard]] const std::uint8_t* end() const { return data() + size(); }

  operator std::span<const std::uint8_t>() const {  // NOLINT(google-explicit-constructor)
    return {data(), size()};
  }
  [[nodiscard]] std::span<const std::uint8_t> span() const { return *this; }

  // Vector-flavored builders, so call sites composing payloads stay idiomatic.
  void assign(std::size_t n, std::uint8_t value) {
    buf_ = n == 0 ? nullptr : std::make_shared<const Bytes>(n, value);
  }
  template <class It>
  void assign(It first, It last) {
    buf_ = first == last ? nullptr : std::make_shared<const Bytes>(first, last);
  }
  void clear() { buf_.reset(); }

  /// Deep copy into a fresh mutable vector.
  [[nodiscard]] std::vector<std::uint8_t> to_vector() const {
    return {begin(), end()};
  }

  /// A new payload sharing nothing with this one, with byte `i` XORed by
  /// `mask` — the fault injector's copy-on-write path. This payload, which a
  /// sender's retransmission queue may still hold, keeps its bytes.
  ///
  /// A caller that puts the copy on the wire must also set
  /// Packet::corrupt_marker: the receiving NIC's CRC check reads the marker
  /// and nothing else. The same holds for any fault that changes a packet on
  /// the wire, whether payload, header or route.
  [[nodiscard]] PayloadRef corrupted(std::size_t i, std::uint8_t mask) const {
    std::vector<std::uint8_t> copy(begin(), end());
    copy[i] ^= mask;
    return PayloadRef(std::move(copy));
  }

  friend bool operator==(const PayloadRef& a, const PayloadRef& b) {
    return a.buf_ == b.buf_ ||
           std::equal(a.begin(), a.end(), b.begin(), b.end());
  }
  friend bool operator==(const PayloadRef& a,
                         const std::vector<std::uint8_t>& b) {
    return std::equal(a.begin(), a.end(), b.begin(), b.end());
  }

 private:
  using Bytes = std::vector<std::uint8_t>;
  std::shared_ptr<const Bytes> buf_;
};

}  // namespace sanfault::net
