// Immutable, refcounted payload buffer with a memoized CRC.
//
// A packet's payload bytes used to live in a std::vector that was deep-copied
// at every fabric hop closure, every retransmission-queue entry and every
// delivery — for a 4 KB segment that is kilobytes of memcpy plus a heap
// allocation per copy. PayloadRef shares one immutable buffer instead: a copy
// is a refcount bump. The bytes are never mutated in place; the fabric's
// fault injection goes through corrupted(), which copies-on-write (corruption
// is rare, copies per transmission are not).
//
// Because the bytes never change, the buffer also keeps their CRC-32: crc()
// computes it from the bytes on first use, and injection, every
// retransmission and both receive-side checks then read the kept value. A
// corrupted copy is a fresh buffer, so its CRC is computed from its own,
// corrupted bytes and the receiver's comparison still fails exactly as the
// hardware's does. A buffer belongs to one simulation (one thread); the
// memo is not synchronized.
#pragma once

#include <algorithm>
#include <cstdint>
#include <initializer_list>
#include <memory>
#include <span>
#include <vector>

#include "net/crc.hpp"

namespace sanfault::net {

class PayloadRef {
 public:
  PayloadRef() = default;
  PayloadRef(std::vector<std::uint8_t> bytes)  // NOLINT(google-explicit-constructor)
      : buf_(bytes.empty() ? nullptr
                           : std::make_shared<const Buffer>(std::move(bytes))) {}
  PayloadRef(std::initializer_list<std::uint8_t> bytes)
      : PayloadRef(std::vector<std::uint8_t>(bytes)) {}

  [[nodiscard]] std::size_t size() const { return buf_ ? buf_->bytes.size() : 0; }
  [[nodiscard]] bool empty() const { return size() == 0; }
  [[nodiscard]] const std::uint8_t* data() const {
    return buf_ ? buf_->bytes.data() : nullptr;
  }
  [[nodiscard]] const std::uint8_t* begin() const { return data(); }
  [[nodiscard]] const std::uint8_t* end() const { return data() + size(); }
  std::uint8_t operator[](std::size_t i) const { return buf_->bytes[i]; }

  operator std::span<const std::uint8_t>() const {  // NOLINT(google-explicit-constructor)
    return {data(), size()};
  }
  [[nodiscard]] std::span<const std::uint8_t> span() const { return *this; }

  /// CRC-32 of the bytes (net::crc32), computed on the first call and kept
  /// in the shared buffer, so every copy of this payload reports it free.
  [[nodiscard]] std::uint32_t crc() const {
    if (!buf_) return 0;  // the CRC-32 of no bytes
    if (!buf_->crc_known) {
      buf_->crc = crc32(buf_->bytes);
      buf_->crc_known = true;
    }
    return buf_->crc;
  }

  // Vector-flavored builders, so call sites composing payloads stay idiomatic.
  void assign(std::size_t n, std::uint8_t value) {
    buf_ = n == 0 ? nullptr
                  : std::make_shared<const Buffer>(
                        std::vector<std::uint8_t>(n, value));
  }
  template <class It>
  void assign(It first, It last) {
    buf_ = first == last ? nullptr
                         : std::make_shared<const Buffer>(
                               std::vector<std::uint8_t>(first, last));
  }
  void clear() { buf_.reset(); }

  /// Deep copy into a fresh mutable vector.
  [[nodiscard]] std::vector<std::uint8_t> to_vector() const {
    return {begin(), end()};
  }

  /// A new payload sharing nothing with this one, with byte `i` XORed by
  /// `mask` — the fault injector's copy-on-write path. The copy starts
  /// without a CRC; this payload's kept CRC is untouched.
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
  struct Buffer {
    explicit Buffer(std::vector<std::uint8_t> b) : bytes(std::move(b)) {}
    const std::vector<std::uint8_t> bytes;
    mutable std::uint32_t crc = 0;
    mutable bool crc_known = false;
  };
  std::shared_ptr<const Buffer> buf_;
};

}  // namespace sanfault::net
