// Little-endian byte codec for the service messages that ride MsgEndpoint
// (src/kv, src/membership).
//
// Writer, Reader and Sizer are archives: a message lists its fields once, in
// wire order, and that one list drives encoding, decoding and sizing —
//
//   struct ReplAck {
//     static constexpr MsgType kType = MsgType::kReplAck;  // leading byte
//     std::uint64_t repl_seq = 0;
//     template <class Ar> void fields(Ar& ar) { ar(repl_seq); }
//   };
//
// A field is an unsigned integer (written little-endian at its width), an
// enum (written as its underlying integer), a std::vector<std::uint8_t>
// (a u32 length, then the bytes) or a struct with its own fields() list.
// encode() sizes the message first, so each encoding is one exact-size
// allocation; decode<M>() reads any byte span in place (a vmmc::Msg's
// shared buffer, say) and rejects a wrong type byte and any truncation.
// Messages whose shape is not a fixed field list (SWIM's update list) drive
// Writer and Reader directly.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <type_traits>
#include <utility>
#include <vector>

namespace sanfault::vmmc {

namespace codec_detail {

template <class T>
inline constexpr bool kIsBytes = std::is_same_v<T, std::vector<std::uint8_t>>;

/// Visits a const record's fields: the archives that take const records
/// (Writer, Sizer) only read what they visit, so the one non-const fields()
/// list serves them too.
template <class M, class Ar>
void visit(const M& m, Ar& ar) {
  const_cast<M&>(m).fields(ar);
}

}  // namespace codec_detail

/// Sums the encoded size of the fields it visits.
class Sizer {
 public:
  template <class... Ts>
  void operator()(const Ts&... v) {
    (add(v), ...);
  }
  [[nodiscard]] std::size_t size() const { return n_; }

 private:
  template <class T>
  void add(const T& v) {
    if constexpr (std::is_enum_v<T> || std::is_unsigned_v<T>) {
      n_ += sizeof(T);
    } else if constexpr (codec_detail::kIsBytes<T>) {
      n_ += sizeof(std::uint32_t) + v.size();
    } else {
      codec_detail::visit(v, *this);
    }
  }

  std::size_t n_ = 0;
};

/// Appends the fields it visits to a buffer reserved at construction.
class Writer {
 public:
  explicit Writer(std::size_t size) { b_.reserve(size); }

  template <class... Ts>
  void operator()(const Ts&... v) {
    (put(v), ...);
  }
  [[nodiscard]] std::vector<std::uint8_t> take() { return std::move(b_); }

 private:
  template <class T>
  void put(const T& v) {
    if constexpr (std::is_enum_v<T>) {
      put(static_cast<std::underlying_type_t<T>>(v));
    } else if constexpr (std::is_unsigned_v<T>) {
      for (std::size_t i = 0; i < sizeof(T); ++i) {
        b_.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
      }
    } else if constexpr (codec_detail::kIsBytes<T>) {
      put(static_cast<std::uint32_t>(v.size()));
      b_.insert(b_.end(), v.begin(), v.end());
    } else {
      codec_detail::visit(v, *this);
    }
  }

  std::vector<std::uint8_t> b_;
};

/// Reads the fields it visits from bytes it views, which must outlive it. A
/// read past the end clears ok() and leaves that field and every later one
/// untouched.
class Reader {
 public:
  explicit Reader(std::span<const std::uint8_t> b) : b_(b) {}

  template <class... Ts>
  void operator()(Ts&... v) {
    (get(v), ...);
  }
  [[nodiscard]] bool ok() const { return ok_; }

 private:
  template <class T>
  void get(T& v) {
    if constexpr (std::is_enum_v<T>) {
      std::underlying_type_t<T> u = 0;
      get(u);
      if (ok_) v = static_cast<T>(u);
    } else if constexpr (std::is_unsigned_v<T>) {
      if (!have(sizeof(T))) return;
      T x = 0;
      for (std::size_t i = 0; i < sizeof(T); ++i) {
        x |= static_cast<T>(static_cast<T>(b_[pos_ + i]) << (8 * i));
      }
      pos_ += sizeof(T);
      v = x;
    } else if constexpr (codec_detail::kIsBytes<T>) {
      std::uint32_t n = 0;
      get(n);
      if (!have(n)) return;
      const auto first = b_.begin() + static_cast<std::ptrdiff_t>(pos_);
      v.assign(first, first + static_cast<std::ptrdiff_t>(n));
      pos_ += n;
    } else {
      v.fields(*this);
    }
  }

  bool have(std::size_t n) {
    if (ok_ && n <= b_.size() - pos_) return true;
    ok_ = false;
    return false;
  }

  std::span<const std::uint8_t> b_;
  std::size_t pos_ = 0;
  bool ok_ = true;
};

/// The type byte M::kType, then M's fields, in one exact-size buffer.
template <class M>
[[nodiscard]] std::vector<std::uint8_t> encode(const M& m) {
  Sizer s;
  codec_detail::visit(m, s);
  Writer w(sizeof(M::kType) + s.size());
  w(M::kType);
  codec_detail::visit(m, w);
  return w.take();
}

/// The M encoded in `b`, or nullopt if `b` is truncated or leads with
/// another type byte. Trailing bytes are ignored.
template <class M>
[[nodiscard]] std::optional<M> decode(std::span<const std::uint8_t> b) {
  Reader r(b);
  std::remove_const_t<decltype(M::kType)> type{};
  r(type);
  if (!r.ok() || type != M::kType) return std::nullopt;
  M m;
  m.fields(r);
  if (!r.ok()) return std::nullopt;
  return m;
}

}  // namespace sanfault::vmmc
