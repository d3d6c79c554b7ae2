// Source routes, Myrinet-style.
//
// A route is the sequence of output-port numbers the packet's header carries;
// each crossbar switch on the path consumes one byte and forwards the packet
// out that port. Hosts consume nothing — a packet arriving at a host with
// unconsumed route bytes was misrouted.
#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <initializer_list>
#include <iterator>
#include <stdexcept>
#include <string>
#include <vector>

namespace sanfault::net {

/// Fixed-capacity inline port list: the route bytes a packet carries and the
/// entry ports it records hop by hop (Packet::in_ports). A packet crosses at
/// most as many switches as its route is long — the network diameter (<= 5
/// in every topology this repo models) for table routes, 2·max_depth + 1 for
/// the on-demand mapper's probes (OnDemandMapper rejects a max_depth whose
/// probes would not fit) — so the list fits in one 16-byte word and copying a
/// Route or a Packet never allocates. Overflow throws: a route longer than
/// the capacity is a modeling bug, not a degradation to tolerate silently.
class PortList {
 public:
  static constexpr std::size_t kCapacity = 15;

  using value_type = std::uint8_t;
  using iterator = std::uint8_t*;
  using const_iterator = const std::uint8_t*;
  using const_reverse_iterator = std::reverse_iterator<const_iterator>;

  PortList() = default;
  PortList(std::initializer_list<std::uint8_t> ports) {
    append(ports.begin(), ports.end());
  }

  void push_back(std::uint8_t port) {
    if (size_ == kCapacity) {
      throw std::length_error("PortList overflow (route deeper than " +
                              std::to_string(kCapacity) + " hops)");
    }
    v_[size_++] = port;
  }
  /// Append [first, last) at the end.
  template <class It>
  void append(It first, It last) {
    for (; first != last; ++first) push_back(*first);
  }
  /// Replace the contents with [first, last).
  template <class It>
  void assign(It first, It last) {
    clear();
    append(first, last);
  }
  void clear() { size_ = 0; }

  [[nodiscard]] std::size_t size() const { return size_; }
  [[nodiscard]] bool empty() const { return size_ == 0; }
  std::uint8_t& operator[](std::size_t i) { return v_[i]; }
  std::uint8_t operator[](std::size_t i) const { return v_[i]; }

  [[nodiscard]] iterator begin() { return v_.data(); }
  [[nodiscard]] iterator end() { return v_.data() + size_; }
  [[nodiscard]] const_iterator begin() const { return v_.data(); }
  [[nodiscard]] const_iterator end() const { return v_.data() + size_; }
  [[nodiscard]] const_reverse_iterator rbegin() const {
    return const_reverse_iterator(end());
  }
  [[nodiscard]] const_reverse_iterator rend() const {
    return const_reverse_iterator(begin());
  }

  friend bool operator==(const PortList& a, const PortList& b) {
    return std::equal(a.begin(), a.end(), b.begin(), b.end());
  }
  friend bool operator==(const PortList& a, const std::vector<std::uint8_t>& b) {
    return std::equal(a.begin(), a.end(), b.begin(), b.end());
  }

 private:
  std::uint8_t size_ = 0;
  std::array<std::uint8_t, kCapacity> v_{};
};

struct Route {
  PortList ports;

  [[nodiscard]] std::size_t hops() const { return ports.size(); }
  [[nodiscard]] bool empty() const { return ports.empty(); }
  /// Bytes this route occupies in the packet header on the wire.
  [[nodiscard]] std::size_t wire_bytes() const { return ports.size(); }

  bool operator==(const Route&) const = default;

  [[nodiscard]] std::string str() const {
    std::string s = "[";
    for (std::size_t i = 0; i < ports.size(); ++i) {
      if (i) s += ',';
      s += std::to_string(static_cast<int>(ports[i]));
    }
    return s + "]";
  }
};

}  // namespace sanfault::net
