#include "vmmc/rpc.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>

namespace sanfault::vmmc {

MsgEndpoint::MsgEndpoint(sim::Scheduler& sched, Endpoint& ep,
                         std::size_t per_peer_bytes, std::size_t max_peers)
    : sched_(sched), ep_(ep), per_peer_(per_peer_bytes) {
  if (ep_.export_inbox(per_peer_bytes * max_peers) != kRingExport) {
    throw std::logic_error(
        "MsgEndpoint must own the first export of its Endpoint");
  }
  pump();

  obs::Registry& reg = obs::Registry::of(sched_);
  const std::string node = "{node=" + std::to_string(ep_.host().v) + "}";
  reg.add_collector(this, [this, &reg, node] {
    const MsgEndpointStats& s = stats_;
    reg.counter("vmmc.msg_tx" + node, "messages").set(s.msgs_tx);
    reg.counter("vmmc.msg_rx" + node, "messages").set(s.msgs_rx);
    reg.counter("vmmc.msg_bytes_tx" + node, "bytes").set(s.bytes_tx);
    reg.counter("vmmc.msg_bytes_rx" + node, "bytes").set(s.bytes_rx);
    reg.counter("vmmc.msg_connects" + node, "imports").set(s.connects);
  });
}

MsgEndpoint::~MsgEndpoint() {
  if (auto* r = obs::Registry::find(sched_)) r->remove_collectors(this);
}

sim::Task<bool> MsgEndpoint::connect(net::HostId remote) {
  auto imp = co_await ep_.import(remote, kRingExport);
  // write() puts our messages at self * per_peer: a ring that ends before
  // our partition does would reject every one of them.
  const std::size_t end = (ep_.host().v + std::size_t{1}) * per_peer_;
  if (!imp.has_value() || imp->size < end) co_return false;
  if (remote.v >= peers_.size()) peers_.resize(remote.v + 1);
  peers_[remote.v] = Peer{*imp, 0};
  ++stats_.connects;
  co_return true;
}

sim::Task<void> MsgEndpoint::post(net::HostId remote,
                                  std::vector<std::uint8_t> bytes,
                                  std::uint64_t tag) {
  if (!connected(remote)) {
    throw std::logic_error("MsgEndpoint::post() before connect() to host " +
                           std::to_string(remote.v));
  }
  if (bytes.size() > per_peer_) {
    throw std::length_error("MsgEndpoint::post(): " +
                            std::to_string(bytes.size()) +
                            " B message exceeds the " +
                            std::to_string(per_peer_) + " B ring partition");
  }
  return write(*peers_[remote.v], std::move(bytes), tag);
}

sim::Task<void> MsgEndpoint::write(Peer& p, std::vector<std::uint8_t> bytes,
                                   std::uint64_t tag) {
  // Our partition of the remote ring starts at self * per_peer. Messages are
  // laid out sequentially; one that would cross the partition end wraps to
  // its start instead (messages are never split across the wrap).
  const std::size_t base = static_cast<std::size_t>(ep_.host().v) * per_peer_;
  if (p.next_off + bytes.size() > per_peer_) p.next_off = 0;
  const std::size_t off = base + p.next_off;
  p.next_off += bytes.size();

  ++stats_.msgs_tx;
  stats_.bytes_tx += bytes.size();
  co_await ep_.send(p.imp, off, std::move(bytes), tag);
}

sim::Process MsgEndpoint::pump() {
  for (;;) {
    Msg m = co_await ep_.inbox(kRingExport).pop(sched_);
    ++stats_.msgs_rx;
    stats_.bytes_rx += m.bytes.size();
    if (std::none_of(taps_.begin(), taps_.end(),
                     [&m](const Tap& t) { return t(m); })) {
      inbox_.push(sched_, std::move(m));
    }
  }
}

}  // namespace sanfault::vmmc
