#include "vmmc/endpoint.hpp"

#include <algorithm>
#include <string>

namespace sanfault::vmmc {

namespace {
// UserHeader word layout (the firmware/fabric never look inside):
//   w0: [63..56] kind | [55] last-segment flag | [31..0] export id
//   w1: byte offset of this segment in the export
//   w2: sender tag (import protocol: nonce)
//   w3: total message length (import protocol: granted size)
constexpr std::uint64_t kKindShift = 56;
constexpr std::uint64_t kLastBit = 1ull << 55;
}  // namespace

Endpoint::Endpoint(sim::Scheduler& sched, nic::Nic& nic)
    : sched_(sched), nic_(nic) {
  nic_.set_host_rx(
      [this](net::UserHeader u, net::PayloadRef p, net::HostId src) {
        on_host_rx(u, std::move(p), src);
      });

  obs::Registry& reg = obs::Registry::of(sched_);
  const std::string node = "{node=" + std::to_string(nic_.self().v) + "}";
  reg.add_collector(this, [this, &reg, node] {
    const EndpointStats& s = stats_;
    reg.counter("vmmc.sends" + node, "messages").set(s.sends);
    reg.counter("vmmc.segments_tx" + node, "segments").set(s.segments_tx);
    reg.counter("vmmc.bytes_tx" + node, "bytes").set(s.bytes_tx);
    reg.counter("vmmc.deposits_rx" + node, "messages").set(s.deposits_rx);
    reg.counter("vmmc.segments_rx" + node, "segments").set(s.segments_rx);
    reg.counter("vmmc.bytes_rx" + node, "bytes").set(s.bytes_rx);
    reg.counter("vmmc.rejected_rx" + node, "segments").set(s.rejected_rx);
    reg.counter("vmmc.imports_ok" + node, "imports").set(s.imports_ok);
    reg.counter("vmmc.imports_denied" + node, "imports")
        .set(s.imports_denied);
  });
}

Endpoint::~Endpoint() {
  if (auto* r = obs::Registry::find(sched_)) r->remove_collectors(this);
}

net::UserHeader Endpoint::encode(Kind kind, ExportId exp, bool last,
                                 std::uint64_t offset, std::uint64_t tag,
                                 std::uint64_t total) {
  net::UserHeader u;
  u.w0 = (static_cast<std::uint64_t>(kind) << kKindShift) |
         (last ? kLastBit : 0) | exp;
  u.w1 = offset;
  u.w2 = tag;
  u.w3 = total;
  return u;
}

ExportId Endpoint::export_buffer(std::size_t bytes) {
  exports_.push_back(ExportRec{sim::ZeroPages(bytes),
                               std::make_unique<sim::Channel<DepositEvent>>()});
  return static_cast<ExportId>(exports_.size());
}

std::span<const std::uint8_t> Endpoint::buffer(ExportId id) const {
  return exports_.at(id - 1).data.span();
}

std::span<std::uint8_t> Endpoint::buffer_mut(ExportId id) {
  return exports_.at(id - 1).data.span();
}

sim::Channel<DepositEvent>& Endpoint::notifications(ExportId id) {
  return *exports_.at(id - 1).notify;
}

sim::Task<std::optional<Endpoint::Import>> Endpoint::import(net::HostId remote,
                                                            ExportId exp) {
  const std::uint64_t nonce = next_nonce_++;
  decltype(imports_)::Slot grant(imports_, nonce);

  nic::SendRequest req;
  req.dst = remote;
  req.user = encode(Kind::kImportReq, exp, true, 0, nonce, 0);
  nic_.host_submit(std::move(req));

  co_await grant.wait(sched_);
  const std::optional<std::size_t> size = grant.reply();
  if (!size) {
    ++stats_.imports_denied;
    co_return std::nullopt;
  }
  ++stats_.imports_ok;
  co_return Import{remote, exp, *size};
}

sim::Task<void> Endpoint::send(Import imp, std::size_t offset,
                               std::vector<std::uint8_t> data,
                               std::uint64_t tag) {
  ++stats_.sends;
  const std::size_t seg = nic_.costs().buffer_bytes;
  const std::size_t total = data.size();
  std::size_t pos = 0;
  do {
    const std::size_t n = std::min(seg, total - pos);
    const bool last = (pos + n >= total);
    nic::SendRequest req;
    req.dst = imp.remote;
    req.user = encode(Kind::kDeposit, imp.exp, last, offset + pos, tag, total);
    if (n == total) {
      req.payload = std::move(data);  // one segment: hand the buffer over
    } else {
      req.payload.assign(data.begin() + static_cast<std::ptrdiff_t>(pos),
                         data.begin() + static_cast<std::ptrdiff_t>(pos + n));
    }
    ++stats_.segments_tx;
    stats_.bytes_tx += n;

    sim::Trigger accepted;
    nic_.host_submit(std::move(req),
                     [this, &accepted] { accepted.fire(sched_); });
    co_await accepted.wait(sched_);
    pos += n;
  } while (pos < total);
}

void Endpoint::on_host_rx(net::UserHeader u, net::PayloadRef payload,
                          net::HostId src) {
  const auto kind = static_cast<Kind>(u.w0 >> kKindShift);
  switch (kind) {
    case Kind::kDeposit:
      handle_deposit(u, std::move(payload), src);
      return;
    case Kind::kImportReq: {
      const auto exp = static_cast<ExportId>(u.w0 & 0xFFFFFFFFull);
      const ExportRec* rec = find_export(exp);
      nic::SendRequest resp;
      resp.dst = src;
      const std::uint64_t size = rec == nullptr ? 0 : rec->data.span().size();
      resp.user = encode(Kind::kImportResp, exp, true, 0, /*tag=*/u.w2, size);
      // Grant iff the export exists; size 0 doubles as the denial marker
      // (VMMC exports are always non-empty).
      resp.user.w1 = rec != nullptr ? 1 : 0;
      nic_.host_submit(std::move(resp));
      return;
    }
    case Kind::kImportResp:
      // A duplicate or stale response is dropped.
      imports_.deliver(sched_, u.w2,
                       u.w1 != 0 ? std::optional<std::size_t>(u.w3)
                                 : std::nullopt);
      return;
    default:
      ++stats_.rejected_rx;
      return;
  }
}

void Endpoint::handle_deposit(net::UserHeader u,
                              const net::PayloadRef& payload,
                              net::HostId src) {
  const auto exp = static_cast<ExportId>(u.w0 & 0xFFFFFFFFull);
  ExportRec* rec = find_export(exp);
  if (rec == nullptr) {
    ++stats_.rejected_rx;
    return;
  }
  const std::span<std::uint8_t> buf = rec->data.span();
  const std::uint64_t offset = u.w1;
  const bool last = (u.w0 & kLastBit) != 0;
  // The segment must lie inside the export, and so must a last segment's
  // message, which readers take as the `total` bytes ending where the
  // segment ends. Written so that no header value wraps a sum.
  if (offset > buf.size() || payload.size() > buf.size() - offset ||
      (last && u.w3 > offset + payload.size())) {
    ++stats_.rejected_rx;  // protection violation: out of exported bounds
    return;
  }
  std::copy(payload.begin(), payload.end(), buf.data() + offset);
  ++stats_.segments_rx;
  stats_.bytes_rx += payload.size();

  if (last) {
    ++stats_.deposits_rx;
    DepositEvent ev;
    ev.at = sched_.now();
    ev.src = src;
    ev.exp = exp;
    ev.length = u.w3;
    ev.offset = offset + payload.size() - u.w3;
    ev.tag = u.w2;
    rec->notify->push(sched_, ev);
  }
}

}  // namespace sanfault::vmmc
