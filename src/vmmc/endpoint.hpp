// Virtual Memory-Mapped Communication (VMMC) endpoint — the user-level
// communication layer of the paper's platform (§3.2).
//
// Programming model:
//  * the receiver *exports* regions of its address space it is willing to
//    accept data into;
//  * a sender *imports* a remote exported buffer (a control-message round
//    trip validating id and size);
//  * send() deposits bytes directly into the imported remote buffer at a
//    given offset — no receiver-side software on the data path. The MCP
//    segments messages larger than the 4 KB NIC buffer. A message that fits
//    one buffer (an SVM page, say) is handed to the NIC without a host
//    copy: send() takes its bytes by value, so they are its to give;
//  * an optional notification fires at the receiver when the last segment of
//    a message lands.
//
// An export is one of two kinds:
//  * a raw export (export_buffer) is receive memory: every deposit is
//    written at its offset, and notifications() reports each complete
//    message's offset, length and tag;
//  * an inbox export (export_inbox, MsgEndpoint's ring) delivers each
//    complete message on inbox() as a Msg holding its bytes. A message that
//    arrives whole in one segment is never stored: the immutable payload
//    that carried it becomes the Msg's bytes. A longer one is assembled at
//    its offset and copied out once when its last segment lands.
//
// The endpoint is protection-checked the way VMMC is, for both kinds:
// deposits to unknown export ids, out-of-bounds offsets or out-of-bounds
// message lengths are rejected (counted, not delivered).
//
// An export is address space the OS backs on first write, as a real VMMC
// export is: anonymous private pages, each mapped to a zeroed frame when a
// deposit first lands in it, so a run pays only for the pages deposits
// write (an inbox export, only the pages its multi-segment messages
// write). The bounds check in handle_deposit is the export's only guard;
// the mapping has no redzone.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "net/ids.hpp"
#include "net/payload.hpp"
#include "nic/nic.hpp"
#include "obs/metrics.hpp"
#include "sim/awaitables.hpp"
#include "sim/scheduler.hpp"
#include "sim/task.hpp"
#include "sim/zero_pages.hpp"

namespace sanfault::vmmc {

using ExportId = std::uint32_t;

/// Receiver-side notification: a complete message landed in an export.
struct DepositEvent {
  sim::Time at = 0;
  net::HostId src;
  ExportId exp = 0;
  std::uint64_t offset = 0;  // where the message starts in the export
  std::uint64_t length = 0;  // total message length (all segments)
  std::uint64_t tag = 0;     // sender-chosen tag
};

/// A complete message delivered by an inbox export. `bytes` is immutable,
/// so a message cannot change after it is delivered, however the sender
/// reuses the export space it came through.
struct Msg {
  sim::Time at = 0;       // delivery time at the receiver
  net::HostId src;
  std::uint64_t tag = 0;  // sender-chosen, rides the deposit tag
  net::PayloadRef bytes;
};

struct EndpointStats {
  std::uint64_t sends = 0;
  std::uint64_t segments_tx = 0;
  std::uint64_t bytes_tx = 0;
  std::uint64_t deposits_rx = 0;   // complete messages
  std::uint64_t segments_rx = 0;
  std::uint64_t bytes_rx = 0;
  std::uint64_t rejected_rx = 0;   // bad export id / out of bounds
  std::uint64_t imports_ok = 0;
  std::uint64_t imports_denied = 0;
};

class Endpoint {
 public:
  Endpoint(sim::Scheduler& sched, nic::Nic& nic);
  ~Endpoint();

  /// Export `bytes` of receive space. Returns the id importers use.
  ExportId export_buffer(std::size_t bytes);
  /// Export `bytes` of space whose complete messages arrive on inbox().
  ExportId export_inbox(std::size_t bytes);

  [[nodiscard]] std::span<const std::uint8_t> buffer(ExportId id) const;
  [[nodiscard]] std::span<std::uint8_t> buffer_mut(ExportId id);

  /// Awaitable stream of complete-message notifications for a raw export.
  /// Throws std::logic_error for an inbox export.
  [[nodiscard]] sim::Channel<DepositEvent>& notifications(ExportId id);
  /// Awaitable stream of the complete messages of an inbox export, in
  /// arrival order. Throws std::logic_error for a raw export.
  [[nodiscard]] sim::Channel<Msg>& inbox(ExportId id);

  /// A remote buffer this endpoint may deposit into.
  struct Import {
    net::HostId remote;
    ExportId exp = 0;
    std::size_t size = 0;
  };

  /// Import a remote export (control-message round trip). nullopt if the
  /// exporter denies (no such export).
  sim::Task<std::optional<Import>> import(net::HostId remote, ExportId exp);

  /// Deposit `data` into the imported buffer at `offset`. Segments at the
  /// NIC buffer size; resumes when the last segment has been accepted by the
  /// NIC (the blocking library call returns, the source buffer is reusable).
  /// A message that fits one NIC buffer becomes its segment's payload as it
  /// is, without a copy; a longer one is copied slice by slice.
  /// `tag` rides along and is visible in the receiver's DepositEvent.
  sim::Task<void> send(Import imp, std::size_t offset,
                       std::vector<std::uint8_t> data, std::uint64_t tag = 0);

  [[nodiscard]] const EndpointStats& stats() const { return stats_; }
  [[nodiscard]] net::HostId host() const { return nic_.self(); }
  [[nodiscard]] nic::Nic& nic() { return nic_; }

 private:
  enum class Kind : std::uint8_t {
    kDeposit = 1,
    kImportReq = 2,
    kImportResp = 3,
  };

  /// Exactly one of `notify` (a raw export) and `inbox` is set.
  struct ExportRec {
    sim::ZeroPages data;
    std::unique_ptr<sim::Channel<DepositEvent>> notify;
    std::unique_ptr<sim::Channel<Msg>> inbox;
  };

  static net::UserHeader encode(Kind kind, ExportId exp, bool last,
                                std::uint64_t offset, std::uint64_t tag,
                                std::uint64_t total);

  void on_host_rx(net::UserHeader u, net::PayloadRef payload,
                  net::HostId src);
  void handle_deposit(net::UserHeader u, net::PayloadRef payload,
                      net::HostId src);

  sim::Scheduler& sched_;
  nic::Nic& nic_;
  /// The export with id `id`, or nullptr.
  [[nodiscard]] ExportRec* find_export(ExportId id) {
    return id - 1 < exports_.size() ? &exports_[id - 1] : nullptr;
  }

  std::vector<ExportRec> exports_;  // export id i at index i - 1
  /// Import responses by nonce: the granted size, or nullopt if denied.
  sim::Replies<std::uint64_t, std::optional<std::size_t>> imports_;
  std::uint64_t next_nonce_ = 1;
  EndpointStats stats_;
};

}  // namespace sanfault::vmmc
