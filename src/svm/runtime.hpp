// Home-based shared virtual memory runtime (GeNIMA-flavored), the layer the
// paper's SPLASH-2 applications run on (§5.1.4, Figure 9).
//
// Model:
//  * shared *regions* are split into pages, each page statically homed on a
//    node (block distribution);
//  * a processor reads remote-homed pages by fetching them from the home
//    (one request message + one page-sized deposit), valid until the next
//    barrier (release-consistency at barrier granularity);
//  * writes are recorded locally and written back to the home at release /
//    barrier time (page deposit + write-back ack, as GeNIMA's NIC-supported
//    remote deposit with completion does);
//  * locks are home-distributed queue locks (request / grant / unlock
//    messages to the lock's home node);
//  * barriers are centralized on node 0 (arrive / release messages).
//
// All protocol messages are real VMMC deposits riding the simulated NIC and
// fabric, so every SVM operation feels retransmission delays, send-buffer
// pressure, and injected faults exactly as the applications in the paper
// did. Page *contents* travel on the wire for real; the canonical copy of
// each region lives in the Runtime (the simulator is one address space), so
// data-race-free applications compute on real data with exact results.
//
// Time accounting per processor follows Figure 9's categories (timing.hpp).
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <span>
#include <vector>

#include "harness/cluster.hpp"
#include "sim/awaitables.hpp"
#include "sim/task.hpp"
#include "sim/zero_pages.hpp"
#include "svm/timing.hpp"
#include "vmmc/endpoint.hpp"

namespace sanfault::svm {

using RegionId = std::uint16_t;

struct SvmConfig {
  std::size_t page_bytes = 4096;
  /// Node-local protocol shortcut cost (page homed here, local lock, ...).
  sim::Duration local_op = 300;
  /// Charged per protocol handler invocation (runs on the host CPU in
  /// GeNIMA, since the NIC eliminates asynchronous protocol processing).
  sim::Duration handler_op = 500;
  /// Simulated-time cap for Runtime::run (watchdog against deadlocks).
  sim::Duration run_cap = sim::seconds(36000);
};

struct SvmStats {
  std::uint64_t page_fetches = 0;        // remote page fetches
  std::uint64_t local_page_hits = 0;     // valid-or-home-local accesses
  std::uint64_t write_backs = 0;         // dirty pages flushed to homes
  std::uint64_t lock_requests = 0;
  std::uint64_t remote_lock_requests = 0;
  std::uint64_t barriers = 0;
};

class Runtime;

/// One logical processor (the paper runs 2 per node on 4 nodes).
class Proc {
 public:
  Proc(Runtime& rt, int id, std::size_t node) : rt_(rt), id_(id), node_(node) {}

  [[nodiscard]] int id() const { return id_; }
  [[nodiscard]] std::size_t node() const { return node_; }
  [[nodiscard]] TimeBreakdown& times() { return times_; }

  /// Charge `ns` of computation time.
  sim::Task<void> compute(sim::Duration ns);

  /// Make [offset, offset+len) of the region readable on this node: fetch
  /// every non-valid remote-homed page from its home. Returns a span over
  /// the canonical data.
  sim::Task<std::span<std::uint8_t>> acquire(RegionId r, std::size_t offset,
                                             std::size_t len);

  /// Mark [offset, offset+len) dirty (will be flushed at release/barrier).
  void mark_dirty(RegionId r, std::size_t offset, std::size_t len);

  /// Flush this processor's dirty pages of all regions to their homes and
  /// wait for the write-back acknowledgments (data time).
  sim::Task<void> release();

  /// Global barrier: implies release(), then synchronizes all processors
  /// and invalidates cached page copies (barrier time).
  sim::Task<void> barrier();

  sim::Task<void> lock(std::uint32_t lock_id);
  sim::Task<void> unlock(std::uint32_t lock_id);

 private:
  friend class Runtime;
  Runtime& rt_;
  int id_;
  std::size_t node_;
  TimeBreakdown times_;
  /// Dirty page set, per region, owned by this processor.
  std::map<RegionId, std::vector<std::uint32_t>> dirty_;
};

class Runtime {
 public:
  Runtime(harness::Cluster& cluster, SvmConfig cfg, int procs_per_node);
  ~Runtime();

  /// Create a shared region of `bytes`, pages homed round-robin by block.
  RegionId create_region(std::size_t bytes);

  [[nodiscard]] std::span<std::uint8_t> region_data(RegionId r);
  [[nodiscard]] std::size_t page_bytes() const { return cfg_.page_bytes; }
  [[nodiscard]] std::size_t home_of_page(RegionId r, std::uint32_t page) const;

  [[nodiscard]] int num_procs() const {
    return static_cast<int>(procs_.size());
  }
  [[nodiscard]] Proc& proc(int i) { return *procs_.at(static_cast<std::size_t>(i)); }
  [[nodiscard]] const SvmStats& stats() const { return stats_; }
  [[nodiscard]] harness::Cluster& cluster() { return cluster_; }

  /// Run `body(proc)` on every processor to completion, driving the
  /// scheduler. Returns total elapsed simulated time.
  sim::Duration run(const std::function<sim::Task<void>(Proc&)>& body);

 private:
  friend class Proc;

  // Message kinds riding in DepositEvent tags.
  enum class Msg : std::uint8_t {
    kPageReq = 1,
    kPageData,
    kPageWb,
    kWbAck,
    kLockReq,
    kLockGrant,
    kUnlock,
    kBarrierArrive,
    kBarrierRelease,
  };

  /// A node's processors waiting for page data, write-back acks, lock
  /// grants and barrier releases, by wait_key.
  using Waits = sim::Replies<std::uint64_t>;

  struct NodeState {
    std::unique_ptr<vmmc::Endpoint> ep;
    vmmc::ExportId ctrl = 0;   // small protocol messages
    vmmc::ExportId pages = 0;  // page-sized deposits
    /// Imports of every other node's exports, by node index.
    std::vector<vmmc::Endpoint::Import> ctrl_imp;
    std::vector<vmmc::Endpoint::Import> pages_imp;
    Waits waits;
  };

  struct RegionRec {
    /// The canonical copy, a mapping of its own (sim/zero_pages.hpp).
    sim::ZeroPages data;
    std::uint32_t num_pages = 0;
    /// valid[node * num_pages + page]: cached copy valid on that node.
    std::vector<bool> valid;
  };

  struct LockRec {
    bool held = false;
    std::deque<std::uint64_t> queue;  // waiting (node, proc) encodings
  };

  static std::uint64_t tag_of(Msg m, std::uint32_t a, std::uint32_t b,
                              std::uint32_t proc);

  sim::Task<void> send_msg(std::size_t from_node, std::size_t to_node, Msg m,
                           std::uint32_t a, std::uint32_t b,
                           std::uint32_t proc, std::size_t payload_bytes);
  void dispatcher(std::size_t node);
  sim::Process pump_export(std::size_t node, vmmc::ExportId exp);
  sim::Process handle_msg(std::size_t node, vmmc::DepositEvent ev);
  void setup_endpoints();
  /// Wait key for a pending reply.
  static std::uint64_t wait_key(Msg m, std::uint32_t a, std::uint32_t b,
                                std::uint32_t proc);

  /// One processor reached the barrier; the completing arrival invalidates
  /// caches and releases everyone.
  sim::Task<void> barrier_arrive(int proc_id);

  harness::Cluster& cluster_;
  SvmConfig cfg_;
  std::vector<std::unique_ptr<Proc>> procs_;
  std::vector<NodeState> nodes_;
  std::vector<RegionRec> regions_;
  std::map<std::uint32_t, LockRec> locks_;  // homed on lock_id % nodes
  SvmStats stats_;

  // Barrier state (master = node 0).
  std::uint32_t barrier_gen_ = 0;
  int barrier_count_ = 0;

  int running_ = 0;
  bool setup_done_ = false;
};

}  // namespace sanfault::svm
