#include "svm/runtime.hpp"

#include <algorithm>
#include <cassert>

#include "sim/process.hpp"

namespace sanfault::svm {

namespace {
constexpr std::uint64_t kKindShift = 56;
constexpr std::uint64_t kProcShift = 48;
constexpr std::uint64_t kAShift = 32;
}  // namespace

// --------------------------------------------------------------------------
// Tags and wait keys
// --------------------------------------------------------------------------

std::uint64_t Runtime::tag_of(Msg m, std::uint32_t a, std::uint32_t b,
                              std::uint32_t proc) {
  return (static_cast<std::uint64_t>(m) << kKindShift) |
         (static_cast<std::uint64_t>(proc & 0xFF) << kProcShift) |
         (static_cast<std::uint64_t>(a & 0xFFFF) << kAShift) | b;
}

std::uint64_t Runtime::wait_key(Msg m, std::uint32_t a, std::uint32_t b,
                                std::uint32_t proc) {
  return tag_of(m, a, b, proc);
}

// --------------------------------------------------------------------------
// Construction / endpoint plumbing
// --------------------------------------------------------------------------

Runtime::Runtime(harness::Cluster& cluster, SvmConfig cfg, int procs_per_node)
    : cluster_(cluster), cfg_(cfg), nodes_(cluster.size()) {
  int id = 0;
  for (std::size_t n = 0; n < cluster_.size(); ++n) {
    for (int p = 0; p < procs_per_node; ++p) {
      procs_.push_back(std::make_unique<Proc>(*this, id++, n));
    }
  }
  setup_endpoints();
}

Runtime::~Runtime() {
  // Dispatcher coroutines hold references into this Runtime; detach the NIC
  // callbacks so no late traffic reaches freed endpoints.
  for (std::size_t n = 0; n < nodes_.size(); ++n) {
    cluster_.nic(n).set_host_rx({});
  }
}

void Runtime::setup_endpoints() {
  auto& sched = cluster_.sched;
  for (std::size_t n = 0; n < nodes_.size(); ++n) {
    auto& st = nodes_[n];
    st.ep = std::make_unique<vmmc::Endpoint>(sched, cluster_.nic(n));
    st.ctrl = st.ep->export_buffer(256);
    st.pages = st.ep->export_buffer(cfg_.page_bytes);
    st.ctrl_imp.resize(nodes_.size());
    st.pages_imp.resize(nodes_.size());
  }
  // Exchange imports; exports already exist, so the handshakes can run
  // concurrently. Drive the scheduler until every import resolves.
  int pending = 0;
  auto import_all = [&](std::size_t i, std::size_t j) -> sim::Process {
    auto ci = co_await nodes_[i].ep->import(cluster_.hosts[j], nodes_[j].ctrl);
    auto pi = co_await nodes_[i].ep->import(cluster_.hosts[j], nodes_[j].pages);
    nodes_[i].ctrl_imp[j] = *ci;
    nodes_[i].pages_imp[j] = *pi;
    --pending;
  };
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    for (std::size_t j = 0; j < nodes_.size(); ++j) {
      if (i == j) continue;
      ++pending;
      import_all(i, j);
    }
  }
  const sim::Time deadline = sched.now() + sim::seconds(300);
  while (pending > 0 && sched.now() < deadline && sched.step()) {
  }
  assert(pending == 0 && "SVM endpoint setup did not converge");
  for (std::size_t n = 0; n < nodes_.size(); ++n) {
    dispatcher(n);
  }
  setup_done_ = true;
}

RegionId Runtime::create_region(std::size_t bytes) {
  RegionRec rec;
  // Off the heap, so no small block that outlives the region can land in
  // the hole it leaves. Apps write regions whole: back every page now.
  rec.data = sim::ZeroPages(bytes, sim::ZeroPages::Backing::kUpFront);
  rec.num_pages = static_cast<std::uint32_t>(
      (bytes + cfg_.page_bytes - 1) / cfg_.page_bytes);
  rec.valid.assign(nodes_.size() * rec.num_pages, false);
  regions_.push_back(std::move(rec));
  return static_cast<RegionId>(regions_.size() - 1);
}

std::span<std::uint8_t> Runtime::region_data(RegionId r) {
  return regions_.at(r).data.span();
}

std::size_t Runtime::home_of_page(RegionId r, std::uint32_t page) const {
  // Block distribution: contiguous chunks of pages per node, as SPLASH-style
  // partitions expect (processor i's slice is mostly homed on its node).
  const auto& reg = regions_.at(r);
  const std::uint32_t per_node = std::max<std::uint32_t>(
      1, (reg.num_pages + static_cast<std::uint32_t>(nodes_.size()) - 1) /
             static_cast<std::uint32_t>(nodes_.size()));
  return std::min<std::size_t>(page / per_node, nodes_.size() - 1);
}

// --------------------------------------------------------------------------
// Messaging
// --------------------------------------------------------------------------

sim::Task<void> Runtime::send_msg(std::size_t from_node, std::size_t to_node,
                                  Msg m, std::uint32_t a, std::uint32_t b,
                                  std::uint32_t proc,
                                  std::size_t payload_bytes) {
  assert(from_node != to_node && "local messages take the shortcut path");
  auto& st = nodes_[from_node];
  const std::uint64_t tag = tag_of(m, a, b, proc);
  std::vector<std::uint8_t> payload;
  if (payload_bytes > 0) {
    // Page traffic carries the real bytes (a wire corruption flips one of
    // them, and retransmission must deliver them intact).
    const auto& reg = regions_.at(a);
    const std::size_t off = static_cast<std::size_t>(b) * cfg_.page_bytes;
    const std::span<const std::uint8_t> data = reg.data.span();
    const std::size_t n = std::min(payload_bytes, data.size() - off);
    payload.assign(data.begin() + static_cast<std::ptrdiff_t>(off),
                   data.begin() + static_cast<std::ptrdiff_t>(off + n));
  }
  const auto& imp = payload_bytes > 0 ? st.pages_imp[to_node]
                                      : st.ctrl_imp[to_node];
  co_await st.ep->send(imp, 0, std::move(payload), tag);
}

// NOTE: pump_export is a plain member coroutine, NOT a capturing lambda — a
// lambda coroutine's captures live in the lambda object and dangle once it
// is destroyed; member-function parameters are copied into the frame.
sim::Process Runtime::pump_export(std::size_t node, vmmc::ExportId exp) {
  auto& ch = nodes_[node].ep->notifications(exp);
  for (;;) {
    vmmc::DepositEvent ev = co_await ch.pop(cluster_.sched);
    handle_msg(node, ev);
  }
}

void Runtime::dispatcher(std::size_t node) {
  // Two inbound streams (control and page deposits), one pump each;
  // handlers run as detached processes.
  pump_export(node, nodes_[node].ctrl);
  pump_export(node, nodes_[node].pages);
}

sim::Process Runtime::handle_msg(std::size_t node, vmmc::DepositEvent ev) {
  auto& sched = cluster_.sched;
  // Protocol handler time on the host CPU (GeNIMA's synchronous handlers).
  co_await sim::DelayFor{sched, cfg_.handler_op};

  const auto kind = static_cast<Msg>(ev.tag >> kKindShift);
  const auto proc = static_cast<std::uint32_t>((ev.tag >> kProcShift) & 0xFF);
  const auto a = static_cast<std::uint32_t>((ev.tag >> kAShift) & 0xFFFF);
  const auto b = static_cast<std::uint32_t>(ev.tag & 0xFFFFFFFF);
  const std::size_t src_node = ev.src.v;  // hosts are created in order

  switch (kind) {
    case Msg::kPageReq: {
      // We are the home: ship the page back to the requester's node.
      co_await send_msg(node, src_node, Msg::kPageData, a, b, proc,
                        cfg_.page_bytes);
      break;
    }
    case Msg::kPageData:
    case Msg::kWbAck:
    case Msg::kLockGrant:
    case Msg::kBarrierRelease:
      nodes_[node].waits.deliver(sched, wait_key(kind, a, b, proc));
      break;
    case Msg::kPageWb: {
      // Canonical data is authoritative already; acknowledge completion.
      co_await send_msg(node, src_node, Msg::kWbAck, a, b, proc, 0);
      break;
    }
    case Msg::kLockReq: {
      LockRec& l = locks_[a];
      const std::uint64_t who = (static_cast<std::uint64_t>(src_node) << 16) | proc;
      if (!l.held) {
        l.held = true;
        co_await send_msg(node, src_node, Msg::kLockGrant, a, 0, proc, 0);
      } else {
        l.queue.push_back(who);
      }
      break;
    }
    case Msg::kUnlock: {
      LockRec& l = locks_[a];
      if (l.queue.empty()) {
        l.held = false;
      } else {
        const std::uint64_t who = l.queue.front();
        l.queue.pop_front();
        const auto wnode = static_cast<std::size_t>(who >> 16);
        const auto wproc = static_cast<std::uint32_t>(who & 0xFFFF);
        if (wnode == node) {
          nodes_[node].waits.deliver(sched,
                                     wait_key(Msg::kLockGrant, a, 0, wproc));
        } else {
          co_await send_msg(node, wnode, Msg::kLockGrant, a, 0, wproc, 0);
        }
      }
      break;
    }
    case Msg::kBarrierArrive: {
      assert(node == 0);
      co_await barrier_arrive(static_cast<int>(proc));
      break;
    }
    default:
      break;
  }
}

sim::Task<void> Runtime::barrier_arrive(int proc_id) {
  (void)proc_id;
  auto& sched = cluster_.sched;
  if (++barrier_count_ < static_cast<int>(procs_.size())) co_return;
  // Everyone arrived: invalidate all cached copies, bump the generation,
  // release the world.
  barrier_count_ = 0;
  ++barrier_gen_;
  ++stats_.barriers;
  for (auto& reg : regions_) {
    std::fill(reg.valid.begin(), reg.valid.end(), false);
  }
  for (auto& p : procs_) {
    const auto pid = static_cast<std::uint32_t>(p->id());
    if (p->node() == 0) {
      nodes_[0].waits.deliver(sched,
                              wait_key(Msg::kBarrierRelease, 0, 0, pid));
    } else {
      co_await send_msg(0, p->node(), Msg::kBarrierRelease, 0, 0, pid, 0);
    }
  }
}

// --------------------------------------------------------------------------
// Proc operations
// --------------------------------------------------------------------------

sim::Task<void> Proc::compute(sim::Duration ns) {
  const sim::Time t0 = rt_.cluster_.sched.now();
  co_await sim::DelayFor{rt_.cluster_.sched, ns};
  times_.compute += rt_.cluster_.sched.now() - t0;
}

sim::Task<std::span<std::uint8_t>> Proc::acquire(RegionId r,
                                                 std::size_t offset,
                                                 std::size_t len) {
  auto& sched = rt_.cluster_.sched;
  const sim::Time t0 = sched.now();
  auto& reg = rt_.regions_.at(r);
  const std::size_t pb = rt_.cfg_.page_bytes;
  const auto p0 = static_cast<std::uint32_t>(offset / pb);
  const auto p1 = static_cast<std::uint32_t>(
      len == 0 ? p0 : (offset + len - 1) / pb);

  // Pipelined fetch: post every request, then collect every page. Each slot
  // is its own heap cell: a std::deque's blocks moved where glibc places
  // FFT's 4 MB arrays, and svm-apps' peak RSS with them (+4 MB).
  std::vector<std::uint32_t> pages;
  std::vector<std::unique_ptr<Runtime::Waits::Slot>> fetches;
  for (std::uint32_t p = p0; p <= p1 && p < reg.num_pages; ++p) {
    const std::size_t home = rt_.home_of_page(r, p);
    const std::size_t vidx = node_ * reg.num_pages + p;
    if (home == node_ || reg.valid[vidx]) {
      ++rt_.stats_.local_page_hits;
      continue;
    }
    ++rt_.stats_.page_fetches;
    pages.push_back(p);
    fetches.push_back(std::make_unique<Runtime::Waits::Slot>(
        rt_.nodes_[node_].waits,
        Runtime::wait_key(Runtime::Msg::kPageData, r, p,
                          static_cast<std::uint32_t>(id_))));
    co_await rt_.send_msg(node_, home, Runtime::Msg::kPageReq, r, p,
                          static_cast<std::uint32_t>(id_), 0);
  }
  for (std::size_t i = 0; i < pages.size(); ++i) {
    co_await fetches[i]->wait(sched);
    reg.valid[node_ * reg.num_pages + pages[i]] = true;
  }
  if (pages.empty()) {
    co_await sim::DelayFor{sched, rt_.cfg_.local_op};
  }
  times_.data += sched.now() - t0;
  const std::span<std::uint8_t> data = reg.data.span();
  const std::size_t end = std::min(offset + len, data.size());
  co_return data.subspan(offset, end - offset);
}

void Proc::mark_dirty(RegionId r, std::size_t offset, std::size_t len) {
  const std::size_t pb = rt_.cfg_.page_bytes;
  const auto p0 = static_cast<std::uint32_t>(offset / pb);
  const auto p1 =
      static_cast<std::uint32_t>(len == 0 ? p0 : (offset + len - 1) / pb);
  auto& pages = dirty_[r];
  for (std::uint32_t p = p0; p <= p1; ++p) {
    if (std::find(pages.begin(), pages.end(), p) == pages.end()) {
      pages.push_back(p);
    }
  }
}

sim::Task<void> Proc::release() {
  auto& sched = rt_.cluster_.sched;
  const sim::Time t0 = sched.now();
  std::vector<std::unique_ptr<Runtime::Waits::Slot>> acks;
  for (auto& [r, pages] : dirty_) {
    for (std::uint32_t p : pages) {
      const std::size_t home = rt_.home_of_page(r, p);
      if (home == node_) continue;  // writes to home-local pages are free
      ++rt_.stats_.write_backs;
      acks.push_back(std::make_unique<Runtime::Waits::Slot>(
          rt_.nodes_[node_].waits,
          Runtime::wait_key(Runtime::Msg::kWbAck, r, p,
                            static_cast<std::uint32_t>(id_))));
      co_await rt_.send_msg(node_, home, Runtime::Msg::kPageWb, r, p,
                            static_cast<std::uint32_t>(id_),
                            rt_.cfg_.page_bytes);
    }
  }
  dirty_.clear();
  for (auto& ack : acks) {
    co_await ack->wait(sched);
  }
  times_.data += sched.now() - t0;
}

sim::Task<void> Proc::barrier() {
  co_await release();
  auto& sched = rt_.cluster_.sched;
  const sim::Time t0 = sched.now();
  Runtime::Waits::Slot released(
      rt_.nodes_[node_].waits,
      Runtime::wait_key(Runtime::Msg::kBarrierRelease, 0, 0,
                        static_cast<std::uint32_t>(id_)));
  if (node_ == 0) {
    co_await sim::DelayFor{sched, rt_.cfg_.local_op};
    co_await rt_.barrier_arrive(id_);
  } else {
    co_await rt_.send_msg(node_, 0, Runtime::Msg::kBarrierArrive, 0, 0,
                          static_cast<std::uint32_t>(id_), 0);
  }
  co_await released.wait(sched);
  times_.barrier += sched.now() - t0;
}

sim::Task<void> Proc::lock(std::uint32_t lock_id) {
  auto& sched = rt_.cluster_.sched;
  const sim::Time t0 = sched.now();
  ++rt_.stats_.lock_requests;
  const std::size_t home = lock_id % rt_.nodes_.size();
  if (home == node_) {
    co_await sim::DelayFor{sched, rt_.cfg_.local_op};
    Runtime::LockRec& l = rt_.locks_[lock_id];
    if (!l.held) {
      l.held = true;
    } else {
      Runtime::Waits::Slot grant(
          rt_.nodes_[node_].waits,
          Runtime::wait_key(Runtime::Msg::kLockGrant, lock_id, 0,
                            static_cast<std::uint32_t>(id_)));
      l.queue.push_back((static_cast<std::uint64_t>(node_) << 16) |
                        static_cast<std::uint32_t>(id_));
      co_await grant.wait(sched);
    }
  } else {
    ++rt_.stats_.remote_lock_requests;
    Runtime::Waits::Slot grant(
        rt_.nodes_[node_].waits,
        Runtime::wait_key(Runtime::Msg::kLockGrant, lock_id, 0,
                          static_cast<std::uint32_t>(id_)));
    co_await rt_.send_msg(node_, home, Runtime::Msg::kLockReq, lock_id, 0,
                          static_cast<std::uint32_t>(id_), 0);
    co_await grant.wait(sched);
  }
  times_.lock += sched.now() - t0;
}

sim::Task<void> Proc::unlock(std::uint32_t lock_id) {
  auto& sched = rt_.cluster_.sched;
  const sim::Time t0 = sched.now();
  const std::size_t home = lock_id % rt_.nodes_.size();
  if (home == node_) {
    co_await sim::DelayFor{sched, rt_.cfg_.local_op};
    Runtime::LockRec& l = rt_.locks_[lock_id];
    if (l.queue.empty()) {
      l.held = false;
    } else {
      const std::uint64_t who = l.queue.front();
      l.queue.pop_front();
      const auto wnode = static_cast<std::size_t>(who >> 16);
      const auto wproc = static_cast<std::uint32_t>(who & 0xFFFF);
      if (wnode == node_) {
        rt_.nodes_[node_].waits.deliver(
            sched,
            Runtime::wait_key(Runtime::Msg::kLockGrant, lock_id, 0, wproc));
      } else {
        co_await rt_.send_msg(node_, wnode, Runtime::Msg::kLockGrant, lock_id,
                              0, wproc, 0);
      }
    }
  } else {
    co_await rt_.send_msg(node_, home, Runtime::Msg::kUnlock, lock_id, 0,
                          static_cast<std::uint32_t>(id_), 0);
  }
  times_.lock += sched.now() - t0;
}

// --------------------------------------------------------------------------
// Driver
// --------------------------------------------------------------------------

sim::Duration Runtime::run(const std::function<sim::Task<void>(Proc&)>& body) {
  auto& sched = cluster_.sched;
  const sim::Time t0 = sched.now();
  running_ = static_cast<int>(procs_.size());
  auto wrap = [this](Proc& p,
                     const std::function<sim::Task<void>(Proc&)>& b) -> sim::Process {
    co_await b(p);
    --running_;
  };
  for (auto& p : procs_) {
    wrap(*p, body);
  }
  const sim::Time deadline = sched.now() + cfg_.run_cap;
  while (running_ > 0 && sched.now() < deadline && sched.step()) {
  }
  // Callers observe an early return via the elapsed time when the cap hits.
  return sched.now() - t0;
}

}  // namespace sanfault::svm
