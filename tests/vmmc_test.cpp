// Tests for the VMMC layer: export/import protection, direct deposit,
// segmentation, notifications, and behavior over the reliable firmware with
// injected faults; an export's memory cost (only the pages written); the
// MsgEndpoint message layer's tap list, contract checks and inbox ring
// (messages that span NIC buffers, held messages, a ring one-segment
// messages never write). Also validates the micro-benchmark harness
// against the paper's §6.1.1 calibration numbers.
#include <gtest/gtest.h>
#include <sys/mman.h>
#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <numeric>
#include <span>
#include <stdexcept>
#include <utility>
#include <vector>

#include "harness/cluster.hpp"
#include "harness/microbench.hpp"
#include "sim/process.hpp"
#include "vmmc/endpoint.hpp"
#include "vmmc/rpc.hpp"

namespace sanfault {
namespace {

using harness::Cluster;
using harness::ClusterConfig;
using harness::FirmwareKind;

struct VmmcRig {
  Cluster c;
  vmmc::Endpoint a;
  vmmc::Endpoint b;

  explicit VmmcRig(ClusterConfig cfg = make_default())
      : c(cfg), a(c.sched, c.nic(0)), b(c.sched, c.nic(1)) {}

  static ClusterConfig make_default() {
    ClusterConfig cfg;
    cfg.num_hosts = 2;
    cfg.fw = FirmwareKind::kReliable;
    return cfg;
  }

  /// Run the scheduler until `flag` is set (firmware timers never drain).
  void drive(const bool& flag, sim::Duration cap = sim::seconds(300)) {
    const sim::Time deadline = c.sched.now() + cap;
    while (!flag && c.sched.now() < deadline && c.sched.step()) {
    }
    ASSERT_TRUE(flag) << "drive() hit the safety cap";
  }
};

TEST(Vmmc, ImportGrantReportsSize) {
  VmmcRig r;
  bool done = false;
  [](VmmcRig& r, bool& done) -> sim::Process {
    auto exp = r.b.export_buffer(8192);
    auto imp = co_await r.a.import(r.c.hosts[1], exp);
    EXPECT_TRUE(imp.has_value());
    EXPECT_EQ(imp->size, 8192u);
    EXPECT_EQ(imp->remote, r.c.hosts[1]);
    done = true;
  }(r, done);
  r.drive(done);
  EXPECT_EQ(r.a.stats().imports_ok, 1u);
}

TEST(Vmmc, ImportOfUnknownExportDenied) {
  VmmcRig r;
  bool done = false;
  [](VmmcRig& r, bool& done) -> sim::Process {
    auto imp = co_await r.a.import(r.c.hosts[1], vmmc::ExportId{999});
    EXPECT_FALSE(imp.has_value());
    done = true;
  }(r, done);
  r.drive(done);
  EXPECT_EQ(r.a.stats().imports_denied, 1u);
}

TEST(Vmmc, DepositWritesExactBytesAtOffset) {
  VmmcRig r;
  bool done = false;
  [](VmmcRig& r, bool& done) -> sim::Process {
    auto exp = r.b.export_buffer(256);
    auto imp = co_await r.a.import(r.c.hosts[1], exp);
    EXPECT_TRUE(imp.has_value());
    std::vector<std::uint8_t> data(32);
    std::iota(data.begin(), data.end(), std::uint8_t{1});
    co_await r.a.send(*imp, 100, data, /*tag=*/42);
    auto ev = co_await r.b.notifications(exp).pop(r.c.sched);
    EXPECT_EQ(ev.offset, 100u);
    EXPECT_EQ(ev.length, 32u);
    EXPECT_EQ(ev.tag, 42u);
    EXPECT_EQ(ev.src, r.c.hosts[0]);
    auto buf = r.b.buffer(exp);
    for (std::size_t i = 0; i < 32; ++i) {
      EXPECT_EQ(buf[100 + i], i + 1);
    }
    EXPECT_EQ(buf[99], 0);   // bytes around the deposit untouched
    EXPECT_EQ(buf[132], 0);
    done = true;
  }(r, done);
  r.drive(done);
}

TEST(Vmmc, LargeMessageSegmentsAt4K) {
  // One segment per started 4 KB NIC buffer: 4096 bytes fit one (send()
  // hands the buffer to the NIC whole), one byte more starts a second, and
  // 20000 bytes take 4 x 4096 + 3616. The import handshake does not count
  // as data segments.
  const std::pair<std::size_t, std::uint64_t> cases[] = {
      {4096, 1}, {4097, 2}, {20000, 5}};
  for (const auto& [bytes, segments] : cases) {
    SCOPED_TRACE(testing::Message() << bytes << " bytes");
    VmmcRig r;
    bool done = false;
    [](VmmcRig& r, bool& done, std::size_t bytes) -> sim::Process {
      auto exp = r.b.export_buffer(64 * 1024);
      auto imp = co_await r.a.import(r.c.hosts[1], exp);
      std::vector<std::uint8_t> data(bytes);
      for (std::size_t i = 0; i < data.size(); ++i) {
        data[i] = static_cast<std::uint8_t>(i * 7);
      }
      co_await r.a.send(*imp, 0, data);
      auto ev = co_await r.b.notifications(exp).pop(r.c.sched);
      EXPECT_EQ(ev.length, bytes);
      EXPECT_EQ(ev.offset, 0u);
      auto buf = r.b.buffer(exp);
      const std::vector<std::uint8_t> got(buf.begin(), buf.begin() + bytes);
      EXPECT_EQ(got, data);
      EXPECT_EQ(buf[bytes], 0);  // the byte after the message untouched
      done = true;
    }(r, done, bytes);
    r.drive(done);
    EXPECT_EQ(r.a.stats().segments_tx, segments);
  }
}

/// A raw export or an inbox export of `bytes` on `ep`.
vmmc::ExportId export_of(vmmc::Endpoint& ep, std::size_t bytes, bool inbox) {
  return inbox ? ep.export_inbox(bytes) : ep.export_buffer(bytes);
}

/// Host 1 rejected one deposit into `exp` and delivered nothing from it.
void expect_one_rejected(VmmcRig& r, vmmc::ExportId exp, bool inbox) {
  EXPECT_EQ(r.b.stats().rejected_rx, 1u);
  EXPECT_EQ(r.b.stats().deposits_rx, 0u);
  if (inbox) {
    EXPECT_TRUE(r.b.inbox(exp).empty());
  } else {
    EXPECT_TRUE(r.b.notifications(exp).empty());
  }
}

TEST(Vmmc, OutOfBoundsDepositRejected) {
  for (const bool inbox : {false, true}) {
    SCOPED_TRACE(inbox ? "inbox export" : "raw export");
    VmmcRig r;
    const vmmc::ExportId exp = export_of(r.b, 64, inbox);
    bool done = false;
    [](VmmcRig& r, vmmc::ExportId exp, bool& done) -> sim::Process {
      auto imp = co_await r.a.import(r.c.hosts[1], exp);
      // Lie about the offset: deposit would overflow the export.
      co_await r.a.send(*imp, 60, std::vector<std::uint8_t>(16, 0xFF));
      co_await sim::DelayFor{r.c.sched, sim::milliseconds(1)};
      done = true;
    }(r, exp, done);
    r.drive(done);
    expect_one_rejected(r, exp, inbox);
  }
}

TEST(Vmmc, DepositWhoseEndWrapsPastTheAddressRangeRejected) {
  for (const bool inbox : {false, true}) {
    SCOPED_TRACE(inbox ? "inbox export" : "raw export");
    VmmcRig r;
    const vmmc::ExportId exp = export_of(r.b, 64, inbox);
    bool done = false;
    [](VmmcRig& r, vmmc::ExportId exp, bool& done) -> sim::Process {
      auto imp = co_await r.a.import(r.c.hosts[1], exp);
      // offset + 32 wraps to 16, inside the export: only the offset is out.
      co_await r.a.send(*imp, std::numeric_limits<std::size_t>::max() - 15,
                        std::vector<std::uint8_t>(32, 0xFF));
      co_await sim::DelayFor{r.c.sched, sim::milliseconds(1)};
      done = true;
    }(r, exp, done);
    r.drive(done);
    expect_one_rejected(r, exp, inbox);
  }
}

TEST(Vmmc, LastSegmentClaimingMoreThanItsEndRejected) {
  for (const bool inbox : {false, true}) {
    SCOPED_TRACE(inbox ? "inbox export" : "raw export");
    VmmcRig r;
    const vmmc::ExportId exp = export_of(r.b, 64, inbox);
    bool done = false;
    [](VmmcRig& r, vmmc::ExportId exp, bool& done) -> sim::Process {
      (void)co_await r.a.import(r.c.hosts[1], exp);
      // A forged last segment (the endpoint's wire layout: w0 = kind 1 <<
      // 56 | last bit 55 | export id) of 16 bytes at offset 0 that declares
      // a 100-byte message: the message would start 84 bytes before the
      // export.
      nic::SendRequest req;
      req.dst = r.c.hosts[1];
      req.user.w0 = (1ull << 56) | (1ull << 55) | exp;
      req.user.w1 = 0;
      req.user.w3 = 100;
      req.payload.assign(16, 0xFF);
      r.c.nic(0).host_submit(std::move(req));
      co_await sim::DelayFor{r.c.sched, sim::milliseconds(1)};
      done = true;
    }(r, exp, done);
    r.drive(done);
    expect_one_rejected(r, exp, inbox);
  }
}

TEST(Vmmc, UnknownExportDepositRejected) {
  VmmcRig r;
  bool done = false;
  [](VmmcRig& r, bool& done) -> sim::Process {
    vmmc::Endpoint::Import forged{r.c.hosts[1], vmmc::ExportId{777}, 1024};
    co_await r.a.send(forged, 0, std::vector<std::uint8_t>(16, 1));
    co_await sim::DelayFor{r.c.sched, sim::milliseconds(1)};
    done = true;
  }(r, done);
  r.drive(done);
  EXPECT_EQ(r.b.stats().rejected_rx, 1u);
}

TEST(Vmmc, ZeroByteMessageNotifies) {
  VmmcRig r;
  bool done = false;
  [](VmmcRig& r, bool& done) -> sim::Process {
    auto exp = r.b.export_buffer(16);
    auto imp = co_await r.a.import(r.c.hosts[1], exp);
    co_await r.a.send(*imp, 0, {}, /*tag=*/5);
    auto ev = co_await r.b.notifications(exp).pop(r.c.sched);
    EXPECT_EQ(ev.length, 0u);
    EXPECT_EQ(ev.tag, 5u);
    done = true;
  }(r, done);
  r.drive(done);
}

TEST(Vmmc, ManyMessagesInterleavedTagsOrdered) {
  VmmcRig r;
  bool done = false;
  [](VmmcRig& r, bool& done) -> sim::Process {
    auto exp = r.b.export_buffer(4096);
    auto imp = co_await r.a.import(r.c.hosts[1], exp);
    for (std::uint64_t i = 0; i < 40; ++i) {
      co_await r.a.send(*imp, 0, std::vector<std::uint8_t>(64, 1), i);
    }
    for (std::uint64_t i = 0; i < 40; ++i) {
      auto ev = co_await r.b.notifications(exp).pop(r.c.sched);
      EXPECT_EQ(ev.tag, i);  // VMMC preserves point-to-point order
    }
    done = true;
  }(r, done);
  r.drive(done);
}

TEST(Vmmc, SegmentedTransferSurvivesInjectedDrops) {
  // 50000 bytes travel as 13 segments, each a copied slice; 4096 bytes as one
  // segment whose payload is the sender's own buffer, moved. Sixteen of those
  // fill the export, so drops hit them too and the firmware retransmits the
  // moved payloads.
  for (const std::size_t bytes : {50000, 4096}) {
    SCOPED_TRACE(testing::Message() << bytes << " bytes");
    auto cfg = VmmcRig::make_default();
    cfg.rel.drop_interval = 4;  // brutal
    VmmcRig r(cfg);
    bool done = false;
    [](VmmcRig& r, bool& done, std::size_t bytes) -> sim::Process {
      auto exp = r.b.export_buffer(64 * 1024);
      auto imp = co_await r.a.import(r.c.hosts[1], exp);
      const auto n = static_cast<std::ptrdiff_t>(bytes);
      std::vector<std::uint8_t> sent(64 * 1024 / bytes * bytes);
      for (std::size_t i = 0; i < sent.size(); ++i) {
        sent[i] = static_cast<std::uint8_t>(i ^ (i >> 8));
      }
      for (std::size_t off = 0; off < sent.size(); off += bytes) {
        const auto at = sent.begin() + static_cast<std::ptrdiff_t>(off);
        co_await r.a.send(*imp, off, std::vector<std::uint8_t>(at, at + n));
      }
      for (std::size_t off = 0; off < sent.size(); off += bytes) {
        (void)co_await r.b.notifications(exp).pop(r.c.sched);
      }
      auto buf = r.b.buffer(exp);
      const std::vector<std::uint8_t> got(buf.begin(),
                                          buf.begin() + sent.size());
      EXPECT_EQ(got, sent);
      done = true;
    }(r, done, bytes);
    r.drive(done);
    EXPECT_GT(r.c.rel(0).stats().injected_drops, 0u);
    EXPECT_GT(r.c.rel(0).stats().retransmissions, 0u);
  }
}

/// Pages of `s` backed by memory, counted with mincore over its page-rounded
/// span. Count before reading any byte: a read maps the zero page, which
/// mincore may count.
std::size_t resident_pages(std::span<const std::uint8_t> s) {
  const auto page = static_cast<std::uintptr_t>(::sysconf(_SC_PAGESIZE));
  const auto begin = reinterpret_cast<std::uintptr_t>(s.data());
  const std::uintptr_t lo = begin & ~(page - 1);
  const std::uintptr_t hi = (begin + s.size() + page - 1) & ~(page - 1);
  std::vector<unsigned char> in_core((hi - lo) / page);
  if (::mincore(reinterpret_cast<void*>(lo), hi - lo, in_core.data()) != 0) {
    ADD_FAILURE() << "mincore failed";
    return in_core.size();
  }
  return static_cast<std::size_t>(std::count_if(
      in_core.begin(), in_core.end(), [](unsigned char c) { return c & 1; }));
}

TEST(Vmmc, ExportCostsOnlyThePagesWritten) {
  VmmcRig r;
  bool done = false;
  [](VmmcRig& r, bool& done) -> sim::Process {
    constexpr std::size_t kExport = 64u << 20;
    constexpr std::size_t kAt = 32u << 20;
    auto exp = r.b.export_buffer(kExport);
    auto imp = co_await r.a.import(r.c.hosts[1], exp);
    std::vector<std::uint8_t> data(4096);
    for (std::size_t i = 0; i < data.size(); ++i) {
      data[i] = static_cast<std::uint8_t>(i % 255 + 1);
    }
    co_await r.a.send(*imp, kAt, data);
    (void)co_await r.b.notifications(exp).pop(r.c.sched);
    const auto buf = r.b.buffer(exp);
    EXPECT_LE(resident_pages(buf), 2u) << "of " << kExport / 4096;
    const std::vector<std::uint8_t> got(buf.begin() + kAt,
                                        buf.begin() + kAt + data.size());
    EXPECT_EQ(got, data);
    EXPECT_EQ(buf[0], 0);
    EXPECT_EQ(buf[kAt - 1], 0);
    EXPECT_EQ(buf[kAt + data.size()], 0);
    EXPECT_EQ(buf[kExport - 1], 0);
    done = true;
  }(r, done);
  r.drive(done);
}

// --- MsgEndpoint: messages over one exported ring -------------------------

/// Both hosts own a message ring; host 0 posts to host 1.
struct MsgRig : VmmcRig {
  static constexpr std::size_t kPartition = 1024;
  vmmc::MsgEndpoint ma;
  vmmc::MsgEndpoint mb;
  std::uint64_t next_tag = 0;

  explicit MsgRig(std::size_t partition = kPartition)
      : ma(c.sched, a, partition, /*max_peers=*/2),
        mb(c.sched, b, partition, /*max_peers=*/2) {}

  void connect() {
    bool done = false;
    [](MsgRig& r, bool& done) -> sim::Process {
      EXPECT_TRUE(co_await r.ma.connect(r.c.hosts[1]));
      done = true;
    }(*this, done);
    drive(done);
  }

  /// Post each message, tagged in post order, and let the last one land.
  void post_each(const std::vector<std::vector<std::uint8_t>>& msgs) {
    bool done = false;
    [](MsgRig& r, const std::vector<std::vector<std::uint8_t>>& msgs,
       bool& done) -> sim::Process {
      for (const std::vector<std::uint8_t>& msg : msgs) {
        co_await r.ma.post(r.c.hosts[1], msg, r.next_tag++);
      }
      done = true;
    }(*this, msgs, done);
    drive(done);
    c.sched.run_for(sim::milliseconds(1));
  }

  /// Post one two-byte message per type byte.
  void post_all(const std::vector<std::uint8_t>& types) {
    std::vector<std::vector<std::uint8_t>> msgs;
    for (std::uint8_t t : types) msgs.emplace_back(2, t);
    post_each(msgs);
  }

  /// Drain host 1's inbox, in arrival order.
  std::vector<vmmc::Msg> drain() {
    std::vector<vmmc::Msg> got;
    [](MsgRig& r, std::size_t n, std::vector<vmmc::Msg>& out) -> sim::Process {
      for (std::size_t i = 0; i < n; ++i) {
        out.push_back(co_await r.mb.inbox().pop(r.c.sched));
      }
    }(*this, mb.inbox().size(), got);
    return got;
  }

  /// Drain host 1's inbox; the tags in arrival order.
  std::vector<std::uint64_t> inbox_tags() {
    std::vector<std::uint64_t> tags;
    for (const vmmc::Msg& m : drain()) tags.push_back(m.tag);
    return tags;
  }
};

/// `n` bytes that differ from message to message and from byte to byte.
std::vector<std::uint8_t> pattern(std::size_t n, std::uint8_t seed) {
  std::vector<std::uint8_t> v(n);
  for (std::size_t i = 0; i < n; ++i) {
    v[i] = static_cast<std::uint8_t>(seed * 37 + i * 7 + i / 251);
  }
  return v;
}

/// A tap claiming one leading type byte and recording the tags it consumed.
vmmc::MsgEndpoint::Tap claim(std::uint8_t type,
                             std::vector<std::uint64_t>& got) {
  return [type, &got](const vmmc::Msg& m) {
    if (m.bytes.empty() || m.bytes.span()[0] != type) return false;
    got.push_back(m.tag);
    return true;
  };
}

using Tags = std::vector<std::uint64_t>;

TEST(MsgEndpoint, UnclaimedMessagesReachInboxInPerPeerOrder) {
  MsgRig r;
  Tags tapped;
  r.mb.add_tap(claim(9, tapped));
  r.connect();
  r.post_all({1, 1, 1, 1, 1, 1, 1, 1});
  EXPECT_TRUE(tapped.empty());
  EXPECT_EQ(r.inbox_tags(), (Tags{0, 1, 2, 3, 4, 5, 6, 7}));
}

TEST(MsgEndpoint, DisjointTapsClaimExactlyTheirOwnInEitherOrder) {
  // Three families share the ring: store units (5), gossip (0x21) and the
  // service's own requests (1), which no tap claims.
  for (const bool store_first : {true, false}) {
    SCOPED_TRACE(store_first ? "store tap added first"
                             : "gossip tap added first");
    MsgRig r;
    Tags store;
    Tags gossip;
    if (store_first) {
      r.mb.add_tap(claim(5, store));
      r.mb.add_tap(claim(0x21, gossip));
    } else {
      r.mb.add_tap(claim(0x21, gossip));
      r.mb.add_tap(claim(5, store));
    }
    r.connect();
    r.post_all({5, 0x21, 1, 0x21, 5, 5, 1, 0x21});
    EXPECT_EQ(store, (Tags{0, 4, 5}));
    EXPECT_EQ(gossip, (Tags{1, 3, 7}));
    EXPECT_EQ(r.inbox_tags(), (Tags{2, 6}));
  }
}

TEST(MsgEndpoint, TapAddedLaterLeavesEarlierTapsInPlace) {
  MsgRig r;
  Tags early;
  Tags late;
  r.mb.add_tap(claim(5, early));
  r.connect();
  r.post_all({5, 6});  // tags 0, 1: nothing claims 6 yet
  r.mb.add_tap(claim(6, late));
  r.post_all({6, 5});  // tags 2, 3
  EXPECT_EQ(early, (Tags{0, 3}));
  EXPECT_EQ(late, (Tags{2}));
  EXPECT_EQ(r.inbox_tags(), (Tags{1}));
}

TEST(MsgEndpoint, PostBeforeConnectThrows) {
  MsgRig r;
  EXPECT_THROW((void)r.ma.post(r.c.hosts[1], {1}), std::logic_error);
}

TEST(MsgEndpoint, MessageLargerThanItsPartitionThrows) {
  MsgRig r;
  r.connect();
  EXPECT_THROW((void)r.ma.post(r.c.hosts[1], std::vector<std::uint8_t>(
                                                 MsgRig::kPartition + 1)),
               std::length_error);
  EXPECT_NO_THROW((void)r.ma.post(
      r.c.hosts[1], std::vector<std::uint8_t>(MsgRig::kPartition)));
}

TEST(MsgEndpoint, ConnectThatGrowsThePeerTableKeepsAPendingPostsPeer) {
  // post() hands its lazily started write task the peer's slot; a connect()
  // to a higher id before the task runs grows the table under it.
  ClusterConfig cfg = VmmcRig::make_default();
  cfg.num_hosts = 3;
  Cluster c(cfg);
  vmmc::Endpoint e0(c.sched, c.nic(0));
  vmmc::Endpoint e1(c.sched, c.nic(1));
  vmmc::Endpoint e2(c.sched, c.nic(2));
  vmmc::MsgEndpoint m0{c.sched, e0, 1024, /*max_peers=*/3};
  vmmc::MsgEndpoint m1{c.sched, e1, 1024, /*max_peers=*/3};
  vmmc::MsgEndpoint m2{c.sched, e2, 1024, /*max_peers=*/3};
  ASSERT_LT(c.hosts[1].v, c.hosts[2].v);
  bool done = false;
  [](Cluster& c, vmmc::MsgEndpoint& m0, bool& done) -> sim::Process {
    EXPECT_TRUE(co_await m0.connect(c.hosts[1]));
    sim::Task<void> pending = m0.post(c.hosts[1], {7, 8, 9}, /*tag=*/42);
    EXPECT_TRUE(co_await m0.connect(c.hosts[2]));
    co_await std::move(pending);
    done = true;
  }(c, m0, done);
  const sim::Time deadline = c.sched.now() + sim::seconds(1);
  while (!done && c.sched.now() < deadline && c.sched.step()) {
  }
  ASSERT_TRUE(done);
  c.sched.run_for(sim::milliseconds(1));
  ASSERT_EQ(m1.inbox().size(), 1u);
  vmmc::Msg got;
  [](Cluster& c, vmmc::MsgEndpoint& m1, vmmc::Msg& out) -> sim::Process {
    out = co_await m1.inbox().pop(c.sched);
  }(c, m1, got);
  EXPECT_EQ(got.src, c.hosts[0]);
  EXPECT_EQ(got.tag, 42u);
  EXPECT_EQ(got.bytes, (std::vector<std::uint8_t>{7, 8, 9}));
  EXPECT_EQ(m2.inbox().size(), 0u);
}

TEST(MsgEndpoint, MultiSegmentMessagesArriveWholeAcrossPartitionWraps) {
  // 4,097 and 10,000 bytes take 2 and 3 NIC buffers and are the messages an
  // inbox still assembles in the ring; 64 and 4,096 bytes take one. Three
  // partitions' worth of them wrap the 16 KiB partition several times.
  constexpr std::size_t kPartition = 16 * 1024;
  MsgRig r(kPartition);
  r.connect();
  const std::size_t sizes[] = {4097, 64, 10000, 4096};
  std::vector<std::vector<std::uint8_t>> sent;
  std::uint64_t segments = 0;
  for (std::size_t total = 0; total < 3 * kPartition;) {
    const std::size_t n = sizes[sent.size() % 4];
    sent.push_back(pattern(n, static_cast<std::uint8_t>(sent.size())));
    segments += (n + 4095) / 4096;
    total += n;
  }
  r.post_each(sent);
  EXPECT_EQ(r.a.stats().segments_tx, segments);
  const std::vector<vmmc::Msg> got = r.drain();
  ASSERT_EQ(got.size(), sent.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    SCOPED_TRACE(testing::Message() << "message " << i);
    EXPECT_EQ(got[i].tag, i);
    EXPECT_EQ(got[i].src, r.c.hosts[0]);
    EXPECT_TRUE(got[i].bytes == sent[i]) << got[i].bytes.size() << " B";
  }
}

TEST(MsgEndpoint, AHeldMessageStaysByteExactWhileItsSenderLapsThePartition) {
  // One message assembled in the ring and one handed over whole; then the
  // sender writes other bytes over the same ring space several times.
  constexpr std::size_t kPartition = 16 * 1024;
  MsgRig r(kPartition);
  r.connect();
  const std::vector<std::uint8_t> long_msg = pattern(10000, 1);
  const std::vector<std::uint8_t> short_msg = pattern(300, 2);
  r.post_each({long_msg, short_msg});
  const std::vector<vmmc::Msg> held = r.drain();
  ASSERT_EQ(held.size(), 2u);
  std::vector<std::vector<std::uint8_t>> laps;
  for (std::size_t i = 0; i < 8; ++i) {
    laps.push_back(pattern(10000, static_cast<std::uint8_t>(100 + i)));
    laps.push_back(pattern(300, static_cast<std::uint8_t>(200 + i)));
  }
  r.post_each(laps);
  EXPECT_EQ(r.drain().size(), laps.size());
  EXPECT_TRUE(held[0].bytes == long_msg);
  EXPECT_TRUE(held[1].bytes == short_msg);
}

TEST(MsgEndpoint, OneSegmentMessagesLeaveTheRingUnwritten) {
  // A message that fits one NIC buffer is delivered as the payload that
  // carried it: no page of the ring is ever written for it.
  constexpr std::size_t kPartition = 16 * 1024;
  MsgRig r(kPartition);
  r.connect();
  std::vector<std::vector<std::uint8_t>> msgs;
  for (std::size_t i = 0; i < 100; ++i) {
    msgs.push_back(pattern(i * 397 % 4096 + 1, static_cast<std::uint8_t>(i)));
  }
  r.post_each(msgs);
  EXPECT_EQ(r.mb.inbox().size(), msgs.size());
  EXPECT_EQ(resident_pages(r.b.buffer(vmmc::MsgEndpoint::kRingExport)), 0u);
}

TEST(MsgEndpoint, ConnectFailsWhenTheRemoteRingHasNoPartitionForThisHost) {
  // Host 1's ring holds the partitions of hosts 0 and 1 only. Host 2 would
  // write past its end, and host 1 would reject every message it posted.
  ClusterConfig cfg = VmmcRig::make_default();
  cfg.num_hosts = 3;
  Cluster c(cfg);
  ASSERT_EQ(c.hosts[2].v, 2u);
  vmmc::Endpoint e0(c.sched, c.nic(0));
  vmmc::Endpoint e1(c.sched, c.nic(1));
  vmmc::Endpoint e2(c.sched, c.nic(2));
  vmmc::MsgEndpoint m0{c.sched, e0, 1024, /*max_peers=*/3};
  vmmc::MsgEndpoint m1{c.sched, e1, 1024, /*max_peers=*/2};
  vmmc::MsgEndpoint m2{c.sched, e2, 1024, /*max_peers=*/3};
  bool done = false;
  [](Cluster& c, vmmc::MsgEndpoint& m0, vmmc::MsgEndpoint& m2,
     bool& done) -> sim::Process {
    EXPECT_TRUE(co_await m0.connect(c.hosts[1]));
    EXPECT_FALSE(co_await m2.connect(c.hosts[1]));
    done = true;
  }(c, m0, m2, done);
  const sim::Time deadline = c.sched.now() + sim::seconds(1);
  while (!done && c.sched.now() < deadline && c.sched.step()) {
  }
  ASSERT_TRUE(done);
  EXPECT_TRUE(m0.connected(c.hosts[1]));
  EXPECT_FALSE(m2.connected(c.hosts[1]));
  EXPECT_EQ(m2.stats().connects, 0u);
  EXPECT_THROW((void)m2.post(c.hosts[1], {1}), std::logic_error);
}

TEST(MsgEndpoint, RingMustBeTheEndpointsFirstExport) {
  VmmcRig r;
  (void)r.a.export_buffer(64);
  EXPECT_THROW({ vmmc::MsgEndpoint m(r.c.sched, r.a); }, std::logic_error);
}

// --- micro-benchmark calibration against §6.1.1 ----------------------------

TEST(Microbench, LatencyWithFtNear10us) {
  ClusterConfig cfg;
  cfg.num_hosts = 2;
  cfg.fw = FirmwareKind::kReliable;
  Cluster c(cfg);
  auto r = harness::run_latency(c, 4, 30);
  EXPECT_GT(r.one_way_us(), 8.5);
  EXPECT_LT(r.one_way_us(), 11.5);
}

TEST(Microbench, LatencyWithoutFtNear8us) {
  ClusterConfig cfg;
  cfg.num_hosts = 2;
  cfg.fw = FirmwareKind::kRaw;
  Cluster c(cfg);
  auto r = harness::run_latency(c, 4, 30);
  EXPECT_GT(r.one_way_us(), 7.0);
  EXPECT_LT(r.one_way_us(), 9.0);
}

TEST(Microbench, FtLatencyOverheadUnder2p1usUpTo64B) {
  for (std::size_t bytes : {4u, 8u, 16u, 32u, 64u}) {
    ClusterConfig raw_cfg;
    raw_cfg.num_hosts = 2;
    raw_cfg.fw = FirmwareKind::kRaw;
    Cluster craw(raw_cfg);
    auto raw = harness::run_latency(craw, bytes, 20);

    ClusterConfig ft_cfg;
    ft_cfg.num_hosts = 2;
    ft_cfg.fw = FirmwareKind::kReliable;
    Cluster cft(ft_cfg);
    auto ft = harness::run_latency(cft, bytes, 20);

    EXPECT_LE(ft.one_way_us() - raw.one_way_us(), 2.1)
        << "message size " << bytes;
  }
}

TEST(Microbench, UnidirectionalBandwidthNear120MBs) {
  ClusterConfig cfg;
  cfg.num_hosts = 2;
  cfg.fw = FirmwareKind::kReliable;
  Cluster c(cfg);
  auto r = harness::run_unidirectional_bw(c, 64 * 1024, 40);
  EXPECT_GT(r.mbytes_per_sec(), 100.0);
  EXPECT_LT(r.mbytes_per_sec(), 135.0);
}

TEST(Microbench, FtBandwidthOverheadUnder4PercentAbove4K) {
  for (std::size_t bytes : {4096u, 16384u, 65536u}) {
    ClusterConfig raw_cfg;
    raw_cfg.num_hosts = 2;
    raw_cfg.fw = FirmwareKind::kRaw;
    Cluster craw(raw_cfg);
    auto raw = harness::run_unidirectional_bw(craw, bytes, 30);

    ClusterConfig ft_cfg;
    ft_cfg.num_hosts = 2;
    ft_cfg.fw = FirmwareKind::kReliable;
    Cluster cft(ft_cfg);
    auto ft = harness::run_unidirectional_bw(cft, bytes, 30);

    const double loss =
        (raw.mbytes_per_sec() - ft.mbytes_per_sec()) / raw.mbytes_per_sec();
    EXPECT_LT(loss, 0.04) << "message size " << bytes;
  }
}

TEST(Microbench, PingPongBandwidthRampsWithMessageSize) {
  ClusterConfig cfg;
  cfg.num_hosts = 2;
  cfg.fw = FirmwareKind::kReliable;
  double prev = 0;
  for (std::size_t bytes : {256u, 4096u, 65536u}) {
    Cluster c(cfg);
    auto r = harness::run_pingpong_bw(c, bytes, 20);
    EXPECT_GT(r.mbytes_per_sec(), prev);
    prev = r.mbytes_per_sec();
  }
  EXPECT_GT(prev, 80.0);  // large ping-pong approaches the PCI plateau
}

}  // namespace
}  // namespace sanfault
