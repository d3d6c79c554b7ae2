// Tests for the replicated KV service: the message layer underneath it, the
// consistent-hash shard map, basic GET/PUT/DEL semantics, idempotency of
// retries under injected transient errors, and the headline guarantee — a
// permanent link failure mid-workload loses and duplicates nothing that was
// committed.
#include <gtest/gtest.h>

#include <set>
#include <stdexcept>

#include "kv/audit.hpp"
#include "kv/rig.hpp"
#include "sim/process.hpp"
#include "traffic/engine.hpp"
#include "vmmc/rpc.hpp"

namespace sanfault {
namespace {

void drive(sim::Scheduler& sched, const bool& flag,
           sim::Duration cap = sim::seconds(300)) {
  const sim::Time deadline = sched.now() + cap;
  while (!flag && sched.now() < deadline && sched.step()) {
  }
  ASSERT_TRUE(flag) << "drive() hit the safety cap";
}

// --- shard map -------------------------------------------------------------

TEST(ShardMap, PrimaryAndBackupDistinctAndDeterministic) {
  std::vector<net::HostId> servers{{0}, {1}, {2}, {3}};
  kv::ShardMap a(servers, 32);
  kv::ShardMap b(servers, 32);
  for (std::size_t sh = 0; sh < a.num_shards(); ++sh) {
    EXPECT_NE(a.primary(sh), a.backup(sh));
    EXPECT_EQ(a.primary(sh), b.primary(sh));
    EXPECT_EQ(a.backup(sh), b.backup(sh));
  }
}

TEST(ShardMap, AllServersOwnShards) {
  std::vector<net::HostId> servers{{0}, {1}, {2}, {3}};
  kv::ShardMap m(servers, 64);
  for (const auto h : servers) {
    EXPECT_FALSE(m.shards_owned_by(h).empty())
        << "server " << h.v << " owns nothing";
  }
}

TEST(ShardMap, RejectsOneServerAndUnparallelPods) {
  // One server has no distinct backup to find: the ring walk never ends.
  EXPECT_THROW(kv::ShardMap({net::HostId{0}}, 4), std::invalid_argument);
  const std::vector<net::HostId> servers{{0}, {1}, {2}};
  EXPECT_THROW(kv::ShardMap(servers, 4, 16, 0x5a4dull, {0, 1}),
               std::invalid_argument);
  EXPECT_NO_THROW(kv::ShardMap(servers, 4, 16, 0x5a4dull, {0, 1, 1}));
}

TEST(ShardMap, KeyRoutingConsistent) {
  std::vector<net::HostId> servers{{0}, {1}, {2}};
  kv::ShardMap m(servers, 16);
  for (std::uint64_t k = 0; k < 100; ++k) {
    const std::size_t sh = m.shard_of(k);
    EXPECT_EQ(m.primary_of_key(k), m.primary(sh));
    EXPECT_EQ(m.backup_of_key(k), m.backup(sh));
  }
}

// --- message layer ---------------------------------------------------------

TEST(MsgEndpoint, PostDeliversInOrderWithTags) {
  harness::ClusterConfig cfg;
  cfg.num_hosts = 2;
  harness::Cluster c(cfg);
  vmmc::Endpoint ea(c.sched, c.nic(0));
  vmmc::Endpoint eb(c.sched, c.nic(1));
  vmmc::MsgEndpoint ma(c.sched, ea, 4096, 4);
  vmmc::MsgEndpoint mb(c.sched, eb, 4096, 4);

  bool done = false;
  [](harness::Cluster& c, vmmc::MsgEndpoint& ma, vmmc::MsgEndpoint& mb,
     bool& done) -> sim::Process {
    const bool ok = co_await ma.connect(c.hosts[1]);
    EXPECT_TRUE(ok);
    for (std::uint64_t i = 0; i < 20; ++i) {
      co_await ma.post(c.hosts[1],
                       std::vector<std::uint8_t>(100 + i,
                                                 static_cast<std::uint8_t>(i)),
                       /*tag=*/i);
    }
    for (std::uint64_t i = 0; i < 20; ++i) {
      vmmc::Msg m = co_await mb.inbox().pop(c.sched);
      EXPECT_EQ(m.tag, i);
      EXPECT_EQ(m.src, c.hosts[0]);
      EXPECT_EQ(m.bytes.size(), 100 + i);
      EXPECT_EQ(m.bytes.span()[0], static_cast<std::uint8_t>(i));
    }
    done = true;
  }(c, ma, mb, done);
  drive(c.sched, done);
  EXPECT_EQ(ma.stats().msgs_tx, 20u);
  EXPECT_EQ(mb.stats().msgs_rx, 20u);
}

TEST(MsgEndpoint, RingWrapsKeepMessagesIntact) {
  harness::ClusterConfig cfg;
  cfg.num_hosts = 2;
  harness::Cluster c(cfg);
  vmmc::Endpoint ea(c.sched, c.nic(0));
  vmmc::Endpoint eb(c.sched, c.nic(1));
  // Tiny partition: 300-byte messages wrap every few posts.
  vmmc::MsgEndpoint ma(c.sched, ea, 1024, 4);
  vmmc::MsgEndpoint mb(c.sched, eb, 1024, 4);

  bool done = false;
  [](harness::Cluster& c, vmmc::MsgEndpoint& ma, vmmc::MsgEndpoint& mb,
     bool& done) -> sim::Process {
    (void)co_await ma.connect(c.hosts[1]);
    for (std::uint64_t i = 0; i < 30; ++i) {
      std::vector<std::uint8_t> payload(300);
      for (std::size_t j = 0; j < payload.size(); ++j) {
        payload[j] = static_cast<std::uint8_t>(i * 31 + j);
      }
      co_await ma.post(c.hosts[1], payload, i);
      vmmc::Msg m = co_await mb.inbox().pop(c.sched);
      EXPECT_EQ(m.tag, i);
      EXPECT_EQ(m.bytes, payload);
    }
    done = true;
  }(c, ma, mb, done);
  drive(c.sched, done);
}

// --- wire format -----------------------------------------------------------

TEST(KvWire, RequestRoundTrip) {
  kv::Request q;
  q.op = kv::Op::kPut;
  q.id = {7, 99};
  q.key = 0xdeadbeefull;
  q.reply_to = 5;
  q.value = {1, 2, 3, 4};
  const auto b = kv::encode(q);
  EXPECT_EQ(kv::peek_type(b), kv::MsgType::kRequest);
  const auto d = kv::decode<kv::Request>(b);
  ASSERT_TRUE(d.has_value());
  EXPECT_EQ(d->op, q.op);
  EXPECT_EQ(d->id, q.id);
  EXPECT_EQ(d->key, q.key);
  EXPECT_EQ(d->reply_to, q.reply_to);
  EXPECT_EQ(d->value, q.value);
}

TEST(KvWire, TruncatedMessageRejected) {
  kv::Reply r;
  r.id = {1, 2};
  r.status = kv::Status::kOk;
  r.value = {9, 9, 9};
  auto b = kv::encode(r);
  b.resize(b.size() - 2);
  EXPECT_FALSE(kv::decode<kv::Reply>(b).has_value());
  EXPECT_FALSE(kv::decode<kv::Request>(b).has_value());
}

std::string hex(const std::vector<std::uint8_t>& b) {
  static constexpr char kDigits[] = "0123456789abcdef";
  std::string s;
  for (const std::uint8_t c : b) {
    s += kDigits[c >> 4];
    s += kDigits[c & 0xf];
  }
  return s;
}

// Pins one message's wire bytes to committed hex, then checks that decoding
// them and re-encoding gives the same bytes, that every strict prefix is
// rejected, and that every other leading type byte is rejected.
template <class M>
void expect_wire(const M& m, kv::MsgType type, const std::string& golden) {
  const auto b = kv::encode(m);
  EXPECT_EQ(kv::peek_type(b), type);
  EXPECT_EQ(hex(b), golden);
  const auto d = kv::decode<M>(b);
  ASSERT_TRUE(d.has_value());
  EXPECT_EQ(hex(kv::encode(*d)), golden);
  for (std::size_t n = 0; n < b.size(); ++n) {
    const std::vector<std::uint8_t> prefix(b.begin(), b.begin() + n);
    EXPECT_FALSE(kv::decode<M>(prefix).has_value()) << "prefix " << n;
  }
  auto wrong = b;
  for (int t = 0; t < 256; ++t) {
    if (t == static_cast<int>(type)) continue;
    wrong[0] = static_cast<std::uint8_t>(t);
    EXPECT_FALSE(kv::decode<M>(wrong).has_value()) << "type byte " << t;
  }
}

// Every field holds distinct bytes, so a reordered or resized field moves
// the hex. Integers are little-endian; byte strings carry a u32 length.
TEST(KvWire, EveryMessageMatchesItsGoldenBytes) {
  const kv::RequestId id{0x0102030405060708ull, 0x1112131415161718ull};
  const kv::RequestId writer{0x6162636465666768ull, 0x7172737475767778ull};
  const std::uint64_t key = 0x2122232425262728ull;

  kv::Request q;
  q.op = kv::Op::kPut;
  q.id = id;
  q.key = key;
  q.reply_to = 0x31323334;
  q.value = {0xa1, 0xa2, 0xa3};
  expect_wire(q, kv::MsgType::kRequest,
              "01020807060504030201181716151413121128272625242322213433323103"
              "000000a1a2a3");

  kv::Reply r;
  r.id = id;
  r.status = kv::Status::kNotFound;
  r.value = {0xb1, 0xb2};
  expect_wire(r, kv::MsgType::kReply,
              "02020807060504030201181716151413121102000000b1b2");

  kv::Replicate rp;
  rp.id = id;
  rp.repl_seq = 0x4142434445464748ull;
  rp.op = kv::Op::kDel;
  rp.key = key;
  rp.value = {0xc1};
  expect_wire(rp, kv::MsgType::kReplicate,
              "03030807060504030201181716151413121148474645444342412827262524"
              "23222101000000c1");

  expect_wire(kv::ReplAck{0x4142434445464748ull}, kv::MsgType::kReplAck,
              "044847464544434241");

  kv::UnitPut up;
  up.id = id;
  up.key = key;
  up.unit = 5;
  up.object_len = 0x51525354;
  up.reply_to = 0x31323334;
  up.value = {0xd1, 0xd2, 0xd3, 0xd4};
  expect_wire(up, kv::MsgType::kUnitPut,
              "05080706050403020118171615141312112827262524232221055453525134"
              "33323104000000d1d2d3d4");

  expect_wire(kv::UnitAck{id, key, 6, kv::Status::kNotOwner},
              kv::MsgType::kUnitAck,
              "060807060504030201181716151413121128272625242322210603");

  expect_wire(kv::UnitGet{id, key, 7, 0x31323334}, kv::MsgType::kUnitGet,
              "070807060504030201181716151413121128272625242322210734333231");

  kv::UnitReply ur;
  ur.id = id;
  ur.key = key;
  ur.unit = 8;
  ur.status = kv::Status::kOk;
  ur.writer = writer;
  ur.object_len = 0x51525354;
  ur.value = {0xe1, 0xe2};
  expect_wire(ur, kv::MsgType::kUnitReply,
              "08080706050403020118171615141312112827262524232221080168676665"
              "6463626178777675747372715453525102000000e1e2");
}

// --- service semantics -----------------------------------------------------

kv::KvRigConfig small_rig_config() {
  kv::KvRigConfig rc;
  rc.num_servers = 2;
  rc.num_client_hosts = 1;
  rc.num_shards = 8;
  return rc;
}

TEST(KvRig, MembershipWithoutReliableFirmwareIsRejected) {
  // A SWIM confirm excludes the dead peer at the reliable firmware, which
  // raw firmware does not have: the rig refuses before building anything.
  kv::KvRigConfig rc = small_rig_config();
  rc.membership = true;
  rc.cluster.fw = harness::FirmwareKind::kRaw;
  EXPECT_THROW(kv::KvRig{rc}, std::invalid_argument);
  rc.cluster.fw = harness::FirmwareKind::kReliable;
  EXPECT_NO_THROW(kv::KvRig{rc});
}

TEST(KvRig, StripedWithFewerThanKPlusMServersIsRejected) {
  // The default rig has 4 servers; a k=4, m=2 stripe needs 6 holders.
  kv::KvRigConfig rc;
  rc.striped = true;
  EXPECT_THROW(kv::KvRig{rc}, std::invalid_argument);
}

TEST(KvService, PutGetDelBasics) {
  kv::KvRig rig(small_rig_config());
  bool done = false;
  [](kv::KvRig& rig, bool& done) -> sim::Process {
    auto& ch = rig.client(0);
    const auto v = kv::make_value({1, 1}, 64);

    auto put = co_await ch.call({1, 1}, kv::Op::kPut, 42, v);
    EXPECT_EQ(put.status, kv::Status::kOk);

    auto get = co_await ch.call({1, 2}, kv::Op::kGet, 42, {});
    EXPECT_EQ(get.status, kv::Status::kOk);
    EXPECT_EQ(get.value, v);

    auto miss = co_await ch.call({1, 3}, kv::Op::kGet, 43, {});
    EXPECT_EQ(miss.status, kv::Status::kNotFound);

    auto del = co_await ch.call({1, 4}, kv::Op::kDel, 42, {});
    EXPECT_EQ(del.status, kv::Status::kOk);

    auto gone = co_await ch.call({1, 5}, kv::Op::kGet, 42, {});
    EXPECT_EQ(gone.status, kv::Status::kNotFound);

    auto del2 = co_await ch.call({1, 6}, kv::Op::kDel, 42, {});
    EXPECT_EQ(del2.status, kv::Status::kNotFound);
    done = true;
  }(rig, done);
  drive(rig.c.sched, done);
}

TEST(KvService, WritesReplicateToBackup) {
  kv::KvRig rig(small_rig_config());
  bool done = false;
  [](kv::KvRig& rig, bool& done) -> sim::Process {
    for (std::uint64_t k = 0; k < 32; ++k) {
      auto o = co_await rig.client(0).call({2, k + 1}, kv::Op::kPut, k,
                                           kv::make_value({2, k + 1}, 48));
      EXPECT_EQ(o.status, kv::Status::kOk);
    }
    done = true;
  }(rig, done);
  drive(rig.c.sched, done);
  rig.c.sched.run_for(sim::milliseconds(50));

  // Every key must live on both nodes (each is primary for some shards and
  // backup for the rest).
  std::size_t total0 = rig.server(0).store().size();
  std::size_t total1 = rig.server(1).store().size();
  EXPECT_EQ(total0, 32u);
  EXPECT_EQ(total1, 32u);
  EXPECT_GT(rig.server(0).stats().replicates_rx +
                rig.server(1).stats().replicates_rx,
            0u);
}

TEST(KvService, RetriesUnderInjectedErrorsStayExactlyOnce) {
  kv::KvRigConfig rc = small_rig_config();
  rc.cluster.rel.drop_interval = 20;  // brutal 5% transient loss
  // Keep the permanent-failure detector out of the way; this test is about
  // transient recovery + dedup.
  rc.cluster.rel.fail_threshold = sim::seconds(30);
  rc.cluster.rel.fail_min_rounds = 1000;
  kv::KvRig rig(rc);

  kv::ShadowMap shadow;
  bool done = false;
  [](kv::KvRig& rig, kv::ShadowMap& shadow, bool& done) -> sim::Process {
    for (std::uint64_t k = 0; k < 200; ++k) {
      const kv::RequestId id{3, k + 1};
      shadow.record_issued_write(id, k % 50);
      auto o = co_await rig.client(0).call(id, kv::Op::kPut, k % 50,
                                           kv::make_value(id, 80));
      EXPECT_TRUE(o.ok());
      if (o.ok()) shadow.record_committed(id);
    }
    done = true;
  }(rig, shadow, done);
  drive(rig.c.sched, done);
  rig.c.sched.run_for(sim::milliseconds(100));

  EXPECT_GT(rig.c.rel(0).stats().injected_drops +
                rig.c.rel(1).stats().injected_drops +
                rig.c.rel(2).stats().injected_drops,
            0u);
  // The client did retry, and a server dropped a retry of a write it was
  // still replicating: the retry and dedup paths both ran.
  EXPECT_GT(rig.client(0).stats().timeouts, 0u);
  EXPECT_GT(rig.server(0).stats().dup_requests +
                rig.server(1).stats().dup_requests,
            0u);
  const auto audit = kv::audit(*rig.map, rig.server_view(), shadow);
  EXPECT_EQ(audit.lost, 0u);
  EXPECT_EQ(audit.duplicated, 0u);
  EXPECT_EQ(audit.replica_mismatches, 0u);
  EXPECT_EQ(audit.alien_values, 0u);
}

// The headline test: a primary's link dies permanently mid-workload. The
// firmware declares the path dead, the mapper finds the redundant trunk and
// a new generation restarts; clients ride over it with retry + failover. No
// committed write may be lost or duplicated.
TEST(KvService, LinkKillMidWorkloadLosesNothing) {
  kv::KvRigConfig rc;
  rc.num_servers = 4;
  rc.num_client_hosts = 2;
  rc.cluster.topo = harness::TopoKind::kFigure2;
  rc.cluster.mapper = harness::MapperKind::kOnDemand;
  rc.cluster.rel.fail_threshold = sim::milliseconds(10);
  rc.cluster.rel.fail_min_rounds = 8;
  kv::KvRig rig(rc);

  traffic::TrafficConfig tc;
  tc.num_clients = 50;
  tc.total_requests = 1500;
  tc.rate_rps = 50000;
  tc.get_ratio = 0.3;  // write-heavy: stress replication across the failure
  tc.seed = 11;
  traffic::TrafficEngine engine(rig.c.sched, rig.client_view(), tc);
  engine.start();

  rig.c.sched.after(sim::milliseconds(10), [&rig] {
    rig.c.topo.set_link_up(net::LinkId{0}, false);
  });

  const sim::Time cap = sim::seconds(300);
  while (!engine.done() && rig.c.sched.now() < cap && rig.c.sched.step()) {
  }
  ASSERT_TRUE(engine.done()) << "workload did not complete";
  rig.c.sched.run_for(sim::milliseconds(100));
  const sim::Time qcap = rig.c.sched.now() + sim::seconds(10);
  while (!rig.servers_idle() && rig.c.sched.now() < qcap && rig.c.sched.step()) {
  }
  rig.c.sched.run_for(sim::milliseconds(100));

  std::uint64_t path_failures = 0;
  for (std::size_t i = 0; i < rig.c.size(); ++i) {
    path_failures += rig.c.rel(i).stats().path_failures;
  }
  EXPECT_GT(path_failures, 0u) << "the kill never bit a used route";

  const auto audit = kv::audit(*rig.map, rig.server_view(), engine.shadow());
  EXPECT_GT(audit.committed, 0u);
  EXPECT_EQ(audit.lost, 0u);
  EXPECT_EQ(audit.duplicated, 0u);
  EXPECT_EQ(audit.replica_mismatches, 0u);
  EXPECT_EQ(audit.alien_values, 0u);
}

// --- erasure-coded striped object class ------------------------------------

kv::KvRigConfig striped_rig_config() {
  kv::KvRigConfig rc;
  rc.num_servers = 8;  // k+m = 6 units need 6+ distinct holders
  rc.num_client_hosts = 2;
  rc.striped = true;
  return rc;
}

TEST(KvStriped, PutGetRoundTripAndUnitSpread) {
  kv::KvRig rig(striped_rig_config());
  bool done = false;
  [](kv::KvRig& rig, bool& done) -> sim::Process {
    auto& sc = rig.striped_client(0);
    for (std::uint64_t key = 0; key < 12; ++key) {
      const kv::RequestId id{7, key + 1};
      const auto v = kv::make_value(id, 48 + key * 17);
      auto put = co_await sc.put(id, key, v);
      EXPECT_EQ(put.status, kv::Status::kOk) << "key " << key;
      auto get = co_await sc.get({8, key + 1}, key);
      EXPECT_EQ(get.status, kv::Status::kOk) << "key " << key;
      EXPECT_FALSE(get.degraded);
      EXPECT_EQ(get.value, v) << "key " << key;
    }
    auto miss = co_await sc.get({8, 1000}, 999);
    EXPECT_EQ(miss.status, kv::Status::kNotFound);
    done = true;
  }(rig, done);
  drive(rig.c.sched, done);

  // Every stripe's k+m units must sit on k+m distinct servers, and each
  // server must hold exactly the units the StripeMap assigns it.
  for (std::uint64_t key = 0; key < 12; ++key) {
    const auto holders = rig.stripe_map->base(rig.stripe_map->group_of(key));
    std::set<std::uint32_t> distinct;
    for (std::size_t u = 0; u < holders.size(); ++u) {
      distinct.insert(holders[u].v);
      const auto& store = rig.stores[holders[u].v]->store();
      const auto kit = store.find(key);
      ASSERT_NE(kit, store.end()) << "key " << key << " unit " << u;
      EXPECT_TRUE(kit->second.contains(static_cast<std::uint8_t>(u)));
    }
    EXPECT_EQ(distinct.size(), holders.size()) << "key " << key;
  }
}

// A holder dies; until the repair machine has re-materialised its units,
// reads must come back correct anyway — reconstructed from parity. The
// repair throttle is squeezed hard so the degraded window is wide open when
// the reads land.
TEST(KvStriped, DegradedReadsServeExactBytesMidRepair) {
  kv::KvRigConfig rc = striped_rig_config();
  rc.membership = true;
  rc.ring_per_peer = 16 * 1024;
  rc.repair.bandwidth_bytes_per_sec = 20'000;  // ~0.8 ms per 16-byte unit
  rc.repair.burst_bytes = 64;
  kv::KvRig rig(rc);

  kv::StripedShadow shadow;
  const std::size_t kKeys = 40;
  bool wrote = false;
  [](kv::KvRig& rig, kv::StripedShadow& shadow, std::size_t keys,
     bool& done) -> sim::Process {
    auto& sc = rig.striped_client(0);
    for (std::uint64_t key = 0; key < keys; ++key) {
      const kv::RequestId id{7, key + 1};
      const auto v = kv::make_value(id, 64);
      shadow.record_issued(id, key, static_cast<std::uint32_t>(v.size()));
      auto put = co_await sc.put(id, key, v);
      EXPECT_EQ(put.status, kv::Status::kOk) << "key " << key;
      shadow.record_committed(id);
    }
    done = true;
  }(rig, shadow, kKeys, wrote);
  drive(rig.c.sched, wrote);

  const net::HostId victim = rig.c.hosts[3];
  rig.c.fabric().cut_host(victim);
  rig.c.sched.run_for(membership::SwimAgent::detection_bound(
                          rig.config().swim, rig.c.size()) +
                      sim::milliseconds(5));
  ASSERT_TRUE(rig.agents[0]->confirmed_dead(victim));

  bool read = false;
  [](kv::KvRig& rig, std::size_t keys, bool& done) -> sim::Process {
    auto& sc = rig.striped_client(0);
    for (std::uint64_t key = 0; key < keys; ++key) {
      const kv::RequestId id{7, key + 1};
      auto get = co_await sc.get({8, key + 1}, key);
      EXPECT_EQ(get.status, kv::Status::kOk) << "key " << key;
      EXPECT_EQ(get.value, kv::make_value(id, 64)) << "key " << key;
    }
    done = true;
  }(rig, kKeys, read);
  drive(rig.c.sched, read);
  EXPECT_GT(rig.striped_client(0).stats().degraded_reads, 0u)
      << "the kill never forced a reconstruction; test proves nothing";

  // Let repair drain, then the extended audit must find every committed
  // stripe complete on live holders and exactly-once everywhere.
  rig.quiesce();
  // Live nodes must repair everything they lead without giving up. The cut
  // host's own machine is excluded: isolated, its agent confirms every peer
  // dead and it futilely queues repairs that all abandon into the void.
  std::uint64_t repaired = 0;
  for (const auto& rm : rig.repairs) {
    if (rm->host() == victim) continue;
    repaired += rm->stats().stripes_repaired;
    EXPECT_EQ(rm->stats().stripes_abandoned, 0u);
  }
  EXPECT_GT(repaired, 0u);

  const auto dead = [&rig](net::HostId h) {
    return rig.agents[0]->confirmed_dead(h);
  };
  const auto audit = kv::audit_striped(*rig.stripe_map, *rig.codec,
                                       rig.store_view(), shadow, dead);
  EXPECT_EQ(audit.committed, kKeys);
  EXPECT_EQ(audit.lost, 0u);
  EXPECT_EQ(audit.mismatched, 0u);
  EXPECT_EQ(audit.duplicated, 0u);
  EXPECT_EQ(audit.incomplete, 0u);
  EXPECT_EQ(audit.alien_units, 0u);
}

}  // namespace
}  // namespace sanfault
