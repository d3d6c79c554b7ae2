// Tests for the observability subsystem (src/obs): registry semantics
// (counter monotonicity, gauge watermarks, histogram percentiles, collector
// lifecycle), trace-ring wraparound, JSON export shape — and integration
// tests proving that fault-injection runs produce the counters and trace
// events documented in docs/OBSERVABILITY.md.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <vector>

#include "harness/cluster.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "sim/process.hpp"
#include "sim/scheduler.hpp"

namespace sanfault {
namespace {

using harness::Cluster;
using harness::ClusterConfig;
using harness::FirmwareKind;
using harness::MapperKind;
using harness::TopoKind;

// --- registry unit tests ----------------------------------------------------

TEST(Registry, CounterIsMonotonic) {
  obs::Counter c;
  c.inc();
  c.inc(4);
  EXPECT_EQ(c.value(), 5u);
  c.set(3);  // collectors may only move counters forward
  EXPECT_EQ(c.value(), 5u);
  c.set(9);
  EXPECT_EQ(c.value(), 9u);
}

TEST(Registry, GaugeTracksHighWatermark) {
  obs::Gauge g;
  g.set(7);
  g.set(2);
  g.add(-2);
  EXPECT_EQ(g.value(), 0);
  EXPECT_EQ(g.max(), 7);
}

TEST(Registry, HistogramPercentilesOrdered) {
  obs::Histogram h;
  for (std::uint64_t v = 1; v <= 1000; ++v) h.record(v * 1000);
  const auto& hist = h.hist();
  EXPECT_EQ(hist.count(), 1000u);
  const auto p50 = hist.quantile(0.50);
  const auto p99 = hist.quantile(0.99);
  EXPECT_LE(p50, p99);
  // HdrHistogram buckets have ~3% relative error.
  EXPECT_NEAR(static_cast<double>(p50), 500e3, 500e3 * 0.05);
  EXPECT_NEAR(static_cast<double>(p99), 990e3, 990e3 * 0.05);
}

TEST(Registry, GetOrCreateReturnsStableRefs) {
  sim::Scheduler sched;
  obs::Registry& reg = obs::Registry::of(sched);
  obs::Counter& a = reg.counter("x.a", "u");
  a.inc(5);
  // Creating more metrics must not invalidate earlier references.
  for (int i = 0; i < 100; ++i) {
    reg.counter("x.fill" + std::to_string(i));
  }
  EXPECT_EQ(&reg.counter("x.a"), &a);
  EXPECT_EQ(reg.counter_value("x.a"), 5u);
}

// The kind check holds in every build, not only where asserts are compiled
// in: a name reused as another kind throws instead of handing back a null
// metric of the requested kind.
TEST(Registry, ReRegisteringANameAsAnotherKindThrows) {
  sim::Scheduler sched;
  obs::Registry& reg = obs::Registry::of(sched);
  reg.counter("x.c").inc(2);
  reg.gauge("x.g");
  reg.histogram("x.h");
  EXPECT_THROW(reg.gauge("x.c"), std::logic_error);
  EXPECT_THROW(reg.histogram("x.c"), std::logic_error);
  EXPECT_THROW(reg.counter("x.g"), std::logic_error);
  EXPECT_THROW(reg.counter("x.h"), std::logic_error);
  // The existing metric is untouched.
  EXPECT_EQ(reg.counter_value("x.c"), 2u);
}

TEST(Registry, OnePerSchedulerAndFoundWhileAlive) {
  sim::Scheduler s1;
  sim::Scheduler s2;
  obs::Registry& r1 = obs::Registry::of(s1);
  obs::Registry& r2 = obs::Registry::of(s2);
  EXPECT_NE(&r1, &r2);
  EXPECT_EQ(obs::Registry::find(s1), &r1);
  EXPECT_EQ(&obs::Registry::of(s1), &r1);
}

TEST(Registry, CollectorSyncsOnCollectAndOnRemoval) {
  sim::Scheduler sched;
  obs::Registry& reg = obs::Registry::of(sched);
  std::uint64_t source = 0;
  int owner = 0;
  reg.add_collector(&owner, [&reg, &source] {
    reg.counter("x.pulled").set(source);
  });
  source = 11;
  EXPECT_EQ(reg.counter_value("x.pulled"), 0u);  // pull model: not yet synced
  reg.collect();
  EXPECT_EQ(reg.counter_value("x.pulled"), 11u);
  source = 42;
  reg.remove_collectors(&owner);  // final sync happens here
  EXPECT_EQ(reg.counter_value("x.pulled"), 42u);
  source = 99;
  reg.collect();  // collector is gone; value frozen
  EXPECT_EQ(reg.counter_value("x.pulled"), 42u);
}

TEST(Registry, TeardownExportWritesJson) {
  const std::string path = ::testing::TempDir() + "obs_teardown.json";
  std::remove(path.c_str());
  {
    sim::Scheduler sched;
    obs::Registry& reg = obs::Registry::of(sched);
    reg.set_export_path(path);
    reg.counter("x.events", "events").inc(3);
  }  // scheduler teardown runs the export hook
  std::ifstream in(path);
  ASSERT_TRUE(in.good()) << "teardown export did not write " << path;
  std::stringstream ss;
  ss << in.rdbuf();
  EXPECT_NE(ss.str().find("\"x.events\""), std::string::npos);
  std::remove(path.c_str());
}

TEST(Registry, JsonExportContainsAllNames) {
  sim::Scheduler sched;
  obs::Registry& reg = obs::Registry::of(sched);
  reg.counter("a.count", "events").inc(7);
  reg.gauge("a.level", "items").set(-2);
  reg.histogram("a.dist", "ns").record(123);
  const std::string js = reg.to_json();
  for (const auto& name : reg.names()) {
    EXPECT_NE(js.find("\"" + name + "\""), std::string::npos) << name;
  }
  EXPECT_NE(js.find("\"value\":7"), std::string::npos);
  EXPECT_NE(js.find("\"value\":-2"), std::string::npos);
}

// --- trace ring -------------------------------------------------------------

TEST(TraceRing, DisabledByDefaultAndEmitIsANoop) {
  obs::TraceRing ring;
  EXPECT_FALSE(ring.enabled());
  ring.emit(obs::TraceEvent{0, 0, 1, 0, 0, 0, 0, obs::TraceKind::kDeliver});
  EXPECT_EQ(ring.recorded(), 0u);
  EXPECT_TRUE(ring.snapshot().empty());
}

TEST(TraceRing, WrapsKeepingNewestAndCountsDropped) {
  obs::TraceRing ring;
  ring.enable(8);
  for (std::uint32_t i = 0; i < 20; ++i) {
    ring.emit(obs::TraceEvent{static_cast<sim::Time>(i), i, 0, i, 0, 0, 0,
                              obs::TraceKind::kHopTraverse});
  }
  EXPECT_EQ(ring.recorded(), 20u);
  EXPECT_EQ(ring.dropped(), 12u);
  const auto snap = ring.snapshot();
  ASSERT_EQ(snap.size(), 8u);
  // Oldest-first, holding exactly the newest 8 events (12..19).
  for (std::size_t i = 0; i < snap.size(); ++i) {
    EXPECT_EQ(snap[i].seq, 12u + i);
  }
}

TEST(TraceRing, EveryKindHasAStableName) {
  for (int k = 0; k <= static_cast<int>(obs::TraceKind::kGenRestart); ++k) {
    const auto name = obs::trace_kind_name(static_cast<obs::TraceKind>(k));
    EXPECT_FALSE(name.empty()) << "kind " << k;
    EXPECT_NE(name, "unknown") << "kind " << k;
  }
}

// --- integration: fault-injection runs feed the documented counters ---------

sim::Process drain_forever(Cluster& c, std::size_t host, std::size_t& got) {
  for (;;) {
    co_await c.inbox(host).pop(c.sched);
    ++got;
  }
}

TEST(ObsIntegration, InjectedDropsShowUpInFirmwareCounters) {
  ClusterConfig cfg;
  cfg.num_hosts = 2;
  cfg.fw = FirmwareKind::kReliable;
  cfg.rel.drop_interval = 5;  // drop every 5th data packet at the sender
  Cluster c(cfg);
  obs::Registry& reg = obs::Registry::of(c.sched);
  reg.trace().enable(1 << 12);

  std::size_t got = 0;
  drain_forever(c, 1, got);
  for (int i = 0; i < 50; ++i) {
    c.send(0, 1, std::vector<std::uint8_t>(64, 1));
  }
  c.sched.run_until(sim::seconds(10));
  ASSERT_EQ(got, 50u);

  reg.collect();
  EXPECT_GT(reg.counter_value("firmware.injected_drops{node=0}"), 0u);
  EXPECT_GT(reg.counter_value("firmware.retransmissions{node=0}"), 0u);
  EXPECT_GT(reg.counter_value("firmware.ooo_drops{node=1}"), 0u);
  EXPECT_GT(reg.counter_value("firmware.ack_advances{node=0}"), 0u);
  EXPECT_GT(reg.counter_value("nic.wire_tx{node=0}"), 0u);
  EXPECT_GT(reg.counter_value("fabric.injected"), 0u);

  // The trace ring saw the injected drops and the recoveries.
  std::size_t inj = 0, rtx = 0, ooo = 0;
  for (const auto& ev : reg.trace().snapshot()) {
    if (ev.kind == obs::TraceKind::kInjectedDrop) ++inj;
    if (ev.kind == obs::TraceKind::kRetransmit) ++rtx;
    if (ev.kind == obs::TraceKind::kOooDrop) ++ooo;
  }
  EXPECT_GT(inj, 0u);
  EXPECT_GT(rtx, 0u);
  EXPECT_GT(ooo, 0u);
}

TEST(ObsIntegration, LinkKillShowsUpInFailureAndRemapCounters) {
  ClusterConfig cfg;
  cfg.num_hosts = 8;
  cfg.topo = TopoKind::kFigure2;
  cfg.fw = FirmwareKind::kReliable;
  cfg.mapper = MapperKind::kOnDemand;
  cfg.rel.fail_threshold = sim::milliseconds(20);
  Cluster c(cfg);
  obs::Registry& reg = obs::Registry::of(c.sched);
  // A remap episode is a few thousand events (probe storms, go-back-N
  // retries); the default capacity holds a whole one.
  reg.trace().enable();

  std::size_t got = 0;
  drain_forever(c, 3, got);
  c.send(0, 3, std::vector<std::uint8_t>(16, 1));
  c.sched.run_until(sim::seconds(1));
  ASSERT_EQ(got, 1u);

  // Kill the first trunk of every segment the preloaded route crosses; the
  // redundant twins remain, so the mapper can heal the path.
  c.topo.set_link_up(net::LinkId{0}, false);
  c.topo.set_link_up(net::LinkId{2}, false);
  c.topo.set_link_up(net::LinkId{4}, false);
  for (int i = 0; i < 5; ++i) {
    c.send(0, 3, std::vector<std::uint8_t>(16, 2));
  }
  c.sched.run_until(sim::seconds(60));
  ASSERT_EQ(got, 6u);

  reg.collect();
  EXPECT_GT(reg.counter_value("firmware.path_failures{node=0}"), 0u);
  EXPECT_GT(reg.counter_value("firmware.remap_requests{node=0}"), 0u);
  EXPECT_GT(reg.counter_value("firmware.generation_restarts{node=0}"), 0u);
  EXPECT_GT(reg.counter_value("mapper.mappings_started{node=0}"), 0u);
  EXPECT_GT(reg.counter_value("mapper.mappings_succeeded{node=0}"), 0u);
  EXPECT_GT(reg.counter_value("fabric.dropped_link_down"), 0u);

  // The remap episode is visible in the trace: failure declared, remap
  // started and finished, generation restarted.
  bool fail = false, start = false, done = false, restart = false;
  for (const auto& ev : reg.trace().snapshot()) {
    if (ev.kind == obs::TraceKind::kPathFail) fail = true;
    if (ev.kind == obs::TraceKind::kRemapStart) start = true;
    if (ev.kind == obs::TraceKind::kRemapDone) done = true;
    if (ev.kind == obs::TraceKind::kGenRestart) restart = true;
  }
  EXPECT_TRUE(fail);
  EXPECT_TRUE(start);
  EXPECT_TRUE(done);
  EXPECT_TRUE(restart);
}

TEST(ObsIntegration, CleanRunKeepsFaultCountersAtZero) {
  ClusterConfig cfg;
  cfg.num_hosts = 2;
  cfg.fw = FirmwareKind::kReliable;
  Cluster c(cfg);
  std::size_t got = 0;
  drain_forever(c, 1, got);
  for (int i = 0; i < 20; ++i) {
    c.send(0, 1, std::vector<std::uint8_t>(64, 1));
  }
  c.sched.run_until(sim::seconds(10));
  ASSERT_EQ(got, 20u);

  obs::Registry& reg = obs::Registry::of(c.sched);
  reg.collect();
  EXPECT_EQ(reg.counter_value("firmware.injected_drops{node=0}"), 0u);
  EXPECT_EQ(reg.counter_value("firmware.ooo_drops{node=1}"), 0u);
  EXPECT_EQ(reg.counter_value("firmware.path_failures{node=0}"), 0u);
  EXPECT_EQ(reg.counter_value("firmware.corrupt_drops{node=1}"), 0u);
  EXPECT_EQ(reg.counter_value("nic.crc_failures{node=1}"), 0u);
  EXPECT_EQ(reg.counter_value("fabric.corruptions_injected"), 0u);
}

}  // namespace
}  // namespace sanfault
