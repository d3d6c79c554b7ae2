// Tests for the experiment harness itself: Cluster wiring across firmware
// and topology kinds, the micro-benchmark drivers' internal consistency, and
// the table/format helpers — these are public API for downstream users, so
// they get the same coverage as the protocol code.
#include <gtest/gtest.h>

#include "harness/cluster.hpp"
#include "harness/microbench.hpp"
#include "harness/table.hpp"

namespace sanfault {
namespace {

using harness::Cluster;
using harness::ClusterConfig;
using harness::FirmwareKind;
using harness::MapperKind;
using harness::TopoKind;

TEST(Cluster, SingleSwitchWiresEveryHost) {
  ClusterConfig cfg;
  cfg.num_hosts = 6;
  Cluster c(cfg);
  EXPECT_EQ(c.size(), 6u);
  EXPECT_EQ(c.topo.num_switches(), 1u);
  for (std::size_t i = 0; i < 6; ++i) {
    for (std::size_t j = 0; j < 6; ++j) {
      if (i == j) continue;
      EXPECT_TRUE(c.topo.shortest_route(c.hosts[i], c.hosts[j]).has_value());
    }
  }
}

TEST(Cluster, Figure2KindBuildsFourSwitches) {
  ClusterConfig cfg;
  cfg.num_hosts = 8;
  cfg.topo = TopoKind::kFigure2;
  Cluster c(cfg);
  EXPECT_EQ(c.topo.num_switches(), 4u);
  EXPECT_EQ(c.switches.size(), 4u);
}

TEST(Cluster, PreloadedRoutesReachEveryPeer) {
  ClusterConfig cfg;
  cfg.num_hosts = 4;
  cfg.topo = TopoKind::kFigure2;
  Cluster c(cfg);
  for (std::size_t i = 0; i < 4; ++i) {
    for (std::size_t j = 0; j < 4; ++j) {
      if (i == j) continue;
      EXPECT_TRUE(c.routes(i).contains(c.hosts[j])) << i << "->" << j;
    }
  }
}

TEST(Cluster, ColdStartHasEmptyRouteTables) {
  ClusterConfig cfg;
  cfg.num_hosts = 4;
  cfg.preload_routes = false;
  cfg.mapper = MapperKind::kOnDemand;
  Cluster c(cfg);
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(c.routes(i).size(), 0u);
  }
}

TEST(Cluster, RawFirmwareKindUsesRawAccessor) {
  ClusterConfig cfg;
  cfg.num_hosts = 2;
  cfg.fw = FirmwareKind::kRaw;
  Cluster c(cfg);
  EXPECT_EQ(c.raw(0).stats().data_tx, 0u);
  c.send(0, 1, std::vector<std::uint8_t>(8, 1));
  c.sched.run_until(sim::milliseconds(1));
  EXPECT_EQ(c.raw(0).stats().data_tx, 1u);
}

TEST(Cluster, InboxReceivesDefaultDeliveries) {
  ClusterConfig cfg;
  cfg.num_hosts = 2;
  Cluster c(cfg);
  c.send(0, 1, std::vector<std::uint8_t>(8, 1));
  c.sched.run_until(sim::milliseconds(5));
  EXPECT_EQ(c.inbox(1).size(), 1u);
}

TEST(Microbench, LatencyScalesWithMessageSize) {
  ClusterConfig cfg;
  cfg.num_hosts = 2;
  Cluster c1(cfg);
  Cluster c2(cfg);
  const double small = harness::run_latency(c1, 4, 10).one_way_us();
  const double large = harness::run_latency(c2, 4096, 10).one_way_us();
  EXPECT_GT(large, small);
}

TEST(Microbench, UnidirectionalBeatsPingPongAtSmallSizes) {
  // Streaming pipelines; ping-pong pays a round trip per message.
  ClusterConfig cfg;
  cfg.num_hosts = 2;
  Cluster c1(cfg);
  Cluster c2(cfg);
  const double uni =
      harness::run_unidirectional_bw(c1, 1024, 30).mbytes_per_sec();
  const double pp = harness::run_pingpong_bw(c2, 1024, 30).mbytes_per_sec();
  EXPECT_GT(uni, pp);
}

TEST(Microbench, ResultAccessorsAreConsistent) {
  harness::MicrobenchResult r;
  r.seconds = 2.0;
  r.bytes = 100 * 1000 * 1000;
  r.iterations = 1000;
  EXPECT_DOUBLE_EQ(r.mbytes_per_sec(), 50.0);
  EXPECT_DOUBLE_EQ(r.one_way_us(), 1000.0);
  harness::MicrobenchResult zero;
  EXPECT_EQ(zero.mbytes_per_sec(), 0.0);
  EXPECT_EQ(zero.one_way_us(), 0.0);
}

TEST(Microbench, RepeatedRunsOnFreshClustersAgree) {
  ClusterConfig cfg;
  cfg.num_hosts = 2;
  Cluster c1(cfg);
  Cluster c2(cfg);
  const double a = harness::run_latency(c1, 16, 20).one_way_us();
  const double b = harness::run_latency(c2, 16, 20).one_way_us();
  EXPECT_DOUBLE_EQ(a, b);  // determinism across identical rigs
}

TEST(TableFmt, FormatsBytesHumanReadably) {
  EXPECT_EQ(harness::fmt_bytes(4), "4");
  EXPECT_EQ(harness::fmt_bytes(1024), "1K");
  EXPECT_EQ(harness::fmt_bytes(65536), "64K");
  EXPECT_EQ(harness::fmt_bytes(1048576), "1M");
  EXPECT_EQ(harness::fmt_bytes(1500), "1500");  // non-multiples stay exact
}

TEST(TableFmt, FormatsIntervals) {
  EXPECT_EQ(harness::fmt_interval(sim::microseconds(10)), "10us");
  EXPECT_EQ(harness::fmt_interval(sim::milliseconds(1)), "1ms");
  EXPECT_EQ(harness::fmt_interval(sim::seconds(1)), "1s");
}

TEST(TableFmt, FmtRoundsToRequestedDecimals) {
  EXPECT_EQ(harness::fmt(3.14159, 2), "3.14");
  EXPECT_EQ(harness::fmt(3.14159, 0), "3");
  EXPECT_EQ(harness::fmt(119.96, 1), "120.0");
}

TEST(Table, PrintsAlignedColumns) {
  harness::Table t({"A", "LongHeader"});
  t.add_row({"x", "1"});
  t.add_row({"longer", "2"});
  // Smoke: printing to a memstream must not crash and must contain rows.
  char* buf = nullptr;
  std::size_t len = 0;
  FILE* mem = open_memstream(&buf, &len);
  t.print(mem);
  std::fclose(mem);
  std::string out(buf, len);
  free(buf);
  EXPECT_NE(out.find("LongHeader"), std::string::npos);
  EXPECT_NE(out.find("longer"), std::string::npos);
  EXPECT_NE(out.find("----"), std::string::npos);
}

}  // namespace
}  // namespace sanfault
