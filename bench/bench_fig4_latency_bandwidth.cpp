// Figure 4: one-way latency for small messages (4-64 B) and ping-pong
// ("bidirectional") + unidirectional bandwidth (4 B - 1 MB), with and
// without the retransmission protocol.
//
// Paper: FT latency overhead <= 2.1 us up to 64 B (<= 20%); bandwidth
// overhead < 4% for message sizes >= 4 KB; plateau ~120 MB/s (PCI-limited).
#include <cstdio>

#include "harness/cluster.hpp"
#include "harness/microbench.hpp"
#include "harness/table.hpp"
#include "sweep.hpp"

namespace {

using namespace sanfault;
using harness::Cluster;
using harness::ClusterConfig;
using harness::FirmwareKind;

Cluster make(FirmwareKind kind) {
  ClusterConfig cfg;
  cfg.num_hosts = 2;
  cfg.fw = kind;
  return Cluster(cfg);
}

}  // namespace

int main(int argc, char** argv) {
  bool full = false;
  if (!bench::parse_flags(argc, argv, {{"--full", full}})) return 2;
  const int lat_iters = full ? 200 : 50;
  const int bw_msgs = full ? 60 : 24;

  std::printf("=== Figure 4 (left): one-way latency, small messages ===\n\n");
  {
    harness::Table t({"Size (B)", "No FT (us)", "With FT (us)", "Overhead (us)"});
    for (std::size_t bytes : {4u, 8u, 16u, 32u, 64u}) {
      Cluster craw = make(FirmwareKind::kRaw);
      Cluster cft = make(FirmwareKind::kReliable);
      const double raw = harness::run_latency(craw, bytes, lat_iters).one_way_us();
      const double ft = harness::run_latency(cft, bytes, lat_iters).one_way_us();
      t.add_row({harness::fmt_bytes(bytes), harness::fmt(raw),
                 harness::fmt(ft), harness::fmt(ft - raw)});
    }
    t.print();
    std::printf("Paper reference: overhead at most 2.1 us up to 64 bytes.\n\n");
  }

  const std::size_t sizes[] = {4,      16,      64,      256,     1024,
                               4096,   16384,   65536,   262144,  1048576};

  std::printf("=== Figure 4 (right): bandwidth vs message size (MB/s) ===\n\n");
  harness::Table t({"Size", "PP no FT", "PP with FT", "Uni no FT",
                    "Uni with FT", "FT loss(uni)"});
  for (std::size_t bytes : sizes) {
    Cluster c1 = make(FirmwareKind::kRaw);
    Cluster c2 = make(FirmwareKind::kReliable);
    Cluster c3 = make(FirmwareKind::kRaw);
    Cluster c4 = make(FirmwareKind::kReliable);
    const double pp_raw =
        harness::run_pingpong_bw(c1, bytes, bw_msgs).mbytes_per_sec();
    const double pp_ft =
        harness::run_pingpong_bw(c2, bytes, bw_msgs).mbytes_per_sec();
    const double uni_raw =
        harness::run_unidirectional_bw(c3, bytes, bw_msgs).mbytes_per_sec();
    const double uni_ft =
        harness::run_unidirectional_bw(c4, bytes, bw_msgs).mbytes_per_sec();
    const double loss = uni_raw > 0 ? (uni_raw - uni_ft) / uni_raw * 100 : 0;
    t.add_row({harness::fmt_bytes(bytes), harness::fmt(pp_raw, 1),
               harness::fmt(pp_ft, 1), harness::fmt(uni_raw, 1),
               harness::fmt(uni_ft, 1), harness::fmt(loss, 1) + "%"});
  }
  t.print();
  std::printf(
      "\nPaper reference: < 4%% bandwidth loss above 4 KB; ~120 MB/s plateau "
      "(32-bit PCI limit).\n");
  return 0;
}
