// The Figure 5-8 sweep, shared by all four figure binaries: bandwidth
// against one protocol setting (retransmission interval or send-queue
// size), without and with injected errors. Every point measures ping-pong
// ("bidirectional") and unidirectional bandwidth at one message size; each
// size's No-FT baseline (raw firmware, error-free) is simulated once and
// shared by every table.
//
// Stream lengths follow the paper's methodology — "generate enough packets
// to allow at least ten packets to be dropped at the lower error rate" in
// --full mode; quick mode scales that down to a few drops so the whole
// bench suite stays interactive.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "harness/cluster.hpp"
#include "harness/microbench.hpp"
#include "harness/table.hpp"
#include "sweep.hpp"

namespace sanfault::benchsweep {

struct PointConfig {
  sim::Duration retrans_interval = sim::milliseconds(1);
  std::size_t queue = 32;
  std::uint64_t drop_interval = 0;  // 0 = clean; else 1/error-rate
  std::size_t msg_bytes = 65536;
  bool full = false;
  bool with_ft = true;
};

struct PointResult {
  double bidi_mbps = 0;
  double uni_mbps = 0;
};

inline harness::Cluster make_cluster(const PointConfig& pc) {
  harness::ClusterConfig cfg;
  cfg.num_hosts = 2;
  cfg.fw = pc.with_ft ? harness::FirmwareKind::kReliable
                      : harness::FirmwareKind::kRaw;
  cfg.nic.send_buffers = pc.queue;
  cfg.rel.retrans_interval = pc.retrans_interval;
  cfg.rel.drop_interval = pc.drop_interval;
  // Parameter sweeps visit pathological corners (10 us timers, 1 s stalls);
  // keep the permanent-failure detector out of the way — the paper's sweeps
  // had no permanent failures.
  cfg.rel.fail_threshold = sim::seconds(30);
  cfg.rel.fail_min_rounds = 1000;
  return harness::Cluster(cfg);
}

/// How many messages to stream for one measurement.
inline int messages_for(const PointConfig& pc) {
  const std::size_t pkts_per_msg =
      std::max<std::size_t>(1, (pc.msg_bytes + 4095) / 4096);
  // Packet budget: enough for >= ~10 (full) / ~2 (quick) drops at this rate.
  const std::uint64_t want_drops = pc.full ? 10 : 2;
  std::uint64_t target_packets =
      std::max<std::uint64_t>(pc.full ? 4000 : 1200,
                              pc.drop_interval * want_drops + 200);
  target_packets = std::min<std::uint64_t>(target_packets, pc.full ? 200000 : 25000);
  const auto msgs = static_cast<int>(
      std::max<std::uint64_t>(8, target_packets / pkts_per_msg));
  return std::min(msgs, pc.full ? 40000 : 8000);
}

inline PointResult run_point(const PointConfig& pc) {
  PointResult r;
  {
    harness::Cluster c = make_cluster(pc);
    r.bidi_mbps = harness::run_pingpong_bw(c, pc.msg_bytes, messages_for(pc))
                      .mbytes_per_sec();
  }
  {
    harness::Cluster c = make_cluster(pc);
    r.uni_mbps =
        harness::run_unidirectional_bw(c, pc.msg_bytes, messages_for(pc))
            .mbytes_per_sec();
  }
  return r;
}

/// One swept protocol setting: a table column.
struct Setting {
  const char* label;
  sim::Duration retrans_interval;
  std::size_t queue;
};

/// Figures 5 and 6: the retransmission interval, send queue fixed at 32.
inline std::vector<Setting> interval_settings() {
  return {{"10us", sim::microseconds(10), 32},
          {"100us", sim::microseconds(100), 32},
          {"1ms", sim::milliseconds(1), 32},
          {"10ms", sim::milliseconds(10), 32},
          {"1s", sim::seconds(1), 32}};
}

/// Figures 7 and 8: the send-queue size, retransmission interval 1 ms.
inline std::vector<Setting> queue_settings() {
  const sim::Duration r = sim::milliseconds(1);
  return {{"q2", r, 2}, {"q8", r, 8}, {"q32", r, 32}, {"q128", r, 128}};
}

/// Drop intervals (1/error-rate), one table each; 0 is the error-free run.
inline const std::vector<std::uint64_t> kNoErrors = {0};
inline const std::vector<std::uint64_t> kPaperErrorRates = {100, 1000, 10000};

/// Message sizes: all of them for the error-free figures; the error figures
/// start at one full packet, and thin out further at default scale.
inline const std::vector<std::size_t> kAllSizes = {
    4, 64, 1024, 4096, 16384, 65536, 262144, 1048576};
inline const std::vector<std::size_t> kErrorSizes = {4096, 16384, 65536,
                                                     262144, 1048576};
inline const std::vector<std::size_t> kErrorQuickSizes = {4096, 65536,
                                                          1048576};

struct FigureSpec {
  const char* title;  // banner line
  std::vector<Setting> settings;
  std::vector<std::uint64_t> drop_intervals;
  std::vector<std::size_t> full_sizes;   // message sizes with --full
  std::vector<std::size_t> quick_sizes;  // message sizes by default
  const char* reference;  // closing paper-reference note
};

/// The whole figure binary: parse `[--full] [--jobs <N>]`, simulate every
/// cell, print one table per drop interval with a bidi and a uni row per
/// size. Output is byte-identical for every --jobs N (sweep.hpp).
inline int run_figure(int argc, char** argv, const FigureSpec& spec) {
  bool full = false;
  std::uint64_t jobs = 1;
  if (!bench::parse_flags(argc, argv,
                          {{"--full", full}, {"--jobs", "<N>", jobs}})) {
    return 2;
  }
  const std::vector<std::size_t>& sizes =
      full ? spec.full_sizes : spec.quick_sizes;
  std::printf("=== %s ===\n\n", spec.title);

  // Cells in report order: the No-FT baseline per size, then drop interval
  // -> size -> setting.
  std::vector<PointConfig> points;
  for (std::size_t bytes : sizes) {
    points.push_back({.msg_bytes = bytes, .full = full, .with_ft = false});
  }
  for (std::uint64_t drop : spec.drop_intervals) {
    for (std::size_t bytes : sizes) {
      for (const Setting& s : spec.settings) {
        points.push_back({.retrans_interval = s.retrans_interval,
                          .queue = s.queue,
                          .drop_interval = drop,
                          .msg_bytes = bytes,
                          .full = full});
      }
    }
  }
  const auto res = bench::run_cells(jobs, points, run_point);

  std::vector<std::string> header{"Size", "Dir", "No FT(q32)"};
  for (const Setting& s : spec.settings) header.emplace_back(s.label);
  std::size_t cell = sizes.size();
  for (std::uint64_t drop : spec.drop_intervals) {
    if (drop == 0) {
      std::printf("--- no injected errors ---\n");
    } else {
      int exponent = 0;
      for (std::uint64_t d = drop; d > 1; d /= 10) ++exponent;
      std::printf("--- error rate 1e-%d (drop every %llu packets) ---\n",
                  exponent, static_cast<unsigned long long>(drop));
    }
    harness::Table t(header);
    for (std::size_t si = 0; si < sizes.size(); ++si) {
      for (const bool uni : {false, true}) {
        const auto mbps = [uni](const PointResult& r) {
          return harness::fmt(uni ? r.uni_mbps : r.bidi_mbps, 1);
        };
        std::vector<std::string> row{harness::fmt_bytes(sizes[si]),
                                     uni ? "uni" : "bidi", mbps(res[si])};
        for (std::size_t k = 0; k < spec.settings.size(); ++k) {
          row.push_back(mbps(res[cell + k]));
        }
        t.add_row(std::move(row));
      }
      cell += spec.settings.size();
    }
    t.print();
    std::printf("\n");
  }
  std::fputs(spec.reference, stdout);
  return 0;
}

}  // namespace sanfault::benchsweep
