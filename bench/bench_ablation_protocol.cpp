// Ablations beyond the paper's evaluation (DESIGN.md §7):
//
//  A. Bursty errors — the paper skipped them, arguing uniform rates are the
//     more stressful test. Same long-run rate, bursts of 1/4/16 consecutive
//     drops: go-back-N recovers a whole burst in one round, so bursts should
//     cost LESS than uniform drops at equal rate (validating the paper's
//     "uniform is worse" assumption).
//
//  B. Retransmission window — the paper attributes Figure 8's q128 collapse
//     to the absence of selective retransmission. Capping the go-back-N
//     round (window 1/8 vs whole queue) quantifies how much of the collapse
//     deeper rollbacks cause.
//
//  C. Sender-based ACK-feedback policy — the paper's adaptive scheme vs
//     always-request (max ACK traffic, min buffer hold) vs sparse fixed
//     requests (min ACK traffic, deep rollbacks under loss).
#include <cstdio>

#include "harness/table.hpp"
#include "sweep_common.hpp"

using namespace sanfault;

namespace {

double uni_bw(benchsweep::PointConfig pc,
              const std::function<void(harness::ClusterConfig&)>& tweak) {
  harness::ClusterConfig cfg;
  cfg.num_hosts = 2;
  cfg.fw = harness::FirmwareKind::kReliable;
  cfg.nic.send_buffers = pc.queue;
  cfg.rel.retrans_interval = pc.retrans_interval;
  cfg.rel.drop_interval = pc.drop_interval;
  cfg.rel.fail_threshold = sim::seconds(30);
  cfg.rel.fail_min_rounds = 1000;
  tweak(cfg);
  harness::Cluster c(cfg);
  return harness::run_unidirectional_bw(c, pc.msg_bytes,
                                        benchsweep::messages_for(pc))
      .mbytes_per_sec();
}

}  // namespace

int main(int argc, char** argv) {
  bool full = false;
  if (!bench::parse_flags(argc, argv, {{"--full", full}})) return 2;
  benchsweep::PointConfig base;
  base.msg_bytes = 65536;
  base.queue = 32;
  base.full = full;

  std::printf("=== Ablation A: bursty vs uniform errors (64K uni BW, MB/s) ===\n\n");
  {
    harness::Table t({"Rate", "uniform", "burst x4", "burst x16"});
    for (std::uint64_t rate : {100ull, 1000ull}) {
      std::vector<std::string> row{rate == 100 ? "1e-2" : "1e-3"};
      for (std::uint32_t burst : {1u, 4u, 16u}) {
        auto pc = base;
        pc.drop_interval = rate * burst;  // keep the long-run rate equal
        const double bw = uni_bw(pc, [burst](harness::ClusterConfig& c) {
          c.rel.drop_burst = burst;
        });
        row.push_back(harness::fmt(bw, 1));
      }
      t.add_row(std::move(row));
    }
    t.print();
    std::printf(
        "Expectation: bursts recover in one go-back-N round, so at equal\n"
        "long-run rate they cost less than uniform drops — the paper's\n"
        "rationale for testing uniform rates only.\n\n");
  }

  std::printf("=== Ablation B: go-back-N rollback depth (q128, error 1e-2) ===\n\n");
  {
    harness::Table t({"Retransmit window", "uni MB/s"});
    for (std::uint32_t window : {0u, 1u, 8u, 32u}) {
      auto pc = base;
      pc.queue = 128;
      pc.drop_interval = 100;
      const double bw = uni_bw(pc, [window](harness::ClusterConfig& c) {
        c.rel.retransmit_window = window;
      });
      t.add_row({window == 0 ? "whole queue (paper)" : std::to_string(window),
                 harness::fmt(bw, 1)});
    }
    t.print();
    std::printf(
        "A bounded window approximates selective retransmission's benefit\n"
        "on the q128 collapse of Figure 8.\n\n");
  }

  std::printf("=== Ablation C: ACK-request policy (q32, error 1e-2) ===\n\n");
  {
    harness::Table t({"Policy", "uni MB/s clean", "uni MB/s 1e-2"});
    struct Policy {
      const char* name;
      double low, high;
    };
    // low>=1: every packet requests an ACK; high<=0: always the sparse q/2
    // interval; defaults: the paper's adaptive scheme.
    const Policy policies[] = {
        {"adaptive (paper)", 0.25, 0.75},
        {"always request", 1.1, 1.2},
        {"sparse fixed", -0.1, -0.05},
    };
    for (const auto& p : policies) {
      auto clean = base;
      auto faulty = base;
      faulty.drop_interval = 100;
      auto tweak = [&p](harness::ClusterConfig& c) {
        c.rel.ack.low_watermark = p.low;
        c.rel.ack.high_watermark = p.high;
      };
      t.add_row({p.name, harness::fmt(uni_bw(clean, tweak), 1),
                 harness::fmt(uni_bw(faulty, tweak), 1)});
    }
    t.print();
    std::printf(
        "Always-request minimizes rollback depth at the cost of ACK\n"
        "processing; sparse requests defer ACKs and roll back deeper —\n"
        "the trade-off the sender-based feedback navigates (§4.1.2).\n");
  }
  return 0;
}
