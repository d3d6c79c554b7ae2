#include "harness/microbench.hpp"

#include <memory>
#include <vector>

#include "sim/process.hpp"
#include "vmmc/endpoint.hpp"

namespace sanfault::harness {

namespace {

/// Shared rig: endpoints on hosts 0 and 1, an export on each side large
/// enough for the message, and mutual imports. Built (untimed) before every
/// micro-benchmark.
struct PairRig {
  vmmc::Endpoint a;
  vmmc::Endpoint b;
  vmmc::ExportId exp_a = 0;
  vmmc::ExportId exp_b = 0;
  vmmc::Endpoint::Import a_to_b;  // held by a, deposits into b
  vmmc::Endpoint::Import b_to_a;

  PairRig(Cluster& c, std::size_t msg_bytes)
      : a(c.sched, c.nic(0)), b(c.sched, c.nic(1)) {
    exp_a = a.export_buffer(msg_bytes > 0 ? msg_bytes : 1);
    exp_b = b.export_buffer(msg_bytes > 0 ? msg_bytes : 1);
  }
};

sim::Process setup_imports(Cluster& c, PairRig& rig, bool& ready) {
  auto ia = co_await rig.a.import(c.hosts[1], rig.exp_b);
  auto ib = co_await rig.b.import(c.hosts[0], rig.exp_a);
  rig.a_to_b = *ia;
  rig.b_to_a = *ib;
  ready = true;
}

/// Drive the scheduler until `done` flips (periodic firmware timers keep the
/// event queue non-empty forever, so sched.run() would never return).
void drive_until(Cluster& c, const bool& done,
                 sim::Duration safety = sim::seconds(600)) {
  const sim::Time deadline = c.sched.now() + safety;
  while (!done && c.sched.now() < deadline && c.sched.step()) {
  }
}

struct PingPong {
  sim::Time t0 = 0;
  sim::Time t1 = 0;
  bool done = false;

  static sim::Process run_a(Cluster& c, PairRig& rig, std::size_t bytes,
                            int iters, PingPong& st) {
    auto& pong = rig.a.notifications(rig.exp_a);
    // Warm-up round trip (untimed).
    co_await rig.a.send(rig.a_to_b, 0, std::vector<std::uint8_t>(bytes, 1));
    (void)co_await pong.pop(c.sched);
    st.t0 = c.sched.now();
    for (int i = 0; i < iters; ++i) {
      co_await rig.a.send(rig.a_to_b, 0, std::vector<std::uint8_t>(bytes, 1));
      (void)co_await pong.pop(c.sched);
    }
    st.t1 = c.sched.now();
    st.done = true;
  }

  static sim::Process run_b(Cluster& c, PairRig& rig, std::size_t bytes,
                            int iters, PingPong& st) {
    auto& ping = rig.b.notifications(rig.exp_b);
    for (int i = 0; i < iters + 1; ++i) {  // +1 for the warm-up
      (void)co_await ping.pop(c.sched);
      co_await rig.b.send(rig.b_to_a, 0, std::vector<std::uint8_t>(bytes, 2));
      if (st.done) break;
    }
  }
};

MicrobenchResult run_pingpong(Cluster& c, std::size_t msg_bytes, int iters,
                              bool count_both_directions) {
  PairRig rig(c, msg_bytes);
  bool ready = false;
  setup_imports(c, rig, ready);
  drive_until(c, ready);

  PingPong st;
  PingPong::run_a(c, rig, msg_bytes, iters, st);
  PingPong::run_b(c, rig, msg_bytes, iters, st);
  drive_until(c, st.done);

  // The rig (and its endpoints) dies with this scope; detach the NIC rx
  // callbacks so stray late packets cannot reach freed endpoints.
  c.nic(0).set_host_rx({});
  c.nic(1).set_host_rx({});

  MicrobenchResult r;
  r.seconds = sim::to_seconds(st.t1 - st.t0);
  r.iterations = iters;
  r.bytes = static_cast<std::uint64_t>(msg_bytes) * iters *
            (count_both_directions ? 2 : 1);
  return r;
}

}  // namespace

MicrobenchResult run_latency(Cluster& c, std::size_t msg_bytes, int iters) {
  return run_pingpong(c, msg_bytes, iters, /*count_both_directions=*/false);
}

MicrobenchResult run_pingpong_bw(Cluster& c, std::size_t msg_bytes, int iters) {
  return run_pingpong(c, msg_bytes, iters, /*count_both_directions=*/true);
}

MicrobenchResult run_unidirectional_bw(Cluster& c, std::size_t msg_bytes,
                                       int count) {
  PairRig rig(c, msg_bytes);
  bool ready = false;
  setup_imports(c, rig, ready);
  drive_until(c, ready);

  struct State {
    sim::Time t0 = 0;
    sim::Time t_last = 0;
    bool done = false;
  } st;

  // Receiver: count notifications; stamp the last one (includes warm-up).
  struct Rx {
    static sim::Process run(Cluster& c, PairRig& rig, int count, State& st) {
      auto& inbox = rig.b.notifications(rig.exp_b);
      for (int i = 0; i < count + 1; ++i) {
        auto ev = co_await inbox.pop(c.sched);
        st.t_last = ev.at;
      }
      st.done = true;
    }
  };
  // Sender: one warm-up message, then stream without waiting for replies.
  struct Tx {
    static sim::Process run(Cluster& c, PairRig& rig, std::size_t bytes,
                            int count, State& st) {
      co_await rig.a.send(rig.a_to_b, 0, std::vector<std::uint8_t>(bytes, 1));
      st.t0 = c.sched.now();
      for (int i = 0; i < count; ++i) {
        co_await rig.a.send(rig.a_to_b, 0, std::vector<std::uint8_t>(bytes, 1));
      }
    }
  };
  Rx::run(c, rig, count, st);
  Tx::run(c, rig, msg_bytes, count, st);
  drive_until(c, st.done);

  c.nic(0).set_host_rx({});
  c.nic(1).set_host_rx({});

  MicrobenchResult r;
  r.seconds = sim::to_seconds(st.t_last - st.t0);
  r.iterations = count;
  r.bytes = static_cast<std::uint64_t>(msg_bytes) * count;
  return r;
}

RingResult run_reliable_ring(int msgs_per_host) {
  ClusterConfig cfg;
  cfg.num_hosts = 4;
  cfg.fw = FirmwareKind::kReliable;
  cfg.nic.send_buffers = 32;
  cfg.rel.drop_interval = 1000;  // §5.1.3 injection, 1e-3 error rate
  cfg.rel.retrans_interval = sim::milliseconds(1);
  // Keep the permanent-failure detector out of a transient-error workload.
  cfg.rel.fail_threshold = sim::seconds(30);
  cfg.rel.fail_min_rounds = 100000;
  Cluster c(cfg);

  const std::size_t n = c.size();
  const std::size_t msg_bytes = 4096;
  std::vector<int> received(n, 0);
  bool all_done = false;
  for (std::size_t i = 0; i < n; ++i) {
    c.nic(i).set_host_rx([&received, &all_done, i, msgs_per_host](
                             net::UserHeader, net::PayloadRef, net::HostId) {
      ++received[i];
      bool done = true;
      for (const int r : received) done = done && r >= msgs_per_host;
      all_done = done;
    });
  }

  // Ring traffic, self-clocked by the "send accepted" callback (data reached
  // NIC SRAM).
  struct Submitter {
    Cluster& c;
    std::vector<int> submitted;
    int limit;
    std::size_t msg_bytes;
    void pump(std::size_t i) {
      if (submitted[i] >= limit) return;
      ++submitted[i];
      c.send(i, (i + 1) % c.size(),
             std::vector<std::uint8_t>(msg_bytes,
                                       static_cast<std::uint8_t>(i + 1)),
             net::UserHeader{}, [this, i] { pump(i); });
    }
  } sub{c, std::vector<int>(n, 0), msgs_per_host, msg_bytes};
  for (std::size_t i = 0; i < n; ++i) {
    c.sched.after(1 + i, [&sub, i] { sub.pump(i); });
  }

  const sim::Time cap = sim::seconds(600);
  while (!all_done && c.sched.now() < cap && c.sched.step()) {
  }

  RingResult r;
  for (std::size_t i = 0; i < n; ++i) r.wire_tx += c.nic(i).stats().wire_tx;
  r.events = c.sched.events_executed();
  r.inline_spills = c.sched.inline_spills();
  return r;
}

}  // namespace sanfault::harness
