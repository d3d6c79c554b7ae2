// Tests for the NIC model: buffer pool accounting, PIO/DMA selection, host
// DMA contention, and end-to-end transit with the raw (unreliable) firmware.
#include <gtest/gtest.h>

#include <stdexcept>
#include <vector>

#include "firmware/raw.hpp"
#include "net/fabric.hpp"
#include "net/topology.hpp"
#include "nic/buffers.hpp"
#include "nic/nic.hpp"
#include "sim/scheduler.hpp"

namespace sanfault::nic {
namespace {

using net::Device;
using net::HostId;
using net::Port;

TEST(BufferPool, GrantsImmediatelyWhenFree) {
  BufferPool p(2, 4096);
  int grants = 0;
  p.acquire([&] { ++grants; });
  p.acquire([&] { ++grants; });
  EXPECT_EQ(grants, 2);
  EXPECT_EQ(p.free_count(), 0u);
  EXPECT_EQ(p.in_use(), 2u);
}

TEST(BufferPool, QueuesWhenExhausted) {
  BufferPool p(1, 4096);
  int grants = 0;
  p.acquire([&] { ++grants; });
  p.acquire([&] { ++grants; });
  p.acquire([&] { ++grants; });
  EXPECT_EQ(grants, 1);
  EXPECT_EQ(p.waiting(), 2u);
  p.release();
  EXPECT_EQ(grants, 2);
  p.release();
  EXPECT_EQ(grants, 3);
  EXPECT_EQ(p.waiting(), 0u);
  EXPECT_EQ(p.free_count(), 0u);  // all buffers handed to waiters
}

TEST(BufferPool, BulkReleaseUnblocksMultiple) {
  BufferPool p(2, 4096);
  int grants = 0;
  for (int i = 0; i < 5; ++i) p.acquire([&] { ++grants; });
  EXPECT_EQ(grants, 2);
  p.release(2);
  EXPECT_EQ(grants, 4);
  p.release(2);
  EXPECT_EQ(grants, 5);
  EXPECT_EQ(p.free_count(), 1u);
}

// Two hosts, one switch, raw firmware on both ends. Plain struct so tests
// can instantiate extra rigs with custom configs.
struct NicFixture {
  sim::Scheduler sched;
  HostId h0, h1;  // must precede topo: make_topo assigns them
  net::Topology topo;
  net::Fabric fabric;
  Nic nic0, nic1;
  firmware::RawFirmware fw0, fw1;

  struct Delivery {
    sim::Time at;
    net::UserHeader user;
    net::PayloadRef payload;
    HostId src;
  };
  std::vector<Delivery> rx0, rx1;

  static net::Topology make_topo(HostId& h0, HostId& h1) {
    net::Topology t;
    auto sw = t.add_switch(8);
    h0 = t.add_host();
    h1 = t.add_host();
    t.connect({Device::host(h0), 0}, {Device::sw(sw), 0});
    t.connect({Device::host(h1), 0}, {Device::sw(sw), 1});
    return t;
  }

  explicit NicFixture(NicConfig cfg = {})
      : topo(make_topo(h0, h1)),
        fabric(sched, topo, {}),
        nic0(sched, fabric, h0, cfg),
        nic1(sched, fabric, h1, cfg),
        fw0(nic0),
        fw1(nic1) {
    fw0.routes().populate_all(topo, h0);
    fw1.routes().populate_all(topo, h1);
    nic0.set_host_rx([this](net::UserHeader u, net::PayloadRef p,
                            HostId src) {
      rx0.push_back({sched.now(), u, std::move(p), src});
    });
    nic1.set_host_rx([this](net::UserHeader u, net::PayloadRef p,
                            HostId src) {
      rx1.push_back({sched.now(), u, std::move(p), src});
    });
  }

  SendRequest make_req(HostId dst, std::size_t bytes, std::uint64_t tag = 0) {
    SendRequest r;
    r.dst = dst;
    r.user.w0 = tag;
    r.payload.assign(bytes, static_cast<std::uint8_t>(tag));
    return r;
  }
};

struct NicBasic : ::testing::Test, NicFixture {};

TEST_F(NicBasic, SmallMessageGoesPio) {
  nic0.host_submit(make_req(h1, 4));
  sched.run();
  EXPECT_EQ(nic0.stats().pio_sends, 1u);
  EXPECT_EQ(nic0.stats().dma_sends, 0u);
  ASSERT_EQ(rx1.size(), 1u);
}

TEST_F(NicBasic, LargeMessageGoesDma) {
  nic0.host_submit(make_req(h1, 2048));
  sched.run();
  EXPECT_EQ(nic0.stats().pio_sends, 0u);
  EXPECT_EQ(nic0.stats().dma_sends, 1u);
  ASSERT_EQ(rx1.size(), 1u);
  EXPECT_EQ(rx1[0].payload.size(), 2048u);
}

TEST_F(NicBasic, PioThresholdBoundary) {
  nic0.host_submit(make_req(h1, 32));
  nic0.host_submit(make_req(h1, 33));
  sched.run();
  EXPECT_EQ(nic0.stats().pio_sends, 1u);
  EXPECT_EQ(nic0.stats().dma_sends, 1u);
}

TEST_F(NicBasic, FourByteLatencyMatchesNoFtCalibration) {
  nic0.host_submit(make_req(h1, 4));
  sched.run();
  ASSERT_EQ(rx1.size(), 1u);
  const double us = sim::to_micros(rx1[0].at);
  // Paper: highly-optimized base latency is about 8 us for 4-byte messages.
  EXPECT_GT(us, 7.0);
  EXPECT_LT(us, 9.0);
}

TEST_F(NicBasic, PayloadAndHeaderArriveIntact) {
  SendRequest r = make_req(h1, 16, 0x42);
  r.user.w1 = 0x1234;
  nic0.host_submit(std::move(r));
  sched.run();
  ASSERT_EQ(rx1.size(), 1u);
  EXPECT_EQ(rx1[0].user.w0, 0x42u);
  EXPECT_EQ(rx1[0].user.w1, 0x1234u);
  EXPECT_EQ(rx1[0].src, h0);
  EXPECT_EQ(rx1[0].payload, std::vector<std::uint8_t>(16, 0x42));
}

TEST_F(NicBasic, ManyMessagesAllArriveInOrder) {
  for (std::uint64_t i = 0; i < 50; ++i) {
    nic0.host_submit(make_req(h1, 64, i));
  }
  sched.run();
  ASSERT_EQ(rx1.size(), 50u);
  for (std::uint64_t i = 0; i < 50; ++i) {
    EXPECT_EQ(rx1[i].user.w0, i);
  }
}

TEST_F(NicBasic, BidirectionalTrafficWorks) {
  nic0.host_submit(make_req(h1, 128, 1));
  nic1.host_submit(make_req(h0, 128, 2));
  sched.run();
  ASSERT_EQ(rx1.size(), 1u);
  ASSERT_EQ(rx0.size(), 1u);
  EXPECT_EQ(rx1[0].user.w0, 1u);
  EXPECT_EQ(rx0[0].user.w0, 2u);
}

TEST_F(NicBasic, NoRouteDropsAndRecyclesBuffer) {
  fw0.routes().invalidate(h1);
  nic0.host_submit(make_req(h1, 4));
  sched.run();
  EXPECT_EQ(fw0.stats().no_route_dropped, 1u);
  EXPECT_EQ(nic0.send_pool().free_count(), nic0.send_pool().capacity());
  EXPECT_TRUE(rx1.empty());
}

// Packet::corrupt_marker is the only record of a wire corruption, so every
// payload size must reach the NIC's check marked and be dropped there: the
// empty payload (where only the marker says anything), one byte, and a full
// send buffer. The delivery hook sees the corrupted bytes themselves.
struct NicCorruption : ::testing::TestWithParam<std::size_t>, NicFixture {};

TEST_P(NicCorruption, RawFirmwareDropsCorruptPackets) {
  const std::size_t bytes = GetParam();
  std::vector<net::PayloadRef> on_wire;
  fabric.set_delivery_hook([&on_wire](const net::Packet& p, HostId) {
    on_wire.push_back(p.payload);
  });
  fabric.link_faults(net::LinkId{0}).corrupt_prob = 1.0;
  const SendRequest req = make_req(h1, bytes, 0x3C);
  nic0.host_submit(req);
  sched.run();

  EXPECT_EQ(fabric.stats().delivered_corrupt, 1u);
  EXPECT_EQ(nic1.stats().crc_failures, 1u);
  EXPECT_EQ(fw1.stats().corrupt_dropped, 1u);
  EXPECT_TRUE(rx1.empty());
  ASSERT_EQ(on_wire.size(), 1u);
  ASSERT_EQ(on_wire[0].size(), bytes);
  std::size_t differing = 0;
  for (std::size_t i = 0; i < bytes; ++i) {
    differing += on_wire[0].data()[i] != req.payload.data()[i] ? 1 : 0;
  }
  EXPECT_EQ(differing, bytes == 0 ? 0u : 1u);
}

INSTANTIATE_TEST_SUITE_P(PayloadBytes, NicCorruption,
                         ::testing::Values(0, 1, 256, 4096));

TEST_F(NicBasic, SendBuffersRecycleUnderLoad) {
  // Raw firmware frees buffers at injection, so even a tiny pool of 2 must
  // drain an arbitrarily long stream.
  NicConfig small;
  small.send_buffers = 2;
  // Build a fresh rig with the small pool.
  struct SmallRig : NicFixture {
    SmallRig() : NicFixture(make_cfg()) {}
    static NicConfig make_cfg() {
      NicConfig c;
      c.send_buffers = 2;
      return c;
    }
  } rig;
  for (int i = 0; i < 40; ++i) rig.nic0.host_submit(rig.make_req(rig.h1, 512));
  rig.sched.run();
  EXPECT_EQ(rig.rx1.size(), 40u);
  EXPECT_EQ(rig.nic0.send_pool().free_count(), 2u);
}

TEST_F(NicBasic, LargeStreamApproachesPciBandwidth) {
  // 256 x 4 KB segments, unidirectional. Delivered bandwidth should be
  // PCI-bound near 120 MB/s (paper's large-message plateau).
  const int n = 256;
  for (int i = 0; i < n; ++i) nic0.host_submit(make_req(h1, 4096));
  sched.run();
  ASSERT_EQ(rx1.size(), static_cast<std::size_t>(n));
  const double secs = sim::to_seconds(rx1.back().at);
  const double mbps = (static_cast<double>(n) * 4096.0 / secs) / 1e6;
  EXPECT_GT(mbps, 105.0);
  EXPECT_LT(mbps, 135.0);
}

TEST_F(NicBasic, NicCpuIsASharedSerialResource) {
  // Submitting two packets at once: the second's firmware handling waits for
  // the first's CPU occupancy. We can't observe handler times directly, but
  // the CPU's busy_time must equal 2 x mcp_tx (+ rx side on nic1).
  nic0.host_submit(make_req(h1, 4));
  nic0.host_submit(make_req(h1, 4));
  sched.run();
  EXPECT_EQ(nic0.cpu().busy_time(), 2 * nic0.costs().mcp_tx);
  EXPECT_EQ(nic1.cpu().busy_time(), 2 * nic1.costs().mcp_rx);
}

// host_submit's preconditions hold in every build type, not only under
// assert: segmentation is the caller's job and firmware must be loaded.
TEST_F(NicBasic, PayloadOverOneSendBufferThrows) {
  const std::size_t buf = nic0.costs().buffer_bytes;
  EXPECT_THROW(nic0.host_submit(make_req(h1, buf + 1)), std::logic_error);
  EXPECT_EQ(nic0.stats().host_submits, 0u);
  nic0.host_submit(make_req(h1, buf));  // exactly one buffer is fine
  sched.run();
  ASSERT_EQ(rx1.size(), 1u);
  EXPECT_EQ(rx1[0].payload.size(), buf);
}

TEST(NicPreconditions, SubmitBeforeFirmwareThrows) {
  sim::Scheduler sched;
  HostId h0, h1;
  net::Topology topo = NicFixture::make_topo(h0, h1);
  net::Fabric fabric(sched, topo, {});
  Nic nic(sched, fabric, h0, {});
  SendRequest req;
  req.dst = h1;
  req.payload.assign(4, 1);
  EXPECT_THROW(nic.host_submit(std::move(req)), std::logic_error);
  EXPECT_EQ(nic.stats().host_submits, 0u);
  EXPECT_EQ(sched.pending_events(), 0u);
}

}  // namespace
}  // namespace sanfault::nic
