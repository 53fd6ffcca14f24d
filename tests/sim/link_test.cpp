#include <gtest/gtest.h>

#include <vector>

#include "sim/link.hpp"
#include "sim/simulator.hpp"

namespace pathload::sim {
namespace {

/// Collects delivered packets with their arrival times.
class Collector final : public PacketHandler {
 public:
  explicit Collector(Simulator& sim) : sim_{sim} {}
  void handle(const Packet& p) override {
    packets.push_back(p);
    arrivals.push_back(sim_.now());
  }
  std::vector<Packet> packets;
  std::vector<TimePoint> arrivals;

 private:
  Simulator& sim_;
};

Packet make_packet(Simulator& sim, std::int32_t size, std::uint32_t flow = 1) {
  Packet p;
  p.id = sim.next_packet_id();
  p.flow = flow;
  p.size_bytes = size;
  p.transit = true;
  return p;
}

TEST(Link, SerializationPlusPropagationDelay) {
  Simulator sim;
  // 1500 B at 10 Mb/s = 1.2 ms serialization; +5 ms propagation.
  Link link{sim, "l", Rate::mbps(10), Duration::milliseconds(5), DataSize::bytes(100000)};
  Collector out{sim};
  link.set_downstream(&out);
  link.handle(make_packet(sim, 1500));
  sim.run_all();
  ASSERT_EQ(out.packets.size(), 1u);
  EXPECT_EQ(out.arrivals[0] - TimePoint::origin(), Duration::milliseconds(6.2));
}

TEST(Link, FcfsOrderPreserved) {
  Simulator sim;
  Link link{sim, "l", Rate::mbps(10), Duration::zero(), DataSize::bytes(100000)};
  Collector out{sim};
  link.set_downstream(&out);
  for (std::uint32_t i = 0; i < 5; ++i) {
    Packet p = make_packet(sim, 500);
    p.seq = i;
    link.handle(p);
  }
  sim.run_all();
  ASSERT_EQ(out.packets.size(), 5u);
  for (std::uint32_t i = 0; i < 5; ++i) EXPECT_EQ(out.packets[i].seq, i);
}

TEST(Link, BackToBackPacketsSpacedBySerialization) {
  Simulator sim;
  Link link{sim, "l", Rate::mbps(10), Duration::zero(), DataSize::bytes(100000)};
  Collector out{sim};
  link.set_downstream(&out);
  link.handle(make_packet(sim, 1000));  // 0.8 ms each
  link.handle(make_packet(sim, 1000));
  sim.run_all();
  ASSERT_EQ(out.arrivals.size(), 2u);
  EXPECT_EQ(out.arrivals[1] - out.arrivals[0], Duration::microseconds(800));
}

TEST(Link, DropTailWhenBufferFull) {
  Simulator sim;
  // Buffer fits one waiting 1000 B packet; the third arrival must drop.
  Link link{sim, "l", Rate::mbps(1), Duration::zero(), DataSize::bytes(1000)};
  Collector out{sim};
  link.set_downstream(&out);
  link.handle(make_packet(sim, 1000));  // in service
  link.handle(make_packet(sim, 1000));  // queued (fills buffer)
  link.handle(make_packet(sim, 1000));  // dropped
  sim.run_all();
  EXPECT_EQ(out.packets.size(), 2u);
  EXPECT_EQ(link.drops(), 1u);
}

TEST(Link, PerFlowDropAccounting) {
  Simulator sim;
  Link link{sim, "l", Rate::mbps(1), Duration::zero(), DataSize::bytes(500)};
  link.handle(make_packet(sim, 500, 7));  // in service
  link.handle(make_packet(sim, 500, 7));  // queued
  link.handle(make_packet(sim, 500, 7));  // dropped (flow 7)
  link.handle(make_packet(sim, 500, 9));  // dropped (flow 9)
  EXPECT_EQ(link.drops_for_flow(7), 1u);
  EXPECT_EQ(link.drops_for_flow(9), 1u);
  EXPECT_EQ(link.drops_for_flow(1), 0u);
  EXPECT_EQ(link.drops(), 2u);
}

TEST(Link, CrossTrafficDropsNotTrackedPerFlow) {
  Simulator sim;
  Link link{sim, "l", Rate::mbps(1), Duration::zero(), DataSize::bytes(100)};
  Packet p = make_packet(sim, 500, kCrossTrafficFlow);
  link.handle(p);
  link.handle(p);  // queued? no: buffer 100 < 500 -> dropped
  EXPECT_EQ(link.drops(), 1u);
  EXPECT_EQ(link.drops_for_flow(kCrossTrafficFlow), 0u);
}

TEST(Link, CountsForwardedBytes) {
  Simulator sim;
  Link link{sim, "l", Rate::mbps(10), Duration::zero(), DataSize::bytes(100000)};
  link.handle(make_packet(sim, 700));
  link.handle(make_packet(sim, 300));
  sim.run_all();
  EXPECT_EQ(link.bytes_forwarded().byte_count(), 1000);
  EXPECT_EQ(link.packets_forwarded(), 2u);
}

TEST(Link, QueueStateObservable) {
  Simulator sim;
  Link link{sim, "l", Rate::mbps(1), Duration::zero(), DataSize::bytes(10000)};
  EXPECT_FALSE(link.busy());
  link.handle(make_packet(sim, 1000));
  EXPECT_TRUE(link.busy());
  EXPECT_EQ(link.queue_length(), 0u);
  link.handle(make_packet(sim, 1000));
  EXPECT_EQ(link.queue_length(), 1u);
  EXPECT_EQ(link.queued_bytes().byte_count(), 1000);
  sim.run_all();
  EXPECT_FALSE(link.busy());
  EXPECT_EQ(link.queue_length(), 0u);
}

TEST(Link, BacklogDelayBoundsQueueing) {
  Simulator sim;
  Link link{sim, "l", Rate::mbps(8), Duration::zero(), DataSize::bytes(10000)};
  link.handle(make_packet(sim, 1000));
  link.handle(make_packet(sim, 1000));
  // Two 1000 B packets at 8 Mb/s = 2 ms total backlog.
  EXPECT_EQ(link.backlog_delay(), Duration::milliseconds(2));
}

TEST(Link, RejectsNonPositiveCapacity) {
  Simulator sim;
  EXPECT_THROW(Link(sim, "bad", Rate::zero(), Duration::zero(), DataSize::bytes(1)),
               std::invalid_argument);
}

TEST(Link, PacketsInFlightKeepTheDownstreamTheyLeftWith) {
  // A packet is bound to its receiver when it leaves for the downstream node
  // (packet mode: end of serialization; fluid mode: acceptance), so
  // re-pointing the link — or blackholing it with nullptr — only affects
  // later packets. The propagation delay line carries the handler per entry.
  for (const bool fluid : {false, true}) {
    Simulator sim;
    Link link{sim, "l", Rate::mbps(10), Duration::milliseconds(5), DataSize::bytes(100000)};
    if (fluid) link.enable_fluid_mode();
    Collector a{sim};
    Collector b{sim};
    link.set_downstream(&a);
    link.handle(make_packet(sim, 1500));
    link.handle(make_packet(sim, 1500));
    sim.run_until(TimePoint::origin() + Duration::milliseconds(3));  // both propagating
    link.set_downstream(&b);
    link.handle(make_packet(sim, 1500));
    sim.run_until(TimePoint::origin() + Duration::milliseconds(5));  // third propagating
    link.set_downstream(nullptr);
    link.handle(make_packet(sim, 1500));
    sim.run_all();
    ASSERT_EQ(a.arrivals.size(), 2u) << (fluid ? "fluid" : "packet");
    ASSERT_EQ(b.arrivals.size(), 1u) << (fluid ? "fluid" : "packet");
    EXPECT_EQ(a.arrivals[0] - TimePoint::origin(), Duration::milliseconds(6.2));
    EXPECT_EQ(a.arrivals[1] - TimePoint::origin(), Duration::milliseconds(7.4));
    EXPECT_EQ(b.arrivals[0] - TimePoint::origin(), Duration::milliseconds(9.2));
    EXPECT_EQ(link.packets_forwarded(), 4u);
  }
}

TEST(Link, NoDownstreamIsSafe) {
  Simulator sim;
  Link link{sim, "l", Rate::mbps(10), Duration::zero(), DataSize::bytes(1000)};
  link.handle(make_packet(sim, 500));
  EXPECT_NO_THROW(sim.run_all());
  EXPECT_EQ(link.packets_forwarded(), 1u);
}

}  // namespace
}  // namespace pathload::sim
