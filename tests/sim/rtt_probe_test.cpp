#include <gtest/gtest.h>

#include <memory>

#include "sim/rtt_probe.hpp"
#include "sim/traffic.hpp"

namespace pathload::sim {
namespace {

std::vector<HopSpec> one_hop(Rate capacity, DataSize buffer) {
  return {{capacity, Duration::milliseconds(40), buffer}};
}

TEST(RttProber, QuietPathRttIsBasePlusReverse) {
  Simulator sim;
  Path path{sim, one_hop(Rate::mbps(10), DataSize::bytes(1'000'000))};
  RttProber prober{sim, path, Duration::milliseconds(100), Duration::milliseconds(40)};
  prober.start();
  sim.run_for(Duration::seconds(2));
  ASSERT_GE(prober.samples().size(), 15u);
  for (const auto& s : prober.samples()) {
    // 40 ms forward prop + ~51 us serialization + 40 ms reverse.
    EXPECT_GE(s.rtt, Duration::milliseconds(80));
    EXPECT_LT(s.rtt, Duration::milliseconds(81));
  }
}

TEST(RttProber, SendsAtConfiguredPeriod) {
  Simulator sim;
  Path path{sim, one_hop(Rate::mbps(10), DataSize::bytes(1'000'000))};
  RttProber prober{sim, path, Duration::milliseconds(250), Duration::zero()};
  prober.start();
  sim.run_for(Duration::seconds(2.1));
  // t = 0, 250ms, ..., 2000ms -> 9 probes.
  EXPECT_EQ(prober.sent(), 9u);
}

TEST(RttProber, SeesQueueingDelayFromCongestion) {
  Simulator sim;
  Path path{sim, one_hop(Rate::mbps(5), DataSize::bytes(1'000'000))};
  RttProber prober{sim, path, Duration::milliseconds(50), Duration::milliseconds(40)};
  CrossTrafficSource cross{sim,
                           path.link(0),
                           Rate::mbps(4.9),  // 98% utilization -> long queue
                           Interarrival::kPareto,
                           PacketSizeMix::fixed(1500),
                           Rng{3}};
  prober.start();
  cross.start();
  sim.run_for(Duration::seconds(20));
  Duration max_rtt = Duration::zero();
  for (const auto& s : prober.samples()) max_rtt = std::max(max_rtt, s.rtt);
  EXPECT_GT(max_rtt, Duration::milliseconds(100));  // well above the 80 ms base
}

TEST(RttProber, LostProbesAreCounted) {
  Simulator sim;
  // Tiny buffer + saturating cross traffic: some pings must drop.
  Path path{sim, one_hop(Rate::mbps(1), DataSize::bytes(3000))};
  RttProber prober{sim, path, Duration::milliseconds(20), Duration::zero()};
  CrossTrafficSource cross{sim,    path.link(0), Rate::mbps(2.0),
                           Interarrival::kConstant, PacketSizeMix::fixed(1500),
                           Rng{5}};
  prober.start();
  cross.start();
  sim.run_for(Duration::seconds(5));
  prober.stop();
  sim.run_for(Duration::seconds(2));  // drain survivors
  EXPECT_GT(prober.lost(), 0u);
  EXPECT_EQ(prober.samples().size() + prober.lost(), prober.sent());
}

TEST(RttProber, StopHaltsProbing) {
  Simulator sim;
  Path path{sim, one_hop(Rate::mbps(10), DataSize::bytes(1'000'000))};
  RttProber prober{sim, path, Duration::milliseconds(100), Duration::zero()};
  prober.start();
  sim.run_for(Duration::seconds(1));
  prober.stop();
  const auto sent_at_stop = prober.sent();
  sim.run_for(Duration::seconds(1));
  EXPECT_EQ(prober.sent(), sent_at_stop);
}

TEST(RttProber, DestroyedMidFlightDropsItsEchoes) {
  // Echoes on the reverse path belong to the prober: destroying it while
  // some are in flight must drop them, not deliver into freed memory (the
  // sanitizer build catches the latter).
  Simulator sim;
  Path path{sim, one_hop(Rate::mbps(10), DataSize::bytes(1'000'000))};
  auto prober = std::make_unique<RttProber>(sim, path, Duration::milliseconds(10),
                                            Duration::milliseconds(200));
  prober->start();
  sim.run_for(Duration::milliseconds(300));  // ~20 echoes on the reverse path
  ASSERT_GT(prober->samples().size(), 0u);
  ASSERT_GT(prober->sent(), prober->samples().size() + 10);
  prober.reset();
  sim.run_for(Duration::seconds(2));
  // Probes still on the forward path surface at the egress, unclaimed.
  EXPECT_GT(path.egress().unclaimed_packets(), 0u);
  EXPECT_EQ(sim.pending_events(), 0u);
}

TEST(RttProber, SamplesCarrySendTimestamps) {
  Simulator sim;
  Path path{sim, one_hop(Rate::mbps(10), DataSize::bytes(1'000'000))};
  RttProber prober{sim, path, Duration::milliseconds(100), Duration::zero()};
  prober.start();
  sim.run_for(Duration::seconds(1));
  ASSERT_GE(prober.samples().size(), 2u);
  for (std::size_t i = 1; i < prober.samples().size(); ++i) {
    EXPECT_EQ(prober.samples()[i].sent - prober.samples()[i - 1].sent,
              Duration::milliseconds(100));
  }
}

}  // namespace
}  // namespace pathload::sim
