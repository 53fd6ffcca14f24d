// Golden determinism anchors for the unified-estimator refactor.
//
// The expected values below were captured from the PRE-refactor bespoke
// APIs (CprobeEstimator::measure on a raw channel, BtcMeasurement::run on
// the simulator, PathloadSession{channel, cfg}.run(), ...) on the
// paper-path preset at seed 9001. The Estimator interface — registry
// construction, MeteredChannel accounting, bulk-TCP capability — must
// reproduce every measured bit: a diff here means the refactor changed
// what a tool sends or how its result is computed, not just how it is
// reported. Same pattern as tests/integration/engine_determinism_test.cpp.

#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "baselines/btc.hpp"
#include "baselines/estimators.hpp"
#include "scenario/registry.hpp"
#include "scenario/shard.hpp"
#include "scenario/sim_channel.hpp"
#include "scenario/spec.hpp"

namespace pathload::baselines {
namespace {

constexpr std::uint64_t kSeed = 9001;

scenario::ScenarioInstance golden_instance() {
  scenario::ScenarioSpec spec = scenario::Registry::builtin().at("paper-path");
  spec.seed = kSeed;
  return scenario::ScenarioInstance{std::move(spec)};
}

core::EstimateReport run_golden(const char* name, const char* overrides = "") {
  auto inst = golden_instance();
  inst.start();
  scenario::SimProbeChannel channel{inst.simulator(), inst.path()};
  const auto est = builtin_estimators().make(name, overrides);
  Rng rng{kSeed};
  return est->run(channel, rng);
}

TEST(EstimatorGolden, PathloadReplaysBespokeSessionBitExact) {
  const auto r = run_golden("pathload");
  EXPECT_TRUE(r.valid);
  EXPECT_TRUE(r.is_range);
  EXPECT_EQ(r.low.bits_per_sec(), 3261498.8217835505);
  EXPECT_EQ(r.high.bits_per_sec(), 5435835.0631745951);
  EXPECT_EQ(r.iterations.size(), 5u);  // fleets
  EXPECT_EQ(r.streams_sent, 61);
  EXPECT_EQ(r.packets_sent, 6020);
  EXPECT_EQ(r.bytes_sent.byte_count(), 1230000);
  EXPECT_EQ(r.elapsed.nanos(), 29056684175);
}

TEST(EstimatorGolden, CprobeReplaysBespokeMeasureBitExact) {
  const auto r = run_golden("cprobe");
  EXPECT_TRUE(r.valid);
  EXPECT_FALSE(r.is_range);
  EXPECT_EQ(r.quantity, core::EstimateReport::Quantity::kAdr);
  EXPECT_EQ(r.low.bits_per_sec(), 7578200.4885507468);
  EXPECT_EQ(r.high.bits_per_sec(), 7578200.4885507468);
  EXPECT_EQ(r.elapsed.nanos(), 1243340708);
  // 4 trains x 100 packets x 1500 B, all transmitted.
  EXPECT_EQ(r.streams_sent, 4);
  EXPECT_EQ(r.packets_sent, 400);
  EXPECT_EQ(r.bytes_sent.byte_count(), 600000);
  EXPECT_EQ(r.iterations.size(), 4u);
}

TEST(EstimatorGolden, PacketPairReplaysBespokeMeasureBitExact) {
  const auto r = run_golden("pktpair");
  EXPECT_TRUE(r.valid);
  EXPECT_EQ(r.quantity, core::EstimateReport::Quantity::kCapacity);
  EXPECT_EQ(r.low.bits_per_sec(), 7177033.4928229665);
  EXPECT_EQ(r.elapsed.nanos(), 4496665753);
  // 60 pairs x 2 packets x 1500 B.
  EXPECT_EQ(r.streams_sent, 60);
  EXPECT_EQ(r.packets_sent, 120);
  EXPECT_EQ(r.bytes_sent.byte_count(), 180000);
}

TEST(EstimatorGolden, ToppReplaysBespokeMeasureBitExact) {
  const auto r = run_golden("topp");
  EXPECT_TRUE(r.valid);
  EXPECT_EQ(r.quantity, core::EstimateReport::Quantity::kAvailBw);
  EXPECT_EQ(r.low.bits_per_sec(), 3444583.3232455598);
  ASSERT_TRUE(r.capacity.has_value());
  EXPECT_EQ(r.capacity->bits_per_sec(), 7365181.4192511253);
  EXPECT_EQ(r.iterations.size(), 20u);  // the 1..20 Mb/s sweep
  EXPECT_EQ(r.elapsed.nanos(), 8726672489);
}

TEST(EstimatorGolden, DelphiReplaysBespokeMeasureBitExact) {
  const auto r = run_golden("delphi");  // default capacity = the tight 10 Mb/s
  EXPECT_TRUE(r.valid);
  EXPECT_EQ(r.low.bits_per_sec(), 1594491.1999999993);
  EXPECT_EQ(r.elapsed.nanos(), 7989796700);
  EXPECT_EQ(r.streams_sent, 100);
  EXPECT_EQ(r.packets_sent, 200);
}

// The PR 5 additions (spruce, igi, pathchirp) have no pre-refactor bespoke
// ancestor; their anchors below were captured from the implementations at
// introduction, on the same paper-path/seed-9001 convention. A diff means
// the tool's probing schedule or analysis drifted, not just its reporting.

TEST(EstimatorGolden, SpruceAnchorOnPaperPathBitExact) {
  const auto r = run_golden("spruce", "capacity_mbps = 10");
  EXPECT_TRUE(r.valid);
  EXPECT_TRUE(r.is_range);
  EXPECT_EQ(r.quantity, core::EstimateReport::Quantity::kAvailBw);
  EXPECT_EQ(r.low.bits_per_sec(), 3659731.2989660795);
  EXPECT_EQ(r.high.bits_per_sec(), 4452955.8677005861);
  // 100 pairs x 2 packets x 1500 B.
  EXPECT_EQ(r.streams_sent, 100);
  EXPECT_EQ(r.packets_sent, 200);
  EXPECT_EQ(r.bytes_sent.byte_count(), 300000);
  EXPECT_EQ(r.elapsed.nanos(), 15718773936);
  EXPECT_EQ(r.iterations.size(), 100u);  // one sample per usable pair
}

TEST(EstimatorGolden, IgiAnchorOnPaperPathBitExact) {
  const auto r = run_golden("igi", "capacity_mbps = 10");
  EXPECT_TRUE(r.valid);
  EXPECT_TRUE(r.is_range);
  EXPECT_EQ(r.quantity, core::EstimateReport::Quantity::kAvailBw);
  // low = PTR at the turning point, high = the IGI gap-model estimate
  // (biased up: probing below the knee misses cross traffic, the bias the
  // comparative-evaluation literature reports).
  EXPECT_EQ(r.low.bits_per_sec(), 3896490.0255103339);
  EXPECT_EQ(r.high.bits_per_sec(), 7893219.9693745784);
  // 13 gap steps x 60-packet trains of 700 B until the turning point.
  EXPECT_EQ(r.streams_sent, 13);
  EXPECT_EQ(r.packets_sent, 780);
  EXPECT_EQ(r.bytes_sent.byte_count(), 546000);
  EXPECT_EQ(r.elapsed.nanos(), 2074709901);
  ASSERT_EQ(r.iterations.size(), 13u);
  EXPECT_EQ(r.iterations.back().note, "turning-point");
}

TEST(EstimatorGolden, PathChirpAnchorOnPaperPathBitExact) {
  const auto r = run_golden("pathchirp");  // needs no capacity hint
  EXPECT_TRUE(r.valid);
  EXPECT_TRUE(r.is_range);
  EXPECT_EQ(r.quantity, core::EstimateReport::Quantity::kAvailBw);
  EXPECT_EQ(r.low.bits_per_sec(), 2547196.1536893314);
  EXPECT_EQ(r.high.bits_per_sec(), 4298748.1200772244);
  // 12 chirps x 19 packets (18 exponential spacings, 1 -> 20 Mb/s) x 1 kB.
  EXPECT_EQ(r.streams_sent, 12);
  EXPECT_EQ(r.packets_sent, 228);
  EXPECT_EQ(r.bytes_sent.byte_count(), 228000);
  EXPECT_EQ(r.elapsed.nanos(), 2463296935);
  EXPECT_EQ(r.iterations.size(), 12u);  // every chirp fully received
}

TEST(EstimatorGolden, BtcOverChannelReplaysBespokeSimulatorRunBitExact) {
  const auto r = run_golden("btc", "duration_s = 8");
  EXPECT_TRUE(r.valid);
  EXPECT_EQ(r.quantity, core::EstimateReport::Quantity::kTcpThroughput);
  EXPECT_EQ(r.low.bits_per_sec(), 3498160.0);
  EXPECT_EQ(r.iterations.size(), 8u);  // 1-second buckets
  EXPECT_EQ(r.iterations.front().measured_mbps, Rate::bps(1812000).mbits_per_sec());
}

TEST(EstimatorGolden, BtcDirectAndChannelFormsAgreeBitExact) {
  // The two BTC entry points (direct simulator API vs the channel's
  // bulk-TCP capability) must be one code path: identical numbers.
  BtcConfig cfg;
  cfg.duration = Duration::seconds(8);

  auto direct = golden_instance();
  direct.start();
  const auto bespoke = BtcMeasurement{cfg}.run(direct.simulator(), direct.path());

  const auto r = run_golden("btc", "duration_s = 8");
  EXPECT_EQ(r.low.bits_per_sec(), bespoke.average_throughput.bits_per_sec());
  ASSERT_EQ(r.iterations.size(), bespoke.per_bucket.size());
  for (std::size_t i = 0; i < bespoke.per_bucket.size(); ++i) {
    EXPECT_EQ(r.iterations[i].measured_mbps, bespoke.per_bucket[i].mbits_per_sec());
  }
  EXPECT_EQ(bespoke.fast_retransmits, 0u);
  EXPECT_EQ(bespoke.timeouts, 0u);
  EXPECT_EQ(bespoke.rtt_secs.count(), 35);
  EXPECT_EQ(bespoke.rtt_secs.mean(), 0.22166139585714284);
}

// Exact event-count gate for the bulk-TCP path. An 8 s btc run on
// paper-path pins Simulator::events_processed() next to the report's full
// text (scenario/shard.hpp form). Event counts are deterministic, so any
// change in how TCP schedules work shows up here even when every reported
// byte stays the same. History: the lazy RTO deadline removed exactly the
// stale per-ACK RTO wake-ups, v1 248059 -> 245787 and v2 12480 -> 10135,
// with these report bytes unchanged.

struct BtcGateRun {
  std::uint64_t warm_events;
  std::uint64_t total_events;
  std::string text;
};

BtcGateRun run_btc_gate(scenario::EngineVersion engine) {
  scenario::ScenarioSpec spec = scenario::Registry::builtin().at("paper-path");
  spec.seed = kSeed;
  spec.engine = engine;
  scenario::ScenarioInstance inst{std::move(spec)};
  inst.start();
  const std::uint64_t warm = inst.simulator().events_processed();
  scenario::SimProbeChannel channel{inst.simulator(), inst.path()};
  Rng rng{kSeed};
  const auto r = builtin_estimators().make("btc", "duration_s = 8")->run(channel, rng);
  scenario::MatrixCell cell;
  cell.estimator = r.estimator;
  cell.scenario = "paper-path";
  cell.reports.push_back(r);
  return {warm, inst.simulator().events_processed(), scenario::cell_to_text(cell, 0)};
}

TEST(EstimatorGolden, BtcEventCountAndReportTextV1) {
  const auto run = run_btc_gate(scenario::EngineVersion::kV1);
  EXPECT_EQ(run.warm_events, 25582u);
  EXPECT_EQ(run.total_events, 245787u);
  EXPECT_EQ(run.text, R"(cell 0
estimator = btc
scenario = paper-path
load = 0
truth_bps = 0
seed0 = 0
reports = 1
report 0
tool = btc
quantity = tcp-throughput
outcome = ok
note = 
packets_lost = 0
valid = 1
range = 0
low_bps = 3498160
high_bps = 3498160
capacity_bps = none
streams = 0
packets = 0
bytes = 3498160
elapsed_ns = 8000000000
iterations = 8
iteration = 0 1.8119999999999998 bucket
iteration = 0 4.0439999999999996 bucket
iteration = 0 3.9239999999999999 bucket
iteration = 0 3.7919999999999998 bucket
iteration = 0 3.8999999999999999 bucket
iteration = 0 3.984 bucket
iteration = 0 4.0800000000000001 bucket
iteration = 0 3.8270482912909984 bucket
end report
end cell
)");
}

TEST(EstimatorGolden, BtcEventCountAndReportTextV2) {
  const auto run = run_btc_gate(scenario::EngineVersion::kV2);
  EXPECT_EQ(run.warm_events, 0u);
  EXPECT_EQ(run.total_events, 10135u);
  EXPECT_EQ(run.text, R"(cell 0
estimator = btc
scenario = paper-path
load = 0
truth_bps = 0
seed0 = 0
reports = 1
report 0
tool = btc
quantity = tcp-throughput
outcome = ok
note = 
packets_lost = 0
valid = 1
range = 0
low_bps = 3631020
high_bps = 3631020
capacity_bps = none
streams = 0
packets = 0
bytes = 3631020
elapsed_ns = 8000000000
iterations = 8
iteration = 0 1.8839999999999999 bucket
iteration = 0 4.1280000000000001 bucket
iteration = 0 4.0919999999999996 bucket
iteration = 0 4.0800000000000001 bucket
iteration = 0 4.0679999999999996 bucket
iteration = 0 4.0800000000000001 bucket
iteration = 0 4.0679999999999996 bucket
iteration = 0 4.0523427521056501 bucket
end report
end cell
)");
}

}  // namespace
}  // namespace pathload::baselines
