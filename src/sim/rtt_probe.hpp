#pragma once

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "sim/delay_line.hpp"
#include "sim/path.hpp"
#include "sim/simulator.hpp"

namespace pathload::sim {

/// One RTT sample.
struct RttSample {
  TimePoint sent;
  Duration rtt;
};

/// Periodic small-packet RTT prober: the stand-in for the paper's `ping`
/// (1 s period in Fig. 16, 100 ms in Fig. 18).
///
/// Probes traverse the forward path (experiencing its queueing) and are
/// reflected back over an uncongested reverse path of fixed delay, matching
/// the experimental setup where congestion was on the forward direction.
/// Echoes still on that reverse path are dropped with the prober.
class RttProber final : public PacketHandler {
 public:
  RttProber(Simulator& sim, Path& path, Duration period, Duration reverse_delay,
            std::int32_t probe_size_bytes = 64);
  ~RttProber();

  void start();
  void stop() {
    running_ = false;
    send_timer_.cancel();
  }

  const std::vector<RttSample>& samples() const { return samples_; }
  std::uint64_t sent() const { return next_seq_; }
  /// Probes sent but never answered (lost in a full queue).
  std::uint64_t lost() const;

  /// Handles the probe surfacing at the path egress.
  void handle(const Packet& p) override;

 private:
  struct EchoSink {
    RttProber* self;
    void operator()(std::uint32_t seq) const { self->on_echo(seq); }
  };

  void send_probe();
  void on_echo(std::uint32_t seq);

  Simulator& sim_;
  Path& path_;
  Duration period_;
  Duration reverse_delay_;
  std::int32_t probe_size_;
  std::uint32_t flow_;
  Simulator::TimerHandle send_timer_;
  DelayLine<std::uint32_t, EchoSink> echoes_;  ///< reverse path, by probe seq

  bool running_{false};
  std::uint32_t next_seq_{0};
  std::unordered_map<std::uint32_t, TimePoint> outstanding_;
  std::vector<RttSample> samples_;
};

}  // namespace pathload::sim
