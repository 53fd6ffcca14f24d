#include "sim/rtt_probe.hpp"

namespace pathload::sim {

RttProber::RttProber(Simulator& sim, Path& path, Duration period,
                     Duration reverse_delay, std::int32_t probe_size_bytes)
    : sim_{sim},
      path_{path},
      period_{period},
      reverse_delay_{reverse_delay},
      probe_size_{probe_size_bytes},
      flow_{sim.next_flow_id()},
      send_timer_{sim.make_timer([this] { send_probe(); })},
      echoes_{sim, EchoSink{this}} {
  path_.egress().register_flow(flow_, this);
}

RttProber::~RttProber() { path_.egress().unregister_flow(flow_); }

void RttProber::start() {
  if (running_) return;
  running_ = true;
  send_probe();
}

void RttProber::send_probe() {
  if (!running_) return;
  Packet p;
  p.id = sim_.next_packet_id();
  p.flow = flow_;
  p.kind = PacketKind::kPing;
  p.size_bytes = probe_size_;
  p.transit = true;
  p.seq = next_seq_++;
  p.entered = sim_.now();
  outstanding_.emplace(p.seq, sim_.now());
  path_.ingress().handle(p);
  send_timer_.schedule_in(period_);
}

void RttProber::handle(const Packet& p) {
  // The probe reached the far end; the "echo" comes back over a fixed-delay
  // reverse path.
  echoes_.push(sim_.now() + reverse_delay_, p.seq);
}

void RttProber::on_echo(std::uint32_t seq) {
  auto it = outstanding_.find(seq);
  if (it == outstanding_.end()) return;
  samples_.push_back({it->second, sim_.now() - it->second});
  outstanding_.erase(it);
}

std::uint64_t RttProber::lost() const {
  // Anything still outstanding after the run is counted as lost by callers
  // that stop the prober and drain the simulator first.
  return outstanding_.size();
}

}  // namespace pathload::sim
