// Observe-only tracing for the benchmark, from outside the library.
//
// Every span is timed around a call into a layer's public function; no
// tracing code lives in src/. Both wrappers follow core::MeteredChannel:
// they forward every call unchanged, so a traced run produces the same
// EstimateReport bytes as an untraced one (main.cpp checks that).

#pragma once

#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "core/channel.hpp"
#include "core/estimator.hpp"
#include "sim/simulator.hpp"

namespace perfbench {

using namespace pathload;

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Host time and simulator events spent inside one kind of channel call.
struct SpanTotal {
  std::int64_t ns{0};
  std::uint64_t events{0};
};

/// What a TracedChannel saw, summed over every call it forwarded.
struct ChannelTally {
  SpanTotal idle;
  SpanTotal stream;
  SpanTotal bulk;
  std::int64_t streams{0};
  std::int64_t stream_packets{0};
  std::int64_t acks{0};  ///< per-ACK delivery-rate samples of bulk transfers
  std::int64_t retx{0};  ///< fast retransmits + RTO timeouts of bulk transfers

  std::int64_t ns() const { return idle.ns + stream.ns + bulk.ns; }
  void add(const ChannelTally& o);
};

/// ProbeChannel + BulkChannel decorator timing each call into the channel.
/// `sim` (may be null) is the simulator behind the channel; when given,
/// each span also records Simulator::events_processed() around the call.
class TracedChannel final : public core::ProbeChannel, public core::BulkChannel {
 public:
  TracedChannel(core::ProbeChannel& inner, const sim::Simulator* sim, ChannelTally& tally)
      : inner_{inner}, sim_{sim}, tally_{tally} {}

  core::StreamOutcome run_stream(const core::StreamSpec& spec) override {
    const Span span{*this, tally_.stream};
    core::StreamOutcome out = inner_.run_stream(spec);
    ++tally_.streams;
    tally_.stream_packets += out.sent_count;
    return out;
  }
  void idle(Duration d) override {
    const Span span{*this, tally_.idle};
    inner_.idle(d);
  }
  TimePoint now() override { return inner_.now(); }
  Duration rtt() const override { return inner_.rtt(); }
  core::BulkChannel* bulk() override { return inner_.bulk() != nullptr ? this : nullptr; }
  core::BulkTransferOutcome run_bulk_transfer(const core::BulkTransferSpec& spec) override {
    const Span span{*this, tally_.bulk};
    core::BulkTransferOutcome out = inner_.bulk()->run_bulk_transfer(spec);
    tally_.acks += static_cast<std::int64_t>(out.rate_samples.size());
    tally_.retx += static_cast<std::int64_t>(out.fast_retransmits + out.timeouts);
    return out;
  }

 private:
  // Records on destruction, so a call that throws (ChannelFault) is still
  // accounted for.
  struct Span {
    Span(const TracedChannel& ch, SpanTotal& total)
        : ch{ch}, total{total}, events0{ch.events()}, t0{now_ns()} {}
    ~Span() {
      total.ns += now_ns() - t0;
      total.events += ch.events() - events0;
    }
    Span(const Span&) = delete;
    Span& operator=(const Span&) = delete;
    const TracedChannel& ch;
    SpanTotal& total;
    std::uint64_t events0;
    std::int64_t t0;
  };
  std::uint64_t events() const { return sim_ != nullptr ? sim_->events_processed() : 0; }

  core::ProbeChannel& inner_;
  const sim::Simulator* sim_;
  ChannelTally& tally_;
};

/// One task of a run_matrix call, as the TimedEstimator saw it.
struct TaskRecord {
  std::string estimator;
  std::thread::id thread;        ///< the SweepRunner worker that ran it
  std::int64_t made_ns{0};       ///< the task made its estimator (task start)
  std::int64_t run_end_ns{0};
  double sim_end_s{0.0};         ///< simulated clock when the estimator returned
  ChannelTally channel;          ///< empty unless traced
};

/// Thread-safe sink the estimator wrappers of one matrix pass write to.
class TaskLog {
 public:
  void add(TaskRecord r) {
    const std::lock_guard<std::mutex> lock{mu_};
    records_.push_back(std::move(r));
  }
  std::vector<TaskRecord> take() {
    const std::lock_guard<std::mutex> lock{mu_};
    return std::move(records_);
  }

 private:
  std::mutex mu_;
  std::vector<TaskRecord> records_;
};

/// Estimator decorator handed to scenario::run_matrix through
/// MatrixEstimator::make. run_estimator_once makes the estimator, builds
/// and warms the scenario, then calls run(), so construction time stamps
/// the task's start. Untraced it only reads the clock at those points;
/// traced it also wraps the channel in a TracedChannel (without event
/// counts: the matrix does not expose its simulator).
class TimedEstimator final : public core::Estimator {
 public:
  TimedEstimator(std::unique_ptr<core::Estimator> inner, TaskLog& log, bool traced)
      : inner_{std::move(inner)}, log_{log}, traced_{traced} {
    rec_.made_ns = now_ns();
    rec_.thread = std::this_thread::get_id();
    rec_.estimator = std::string{inner_->name()};
  }

  std::string_view name() const override { return inner_->name(); }
  std::string config_text() const override { return inner_->config_text(); }
  bool needs_bulk_tcp() const override { return inner_->needs_bulk_tcp(); }
  bool needs_capacity_hint() const override { return inner_->needs_capacity_hint(); }

  core::EstimateReport run(core::ProbeChannel& channel, Rng& rng) override {
    try {
      core::EstimateReport report;
      if (traced_) {
        TracedChannel traced{channel, nullptr, rec_.channel};
        report = inner_->run(traced, rng);
      } else {
        report = inner_->run(channel, rng);
      }
      finish(channel);
      return report;
    } catch (...) {
      finish(channel);
      throw;
    }
  }

 private:
  void finish(core::ProbeChannel& channel) {
    rec_.run_end_ns = now_ns();
    rec_.sim_end_s = channel.now().secs();
    log_.add(std::move(rec_));
  }

  std::unique_ptr<core::Estimator> inner_;
  TaskLog& log_;
  bool traced_;
  TaskRecord rec_;
};

inline void ChannelTally::add(const ChannelTally& o) {
  idle.ns += o.idle.ns;
  idle.events += o.idle.events;
  stream.ns += o.stream.ns;
  stream.events += o.stream.events;
  bulk.ns += o.bulk.ns;
  bulk.events += o.bulk.events;
  streams += o.streams;
  stream_packets += o.stream_packets;
  acks += o.acks;
  retx += o.retx;
}

}  // namespace perfbench
