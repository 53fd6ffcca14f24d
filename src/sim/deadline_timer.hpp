#pragma once

#include <cstdint>
#include <stdexcept>
#include <utility>

#include "sim/simulator.hpp"
#include "util/small_function.hpp"

namespace pathload::sim {

/// A timeout that is pushed back far more often than it expires — TCP's
/// retransmission timer, re-armed on every ACK — kept as one reusable timer
/// plus a lazy deadline (docs/ARCHITECTURE.md, "The TimerHandle contract").
///
/// `arm(at)` records the deadline and reserves the FIFO ticket a fresh
/// `schedule_at` would have taken, but moves the simulator's timer only when
/// the new deadline is earlier than the armed wake-up. A wake-up that finds
/// a later deadline re-arms at exactly that `(time, ticket)`. So expiry runs
/// at the same instant, in the same tie order, as the last of one closure
/// per arm would have — minus the stale closures' no-op events.
class DeadlineTimer {
 public:
  DeadlineTimer(Simulator& sim, SmallFunction<16> on_expiry)
      : sim_{sim},
        on_expiry_{std::move(on_expiry)},
        timer_{sim.make_timer([this] { wake(); })} {}

  DeadlineTimer(const DeadlineTimer&) = delete;
  DeadlineTimer& operator=(const DeadlineTimer&) = delete;

  /// Set the deadline to `at` (must not be in the past; a throwing call
  /// consumes no ticket), replacing any earlier one.
  void arm(TimePoint at) {
    if (at < sim_.now()) {
      throw std::logic_error{"DeadlineTimer::arm: deadline is in the past"};
    }
    deadline_ = at;
    ticket_ = sim_.reserve_fifo_tickets(1);
    if (!timer_.pending() || at < wake_at_) rearm();
  }

  /// True while a deadline is set and has not expired.
  bool armed() const { return timer_.pending(); }

 private:
  void rearm() {
    wake_at_ = deadline_;
    wake_ticket_ = ticket_;
    timer_.schedule_at(wake_at_, wake_ticket_);
  }

  void wake() {
    if (wake_at_ != deadline_ || wake_ticket_ != ticket_) {
      rearm();  // pushed back since this wake-up was armed
      return;
    }
    on_expiry_();
  }

  Simulator& sim_;
  SmallFunction<16> on_expiry_;
  TimePoint deadline_{};
  std::uint64_t ticket_{0};
  TimePoint wake_at_{};
  std::uint64_t wake_ticket_{0};
  Simulator::TimerHandle timer_;
};

}  // namespace pathload::sim
