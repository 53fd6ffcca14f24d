// DelayLine and DeadlineTimer against the paths they replace: one
// schedule_at closure per delivered item, and one closure per RTO arm with
// a generation check. Both primitives must reproduce the firing sequence
// and the FIFO ticket consumption of the old path exactly; the delay line
// also its events_processed(), the deadline timer at most as many events.

#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <memory>
#include <random>
#include <stdexcept>
#include <utility>
#include <vector>

#include "sim/deadline_timer.hpp"
#include "sim/delay_line.hpp"
#include "sim/simulator.hpp"

namespace pathload::sim {
namespace {

TimePoint at_ns(std::int64_t ns) { return TimePoint::origin() + Duration::nanoseconds(ns); }

/// One fired event: when, and which (negative ids are foreign events).
struct Fired {
  std::int64_t at;
  int id;
  bool operator==(const Fired&) const = default;
};

/// A seeded script of driver steps. Each step pushes items and schedules
/// foreign events on a 500 ns grid, so equal-nanosecond ties are common and
/// a later step often pushes an item due before the line's tail.
struct Action {
  bool foreign;
  std::int64_t delay_ns;
  int id;
};
struct Step {
  std::int64_t at_ns;
  std::vector<Action> actions;
};

std::vector<Step> make_script(std::uint64_t seed) {
  std::mt19937_64 gen{seed};
  constexpr std::int64_t kDelays[] = {0, 500, 500, 1000, 2500, 4000};
  std::vector<Step> script;
  std::int64_t t = 0;
  int next_id = 1;
  for (int s = 0; s < 200; ++s) {
    t += 500 * static_cast<std::int64_t>(gen() % 3);
    Step step{t, {}};
    const int n = 1 + static_cast<int>(gen() % 4);
    for (int a = 0; a < n; ++a) {
      step.actions.push_back({gen() % 4 == 0, kDelays[gen() % 6], next_id++});
    }
    script.push_back(std::move(step));
  }
  return script;
}

/// Runs a script with deliveries through a DelayLine (kLine) or one
/// schedule_at closure per item (the reference). Some deliveries push a
/// follow-up item from inside the sink.
template <bool kLine>
class Harness {
 public:
  explicit Harness(const std::vector<Step>& script) : script_{script} {
    for (std::size_t i = 0; i < script_.size(); ++i) {
      sim.schedule_at(at_ns(script_[i].at_ns), [this, i] { run_step(i); });
    }
  }

  void push(TimePoint at, int id) {
    if constexpr (kLine) {
      line_.push(at, id);
    } else {
      sim.schedule_at(at, [this, id] { delivered(id); });
    }
  }

  Simulator sim;
  std::vector<Fired> log;

 private:
  struct Sink {
    Harness* h;
    void operator()(int id) const { h->delivered(id); }
  };

  void run_step(std::size_t i) {
    for (const Action& a : script_[i].actions) {
      const TimePoint at = sim.now() + Duration::nanoseconds(a.delay_ns);
      if (a.foreign) {
        sim.schedule_at(at, [this, id = a.id] { log.push_back({sim.now().nanos(), -id}); });
      } else {
        push(at, a.id);
      }
    }
  }

  void delivered(int id) {
    log.push_back({sim.now().nanos(), id});
    if (id < 100000 && id % 5 == 2) {
      push(sim.now() + Duration::nanoseconds(500 * (id % 3)), id + 100000);
    }
  }

  const std::vector<Step>& script_;
  DelayLine<int, Sink> line_{sim, Sink{this}};
};

TEST(DelayLine, MatchesOneClosurePerItemOnSeededScripts) {
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    const auto script = make_script(seed);
    Harness<true> line{script};
    Harness<false> ref{script};
    line.sim.run_all();
    ref.sim.run_all();
    ASSERT_EQ(line.log, ref.log) << "seed " << seed;
    EXPECT_EQ(line.sim.events_processed(), ref.sim.events_processed()) << "seed " << seed;
    // Ticket consumption: the next ticket either would hand out agrees.
    EXPECT_EQ(line.sim.reserve_fifo_tickets(1), ref.sim.reserve_fifo_tickets(1))
        << "seed " << seed;
    EXPECT_GT(line.log.size(), 400u);
  }
}

struct Recorder {
  std::vector<Fired>* log;
  Simulator* sim;
  void operator()(int id) const { log->push_back({sim->now().nanos(), id}); }
};

TEST(DelayLine, PopsRearmsThenHandsOff) {
  // Inside the sink the head is already gone and the next head's wake-up is
  // already scheduled; an item the sink pushes for "now" still runs before
  // that head, in ticket order after everything already due now.
  Simulator sim;
  std::vector<int> order;
  std::vector<std::size_t> size_in_sink;
  std::vector<std::size_t> pending_in_sink;
  struct Sink {
    std::function<void(int)>* f;
    void operator()(int id) const { (*f)(id); }
  };
  std::function<void(int)> on_item;
  DelayLine<int, Sink> line{sim, Sink{&on_item}};
  on_item = [&](int id) {
    order.push_back(id);
    size_in_sink.push_back(line.size());
    pending_in_sink.push_back(sim.pending_events());
    if (id == 1) line.push(sim.now(), 10);
  };
  line.push(at_ns(100), 1);
  line.push(at_ns(200), 2);
  sim.schedule_at(at_ns(100), [&] { order.push_back(-1); });
  sim.run_all();
  EXPECT_EQ(order, (std::vector<int>{1, -1, 10, 2}));
  // Item 1: popped (1 left), its successor armed, the foreign event due.
  EXPECT_EQ(size_in_sink, (std::vector<std::size_t>{1, 1, 0}));
  EXPECT_EQ(pending_in_sink, (std::vector<std::size_t>{2, 1, 0}));
}

TEST(DelayLine, SinkMayDestroyTheLine) {
  Simulator sim;
  int delivered = 0;
  struct Sink {
    std::function<void()>* f;
    void operator()(int) const { (*f)(); }
  };
  std::function<void()> on_item;
  auto line = std::make_unique<DelayLine<int, Sink>>(sim, Sink{&on_item});
  on_item = [&] {
    ++delivered;
    line.reset();  // owner torn down from inside a delivery
  };
  for (int i = 0; i < 5; ++i) line->push(at_ns(100 * (i + 1)), i);
  sim.run_for(Duration::milliseconds(1));
  EXPECT_EQ(delivered, 1);
  EXPECT_EQ(sim.events_processed(), 1u);
  EXPECT_EQ(sim.pending_events(), 0u);
}

TEST(DelayLine, DestroyedLineDropsPendingItems) {
  Simulator sim;
  std::vector<Fired> log;
  {
    DelayLine<int, Recorder> line{sim, Recorder{&log, &sim}};
    for (int i = 0; i < 40; ++i) line.push(at_ns(1000 + 10 * i), i);  // grows the ring
    EXPECT_EQ(line.size(), 40u);
  }
  sim.run_for(Duration::milliseconds(1));
  EXPECT_TRUE(log.empty());
  EXPECT_EQ(sim.events_processed(), 0u);
}

TEST(DelayLine, PastPushThrowsWithoutConsumingATicket) {
  Simulator sim;
  std::vector<Fired> log;
  DelayLine<int, Recorder> line{sim, Recorder{&log, &sim}};
  sim.run_until(at_ns(500));
  const std::uint64_t before = sim.reserve_fifo_tickets(1);
  EXPECT_THROW(line.push(at_ns(499), 1), std::logic_error);
  EXPECT_EQ(sim.reserve_fifo_tickets(1), before + 1);
  EXPECT_EQ(line.size(), 0u);
}

// --- DeadlineTimer -----------------------------------------------------------

TEST(DeadlineTimer, ExpiresAtTheLastArmOnly) {
  Simulator sim;
  std::vector<std::int64_t> expiries;
  DeadlineTimer timer{sim, [&] { expiries.push_back(sim.now().nanos()); }};
  timer.arm(at_ns(1000));
  sim.run_until(at_ns(500));
  timer.arm(at_ns(1500));
  sim.run_until(at_ns(600));
  timer.arm(at_ns(1600));
  EXPECT_TRUE(timer.armed());
  sim.run_all();
  EXPECT_EQ(expiries, (std::vector<std::int64_t>{1600}));
  EXPECT_FALSE(timer.armed());
  // One wake-up at 1000 found the deadline moved and re-armed; one expiry.
  EXPECT_EQ(sim.events_processed(), 2u);
}

TEST(DeadlineTimer, TieAtTheDeadlineIsOrderedByTheLastArmsTicket) {
  Simulator sim;
  std::vector<int> order;
  DeadlineTimer timer{sim, [&] { order.push_back(0); }};
  timer.arm(at_ns(1000));
  sim.schedule_at(at_ns(1000), [&] { order.push_back(-1); });  // after arm 1
  sim.run_until(at_ns(10));
  timer.arm(at_ns(1000));  // same instant, newer ticket
  sim.schedule_at(at_ns(1000), [&] { order.push_back(-2); });  // after arm 2
  sim.run_all();
  EXPECT_EQ(order, (std::vector<int>{-1, 0, -2}));
}

TEST(DeadlineTimer, ShrinkingDeadlineRearmsEarlier) {
  Simulator sim;
  std::vector<std::int64_t> expiries;
  DeadlineTimer timer{sim, [&] { expiries.push_back(sim.now().nanos()); }};
  timer.arm(at_ns(100'000));
  sim.run_until(at_ns(10));
  timer.arm(at_ns(200));
  sim.run_all();
  EXPECT_EQ(expiries, (std::vector<std::int64_t>{200}));
  EXPECT_EQ(sim.events_processed(), 1u);  // nothing wakes at 100 us
  EXPECT_EQ(sim.now(), at_ns(200));
}

/// Runs a seeded arm script through a DeadlineTimer (kLazy) or one closure
/// per arm with a generation check (the reference), with foreign events
/// landing on the deadlines and expiries that sometimes re-arm.
template <bool kLazy>
class DeadlineHarness {
 public:
  explicit DeadlineHarness(const std::vector<std::pair<std::int64_t, std::int64_t>>& arms)
      : arms_{arms} {
    for (std::size_t i = 0; i < arms_.size(); ++i) {
      sim.schedule_at(at_ns(arms_[i].first), [this, i] { run_arm(i); });
    }
  }

  Simulator sim;
  std::vector<Fired> log;

 private:
  void arm(TimePoint at) {
    if constexpr (kLazy) {
      lazy_.arm(at);
    } else {
      const std::uint64_t gen = ++gen_;
      sim.schedule_at(at, [this, gen] {
        if (gen == gen_) expired();
      });
    }
  }

  void run_arm(std::size_t i) {
    const TimePoint at = sim.now() + Duration::nanoseconds(arms_[i].second);
    arm(at);
    if (i % 3 == 0) sim.schedule_at(at, [this] { log.push_back({sim.now().nanos(), -1}); });
  }

  void expired() {
    log.push_back({sim.now().nanos(), 0});
    if (++expiries_ % 2 == 1) arm(sim.now() + Duration::nanoseconds(300));
  }

  const std::vector<std::pair<std::int64_t, std::int64_t>>& arms_;
  std::uint64_t gen_{0};
  int expiries_{0};
  DeadlineTimer lazy_{sim, [this] { expired(); }};
};

TEST(DeadlineTimer, MatchesOneClosurePerArmOnSeededScripts) {
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    std::mt19937_64 gen{seed};
    std::vector<std::pair<std::int64_t, std::int64_t>> arms;  // (when, delay)
    std::int64_t t = 0;
    for (int i = 0; i < 300; ++i) {
      // Mostly short gaps (a deadline pushed back before it expires), with
      // occasional long ones that let it expire.
      t += gen() % 8 == 0 ? 5000 : 100 * static_cast<std::int64_t>(gen() % 4);
      arms.emplace_back(t, 100 * static_cast<std::int64_t>(1 + gen() % 20));
    }
    DeadlineHarness<true> lazy{arms};
    DeadlineHarness<false> ref{arms};
    lazy.sim.run_all();
    ref.sim.run_all();
    ASSERT_EQ(lazy.log, ref.log) << "seed " << seed;
    EXPECT_EQ(lazy.sim.reserve_fifo_tickets(1), ref.sim.reserve_fifo_tickets(1))
        << "seed " << seed;
    // Only stale wake-ups are saved, and pushed-back deadlines are common.
    EXPECT_LT(lazy.sim.events_processed(), ref.sim.events_processed()) << "seed " << seed;
    EXPECT_GT(lazy.log.size(), 20u);
  }
}

}  // namespace
}  // namespace pathload::sim
