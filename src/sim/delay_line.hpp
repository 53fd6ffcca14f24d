#pragma once

#include <cstdint>
#include <stdexcept>
#include <utility>
#include <vector>

#include "sim/packet.hpp"
#include "sim/simulator.hpp"

namespace pathload::sim {

/// A FIFO of delayed deliveries behind one reusable timer: the per-packet
/// alternative to one `schedule_at` closure per item (docs/ARCHITECTURE.md,
/// "The TimerHandle contract").
///
/// `push(at, item)` reserves exactly the FIFO ticket `schedule_at` would
/// have taken and files the item under `(at, ticket)`; only the head entry
/// is armed in the simulator. So deliveries pop in the same `(time, ticket)`
/// order against every other event, consume the same tickets and count the
/// same `events_processed()` as one closure per item — but move no callable
/// and allocate nothing per item once the ring has grown.
///
/// Items normally arrive with non-decreasing times (a fixed propagation or
/// reverse-path delay) and are appended. An item earlier than the tail
/// (reorder jitter) is inserted at its sorted place instead; it still owns
/// the ticket it reserved, so the pop order stays exact.
///
/// Firing pops the head, re-arms the timer for the next head, and only then
/// hands the item to `Sink` — so a sink may push into this line, and a sink
/// that destroys the line's owner leaves nothing behind. Destroying the line
/// drops every pending item: no delivery outlives its owner.
template <class T, class Sink>
class DelayLine {
 public:
  DelayLine(Simulator& sim, Sink sink)
      : sim_{sim}, sink_{std::move(sink)}, timer_{sim.make_timer([this] { fire(); })} {}

  DelayLine(const DelayLine&) = delete;
  DelayLine& operator=(const DelayLine&) = delete;

  /// Deliver `item` to the sink at absolute time `at` (must not be in the
  /// past; a throwing call consumes no ticket).
  void push(TimePoint at, T item) {
    if (at < sim_.now()) {
      throw std::logic_error{"DelayLine::push: delivery time is in the past"};
    }
    const std::uint64_t ticket = sim_.reserve_fifo_tickets(1);
    if (count_ == ring_.size()) grow();
    // Append, then sift the new entry back past any later-timed ones. Its
    // ticket is the newest, so equal times keep it behind.
    std::size_t pos = count_++;
    while (pos > 0 && at < slot(pos - 1).at) {
      slot(pos) = std::move(slot(pos - 1));
      --pos;
    }
    slot(pos) = Entry{at, ticket, std::move(item)};
    if (pos == 0) timer_.schedule_at(at, ticket);  // new head: (re-)arm
  }

  /// Items waiting for delivery.
  std::size_t size() const { return count_; }

 private:
  struct Entry {
    TimePoint at;
    std::uint64_t ticket;
    T item;
  };

  Entry& slot(std::size_t i) { return ring_[(head_ + i) & (ring_.size() - 1)]; }

  void grow() {
    // Power-of-two ring, re-linearised on growth.
    std::vector<Entry> bigger(ring_.empty() ? 16 : ring_.size() * 2);
    for (std::size_t i = 0; i < count_; ++i) bigger[i] = std::move(slot(i));
    ring_ = std::move(bigger);
    head_ = 0;
  }

  void fire() {
    T item = std::move(slot(0).item);
    head_ = (head_ + 1) & (ring_.size() - 1);
    --count_;
    if (count_ > 0) timer_.schedule_at(slot(0).at, slot(0).ticket);
    sink_(item);  // last: the sink may destroy this line
  }

  Simulator& sim_;
  Sink sink_;
  std::vector<Entry> ring_;
  std::size_t head_{0};
  std::size_t count_{0};
  Simulator::TimerHandle timer_;
};

/// A packet bound for the handler chosen when it was sent: a link captures
/// its downstream at accept time, as its per-packet closures used to, so
/// re-pointing the link later leaves packets already in flight alone.
struct PacketDelivery {
  PacketHandler* to;
  Packet packet;
};

struct HandPacket {
  void operator()(const PacketDelivery& d) const { d.to->handle(d.packet); }
};

using PacketDelayLine = DelayLine<PacketDelivery, HandPacket>;

}  // namespace pathload::sim
