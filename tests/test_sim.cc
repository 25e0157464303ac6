// Unit tests for the discrete-event engine: ordering, timers, links.
#include <gtest/gtest.h>

#include <deque>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/random.h"
#include "sim/device.h"
#include "sim/failure.h"
#include "sim/link.h"
#include "sim/network.h"
#include "sim/simulator.h"
#include "sim/snapshot.h"
#include "sim/train.h"

namespace portland::sim {
namespace {

TEST(Simulator, RunsEventsInTimeOrder) {
  Simulator sim;
  std::vector<int> order;
  sim.after(millis(3), [&] { order.push_back(3); });
  sim.after(millis(1), [&] { order.push_back(1); });
  sim.after(millis(2), [&] { order.push_back(2); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sim.now(), millis(3));
}

TEST(Simulator, SameTimeFifo) {
  Simulator sim;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    sim.at(millis(5), [&order, i] { order.push_back(i); });
  }
  sim.run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(Simulator, NestedScheduling) {
  Simulator sim;
  int fired = 0;
  sim.after(millis(1), [&] {
    sim.after(millis(1), [&] { ++fired; });
  });
  sim.run();
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(sim.now(), millis(2));
}

TEST(Simulator, RunUntilAdvancesClockWithoutEvents) {
  Simulator sim;
  sim.run_until(millis(7));
  EXPECT_EQ(sim.now(), millis(7));
}

TEST(Simulator, RunUntilLeavesLaterEvents) {
  Simulator sim;
  int fired = 0;
  sim.after(millis(10), [&] { ++fired; });
  sim.run_until(millis(5));
  EXPECT_EQ(fired, 0);
  EXPECT_EQ(sim.pending_events(), 1u);
  sim.run_until(millis(15));
  EXPECT_EQ(fired, 1);
}

TEST(Simulator, Stop) {
  Simulator sim;
  int fired = 0;
  sim.after(1, [&] {
    ++fired;
    sim.stop();
  });
  sim.after(2, [&] { ++fired; });
  sim.run();
  EXPECT_EQ(fired, 1);
  sim.run();
  EXPECT_EQ(fired, 2);
}

TEST(Timer, FiresOnce) {
  Simulator sim;
  Timer t(sim);
  int fired = 0;
  t.schedule_after(millis(1), [&] { ++fired; });
  EXPECT_TRUE(t.pending());
  sim.run();
  EXPECT_EQ(fired, 1);
  EXPECT_FALSE(t.pending());
}

TEST(Timer, CancelPreventsFire) {
  Simulator sim;
  Timer t(sim);
  int fired = 0;
  t.schedule_after(millis(1), [&] { ++fired; });
  t.cancel();
  sim.run();
  EXPECT_EQ(fired, 0);
}

TEST(Timer, RescheduleReplacesPrevious) {
  Simulator sim;
  Timer t(sim);
  std::vector<int> hits;
  t.schedule_after(millis(1), [&] { hits.push_back(1); });
  t.schedule_after(millis(2), [&] { hits.push_back(2); });
  sim.run();
  EXPECT_EQ(hits, (std::vector<int>{2}));
}

TEST(PeriodicTimer, TicksAtPeriod) {
  Simulator sim;
  std::vector<SimTime> ticks;
  PeriodicTimer t(sim, millis(10), [&] { ticks.push_back(sim.now()); });
  t.start();
  sim.run_until(millis(35));
  t.stop();
  ASSERT_EQ(ticks.size(), 3u);
  EXPECT_EQ(ticks[0], millis(10));
  EXPECT_EQ(ticks[1], millis(20));
  EXPECT_EQ(ticks[2], millis(30));
}

TEST(PeriodicTimer, StopInsideCallback) {
  Simulator sim;
  int fired = 0;
  PeriodicTimer* handle = nullptr;
  PeriodicTimer t(sim, millis(1), [&] {
    ++fired;
    if (fired == 2) handle->stop();
  });
  handle = &t;
  t.start();
  sim.run_until(millis(20));
  EXPECT_EQ(fired, 2);
}

/// Minimal device that records what it receives.
class SinkDevice : public Device {
 public:
  SinkDevice(Simulator& sim, std::string name) : Device(sim, std::move(name)) {
    add_port();
  }
  void handle_frame(PortId port, const FramePtr& frame) override {
    (void)port;
    frames.push_back(frame);
    times.push_back(sim().now());
  }
  std::vector<FramePtr> frames;
  std::vector<SimTime> times;
};

FramePtr frame_of_size(std::size_t n) {
  return make_frame(FrameBytes(n, 0xEE));
}

TEST(Link, DeliversWithSerializationAndPropagation) {
  Network net;
  auto& a = net.add_device<SinkDevice>("a");
  auto& b = net.add_device<SinkDevice>("b");
  Link::Config cfg;
  cfg.bandwidth_bps = 1e9;         // 1 Gb/s: 1000 bytes = 8 us
  cfg.propagation = micros(5);
  net.connect(a, 0, b, 0, cfg);

  net.sim().at(0, [&] { a.send(0, frame_of_size(1000)); });
  net.sim().run();
  ASSERT_EQ(b.frames.size(), 1u);
  EXPECT_EQ(b.times[0], micros(13));  // 8 us serialize + 5 us propagate
}

TEST(Link, BackToBackFramesQueueBehindEachOther) {
  Network net;
  auto& a = net.add_device<SinkDevice>("a");
  auto& b = net.add_device<SinkDevice>("b");
  Link::Config cfg;
  cfg.bandwidth_bps = 1e9;
  cfg.propagation = 0;
  net.connect(a, 0, b, 0, cfg);

  net.sim().at(0, [&] {
    a.send(0, frame_of_size(1000));  // 8 us
    a.send(0, frame_of_size(1000));  // +8 us
  });
  net.sim().run();
  ASSERT_EQ(b.times.size(), 2u);
  EXPECT_EQ(b.times[0], micros(8));
  EXPECT_EQ(b.times[1], micros(16));
}

TEST(Link, DropTailWhenQueueFull) {
  Network net;
  auto& a = net.add_device<SinkDevice>("a");
  auto& b = net.add_device<SinkDevice>("b");
  Link::Config cfg;
  cfg.bandwidth_bps = 1e6;  // slow: everything queues
  cfg.queue_capacity_bytes = 2500;
  net.connect(a, 0, b, 0, cfg);

  net.sim().at(0, [&] {
    for (int i = 0; i < 5; ++i) a.send(0, frame_of_size(1000));
  });
  net.sim().run();
  EXPECT_EQ(b.frames.size(), 2u);  // 2 x 1000 fit; rest dropped
  EXPECT_EQ(net.links()[0]->dropped_frames(0), 3u);
}

TEST(Link, DownLinkDropsAndNotifies) {
  Network net;
  auto& a = net.add_device<SinkDevice>("a");
  auto& b = net.add_device<SinkDevice>("b");
  Link& link = net.connect(a, 0, b, 0);

  link.set_up(false);
  net.sim().at(0, [&] { a.send(0, frame_of_size(100)); });
  net.sim().run();
  EXPECT_TRUE(b.frames.empty());
  EXPECT_FALSE(a.port_up(0));
  link.set_up(true);
  net.sim().at(net.sim().now(), [&] { a.send(0, frame_of_size(100)); });
  net.sim().run();
  EXPECT_EQ(b.frames.size(), 1u);
}

TEST(Link, InFlightFramesLostOnFailure) {
  Network net;
  auto& a = net.add_device<SinkDevice>("a");
  auto& b = net.add_device<SinkDevice>("b");
  Link::Config cfg;
  cfg.propagation = millis(1);
  Link& link = net.connect(a, 0, b, 0, cfg);

  net.sim().at(0, [&] { a.send(0, frame_of_size(100)); });
  net.sim().at(micros(500), [&] { link.set_up(false); });  // mid-flight
  net.sim().run();
  EXPECT_TRUE(b.frames.empty());
}

TEST(Link, UnidirectionalFailure) {
  Network net;
  auto& a = net.add_device<SinkDevice>("a");
  auto& b = net.add_device<SinkDevice>("b");
  Link& link = net.connect(a, 0, b, 0);

  link.set_direction_up(0, false);  // a -> b dead; b -> a alive
  net.sim().at(0, [&] {
    a.send(0, frame_of_size(10));
    b.send(0, frame_of_size(10));
  });
  net.sim().run();
  EXPECT_TRUE(b.frames.empty());
  EXPECT_EQ(a.frames.size(), 1u);
}

// --- link trains: inline-first entry ring --------------------------------

using EntryPool = detail::BlockPool<TrainEntry>;

// The ring against a std::deque model under a mixed push/pop stream whose
// head wraps before every growth, so each spill and doubling copies a
// wrapped ring out in order.
TEST(LinkTrain, RingKeepsFifoOrderAcrossWrapAndGrowth) {
  InlineFifo<TrainEntry, 2> ring;
  std::deque<std::uint64_t> model;
  Rng rng(7);
  std::uint64_t next = 0;
  for (int step = 0; step < 20000; ++step) {
    const bool push = model.empty() || rng.next_below(100) < 55;
    if (push) {
      ring.push_back(TrainEntry{static_cast<SimTime>(next), next, 0,
                                frame_of_size(1)});
      model.push_back(next++);
    } else {
      const TrainEntry e = ring.pop_front();
      ASSERT_EQ(e.seq, model.front()) << "step " << step;
      model.pop_front();
    }
    ASSERT_EQ(ring.size(), model.size());
    if (!model.empty()) {
      ASSERT_EQ(ring.front().seq, model.front());
      ASSERT_EQ(ring.back().seq, model.back());
    }
    // Empty means inline: the block went back the moment the ring drained.
    if (model.empty()) {
      ASSERT_FALSE(ring.spilled());
      ASSERT_EQ(ring.capacity(), 2u);
    }
  }
  EXPECT_GT(next, 10000u);
}

/// a -> b over a link whose 1 ms propagation keeps a whole burst in
/// flight at once: 1000-byte frames serialize in 8 us each at 1 Gb/s.
struct BurstLink {
  Network net;
  SinkDevice& a = net.add_device<SinkDevice>("a");
  SinkDevice& b = net.add_device<SinkDevice>("b");
  Link& link = connect(net, a, b);

  static Link& connect(Network& net, SinkDevice& a, SinkDevice& b) {
    Link::Config cfg;
    cfg.bandwidth_bps = 1e9;
    cfg.propagation = millis(1);
    return net.connect(a, 0, b, 0, cfg);
  }
  /// At `t`, a sends `n` frames whose sizes (1000 + i) tag their order.
  void burst_at(SimTime t, int n) {
    net.sim().at(t, [this, n] {
      for (int i = 0; i < n; ++i) a.send(0, frame_of_size(1000 + i));
    });
  }
  [[nodiscard]] std::vector<std::size_t> received_sizes() const {
    std::vector<std::size_t> sizes;
    for (const FramePtr& f : b.frames) sizes.push_back(f->size());
    return sizes;
  }
};

std::vector<std::size_t> burst_sizes(int n) {
  std::vector<std::size_t> sizes;
  for (int i = 0; i < n; ++i) sizes.push_back(1000 + i);
  return sizes;
}

TEST(LinkTrain, SpilledTrainDrainsAndReturnsItsBlock) {
  BurstLink l;
  l.burst_at(0, 64);
  l.net.sim().run_until(micros(600));  // all serialized, none arrived
  const Train& tr = l.link.train(0);
  ASSERT_EQ(tr.entries.size(), 64u);
  EXPECT_TRUE(tr.entries.spilled());
  EXPECT_EQ(tr.entries.capacity(), 64u);
  EXPECT_TRUE(tr.scheduled);
  for (std::size_t i = 1; i < tr.entries.size(); ++i) {
    EXPECT_GT(tr.entries[i].time, tr.entries[i - 1].time);
    EXPECT_GT(tr.entries[i].seq, tr.entries[i - 1].seq);
  }
  // Growth is over; the drain's only pool traffic is the final release.
  const std::size_t pooled = EntryPool::pooled_blocks();

  l.net.sim().run();
  EXPECT_EQ(l.received_sizes(), burst_sizes(64));
  EXPECT_EQ(l.b.times.front(), micros(8) + millis(1));
  for (std::size_t i = 1; i < l.b.times.size(); ++i) {
    EXPECT_GT(l.b.times[i], l.b.times[i - 1]);
  }
  EXPECT_TRUE(tr.entries.empty());
  EXPECT_FALSE(tr.entries.spilled());
  EXPECT_EQ(tr.entries.capacity(), 2u);
  EXPECT_FALSE(tr.scheduled);
  EXPECT_EQ(EntryPool::pooled_blocks(), pooled + 1);
}

TEST(LinkTrain, SnapshotOfSpilledTrainRestoresEveryEntry) {
  BurstLink l;
  Simulator& sim = l.net.sim();
  l.burst_at(0, 40);
  sim.run_until(micros(400));
  const Train& tr = l.link.train(0);
  ASSERT_EQ(tr.entries.size(), 40u);
  ASSERT_TRUE(tr.entries.spilled());
  std::vector<TrainEntry> saved;
  for (std::size_t i = 0; i < tr.entries.size(); ++i) {
    saved.push_back(tr.entries[i]);
  }
  const auto save = [&](std::vector<std::uint8_t>& out) {
    SnapshotWriter w(out);
    std::string error;
    ASSERT_TRUE(sim.save_engine(w, &error)) << error;
    for (Link* link : l.net.links()) link->save_state(w);
  };
  std::vector<std::uint8_t> image;
  save(image);

  sim.run();
  const std::vector<std::size_t> sizes = l.received_sizes();
  const std::vector<SimTime> times = l.b.times;
  const std::uint64_t executed = sim.executed_events();
  ASSERT_EQ(sizes, burst_sizes(40));

  std::string error;
  sim.snapshot_clear();
  SnapshotReader r(image);
  ASSERT_TRUE(sim.restore_engine(r, &error)) << error;
  for (Link* link : l.net.links()) link->restore_state(r);
  ASSERT_TRUE(r.ok());
  ASSERT_TRUE(sim.finish_restore(&error)) << error;

  // Every entry is back at its (time, seq), in a spilled ring again, and
  // the restored state re-saves to the same bytes.
  ASSERT_EQ(tr.entries.size(), saved.size());
  EXPECT_TRUE(tr.entries.spilled());
  EXPECT_TRUE(tr.scheduled);
  for (std::size_t i = 0; i < saved.size(); ++i) {
    EXPECT_EQ(tr.entries[i].time, saved[i].time);
    EXPECT_EQ(tr.entries[i].seq, saved[i].seq);
    EXPECT_EQ(tr.entries[i].epoch, saved[i].epoch);
    EXPECT_EQ(tr.entries[i].frame->bytes, saved[i].frame->bytes);
  }
  std::vector<std::uint8_t> again;
  save(again);
  EXPECT_EQ(again, image);

  l.b.frames.clear();
  l.b.times.clear();
  sim.run();
  EXPECT_EQ(l.received_sizes(), sizes);
  EXPECT_EQ(l.b.times, times);
  EXPECT_EQ(sim.executed_events(), executed);
  EXPECT_FALSE(tr.entries.spilled());
}

TEST(LinkTrain, LinkFailureVoidsSpilledTrainByEpoch) {
  BurstLink l;
  Simulator& sim = l.net.sim();
  l.burst_at(0, 48);
  // Down and back up while the whole burst is in flight: the repair does
  // not revive it, because every entry carries the pre-failure epoch.
  sim.at(micros(500), [&l] { l.link.set_up(false); });
  sim.at(micros(600), [&l] { l.link.set_up(true); });
  sim.run_until(micros(700));
  const Train& tr = l.link.train(0);
  ASSERT_EQ(tr.entries.size(), 48u);
  EXPECT_TRUE(tr.entries.spilled());

  sim.run();
  EXPECT_TRUE(l.b.frames.empty());
  EXPECT_TRUE(tr.entries.empty());
  EXPECT_FALSE(tr.entries.spilled());
  EXPECT_EQ(sim.executed_events(), 3u + 48u);  // 3 closures, 48 voided

  // A burst sent after the repair carries the new epoch and arrives.
  l.burst_at(sim.now(), 48);
  sim.run();
  EXPECT_EQ(l.received_sizes(), burst_sizes(48));
  EXPECT_EQ(l.link.tx_frames(0), 96u);
}

TEST(LinkTrain, DropTailIsExactAtQueueCapacity) {
  Network net;
  auto& a = net.add_device<SinkDevice>("a");
  auto& b = net.add_device<SinkDevice>("b");
  Link::Config cfg;
  cfg.bandwidth_bps = 1e9;  // 1000 bytes serialize in 8 us
  cfg.propagation = micros(1);
  cfg.queue_capacity_bytes = 8 * 1000;
  Link& link = net.connect(a, 0, b, 0, cfg);
  Simulator& sim = net.sim();

  // Eight 1000-byte frames fill the queue to exactly its capacity (the
  // drain records spill past their inline slots); the ninth is dropped.
  sim.at(0, [&] {
    for (int i = 0; i < 9; ++i) a.send(0, frame_of_size(1000));
  });
  // 1 ns before the first frame finishes serializing the queue is still
  // full; at 8 us exactly its bytes are credited and one more fits.
  sim.at(micros(8) - 1, [&] { a.send(0, frame_of_size(1000)); });
  std::size_t queued_at_8us = 0;
  sim.at(micros(8), [&] {
    a.send(0, frame_of_size(1000));
    a.send(0, frame_of_size(1000));
    queued_at_8us = link.queued_bytes_now(0);
  });
  sim.run();
  EXPECT_EQ(link.dropped_frames(0), 3u);
  EXPECT_EQ(link.tx_frames(0), 9u);
  EXPECT_EQ(queued_at_8us, 8000u);
  ASSERT_EQ(b.times.size(), 9u);
  for (std::size_t i = 0; i < b.times.size(); ++i) {
    EXPECT_EQ(b.times[i], static_cast<SimTime>(i + 1) * micros(8) +
                              micros(1));
  }
  EXPECT_EQ(link.queued_bytes_now(0), 0u);
}

/// Two shards, a -> b cross-shard: bursts parked in the mailbox join b's
/// train at the window barrier (the coordinator appends, spilling the
/// ring) and drain on b's shard, so spill blocks retire on another thread
/// than the one that took them. Records every arrival time.
std::vector<SimTime> run_cross_shard_bursts(unsigned workers) {
  Network net;
  net.sim().configure_shards(2, micros(1), 5);
  net.sim().set_parallel_threshold(0);
  net.sim().set_workers(workers);
  auto& a = net.add_device<SinkDevice>("a");
  auto& b = net.add_device<SinkDevice>("b");
  a.set_shard(0);
  b.set_shard(1);
  Link::Config cfg;
  cfg.bandwidth_bps = 100e9;
  cfg.propagation = micros(5);
  net.connect(a, 0, b, 0, cfg);
  {
    ShardGuard guard(net.sim(), 0);
    for (int burst = 0; burst < 40; ++burst) {
      net.sim().at(micros(20) * burst, [&a, burst] {
        for (int i = 0; i < 32 + burst; ++i) {
          a.send(0, frame_of_size(64 + burst));
        }
      });
    }
  }
  net.sim().run();
  return b.times;
}

TEST(LinkTrain, CrossShardSpilledTrainsAreWorkerCountInvariant) {
  const std::vector<SimTime> one = run_cross_shard_bursts(1);
  ASSERT_EQ(one.size(), 40u * 32u + 39u * 40u / 2u);
  for (const unsigned workers : {2u, 4u}) {
    EXPECT_EQ(run_cross_shard_bursts(workers), one) << workers << " workers";
  }
}

TEST(Network, FindDeviceAndLink) {
  Network net;
  auto& a = net.add_device<SinkDevice>("alpha");
  auto& b = net.add_device<SinkDevice>("beta");
  Link& link = net.connect(a, 0, b, 0);
  EXPECT_EQ(net.find_device("alpha"), &a);
  EXPECT_EQ(net.find_device("nope"), nullptr);
  EXPECT_EQ(net.find_link(a, b), &link);
  EXPECT_EQ(net.find_link(b, a), &link);
}

TEST(Network, DisconnectFreesPorts) {
  Network net;
  auto& a = net.add_device<SinkDevice>("a");
  auto& b = net.add_device<SinkDevice>("b");
  auto& c = net.add_device<SinkDevice>("c");
  Link& link = net.connect(a, 0, b, 0);
  net.disconnect(link);
  EXPECT_FALSE(a.port_connected(0));
  // Ports can be re-wired after disconnect (VM migration).
  net.connect(a, 0, c, 0);
  net.sim().at(0, [&] { a.send(0, frame_of_size(10)); });
  net.sim().run();
  EXPECT_EQ(c.frames.size(), 1u);
}

TEST(FailureInjector, FailsAndRepairsOnSchedule) {
  Network net;
  auto& a = net.add_device<SinkDevice>("a");
  auto& b = net.add_device<SinkDevice>("b");
  Link& link = net.connect(a, 0, b, 0);
  FailureInjector inj(net);
  inj.fail_link_at(link, millis(10));
  inj.repair_link_at(link, millis(20));

  net.sim().run_until(millis(5));
  EXPECT_TRUE(link.is_up());
  net.sim().run_until(millis(15));
  EXPECT_FALSE(link.is_up());
  net.sim().run_until(millis(25));
  EXPECT_TRUE(link.is_up());
}

TEST(FailureInjector, RandomLinkSelectionIsDistinct) {
  Network net;
  std::vector<Link*> links;
  auto& hub = net.add_device<SinkDevice>("hub");
  for (int i = 0; i < 8; ++i) {
    hub.add_port();
    auto& d = net.add_device<SinkDevice>("d" + std::to_string(i));
    links.push_back(&net.connect(hub, static_cast<PortId>(i + 1), d, 0));
  }
  FailureInjector inj(net);
  Rng rng(5);
  const auto chosen = inj.fail_random_links_at(links, 4, millis(1), rng);
  EXPECT_EQ(chosen.size(), 4u);
  std::set<Link*> unique(chosen.begin(), chosen.end());
  EXPECT_EQ(unique.size(), 4u);
  net.sim().run_until(millis(2));
  for (Link* l : chosen) EXPECT_FALSE(l->is_up());
}

TEST(Device, CountersTrackTraffic) {
  Network net;
  auto& a = net.add_device<SinkDevice>("a");
  auto& b = net.add_device<SinkDevice>("b");
  net.connect(a, 0, b, 0);
  net.sim().at(0, [&] { a.send(0, frame_of_size(64)); });
  net.sim().run();
  EXPECT_EQ(a.counters().get("tx_frames"), 1u);
  EXPECT_EQ(a.counters().get("tx_bytes"), 64u);
  EXPECT_EQ(b.counters().get("rx_frames"), 1u);
}

TEST(Device, SendOnUnconnectedPortCountsDrop) {
  Network net;
  auto& a = net.add_device<SinkDevice>("a");
  net.sim().at(0, [&] { a.send(0, frame_of_size(64)); });
  net.sim().run();
  EXPECT_EQ(a.counters().get("tx_drop_unconnected"), 1u);
}

// --- sharded parallel engine --------------------------------------------

/// Bounces every received frame back out the same port until `bounces`
/// frames have been seen, recording each receive time. All state is
/// touched only from the device's own shard.
class EchoDevice : public Device {
 public:
  EchoDevice(Simulator& sim, std::string name, int bounces)
      : Device(sim, std::move(name)), bounces_(bounces) {
    add_port();
  }
  void handle_frame(PortId port, const FramePtr& frame) override {
    times.push_back(sim().now());
    if (static_cast<int>(times.size()) < bounces_) send(port, frame);
  }
  std::vector<SimTime> times;

 private:
  int bounces_;
};

struct PingPongResult {
  std::vector<SimTime> times_a;
  std::vector<SimTime> times_b;
  std::uint64_t executed = 0;
  SimTime final_now = 0;
};

PingPongResult run_pingpong(unsigned workers) {
  Network net;
  net.sim().configure_shards(2, micros(1), 99);
  net.sim().set_workers(workers);
  auto& a = net.add_device<EchoDevice>("a", 200);
  auto& b = net.add_device<EchoDevice>("b", 200);
  a.set_shard(0);
  b.set_shard(1);
  Link::Config cfg;
  cfg.propagation = micros(5);  // cross-shard: always beyond the window
  net.connect(a, 0, b, 0, cfg);
  {
    ShardGuard guard(net.sim(), 0);
    net.sim().at(0, [&] { a.send(0, frame_of_size(200)); });
  }
  net.sim().run();
  return PingPongResult{a.times, b.times, net.sim().executed_events(),
                        net.sim().now()};
}

TEST(Sharded, CrossShardPingPongIsWorkerCountInvariant) {
  const PingPongResult one = run_pingpong(1);
  ASSERT_EQ(one.times_b.size(), 200u);
  ASSERT_EQ(one.times_a.size(), 199u);  // the 200th bounce stops the rally
  for (const unsigned workers : {2u, 4u}) {
    const PingPongResult many = run_pingpong(workers);
    EXPECT_EQ(many.times_a, one.times_a) << workers << " workers";
    EXPECT_EQ(many.times_b, one.times_b) << workers << " workers";
    EXPECT_EQ(many.executed, one.executed) << workers << " workers";
    EXPECT_EQ(many.final_now, one.final_now) << workers << " workers";
  }
}

TEST(Sharded, BarrierTasksRunBeforeShardEventsAtTheSameInstant) {
  Simulator sim;
  sim.configure_shards(2, micros(1), 1);
  std::vector<std::string> order;
  {
    ShardGuard guard(sim, 0);
    sim.at(millis(1), [&] { order.push_back("shard"); });
  }
  // No guard: the main thread schedules into the barrier queue.
  sim.at(millis(1), [&] { order.push_back("barrier"); });
  sim.run();
  ASSERT_EQ(order.size(), 2u);
  EXPECT_EQ(order[0], "barrier");
  EXPECT_EQ(order[1], "shard");
  EXPECT_EQ(sim.executed_events(), 2u);
}

TEST(Sharded, RunUntilAdvancesClockWithoutEvents) {
  Simulator sim;
  sim.configure_shards(3, micros(1), 1);
  sim.set_workers(2);
  sim.run_until(millis(7));
  EXPECT_EQ(sim.now(), millis(7));
  sim.run_until(millis(9));
  EXPECT_EQ(sim.now(), millis(9));
}

TEST(Sharded, TimersTickOnTheGuardedShard) {
  Simulator sim;
  sim.configure_shards(2, micros(1), 1);
  sim.set_workers(2);
  int ticks = 0;
  PeriodicTimer timer(sim, millis(1), [&] { ++ticks; });
  {
    ShardGuard guard(sim, 1);
    timer.start();
  }
  sim.run_until(millis(10));
  EXPECT_EQ(ticks, 10);
  timer.stop();
}

struct FailRecoverResult {
  std::size_t delivered_a = 0;
  std::size_t delivered_b = 0;
  std::uint64_t dropped = 0;
  std::uint64_t executed = 0;
};

FailRecoverResult run_fail_recover(unsigned workers) {
  Network net;
  net.sim().configure_shards(2, micros(1), 5);
  net.sim().set_workers(workers);
  auto& a = net.add_device<SinkDevice>("a");
  auto& b = net.add_device<SinkDevice>("b");
  a.set_shard(0);
  b.set_shard(1);
  Link::Config cfg;
  cfg.propagation = micros(3);
  Link& link = net.connect(a, 0, b, 0, cfg);

  // A periodic stream from shard 0, re-armed from inside the shard.
  struct Stream {
    Simulator* sim;
    SinkDevice* dev;
    int remaining;
    void fire() {
      dev->send(0, frame_of_size(300));
      if (--remaining > 0) sim->after(micros(50), [this] { fire(); });
    }
  };
  Stream stream{&net.sim(), &a, 400};
  {
    ShardGuard guard(net.sim(), 0);
    net.sim().at(0, [&stream] { stream.fire(); });
  }

  FailureInjector inj(net);
  inj.fail_link_at(link, micros(3000));
  inj.repair_link_at(link, micros(9000));
  net.sim().run();
  return FailRecoverResult{a.frames.size(), b.frames.size(),
                           link.dropped_frames(0),
                           net.sim().executed_events()};
}

TEST(Sharded, FailRecoverIsWorkerCountInvariant) {
  const FailRecoverResult one = run_fail_recover(1);
  EXPECT_GT(one.delivered_b, 0u);
  EXPECT_GT(one.dropped, 0u);  // the outage really dropped frames
  for (const unsigned workers : {2u, 4u}) {
    const FailRecoverResult many = run_fail_recover(workers);
    EXPECT_EQ(many.delivered_b, one.delivered_b) << workers << " workers";
    EXPECT_EQ(many.dropped, one.dropped) << workers << " workers";
    EXPECT_EQ(many.executed, one.executed) << workers << " workers";
  }
}

struct RespawnResult {
  std::uint64_t digest = 0;
  std::size_t receives = 0;
  std::uint64_t windows = 0;
};

/// Four cross-shard echo pairs, one per adjacent shard pair, run in
/// `chunks` run_until steps; before step i the worker count becomes
/// `schedule[i % schedule.size()]`. The pooled-window threshold is 0, so
/// every window with a live pool really goes to the pool. The digest
/// (sim::content_hash) covers every receive time of every device, then
/// the executed-event count and the final clock.
RespawnResult run_respawned_pool(const std::vector<unsigned>& schedule,
                                 int chunks) {
  Network net;
  net.sim().configure_shards(4, micros(1), 11);
  net.sim().set_parallel_threshold(0);
  net.sim().set_workers(schedule.front());
  std::vector<EchoDevice*> devices;
  for (ShardId s = 0; s < 4; ++s) {
    auto& a = net.add_device<EchoDevice>("a" + std::to_string(s), 600);
    auto& b = net.add_device<EchoDevice>("b" + std::to_string(s), 600);
    a.set_shard(s);
    b.set_shard((s + 1) % 4);
    Link::Config cfg;
    cfg.propagation = micros(5);
    net.connect(a, 0, b, 0, cfg);
    devices.push_back(&a);
    devices.push_back(&b);
    ShardGuard guard(net.sim(), s);
    for (int f = 0; f < 3; ++f) {
      net.sim().at(micros(f), [&a, s, f] {
        a.send(0, frame_of_size(100 + 50 * s + 10 * f));
      });
    }
  }
  const SimTime step = micros(500);
  for (int i = 0; i < chunks; ++i) {
    net.sim().set_workers(schedule[static_cast<std::size_t>(i) %
                                   schedule.size()]);
    net.sim().run_until(step * (i + 1));
  }
  net.sim().set_workers(1);
  net.sim().run();

  RespawnResult result;
  std::vector<std::uint8_t> buf;
  SnapshotWriter w(buf);
  for (const EchoDevice* dev : devices) {
    w.u64(dev->times.size());
    for (const SimTime t : dev->times) w.i64(t);
    result.receives += dev->times.size();
  }
  w.u64(net.sim().executed_events());
  w.i64(net.sim().now());
  result.digest = content_hash(buf);
  result.windows = net.sim().windows_executed();
  return result;
}

// Regression test: a respawned pool used to start its workers at window
// generation 0, so after any pooled window they ran a window nobody had
// dispatched, racing the coordinator on shard state and wrapping the
// active-worker count (which could hang the next window). Toggling the
// worker count between run_until calls must end, and must replay a
// single-worker run exactly.
TEST(Sharded, RespawnedPoolRunsOnlyDispatchedWindows) {
  const RespawnResult one = run_respawned_pool({1}, 12);
  // Every device hears at least its 600 bounces (frames still in flight
  // when it stops echoing land on top).
  ASSERT_GE(one.receives, 8u * 600u);
  EXPECT_GT(one.windows, 100u);
  const RespawnResult toggled = run_respawned_pool({4, 1, 4, 2}, 12);
  EXPECT_EQ(toggled.receives, one.receives);
  EXPECT_EQ(toggled.digest, one.digest);
}

// --- timing-wheel scheduler edge cases ----------------------------------

/// Where each case's clock starts. The wheel indexes a deadline by the
/// digits of its absolute time, so the same relative schedule crosses
/// different cascade boundaries from a different origin.
enum class Origin : std::uint8_t {
  kUnaligned,  ///< 1000 ns short of the 2^32 ns level-3 horizon
  kZero,
};

/// Every case runs from both origins. The leg IDs
/// (`BothSchedulers/EngineTest.*/{Heap,Wheel}`) date from when a
/// binary-heap scheduler ran beside the wheel; they are kept so the test
/// IDs stay stable. Both legs now run the wheel.
class EngineTest : public ::testing::TestWithParam<Origin> {
 protected:
  void SetUp() override {
    if (GetParam() == Origin::kUnaligned) {
      t0 = (SimTime{1} << 32) - 1000;
      sim.run_until(t0);
      ASSERT_EQ(sim.now(), t0);
    }
  }

  Simulator sim;
  SimTime t0 = 0;
};

INSTANTIATE_TEST_SUITE_P(
    BothSchedulers, EngineTest,
    ::testing::Values(Origin::kUnaligned, Origin::kZero),
    [](const ::testing::TestParamInfo<Origin>& info) {
      return info.param == Origin::kUnaligned ? "Heap" : "Wheel";
    });

TEST_P(EngineTest, OrderingAcrossCascadeDistances) {
  // From t0 = 0, times chosen to land on every wheel level: same-page ns
  // (level 0), ~hundreds of ns (level 1), tens of us (level 2), tens of
  // ms and seconds (level 3), and past the ~4.29 s horizon (overflow) —
  // plus duplicates, which must preserve schedule order.
  const SimTime times[] = {nanos(5),   nanos(300),  micros(70), millis(20),
                           seconds(1), seconds(5),  nanos(5),   millis(20),
                           seconds(6), nanos(6),    micros(70), seconds(5)};
  struct Fire {
    SimTime time;
    int id;
  };
  std::vector<Fire> fired;
  for (int i = 0; i < static_cast<int>(std::size(times)); ++i) {
    sim.at(t0 + times[i], [this, &fired, i] {
      fired.push_back(Fire{sim.now(), i});
    });
  }
  sim.run();
  // Golden order: stable sort by time (schedule order breaks ties).
  std::vector<int> ids(std::size(times));
  for (int i = 0; i < static_cast<int>(ids.size()); ++i) ids[i] = i;
  std::stable_sort(ids.begin(), ids.end(), [&](int a, int b) {
    return times[a] < times[b];
  });
  ASSERT_EQ(fired.size(), ids.size());
  for (std::size_t i = 0; i < ids.size(); ++i) {
    EXPECT_EQ(fired[i].id, ids[i]) << "position " << i;
    EXPECT_EQ(fired[i].time, t0 + times[static_cast<std::size_t>(ids[i])]);
  }
}

TEST_P(EngineTest, RunUntilBoundaryIsInclusive) {
  int at_limit = 0;
  int past_limit = 0;
  sim.at(t0 + millis(5), [&] { ++at_limit; });
  sim.at(t0 + millis(5) + 1, [&] { ++past_limit; });
  sim.run_until(t0 + millis(5));
  EXPECT_EQ(at_limit, 1);
  EXPECT_EQ(past_limit, 0);
  EXPECT_EQ(sim.now(), t0 + millis(5));
  sim.run();
  EXPECT_EQ(past_limit, 1);
}

TEST_P(EngineTest, CancelledTimersLeavePendingCount) {
  Timer a(sim);
  Timer b(sim);
  Timer c(sim);
  a.schedule_after(millis(1), [] {});
  b.schedule_after(seconds(10), [] {});
  c.schedule_after(seconds(100), [] {});  // overflow horizon on the wheel
  EXPECT_EQ(sim.pending_events(), 3u);
  b.cancel();
  c.cancel();
  EXPECT_EQ(sim.pending_events(), 1u);
  sim.run();
  EXPECT_EQ(sim.pending_events(), 0u);
  EXPECT_EQ(sim.executed_events(), 1u);
  EXPECT_EQ(sim.now(), t0 + millis(1));  // dead deadlines never drive the clock
}

TEST_P(EngineTest, CancelledLongDeadlineTimerReleasesItsCore) {
  // Regression: cancel used to leave the queued shot holding its
  // shared_ptr<TimerCore> (and with it the callback closure) until the
  // dead event's far-future deadline finally popped.
  auto marker = std::make_shared<int>(7);
  std::weak_ptr<int> weak = marker;
  {
    Timer t(sim);
    t.schedule_after(seconds(3600), [marker] { (void)*marker; });
    marker.reset();
    EXPECT_FALSE(weak.expired());  // queue + core keep the closure alive
    t.cancel();
  }
  EXPECT_TRUE(weak.expired());
  EXPECT_EQ(sim.pending_events(), 0u);
  sim.run();
  EXPECT_EQ(sim.executed_events(), 0u);
  EXPECT_EQ(sim.now(), t0);
}

TEST_P(EngineTest, TwoTimersAtSameInstantFireInArmOrder) {
  Timer first(sim);
  Timer second(sim);
  std::vector<int> order;
  first.schedule_after(millis(2), [&] { order.push_back(1); });
  second.schedule_after(millis(2), [&] { order.push_back(2); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

TEST_P(EngineTest, CancelFromOwnCallback) {
  Timer t(sim);
  int fired = 0;
  t.schedule_after(millis(1), [&] {
    ++fired;
    t.cancel();  // no pending shot: must be a harmless no-op
  });
  sim.run();
  EXPECT_EQ(fired, 1);
  EXPECT_FALSE(t.pending());
  t.rearm(millis(1));
  sim.run();
  EXPECT_EQ(fired, 2);
}

TEST_P(EngineTest, CancelSiblingTimerAtSameInstant) {
  // First timer's callback cancels the second, which is already staged
  // for dispatch at the same instant — it must not fire.
  Timer killer(sim);
  Timer victim(sim);
  int victim_fired = 0;
  killer.schedule_after(millis(3), [&] { victim.cancel(); });
  victim.schedule_after(millis(3), [&] { ++victim_fired; });
  sim.run();
  EXPECT_EQ(victim_fired, 0);
  EXPECT_EQ(sim.pending_events(), 0u);
}

TEST_P(EngineTest, RearmAfterCallbackReplacedItself) {
  // The callback replaces itself via schedule_after() from inside
  // fire_timer; a later rearm() must re-run the *replacement*.
  Timer t(sim);
  std::vector<int> hits;
  t.schedule_after(millis(1), [&] {
    hits.push_back(1);
    t.schedule_after(millis(1), [&] { hits.push_back(2); });
  });
  sim.run();
  EXPECT_EQ(hits, (std::vector<int>{1, 2}));
  t.rearm(millis(5));
  EXPECT_TRUE(t.pending());
  sim.run();
  EXPECT_EQ(hits, (std::vector<int>{1, 2, 2}));
}

TEST_P(EngineTest, DeadlineTracksRearm) {
  Timer t(sim);
  t.schedule_after(millis(10), [] {});
  EXPECT_EQ(t.deadline(), t0 + millis(10));
  t.rearm(millis(4));
  EXPECT_EQ(t.deadline(), t0 + millis(4));
  sim.run_until(t0 + millis(1));
  t.rearm(seconds(30));  // push past the wheel's cascade horizon
  EXPECT_EQ(t.deadline(), t0 + millis(1) + seconds(30));
  t.rearm(millis(2));
  EXPECT_EQ(t.deadline(), t0 + millis(3));
  sim.run();
  EXPECT_EQ(sim.now(), t0 + millis(3));
  EXPECT_EQ(sim.executed_events(), 1u);  // every earlier shot was erased
}

TEST_P(EngineTest, FarFutureCancelThenNearReschedule) {
  Timer t(sim);
  int fired = 0;
  t.schedule_after(seconds(20), [&] { ++fired; });  // overflow on the wheel
  t.cancel();
  t.schedule_after(micros(5), [&] { ++fired; });
  sim.run();
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(sim.now(), t0 + micros(5));
}

struct RandomTrace {
  /// (time, id) of every callback, in dispatch order.
  std::vector<std::pair<SimTime, int>> dispatched;
  std::uint64_t executed = 0;
  SimTime final_now = 0;
};

/// Drives one simulator through a pseudorandom schedule/cancel/rearm
/// storm and returns its dispatch trace.
RandomTrace run_random_trace() {
  Simulator sim;
  RandomTrace result;
  auto& trace = result.dispatched;
  Rng rng(0xC0FFEE);
  std::vector<std::unique_ptr<Timer>> timers;
  for (int i = 0; i < 16; ++i) timers.push_back(std::make_unique<Timer>(sim));
  int next_id = 1000;
  for (int round = 0; round < 40; ++round) {
    // A burst of plain events at erratic distances (ns .. multi-second).
    for (int i = 0; i < 64; ++i) {
      const SimTime t =
          sim.now() + static_cast<SimTime>(rng.next_below(seconds(6)));
      const int id = next_id++;
      sim.at(t, [&trace, &sim, id] { trace.emplace_back(sim.now(), id); });
    }
    // A same-instant cluster: its dispatch order is pure seq order.
    const SimTime tie =
        sim.now() + static_cast<SimTime>(rng.next_below(seconds(2)));
    for (int i = 0; i < 8; ++i) {
      const int id = next_id++;
      sim.at(tie, [&trace, &sim, id] { trace.emplace_back(sim.now(), id); });
    }
    // Timer churn: schedule, rearm, or cancel at random.
    for (auto& timer : timers) {
      const std::uint64_t action = rng.next_below(4);
      const int id = next_id++;
      if (action == 0) {
        timer->schedule_after(
            static_cast<SimDuration>(rng.next_below(seconds(2))),
            [&trace, &sim, id] { trace.emplace_back(sim.now(), id); });
      } else if (action == 1 && timer->pending()) {
        timer->rearm(static_cast<SimDuration>(rng.next_below(millis(50))));
      } else if (action == 2) {
        timer->cancel();
      }
    }
    sim.run_until(sim.now() + static_cast<SimTime>(rng.next_below(seconds(1))));
  }
  sim.run();
  result.executed = sim.executed_events();
  result.final_now = sim.now();
  return result;
}

/// FNV-1a (sim::content_hash) over the dispatch trace in order, then the
/// executed-event count and the final clock.
std::uint64_t digest(const RandomTrace& r) {
  std::vector<std::uint8_t> buf;
  SnapshotWriter w(buf);
  for (const auto& [t, id] : r.dispatched) {
    w.i64(t);
    w.u32(static_cast<std::uint32_t>(id));
  }
  w.u64(r.executed);
  w.i64(r.final_now);
  return content_hash(buf);
}

// Recorded when the binary-heap scheduler still existed beside the wheel;
// both produced exactly this digest. Any change to (time, seq) dispatch
// order, run_until boundaries or cancel/rearm semantics moves it.
constexpr std::uint64_t kRandomTraceDigest = 0xded88760fd717639ull;

TEST(Scheduler, RandomTraceMatchesGoldenDigest) {
  const RandomTrace r = run_random_trace();
  ASSERT_EQ(r.dispatched.size(), 2966u);
  EXPECT_EQ(r.executed, 2966u);
  EXPECT_EQ(r.final_now, 25'914'100'924);
  EXPECT_EQ(digest(r), kRandomTraceDigest);
}

TEST(Sharded, AdaptiveLookaheadWidensSparseWindows) {
  // Shard 0 walks a long purely-local chain while every other shard sits
  // far in the future: the adaptive policy must widen shard 0's windows
  // well past the fixed lookahead instead of creeping one lookahead at a
  // time — and the observed widths must never drop below the configured
  // lookahead floor.
  Simulator sim;
  sim.configure_shards(2, micros(1), 3);
  // The anchor sits inside the run limit: widths of limit-clamped windows
  // are deliberately not recorded, so min2 must be a real event time.
  {
    ShardGuard guard(sim, 1);
    sim.at(micros(300), [] {});
  }
  int steps = 0;
  std::function<void()> chain = [&] {
    if (++steps < 1000) sim.after(nanos(200), [&] { chain(); });
  };
  {
    ShardGuard guard(sim, 0);
    sim.at(micros(10), [&] { chain(); });
  }
  sim.run_until(millis(1));
  EXPECT_EQ(steps, 1000);
  EXPECT_GT(sim.windows_widened(), 0u);
  // The 200 ns chain spans ~200 us; a fixed 1 us window would need ~200
  // windows. Widening must cover it in far fewer.
  EXPECT_LT(sim.windows_executed(), 50u);
  EXPECT_GT(sim.window_width_max(), micros(1));
  if (sim.window_width_min() != 0) {
    EXPECT_GE(sim.window_width_min(), micros(1));
  }
}

TEST(Sharded, WidenedShardNeverOutrunsItsOwnEchoes) {
  // Regression test: a widened (argmin) shard that emits a cross-shard
  // send mid-window must stop at that send's arrival + lookahead. If it
  // ran on, the reply chain seeded by its own mail would re-enter it
  // *behind* its executed clock, and its dispatch order would go back in
  // time. Shard 2 anchors min2 far away so shard 0's window widens hugely;
  // shard 0's local chain fires one echo round-trip through shard 1.
  for (const unsigned workers : {1u, 2u}) {
    Simulator sim;
    sim.configure_shards(3, micros(1), 7);
    sim.set_workers(workers);
    {
      ShardGuard guard(sim, 2);
      sim.at(micros(500), [] {});
    }
    {
      ShardGuard guard(sim, 1);
      sim.at(seconds(1), [] {});
    }
    std::vector<SimTime> shard0_times;
    int steps = 0;
    std::function<void()> chain = [&] {
      shard0_times.push_back(sim.now());
      if (++steps == 100) {
        // One echo: shard 0 -> shard 1 -> shard 0, one lookahead per hop.
        sim.at_shard(1, sim.now() + micros(1), [&] {
          sim.at_shard(0, sim.now() + micros(1),
                       [&] { shard0_times.push_back(sim.now()); });
        });
      }
      if (steps < 2000) sim.after(nanos(100), [&] { chain(); });
    };
    {
      ShardGuard guard(sim, 0);
      sim.at(micros(10), [&] { chain(); });
    }
    sim.run_until(millis(2));
    ASSERT_EQ(shard0_times.size(), 2001u) << workers << " workers";
    EXPECT_GT(sim.windows_widened(), 0u) << workers << " workers";
    for (std::size_t i = 1; i < shard0_times.size(); ++i) {
      ASSERT_GE(shard0_times[i], shard0_times[i - 1])
          << "shard 0 executed behind its own clock at step " << i << " ("
          << workers << " workers)";
    }
  }
}

TEST(Sharded, ResolveAutoWorkersPolicy) {
  // A single-core box or a single-shard fabric resolves to the classic
  // serial engine; otherwise one worker per shard, capped at the cores.
  EXPECT_EQ(Simulator::resolve_auto_workers(1, 8), 0u);
  EXPECT_EQ(Simulator::resolve_auto_workers(2, 1), 0u);
  EXPECT_EQ(Simulator::resolve_auto_workers(8, 4), 4u);
  EXPECT_EQ(Simulator::resolve_auto_workers(2, 8), 2u);
  EXPECT_EQ(Simulator::resolve_auto_workers(4, 4), 4u);
}

TEST(Sharded, ShardRngStreamsAreIndependentAndStable) {
  Simulator sim1;
  sim1.configure_shards(3, micros(1), 42);
  Simulator sim2;
  sim2.configure_shards(3, micros(1), 42);
  for (ShardId s = 0; s < 3; ++s) {
    EXPECT_EQ(sim1.shard_rng(s).next(), sim2.shard_rng(s).next());
  }
  // Distinct shards draw from distinct streams.
  Simulator sim3;
  sim3.configure_shards(2, micros(1), 42);
  EXPECT_NE(sim3.shard_rng(0).next(), sim3.shard_rng(1).next());
}

}  // namespace
}  // namespace portland::sim
