#include "curb/net/message_bus.hpp"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "curb/net/link_model.hpp"
#include "curb/net/topology.hpp"
#include "curb/obs/observatory.hpp"
#include "curb/sim/simulator.hpp"

namespace curb::net {
namespace {

using namespace curb::sim::literals;

struct Fixture {
  Fixture() : bus{sim, topo} {}

  Topology make_line() {
    const NodeId a = topo.add_node("a", NodeKind::kController, {0, 0});
    const NodeId b = topo.add_node("b", NodeKind::kSwitch, {0, 0});
    topo.add_link(a, b, 200.0);  // 200 km -> 1 ms propagation at 2e8 m/s
    return topo;
  }

  sim::Simulator sim;
  Topology topo;
  MessageBus<std::string> bus;
};

TEST(LinkModel, PaperConstants) {
  const LinkModel m;
  // 200 km at 2*10^8 m/s = 1 ms.
  EXPECT_EQ(m.propagation_delay(200.0), 1_ms);
  // 12500 bytes = 100000 bits at 100 Mbps = 1 ms.
  EXPECT_EQ(m.transmission_delay(12'500), 1_ms);
  EXPECT_EQ(m.delay(200.0, 12'500), 2_ms);
}

TEST(LinkModel, OverheadAddsOncePerMessage) {
  LinkModel m;
  m.per_message_overhead = 100_us;
  EXPECT_EQ(m.delay(0.0, 0), 100_us);
}

TEST(MessageBus, DeliversWithPropagationDelay) {
  Fixture f;
  f.make_line();
  std::string received;
  sim::SimTime at = sim::SimTime::zero();
  f.bus.attach(NodeId{1}, [&](NodeId from, const std::string& msg) {
    EXPECT_EQ(from, NodeId{0});
    received = msg;
    at = f.sim.now();
  });
  f.bus.send(NodeId{0}, NodeId{1}, "hello", 0, "test");
  f.sim.run();
  EXPECT_EQ(received, "hello");
  EXPECT_EQ(at, 1_ms);
}

TEST(MessageBus, TransmissionDelayScalesWithBytes) {
  Fixture f;
  f.make_line();
  sim::SimTime at = sim::SimTime::zero();
  f.bus.attach(NodeId{1}, [&](NodeId, const std::string&) { at = f.sim.now(); });
  f.bus.send(NodeId{0}, NodeId{1}, "big", 12'500, "test");
  f.sim.run();
  EXPECT_EQ(at, 2_ms);  // 1 ms propagation + 1 ms transmission
}

TEST(MessageBus, SelfSendSkipsPropagation) {
  Fixture f;
  f.make_line();
  sim::SimTime at = 5_ms;
  f.bus.attach(NodeId{0}, [&](NodeId, const std::string&) { at = f.sim.now(); });
  f.bus.send(NodeId{0}, NodeId{0}, "note-to-self", 0, "test");
  f.sim.run();
  EXPECT_EQ(at, sim::SimTime::zero());
}

TEST(MessageBus, MulticastSkipsSender) {
  Fixture f;
  const NodeId a = f.topo.add_node("a", NodeKind::kController, {0, 0});
  const NodeId b = f.topo.add_node("b", NodeKind::kController, {0, 0});
  const NodeId c = f.topo.add_node("c", NodeKind::kController, {0, 0});
  f.topo.add_link(a, b, 1.0);
  f.topo.add_link(b, c, 1.0);
  MessageBus<std::string> bus{f.sim, f.topo};
  int a_got = 0;
  int b_got = 0;
  int c_got = 0;
  bus.attach(a, [&](NodeId, const std::string&) { ++a_got; });
  bus.attach(b, [&](NodeId, const std::string&) { ++b_got; });
  bus.attach(c, [&](NodeId, const std::string&) { ++c_got; });
  bus.multicast(a, {a, b, c}, "ping", 10, "gossip");
  f.sim.run();
  EXPECT_EQ(a_got, 0);
  EXPECT_EQ(b_got, 1);
  EXPECT_EQ(c_got, 1);
}

TEST(MessageBus, FaultHookCanDrop) {
  Fixture f;
  f.make_line();
  std::vector<std::string> received;
  f.bus.attach(NodeId{1}, [&](NodeId, const std::string& msg) { received.push_back(msg); });
  f.bus.set_fault_hook([](NodeId, NodeId, const std::string& msg, const std::string&) {
    BusFaultAction<std::string> action;
    action.drop = msg == "drop-me";
    return action;
  });
  f.bus.send(NodeId{0}, NodeId{1}, "drop-me", 0, "test");
  f.bus.send(NodeId{0}, NodeId{1}, "keep-me", 0, "test");
  f.sim.run();
  EXPECT_EQ(received, std::vector<std::string>{"keep-me"});
}

TEST(MessageBus, FaultHookDelayAddsToDelivery) {
  Fixture f;
  f.make_line();
  sim::SimTime at = sim::SimTime::zero();
  f.bus.attach(NodeId{1}, [&](NodeId, const std::string&) { at = f.sim.now(); });
  f.bus.set_fault_hook([](NodeId, NodeId, const std::string&, const std::string&) {
    BusFaultAction<std::string> action;
    action.extra_delay = 300_ms;  // lazy-node behaviour from the paper's experiment 3
    return action;
  });
  f.bus.send(NodeId{0}, NodeId{1}, "slow", 0, "test");
  f.sim.run();
  EXPECT_EQ(at, 301_ms);  // 1 ms propagation + 300 ms fault delay
}

TEST(MessageBus, CountsMessagesByCategory) {
  Fixture f;
  f.make_line();
  f.bus.attach(NodeId{1}, [](NodeId, const std::string&) {});
  f.bus.send(NodeId{0}, NodeId{1}, "a", 100, "PKT-IN");
  f.bus.send(NodeId{0}, NodeId{1}, "b", 50, "PKT-IN");
  f.bus.send(NodeId{0}, NodeId{1}, "c", 10, "AGREE");
  EXPECT_EQ(f.bus.stats().total_messages(), 3u);
  EXPECT_EQ(f.bus.stats().total_bytes(), 160u);
  EXPECT_EQ(f.bus.stats().messages("PKT-IN"), 2u);
  EXPECT_EQ(f.bus.stats().messages("AGREE"), 1u);
  EXPECT_EQ(f.bus.stats().messages("unknown"), 0u);
}

TEST(MessageBus, TracksBytesPerCategory) {
  Fixture f;
  f.make_line();
  f.bus.attach(NodeId{1}, [](NodeId, const std::string&) {});
  f.bus.send(NodeId{0}, NodeId{1}, "a", 100, "PKT-IN");
  f.bus.send(NodeId{0}, NodeId{1}, "b", 50, "PKT-IN");
  f.bus.send(NodeId{0}, NodeId{1}, "c", 10, "AGREE");
  EXPECT_EQ(f.bus.stats().bytes("PKT-IN"), 150u);
  EXPECT_EQ(f.bus.stats().bytes("AGREE"), 10u);
  EXPECT_EQ(f.bus.stats().bytes("unknown"), 0u);
  const auto snap = f.bus.stats().snapshot();
  ASSERT_EQ(snap.size(), 2u);
  EXPECT_EQ(snap.at("PKT-IN").first, 2u);
  EXPECT_EQ(snap.at("PKT-IN").second, 150u);
}

TEST(MessageBus, ObservatoryCountsTrafficAndDrops) {
  Fixture f;
  f.make_line();
  // A third, unreachable node to exercise the partition-drop path.
  const NodeId c = f.topo.add_node("c", NodeKind::kController, {9999, 9999});
  obs::Observatory obsy;
  obsy.enable(f.sim);
  f.bus.set_observatory(&obsy);
  f.bus.attach(NodeId{1}, [](NodeId, const std::string&) {});
  f.bus.set_fault_hook([](NodeId, NodeId, const std::string& msg, const std::string&) {
    BusFaultAction<std::string> action;
    action.drop = msg == "drop-me";
    return action;
  });

  f.bus.send(NodeId{0}, NodeId{1}, "hello", 12'500, "PKT-IN");
  f.bus.send(NodeId{0}, NodeId{1}, "drop-me", 8, "PKT-IN");
  f.bus.send(NodeId{0}, c, "unroutable", 8, "PKT-IN");
  f.sim.run();

  auto& reg = obsy.metrics;
  const obs::Labels cat{{"category", "PKT-IN"}};
  EXPECT_EQ(reg.counter("net.messages", cat).value(), 1u);  // delivered only
  EXPECT_EQ(reg.counter("net.bytes", cat).value(), 12'500u);
  EXPECT_EQ(reg.counter("net.dropped",
                        {{"category", "PKT-IN"}, {"reason", "fault"}})
                .value(),
            1u);
  EXPECT_EQ(reg.counter("net.dropped",
                        {{"category", "PKT-IN"}, {"reason", "partition"}})
                .value(),
            1u);
  // 200 km propagation (1 ms) + 12500 bytes transmission (1 ms) = 2 ms.
  obs::Histogram& delay = reg.histogram("net.delay_us", cat);
  EXPECT_EQ(delay.count(), 1u);
  EXPECT_DOUBLE_EQ(delay.min(), 2000.0);
}

TEST(MessageBus, SendObserverFiresOncePerMulticastDestination) {
  sim::Simulator sim;
  Topology topo;
  const NodeId a = topo.add_node("a", NodeKind::kController, {0, 0});
  const NodeId b = topo.add_node("b", NodeKind::kController, {0, 0});
  const NodeId c = topo.add_node("c", NodeKind::kController, {0, 0});
  topo.add_link(a, b, 10.0);
  topo.add_link(a, c, 10.0);
  MessageBus<std::string> bus{sim, topo};

  std::vector<std::pair<std::uint32_t, std::uint32_t>> seen;
  bus.set_send_observer([&](const MessageBus<std::string>::SendRecord& rec,
                            const std::string& payload, const std::string& category) {
    EXPECT_EQ(payload, "ping");
    EXPECT_EQ(category, "gossip");
    EXPECT_EQ(rec.bytes, 10u);
    EXPECT_FALSE(rec.dropped);
    seen.emplace_back(rec.from.value, rec.to.value);
  });
  // One observation per multicast destination (self skipped), exactly
  // mirroring MessageStats accounting.
  bus.multicast(a, {a, b, c}, "ping", 10, "gossip");
  sim.run();
  ASSERT_EQ(seen.size(), 2u);
  EXPECT_EQ(seen[0], (std::pair<std::uint32_t, std::uint32_t>{0, 1}));
  EXPECT_EQ(seen[1], (std::pair<std::uint32_t, std::uint32_t>{0, 2}));
  EXPECT_EQ(bus.stats().total_messages(), seen.size());
}

TEST(MessageBus, SendObserverConservationWithDropsAndDups) {
  Fixture f;
  f.make_line();
  // A third, unreachable node to exercise the partition-drop path.
  const NodeId c = f.topo.add_node("c", NodeKind::kController, {0, 0});

  f.bus.set_fault_hook([](NodeId, NodeId, const std::string& payload,
                          const std::string&) {
    BusFaultAction<std::string> action;
    if (payload == "dup-me") action.duplicates = {1_ms, 2_ms};
    if (payload == "drop-me") action.drop = true;
    return action;
  });

  std::uint64_t observed = 0, dups = 0, drops = 0;
  f.bus.set_send_observer([&](const MessageBus<std::string>::SendRecord& rec,
                              const std::string&, const std::string&) {
    ++observed;
    dups += rec.duplicates;
    if (rec.dropped) ++drops;
  });
  f.bus.attach(NodeId{1}, [](NodeId, const std::string&) {});

  f.bus.send(NodeId{0}, NodeId{1}, "dup-me", 8, "AGREE");
  f.bus.send(NodeId{0}, NodeId{1}, "drop-me", 8, "AGREE");
  f.bus.send(NodeId{0}, c, "unroutable", 8, "AGREE");  // partition drop

  // Backlog: the original and both duplicates are scheduled for node 1;
  // neither drop is. Delivery must bring every gauge back to zero.
  const MessageStats& stats = f.bus.stats();
  EXPECT_EQ(stats.in_flight_total(), 3u);
  EXPECT_EQ(stats.pending_inbox(1), 3u);
  EXPECT_EQ(stats.in_flight_messages("AGREE"), 3u);
  EXPECT_EQ(stats.in_flight_bytes("AGREE"), 24u);
  f.sim.run();
  EXPECT_EQ(stats.in_flight_total(), 0u);
  EXPECT_EQ(stats.pending_inbox(1), 0u);
  EXPECT_EQ(stats.in_flight_messages("AGREE"), 0u);
  EXPECT_EQ(stats.in_flight_bytes("AGREE"), 0u);

  // Conservation: the observer saw exactly what MessageStats accounted —
  // drops included, fault duplicates reported but never re-counted.
  EXPECT_EQ(observed, f.bus.stats().total_messages());
  EXPECT_EQ(observed, 3u);
  EXPECT_EQ(dups, 2u);
  EXPECT_EQ(drops, 2u);
}

TEST(MessageBus, UnattachedRecipientIsIgnored) {
  Fixture f;
  f.make_line();
  f.bus.send(NodeId{0}, NodeId{1}, "void", 0, "test");
  EXPECT_NO_THROW(f.sim.run());
}

TEST(MessageBus, AttachRejectsBadNode) {
  Fixture f;
  f.make_line();
  EXPECT_THROW(f.bus.attach(NodeId{99}, [](NodeId, const std::string&) {}),
               std::out_of_range);
}

}  // namespace
}  // namespace curb::net
