// Frame codec round-trips for the realtime socket transport: every payload
// type HADES services put on the wire must encode to bytes and decode back
// to an equal value (same-binary format), nested payloads included —
// reliable-broadcast envelopes carry their application payload recursively.
// Unregistered types must fail loudly at encode time, never silently drop.
#include "sim/wire_codec.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "rt/codecs.hpp"
#include "services/reliable_comm.hpp"
#include "util/error.hpp"

namespace hades {
namespace {

using namespace hades::literals;

sim::wire_payload round_trip(const sim::wire_payload& p) {
  std::vector<std::byte> bytes;
  const std::uint32_t tag = sim::wire_codec::encode(p, bytes);
  return sim::wire_codec::decode(tag, bytes.data(), bytes.size());
}

class WireCodecTest : public ::testing::Test {
 protected:
  void SetUp() override { rt::register_hades_codecs(); }
};

TEST_F(WireCodecTest, TrivialPayloadsRoundTrip) {
  const auto hb = round_trip(sim::wire_payload(std::uint64_t{0xDEADBEEFCAFEull}));
  ASSERT_NE(hb.get<std::uint64_t>(), nullptr);
  EXPECT_EQ(*hb.get<std::uint64_t>(), 0xDEADBEEFCAFEull);
  const auto app = round_trip(sim::wire_payload(-42));
  ASSERT_NE(app.get<int>(), nullptr);
  EXPECT_EQ(*app.get<int>(), -42);
}

TEST_F(WireCodecTest, NodeVectorRoundTrips) {
  const std::vector<node_id> digest = {0, 3, 7, 255};
  const auto back = round_trip(sim::wire_payload(digest));
  ASSERT_NE(back.get<std::vector<node_id>>(), nullptr);
  EXPECT_EQ(*back.get<std::vector<node_id>>(), digest);
}

TEST_F(WireCodecTest, BroadcastEnvelopeRoundTripsWithNestedPayload) {
  svc::reliable_broadcast::bcast_msg m;
  m.origin = 5;
  m.seq = 17;
  m.sent_at = time_point::at(123_ms + 456_us);
  m.size_bytes = 96;
  m.payload = sim::wire_payload(int{31337});
  const auto rt = round_trip(sim::wire_payload(m));
  const auto* back = rt.get<svc::reliable_broadcast::bcast_msg>();
  ASSERT_NE(back, nullptr);
  EXPECT_EQ(back->origin, m.origin);
  EXPECT_EQ(back->seq, m.seq);
  EXPECT_EQ(back->sent_at, m.sent_at);
  EXPECT_EQ(back->size_bytes, m.size_bytes);
  ASSERT_NE(back->payload.get<int>(), nullptr);
  EXPECT_EQ(*back->payload.get<int>(), 31337);
}

TEST_F(WireCodecTest, UnregisteredTypeThrowsAtEncode) {
  struct never_registered {
    int x = 0;
  };
  std::vector<std::byte> bytes;
  EXPECT_THROW(
      (void)sim::wire_codec::encode(sim::wire_payload(never_registered{}),
                                    bytes),
      hades::error);
}

TEST_F(WireCodecTest, UnknownTagThrowsAtDecode) {
  std::vector<std::byte> bytes(8);
  EXPECT_THROW((void)sim::wire_codec::decode(0xFFFF'FFF0u, bytes.data(),
                                             bytes.size()),
               hades::error);
}

// A record crosses processes as text: decoding it into a second monitor
// interns fresh ids there and keeps every field and both texts, including
// the text a node kind rebuilds from its node fields.
TEST_F(WireCodecTest, MonitorEventRoundTrips) {
  core::monitor sender;
  core::monitor receiver;
  (void)receiver.intern("an earlier name");  // ids differ across monitors

  core::monitor_event e;
  e.kind = core::monitor_event_kind::orphan_killed;
  e.at = time_point::at(7_ms);
  e.node = 3;
  e.task = 9;
  e.instance = 41;
  e.subject = sender.intern("serve");
  e.detail = sender.intern("shed: value density");
  core::monitor_event s;
  s.kind = core::monitor_event_kind::node_suspected;
  s.at = time_point::at(8_ms);
  s.node = 3;
  s.subject_node = 6;

  std::vector<core::monitor_event> got;
  receiver.subscribe_at_node(3, 1_ms,
                             {core::monitor_event_kind::orphan_killed,
                              core::monitor_event_kind::node_suspected},
                             [&](const core::monitor_event& r) {
                               got.push_back(r);
                             });
  for (const core::monitor_event& sent : {e, s}) {
    std::vector<std::byte> bytes;
    rt::encode_monitor_event(sender, sent, bytes);
    const rt::monitor_event_text t =
        rt::decode_monitor_event(bytes.data(), bytes.size());
    receiver.deliver_forwarded(t.event, t.subject, t.detail, /*home=*/3);
  }
  ASSERT_EQ(got.size(), 2u);
  const core::monitor_event& back = got[0];
  EXPECT_EQ(back.kind, e.kind);
  EXPECT_EQ(back.at, e.at);
  EXPECT_EQ(back.node, e.node);
  EXPECT_EQ(back.task, e.task);
  EXPECT_EQ(back.instance, e.instance);
  EXPECT_NE(back.subject, e.subject);
  EXPECT_EQ(receiver.subject_text(back), "serve");
  EXPECT_EQ(receiver.detail_text(back), "shed: value density");
  EXPECT_EQ(got[1].subject_node, 6u);
  EXPECT_EQ(receiver.subject_text(got[1]), sender.subject_text(s));
  EXPECT_EQ(receiver.detail_text(got[1]), "observer node3");
  EXPECT_TRUE(receiver.events().empty());  // forwarded, not re-recorded
}

// Only monitored kinds cross processes. A frame naming a trace kind or an
// unknown number is malformed, and decoding it fails before any kind_set
// test shifts by that number.
TEST_F(WireCodecTest, MonitorEventOfAnotherKindIsRejected) {
  core::monitor sender;
  core::monitor_event e;
  e.kind = core::monitor_event_kind::thread_created;
  std::vector<std::byte> bytes;
  rt::encode_monitor_event(sender, e, bytes);
  EXPECT_THROW((void)rt::decode_monitor_event(bytes.data(), bytes.size()),
               hades::error);
  bytes[0] = std::byte{200};
  EXPECT_THROW((void)rt::decode_monitor_event(bytes.data(), bytes.size()),
               hades::error);
}

}  // namespace
}  // namespace hades
