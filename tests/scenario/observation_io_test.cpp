// Merging worker partial observations: records may only name nodes and
// messages that the merged files actually have.
#include "scenario/observation_io.hpp"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "util/error.hpp"

namespace hades::scenario {
namespace {

/// A three-node partial with `body` after the header lines.
std::string write_partial(const std::string& name, const std::string& body) {
  const std::string path =
      (std::filesystem::path(testing::TempDir()) / ("obs_io_" + name)).string();
  std::ofstream f(path);
  f << "hades-observation v1\n"
    << "nodes 3\nhorizon 1000000000\ndetect_bound 20000000\n"
    << "recover_bound 10000000\ndelivery_bound 5000000\nskew_bound 0\n"
    << "has_mode 0\n"
    << body;
  return path;
}

TEST(ObservationIoTest, DeliveriesMayNameMessagesSentInAnotherFile) {
  const std::string a =
      write_partial("split_a", "sent 0 100000000\ndelivery 0 1 2\n");
  const std::string b = write_partial(
      "split_b", "sent 1 100000000\nsent 1 200000000\ndelivery 1 0 1\n"
                 "suspicion 1 2 300000000\nrecovery 1 2 400000000\n");
  const merged_observation m = merge_partial_observations({a, b});
  ASSERT_EQ(m.obs.delivery_logs.size(), 3u);
  EXPECT_EQ(m.obs.delivery_logs[0].size(), 1u);
  EXPECT_EQ(m.obs.sent_at[1].size(), 2u);
  EXPECT_EQ(m.obs.suspicions.size(), 1u);
}

TEST(ObservationIoTest, DeliveryOfAnUnsentMessageThrows) {
  const std::string sent = write_partial("sent", "sent 0 100000000\n");
  const std::vector<std::pair<std::string, std::string>> bad = {
      {"origin_out_of_range", "delivery 1 3 1\n"},
      {"seq_zero", "delivery 1 0 0\n"},
      {"seq_past_sent", "delivery 1 0 2\n"},
      {"origin_never_sent", "delivery 1 2 1\n"},
  };
  for (const auto& [name, body] : bad)
    EXPECT_THROW(
        (void)merge_partial_observations({sent, write_partial(name, body)}),
        error)
        << name;
}

TEST(ObservationIoTest, SuspicionOrRecoveryOutsideTheNodeSetThrows) {
  const std::vector<std::pair<std::string, std::string>> bad = {
      {"suspicion_observer", "suspicion 3 0 100000000\n"},
      {"suspicion_subject", "suspicion 0 7 100000000\n"},
      {"recovery_observer", "recovery 4294967295 0 100000000\n"},
      {"recovery_subject", "recovery 0 3 100000000\n"},
  };
  for (const auto& [name, body] : bad)
    EXPECT_THROW((void)merge_partial_observations({write_partial(name, body)}),
                 error)
        << name;
}

}  // namespace
}  // namespace hades::scenario
