#include "workload/campaign.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>

namespace partree::workload {
namespace {

TEST(CampaignTest, AllNamedCampaignsAreValid) {
  const tree::Topology topo(64);
  for (const std::string& name : campaign_names()) {
    util::Rng rng(7);
    const core::TaskSequence seq = make_campaign(name, topo, rng);
    EXPECT_EQ(seq.validate(64), "") << name;
    EXPECT_FALSE(seq.empty()) << name;
  }
}

TEST(CampaignTest, UnknownNameThrows) {
  const tree::Topology topo(16);
  util::Rng rng(1);
  EXPECT_THROW((void)make_campaign("no-such-campaign", topo, rng),
               std::invalid_argument);
  EXPECT_THROW(check_campaign_name("no-such-campaign"), std::invalid_argument);
  for (const std::string& name : campaign_names()) {
    EXPECT_NO_THROW(check_campaign_name(name)) << name;
  }
}

// A scale that is not finite and positive, or whose event budget would
// not fit in 64 bits, is rejected before any event is generated; the
// integer conversion of such a budget is undefined behaviour.
TEST(CampaignTest, BadScaleThrows) {
  const tree::Topology topo(16);
  for (const double scale : {std::nan(""), HUGE_VAL, -HUGE_VAL, 0.0, -1.0,
                             1e30}) {
    util::Rng rng(1);
    EXPECT_THROW((void)make_campaign("steady-mix", topo, rng, scale),
                 std::invalid_argument)
        << scale;
    EXPECT_THROW(check_campaign_scale(scale), std::invalid_argument)
        << scale;
  }
  EXPECT_NO_THROW(check_campaign_scale(1e-9));
  EXPECT_NO_THROW(check_campaign_scale(1e12));
}

TEST(CampaignTest, ScaleGrowsEventCount) {
  const tree::Topology topo(32);
  util::Rng rng1(5);
  util::Rng rng2(5);
  const auto small = make_campaign("steady-mix", topo, rng1, 0.5);
  const auto large = make_campaign("steady-mix", topo, rng2, 2.0);
  EXPECT_GT(large.size(), small.size());
}

TEST(CampaignTest, DeterministicGivenSeed) {
  const tree::Topology topo(32);
  util::Rng rng1(9);
  util::Rng rng2(9);
  EXPECT_EQ(make_campaign("heavy-tail", topo, rng1),
            make_campaign("heavy-tail", topo, rng2));
}

TEST(CampaignTest, WorksOnTinyMachine) {
  const tree::Topology topo(2);
  for (const std::string& name : campaign_names()) {
    util::Rng rng(3);
    const core::TaskSequence seq = make_campaign(name, topo, rng, 0.2);
    EXPECT_EQ(seq.validate(2), "") << name;
  }
}

}  // namespace
}  // namespace partree::workload
