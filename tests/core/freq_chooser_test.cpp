// Tests for the stability-amended frequency chooser
// (compute_new_freq_index_saturating) — the documented deviations from
// Listing 1.1, documented on compute_new_freq_index_saturating in
// core/compensation.hpp.
#include <gtest/gtest.h>

#include "core/compensation.hpp"

namespace pas::core {
namespace {

const cpu::FrequencyLadder kLadder = cpu::FrequencyLadder::paper_default();
// Capacities: 60.0 / 70.0 / 80.0 / 90.0 / 100.0 (approximately).

TEST(FreqChooserTest, MatchesListing11WhenUnsaturated) {
  for (double absolute : {0.0, 20.0, 45.0, 66.0, 85.0, 120.0}) {
    EXPECT_EQ(compute_new_freq_index_saturating(kLadder, absolute, /*global=*/50.0,
                                                /*current=*/4),
              compute_new_freq_index(kLadder, absolute))
        << absolute;
  }
}

TEST(FreqChooserTest, SaturationForcesOneStepUp) {
  // Saturated at state 1: measured absolute equals its capacity; the plain
  // algorithm would stay (70.004 > 70.0), escalation must move up.
  const double absolute = kLadder.capacity_pct(1) - 0.01;
  EXPECT_EQ(compute_new_freq_index(kLadder, absolute), 1u);
  EXPECT_EQ(compute_new_freq_index_saturating(kLadder, absolute, 100.0, 1), 2u);
}

TEST(FreqChooserTest, SaturationAtMaxStays) {
  EXPECT_EQ(compute_new_freq_index_saturating(kLadder, 99.0, 100.0, 4), 4u);
}

TEST(FreqChooserTest, RepeatedEscalationClimbsToMax) {
  std::size_t cur = 0;
  for (int i = 0; i < 10; ++i) {
    // Host stays saturated: measured absolute = current capacity.
    cur = compute_new_freq_index_saturating(kLadder, kLadder.capacity_pct(cur), 100.0, cur);
  }
  EXPECT_EQ(cur, kLadder.max_index());
}

TEST(FreqChooserTest, DownMoveRequiresHeadroom) {
  // absolute 88 from max: Listing 1.1 says state 3 (90 > 88), but the 3 %
  // headroom rule rejects it (90 <= 91) and keeps max.
  EXPECT_EQ(compute_new_freq_index(kLadder, 88.0), 3u);
  EXPECT_EQ(compute_new_freq_index_saturating(kLadder, 88.0, 88.0, 4), 4u);
  // With comfortable headroom the down move happens.
  EXPECT_EQ(compute_new_freq_index_saturating(kLadder, 50.0, 50.0, 4), 0u);
}

TEST(FreqChooserTest, HeadroomWalksUpToFirstComfortableState) {
  // absolute 58 from max: state 0 (60) has no headroom, state 1 (70) does.
  EXPECT_EQ(compute_new_freq_index_saturating(kLadder, 58.0, 58.0, 4), 1u);
}

TEST(FreqChooserTest, UpMovesNeverDelayed) {
  // From state 0 with absolute 75: straight to state 2 regardless of
  // saturation or headroom.
  EXPECT_EQ(compute_new_freq_index_saturating(kLadder, 75.0, 75.0, 0), 2u);
}

TEST(FreqChooserTest, CustomThresholds) {
  // Lower saturation threshold triggers earlier; zero headroom reduces to
  // Listing 1.1 for down moves.
  EXPECT_EQ(compute_new_freq_index_saturating(kLadder, 59.0, 90.0, 0, /*sat=*/85.0), 1u);
  EXPECT_EQ(compute_new_freq_index_saturating(kLadder, 88.0, 50.0, 4, 98.0,
                                              /*headroom=*/0.0),
            3u);
}

}  // namespace
}  // namespace pas::core
