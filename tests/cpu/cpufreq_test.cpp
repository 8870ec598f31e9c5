#include "cpu/cpufreq.hpp"

#include <gtest/gtest.h>

namespace pas::cpu {
namespace {

struct CpufreqTest : ::testing::Test {
  CpuModel cpu{FrequencyLadder::paper_default()};
  Cpufreq freq{cpu};
};

TEST_F(CpufreqTest, RequestSwitchesState) {
  EXPECT_EQ(freq.request(0), 0u);
  EXPECT_EQ(cpu.current_index(), 0u);
  EXPECT_EQ(freq.current_freq(), common::mhz(1600));
  EXPECT_EQ(freq.transition_count(), 1u);
}

TEST_F(CpufreqTest, NoOpRequestNotCounted) {
  freq.request(cpu.current_index());
  EXPECT_EQ(freq.transition_count(), 0u);
}

TEST_F(CpufreqTest, TransitionsAreCounted) {
  freq.request(0);
  freq.request(4);
  EXPECT_EQ(freq.transition_count(), 2u);
}

TEST_F(CpufreqTest, FloorClampsRequests) {
  freq.set_floor(2);
  EXPECT_EQ(freq.floor(), 2u);
  EXPECT_EQ(freq.request(0), 2u);
  EXPECT_EQ(cpu.current_index(), 2u);
}

TEST_F(CpufreqTest, SettingFloorAboveCurrentRaisesFrequency) {
  freq.request(0);
  freq.set_floor(3);
  EXPECT_EQ(cpu.current_index(), 3u);
}

TEST_F(CpufreqTest, LadderAccessor) {
  EXPECT_EQ(freq.ladder().size(), 5u);
  EXPECT_EQ(freq.current_index(), 4u);
}

}  // namespace
}  // namespace pas::cpu
