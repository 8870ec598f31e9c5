#include "metrics/trace_recorder.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <vector>

namespace pas::metrics {
namespace {

/// Appends one two-VM row: V0 and V1 at global loads v0/v1, credits 20/70.
void append_sample(TraceRecorder& tr, double t_sec, double freq, double v0, double v1) {
  const std::vector<double> global{v0, v1};
  const std::vector<double> absolute{v0 * freq / 2667.0, v1 * freq / 2667.0};
  const std::vector<double> credit{20.0, 70.0};
  const std::vector<double> saturated{1.0, 0.0};
  tr.append(common::seconds(static_cast<std::int64_t>(t_sec)), freq, v0 + v1,
            (v0 + v1) * freq / 2667.0, global, absolute, credit, saturated);
}

TEST(TraceRecorderTest, SeriesExtraction) {
  TraceRecorder tr{2};
  append_sample(tr, 10, 1600, 20, 0);
  append_sample(tr, 20, 2667, 20, 70);
  EXPECT_EQ(tr.samples().size(), 2u);
  EXPECT_EQ(tr.series_freq(), (std::vector<double>{1600, 2667}));
  EXPECT_EQ(tr.series_vm_global(0), (std::vector<double>{20, 20}));
  EXPECT_EQ(tr.series_vm_global(1), (std::vector<double>{0, 70}));
  EXPECT_EQ(tr.series_time_sec(), (std::vector<double>{10, 20}));
  EXPECT_EQ(tr.series_vm_credit(0), (std::vector<double>{20, 20}));
}

TEST(TraceRecorderTest, EmptyTrace) {
  TraceRecorder tr{1};
  EXPECT_TRUE(tr.empty());
  EXPECT_TRUE(tr.series_freq().empty());
}

TEST(TraceRecorderTest, WriteCsv) {
  TraceRecorder tr{2};
  append_sample(tr, 10, 1600, 20, 0);
  const std::string path = ::testing::TempDir() + "/pas_trace_test.csv";
  tr.write_csv(path);
  std::ifstream in{path};
  std::string header;
  std::getline(in, header);
  EXPECT_EQ(header,
            "t_sec,freq_mhz,global_pct,absolute_pct,vm0_global_pct,vm1_global_pct,"
            "vm0_absolute_pct,vm1_absolute_pct,vm0_credit_pct,vm1_credit_pct");
  std::string row;
  std::getline(in, row);
  EXPECT_NE(row.find("10,1600"), std::string::npos);
  std::remove(path.c_str());
}

TEST(TraceRecorderTest, AbsoluteSeries) {
  TraceRecorder tr{2};
  append_sample(tr, 10, 1600, 20, 0);
  const auto abs0 = tr.series_vm_absolute(0);
  ASSERT_EQ(abs0.size(), 1u);
  EXPECT_NEAR(abs0[0], 20.0 * 1600 / 2667, 1e-9);
}

}  // namespace
}  // namespace pas::metrics
