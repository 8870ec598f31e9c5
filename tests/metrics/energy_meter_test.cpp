#include "metrics/energy_meter.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>

#include "common/random.hpp"

namespace pas::metrics {
namespace {

using common::msec;
using common::seconds;
using common::SimTime;

TEST(EnergyMeterTest, IdleInterval) {
  EnergyMeter m{cpu::PowerModel{40.0, 100.0, 3.0}};
  m.record(seconds(10), 1.0, SimTime{});
  EXPECT_NEAR(m.joules(), 400.0, 1e-9);
  EXPECT_NEAR(m.average_watts(), 40.0, 1e-9);
}

TEST(EnergyMeterTest, BusyInterval) {
  EnergyMeter m{cpu::PowerModel{40.0, 100.0, 3.0}};
  m.record(seconds(10), 1.0, seconds(10));
  EXPECT_NEAR(m.joules(), 1000.0, 1e-9);
}

TEST(EnergyMeterTest, PartialUtilization) {
  EnergyMeter m{cpu::PowerModel{40.0, 100.0, 3.0}};
  m.record(seconds(10), 1.0, seconds(5));
  EXPECT_NEAR(m.joules(), (40.0 + 30.0) * 10, 1e-9);
}

TEST(EnergyMeterTest, LowerFrequencyCheaper) {
  EnergyMeter hi{cpu::PowerModel{40.0, 100.0, 3.0}};
  EnergyMeter lo{cpu::PowerModel{40.0, 100.0, 3.0}};
  hi.record(seconds(10), 1.0, seconds(10));
  lo.record(seconds(10), 0.6, seconds(10));
  EXPECT_LT(lo.joules(), hi.joules());
}

TEST(EnergyMeterTest, AccumulatesAcrossRecords) {
  EnergyMeter m{cpu::PowerModel{40.0, 100.0, 3.0}};
  for (int i = 0; i < 100; ++i) m.record(msec(100), 1.0, msec(50));
  EXPECT_EQ(m.elapsed(), seconds(10));
  EXPECT_NEAR(m.joules(), (40.0 + 30.0) * 10, 1e-6);
  EXPECT_NEAR(m.watt_hours(), m.joules() / 3600.0, 1e-12);
}

TEST(EnergyMeterTest, ZeroIntervalIgnored) {
  EnergyMeter m{cpu::PowerModel::desktop_2008()};
  m.record(SimTime{}, 1.0, SimTime{});
  EXPECT_DOUBLE_EQ(m.joules(), 0.0);
  EXPECT_DOUBLE_EQ(m.average_watts(), 0.0);
}

// --- the batched idle record: bit-exact against sequential adds -----------

std::uint64_t bits(double x) { return std::bit_cast<std::uint64_t>(x); }

double sequential_sum(double x, double c, std::uint64_t n) {
  for (std::uint64_t i = 0; i < n; ++i) x += c;
  return x;
}

void expect_same_bits(double x, double c, std::uint64_t n) {
  EXPECT_EQ(bits(repeated_sum(x, c, n)), bits(sequential_sum(x, c, n)))
      << "x=" << x << " c=" << c << " n=" << n;
}

const std::uint64_t kCounts[] = {1, 2, 3, 7, 64, 1000, 33333, 1000000};

TEST(RepeatedSumTest, MatchesSequentialAddsFromZeroAndTinyAccumulators) {
  const double denorm = std::numeric_limits<double>::denorm_min();
  const double tiny = std::numeric_limits<double>::min();
  for (const double x : {0.0, denorm, 3 * denorm, tiny, 1e-300, 1e-30, 1e-9})
    for (const double c : {1.2, 0.03 * 40.0, 1e-12, 5e-324, 0x1p-970})
      for (const std::uint64_t n : kCounts) expect_same_bits(x, c, n);
}

TEST(RepeatedSumTest, MatchesSequentialAddsAcrossBinades) {
  // Accumulators just below a power of two: the run crosses one or many
  // binades, where the spacing of doubles doubles and the rounded step
  // changes.
  for (const int e : {-3, 0, 1, 10, 20, 40})
    for (const double below : {1.0, 2.0, 1e3})
      for (const double c : {0.3, 1.2, 7.77, 1234.5}) {
        const double x = std::ldexp(1.0, e) - below * std::ldexp(1.0, e - 52);
        for (const std::uint64_t n : kCounts) expect_same_bits(x, c, n);
      }
}

TEST(RepeatedSumTest, MatchesSequentialAddsOnExactRoundingTies) {
  // c = (k + 1/2)·u for the spacing u of x's binade: every add is an exact
  // tie, resolved by x's last bit, so the step alternates. Both parities
  // of x and of k.
  for (const int e : {0, 7, 30})
    for (const std::uint64_t m : {0ull, 1ull, 2ull, 12345ull}) {
      const double u = std::ldexp(1.0, e - 52);
      const double x = std::ldexp(1.0, e) + static_cast<double>(m) * u;
      for (const double k : {0.0, 1.0, 2.0, 5.0, 1e6}) {
        const double c = (k + 0.5) * u;
        for (const std::uint64_t n : kCounts) expect_same_bits(x, c, n);
      }
    }
}

TEST(RepeatedSumTest, ZeroAndNegligibleStepsLeaveTheAccumulator) {
  for (const double x : {0.0, 1.0, 12345.678})
    for (const std::uint64_t n : kCounts) {
      expect_same_bits(x, 0.0, n);
      // Below half a spacing: every add rounds back to x.
      expect_same_bits(x, std::ldexp(1.0, -60), n);
    }
}

TEST(RepeatedSumTest, MatchesSequentialAddsOnRandomOperands) {
  common::Rng rng(2024);
  for (int i = 0; i < 300; ++i) {
    const double x = std::ldexp(rng.uniform(0.5, 1.0), static_cast<int>(rng.uniform(-40, 60)));
    const double c = std::ldexp(rng.uniform(0.5, 1.0), static_cast<int>(rng.uniform(-60, 20)));
    const auto n = static_cast<std::uint64_t>(rng.uniform(1, 200000));
    expect_same_bits(x, c, n);
  }
}

TEST(EnergyMeterTest, IdleChunksMatchSequentialRecords) {
  // The meter-level entry point: n idle chunks recorded in one step carry
  // the bits — and the elapsed time — of n record(dt, ratio, 0) calls,
  // after any history (an empty meter, a short busy prefix, a long one).
  const cpu::PowerModel model = cpu::PowerModel::desktop_2008();
  for (const common::SimTime busy : {SimTime{}, msec(7), seconds(3600)})
    for (const common::SimTime dt : {common::usec(1), msec(7), msec(30), seconds(1)})
      for (const double ratio : {1.0, 0.6})
        for (const std::uint64_t n : {1ull, 2ull, 1000ull, 1000000ull}) {
          EnergyMeter batched{model};
          EnergyMeter stepped{model};
          batched.record(busy, 1.0, busy);
          stepped.record(busy, 1.0, busy);
          batched.record_chunks(dt, ratio, SimTime{}, n);
          for (std::uint64_t i = 0; i < n; ++i) stepped.record(dt, ratio, SimTime{});
          EXPECT_EQ(bits(batched.joules()), bits(stepped.joules()))
              << "dt=" << dt.us() << " ratio=" << ratio << " n=" << n;
          EXPECT_EQ(batched.elapsed(), stepped.elapsed());
        }
}

TEST(EnergyMeterTest, BusyChunksMatchSequentialRecordsAcrossBinades) {
  // The rotation run's shape: n full busy quanta in one step. Starting
  // just below a power of two, one run crosses several binades (each a
  // spacing change the batched sum must take as an honest add), and the
  // bits and elapsed time match n record(dt, ratio, dt) calls.
  const cpu::PowerModel model = cpu::PowerModel::desktop_2008();
  for (const SimTime prefix : {SimTime{}, msec(9'990), seconds(3'600)})
    for (const SimTime dt : {msec(10), msec(7), common::usec(1)})
      for (const double ratio : {1.0, 0.6}) {
        EnergyMeter batched{model};
        EnergyMeter stepped{model};
        batched.record(prefix, 1.0, prefix);
        stepped.record(prefix, 1.0, prefix);
        const double start = batched.joules();
        const std::uint64_t n = 2'000'000;
        batched.record_chunks(dt, ratio, dt, n);
        for (std::uint64_t i = 0; i < n; ++i) stepped.record(dt, ratio, dt);
        EXPECT_EQ(bits(batched.joules()), bits(stepped.joules()))
            << "prefix=" << prefix.us() << " dt=" << dt.us() << " ratio=" << ratio;
        EXPECT_EQ(batched.elapsed(), stepped.elapsed());
        // Vacuity guard: the run left the starting binade (for the
        // microsecond chunks at least twice, from an empty meter).
        if (dt == msec(10)) {
          EXPECT_GE(std::ilogb(stepped.joules()), std::ilogb(start) + 2);
        }
      }
}

TEST(EnergyMeterTest, ChunksOfZeroCountOrWidthRecordNothing) {
  EnergyMeter m{cpu::PowerModel::desktop_2008()};
  m.record_chunks(msec(30), 1.0, SimTime{}, 0);
  m.record_chunks(SimTime{}, 1.0, SimTime{}, 5);
  m.record_chunks(msec(10), 1.0, msec(10), 0);
  EXPECT_EQ(bits(m.joules()), bits(0.0));
  EXPECT_EQ(m.elapsed(), SimTime{});
}

}  // namespace
}  // namespace pas::metrics
