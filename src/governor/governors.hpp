// The governor zoo (§2.2 / §3.2).
//
//  * PerformanceGovernor — pins the maximum frequency.
//  * PowersaveGovernor   — pins the minimum frequency.
//  * UserspaceGovernor   — frequency set externally (what the PAS
//                          controller uses under the hood).
//  * OndemandGovernor    — the stock aggressive policy: short sampling
//                          window, jump to max above the up-threshold,
//                          scale straight down to the lowest state that
//                          still fits. With a sampling window close to the
//                          scheduling quantum its per-window utilization is
//                          nearly bimodal, which reproduces the Fig. 3
//                          oscillation.
//  * StableOndemandGovernor — the paper's own governor (§5.4): "less
//                          aggressive and more stable, and consequently
//                          saves less energy". Slow sampling, three-window
//                          averaged input, immediate up-scaling but
//                          hysteretic down-scaling.
//  * ConservativeGovernor — steps one level at a time on thresholds.
#pragma once

#include <cstddef>
#include <memory>
#include <string>

#include "governor/governor.hpp"

namespace pas::gov {

class PerformanceGovernor final : public Governor {
 public:
  [[nodiscard]] std::string_view name() const override { return "performance"; }
  [[nodiscard]] common::SimTime period() const override { return common::seconds(1); }
  [[nodiscard]] std::size_t decide(const Sample&, const cpu::FrequencyLadder& ladder) override {
    return ladder.max_index();
  }
};

class PowersaveGovernor final : public Governor {
 public:
  [[nodiscard]] std::string_view name() const override { return "powersave"; }
  [[nodiscard]] common::SimTime period() const override { return common::seconds(1); }
  [[nodiscard]] std::size_t decide(const Sample&, const cpu::FrequencyLadder&) override {
    return 0;
  }
};

class UserspaceGovernor final : public Governor {
 public:
  explicit UserspaceGovernor(std::size_t initial_index = 0) : target_(initial_index) {}
  [[nodiscard]] std::string_view name() const override { return "userspace"; }
  [[nodiscard]] common::SimTime period() const override { return common::msec(100); }
  [[nodiscard]] std::size_t decide(const Sample&, const cpu::FrequencyLadder& ladder) override {
    return std::min(target_, ladder.max_index());
  }
  void set_target(std::size_t index) { target_ = index; }
  [[nodiscard]] std::size_t target() const { return target_; }

 private:
  std::size_t target_;
};

struct OndemandConfig {
  /// Stock ondemand samples fast — comparable to the scheduler tick.
  common::SimTime sampling_period = common::msec(20);
  /// Above this instantaneous utilization: jump to the maximum state.
  double up_threshold = 0.80;
};

class OndemandGovernor final : public Governor {
 public:
  explicit OndemandGovernor(OndemandConfig config = {});
  [[nodiscard]] std::string_view name() const override { return "ondemand"; }
  [[nodiscard]] common::SimTime period() const override { return cfg_.sampling_period; }
  [[nodiscard]] std::size_t decide(const Sample& sample,
                                   const cpu::FrequencyLadder& ladder) override;

 private:
  OndemandConfig cfg_;
};

struct StableOndemandConfig {
  common::SimTime sampling_period = common::seconds(1);
  /// Step down only after the lower state fits for this many consecutive
  /// samples.
  int down_patience = 3;
};

class StableOndemandGovernor final : public Governor {
 public:
  explicit StableOndemandGovernor(StableOndemandConfig config = {});
  [[nodiscard]] std::string_view name() const override { return "stable-ondemand"; }
  [[nodiscard]] common::SimTime period() const override { return cfg_.sampling_period; }
  [[nodiscard]] std::size_t decide(const Sample& sample,
                                   const cpu::FrequencyLadder& ladder) override;

 private:
  StableOndemandConfig cfg_;
  int down_streak_ = 0;
};

struct ConservativeConfig {
  common::SimTime sampling_period = common::msec(100);
  double up_threshold = 0.80;
  double down_threshold = 0.30;
};

class ConservativeGovernor final : public Governor {
 public:
  explicit ConservativeGovernor(ConservativeConfig config = {});
  [[nodiscard]] std::string_view name() const override { return "conservative"; }
  [[nodiscard]] common::SimTime period() const override { return cfg_.sampling_period; }
  [[nodiscard]] std::size_t decide(const Sample& sample,
                                   const cpu::FrequencyLadder& ladder) override;

 private:
  ConservativeConfig cfg_;
};

/// Names every governor this library ships; factory for string-driven
/// configuration (benches, examples). Throws std::invalid_argument on an
/// unknown name.
[[nodiscard]] std::unique_ptr<Governor> make_governor(const std::string& name);

/// Absolute demand (fraction of the max-frequency processor) implied by a
/// utilization measured at state `index`: util * ratio * cf. Shared by the
/// scaling governors.
[[nodiscard]] double absolute_demand(double util, const cpu::FrequencyLadder& ladder,
                                     std::size_t index);

/// Lowest state whose capacity * fill covers `demand` (fraction); falls back
/// to the maximum state.
[[nodiscard]] std::size_t lowest_fitting_state(double demand, double fill,
                                               const cpu::FrequencyLadder& ladder);

}  // namespace pas::gov
