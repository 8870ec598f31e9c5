#include "common/flags.hpp"

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

namespace pas::common {
namespace {

Flags make(std::initializer_list<const char*> args) {
  std::vector<const char*> v{"prog"};
  v.insert(v.end(), args.begin(), args.end());
  return Flags{static_cast<int>(v.size()), v.data()};
}

TEST(FlagsTest, KeyValue) {
  const Flags f = make({"--csv=out.csv", "--n=5"});
  EXPECT_EQ(f.get_or("csv", ""), "out.csv");
  EXPECT_EQ(f.get_int("n", 0), 5);
}

TEST(FlagsTest, BareSwitch) {
  const Flags f = make({"--verbose"});
  EXPECT_TRUE(f.has("verbose"));
  EXPECT_FALSE(f.has("quiet"));
  EXPECT_EQ(f.get("verbose").value(), "");
}

TEST(FlagsTest, Positionals) {
  const Flags f = make({"alpha", "--x=1", "beta"});
  ASSERT_EQ(f.positionals().size(), 2u);
  EXPECT_EQ(f.positionals()[0], "alpha");
  EXPECT_EQ(f.positionals()[1], "beta");
}

TEST(FlagsTest, Defaults) {
  const Flags f = make({});
  EXPECT_EQ(f.get_or("missing", "d"), "d");
  EXPECT_DOUBLE_EQ(f.get_double("missing", 2.5), 2.5);
  EXPECT_EQ(f.get_int("missing", -3), -3);
  EXPECT_FALSE(f.get("missing").has_value());
}

TEST(FlagsTest, DoubleParsing) {
  const Flags f = make({"--ratio=0.75"});
  EXPECT_DOUBLE_EQ(f.get_double("ratio", 0.0), 0.75);
}

TEST(FlagsTest, ValueWithEquals) {
  const Flags f = make({"--expr=a=b"});
  EXPECT_EQ(f.get_or("expr", ""), "a=b");
}

// Strict numeric parsing: a present flag must be a fully-formed number.
// `--threads=4x` used to silently parse as 4 (strtod/strtol with a null
// endptr); now it throws with the offending flag spelled back.

TEST(FlagsTest, RejectsTrailingJunkInt) {
  const Flags f = make({"--threads=4x"});
  try {
    (void)f.get_int("threads", 1);
    FAIL() << "expected std::runtime_error";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string{e.what()}.find("--threads=4x"), std::string::npos);
  }
}

TEST(FlagsTest, RejectsTrailingJunkDouble) {
  const Flags f = make({"--rate=2.5GB"});
  EXPECT_THROW((void)f.get_double("rate", 0.0), std::runtime_error);
}

TEST(FlagsTest, RejectsEmptyNumericValue) {
  // `--scale-hosts=` and a bare `--scale-hosts` both carry an empty value:
  // fine for has(), an error for a numeric getter (the old code silently
  // returned the default, letting a typo disable a CI gate).
  const Flags eq = make({"--scale-hosts="});
  EXPECT_THROW((void)eq.get_int("scale-hosts", 0), std::runtime_error);
  const Flags bare = make({"--scale-hosts"});
  EXPECT_TRUE(bare.has("scale-hosts"));
  EXPECT_THROW((void)bare.get_int("scale-hosts", 0), std::runtime_error);
  EXPECT_THROW((void)bare.get_double("scale-hosts", 0.0), std::runtime_error);
}

TEST(FlagsTest, RejectsNonNumber) {
  const Flags f = make({"--n=abc"});
  EXPECT_THROW((void)f.get_int("n", 0), std::runtime_error);
  EXPECT_THROW((void)f.get_double("n", 0.0), std::runtime_error);
}

TEST(FlagsTest, RejectsNegativeCounts) {
  // A negative count must be refused at the flag, not wrapped through
  // static_cast<std::size_t> into an allocation failure far from the typo.
  for (const char* arg : {"--hosts=-1", "--threads=-2", "--scale-hosts=-5", "--federation=-1"}) {
    const Flags f = make({arg});
    const std::string key = std::string{arg}.substr(2, std::string{arg}.find('=') - 2);
    try {
      (void)f.get_count(key, 1);
      FAIL() << arg << ": expected std::runtime_error";
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string{e.what()}.find(arg), std::string::npos) << e.what();
    }
    EXPECT_LT(f.get_int(key, 1), 0) << "get_int itself still parses " << arg;
  }
  const Flags f = make({"--hosts=0", "--vms=12", "--junk=3x"});
  EXPECT_EQ(f.get_count("hosts", 8), 0u);
  EXPECT_EQ(f.get_count("vms", 64), 12u);
  EXPECT_EQ(f.get_count("absent", 7), 7u);
  EXPECT_THROW((void)f.get_count("junk", 1), std::runtime_error);
}

TEST(FlagsTest, AcceptsWellFormedNumbers) {
  const Flags f = make({"--a=-12", "--b=1e3", "--c=0.5", "--d=+7"});
  EXPECT_EQ(f.get_int("a", 0), -12);
  EXPECT_DOUBLE_EQ(f.get_double("b", 0.0), 1000.0);
  EXPECT_DOUBLE_EQ(f.get_double("c", 0.0), 0.5);
  EXPECT_EQ(f.get_int("d", 0), 7);
  // Missing flags still fall back to the default without throwing.
  EXPECT_EQ(f.get_int("absent", 9), 9);
}

}  // namespace
}  // namespace pas::common
