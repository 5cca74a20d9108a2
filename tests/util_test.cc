// Tests for src/util: Status/Result, Rng, string utilities, CSV, hashing.
#include <gtest/gtest.h>

#include <cmath>
#include <set>
#include <string>
#include <unordered_set>
#include <utility>

#include "src/util/csv.h"
#include "src/util/env.h"
#include "src/util/hash.h"
#include "src/util/rng.h"
#include "src/util/status.h"
#include "src/util/string_util.h"
#include "src/util/timer.h"
#include "tests/test_util.h"

namespace cvopt {
namespace {

TEST(StatusTest, DefaultIsOk) {
  Status st;
  EXPECT_TRUE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kOk);
  EXPECT_EQ(st.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status st = Status::InvalidArgument("bad input");
  EXPECT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(st.message(), "bad input");
  EXPECT_EQ(st.ToString(), "InvalidArgument: bad input");
}

TEST(StatusTest, AllFactoriesProduceMatchingCodes) {
  EXPECT_EQ(Status::NotFound("x").code(), StatusCode::kNotFound);
  EXPECT_EQ(Status::OutOfRange("x").code(), StatusCode::kOutOfRange);
  EXPECT_EQ(Status::AlreadyExists("x").code(), StatusCode::kAlreadyExists);
  EXPECT_EQ(Status::Internal("x").code(), StatusCode::kInternal);
  EXPECT_EQ(Status::Unimplemented("x").code(), StatusCode::kUnimplemented);
}

TEST(StatusTest, Equality) {
  EXPECT_EQ(Status::OK(), Status::OK());
  EXPECT_EQ(Status::NotFound("a"), Status::NotFound("a"));
  EXPECT_FALSE(Status::NotFound("a") == Status::NotFound("b"));
}

TEST(ResultTest, HoldsValue) {
  Result<int> r(42);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, 42);
  EXPECT_EQ(std::move(r).ValueOrDie(), 42);
}

TEST(ResultTest, HoldsError) {
  Result<int> r(Status::NotFound("missing"));
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
}

TEST(ResultTest, OkStatusWithoutValueBecomesInternalError) {
  Result<int> r{Status::OK()};
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInternal);
}

Result<int> Doubler(Result<int> in) {
  CVOPT_ASSIGN_OR_RETURN(int v, in);
  return v * 2;
}

TEST(ResultTest, AssignOrReturnMacroPropagates) {
  auto ok = Doubler(21);
  ASSERT_TRUE(ok.ok());
  EXPECT_EQ(*ok, 42);
  auto err = Doubler(Status::OutOfRange("nope"));
  ASSERT_FALSE(err.ok());
  EXPECT_EQ(err.status().code(), StatusCode::kOutOfRange);
}

TEST(RngTest, DeterministicFromSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next64(), b.Next64());
}

TEST(RngTest, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) same += (a.Next64() == b.Next64());
  EXPECT_LT(same, 3);
}

TEST(RngTest, UniformRespectsBound) {
  Rng rng(7);
  for (int bound : {1, 2, 3, 10, 1000}) {
    for (int i = 0; i < 1000; ++i) {
      EXPECT_LT(rng.Uniform(bound), static_cast<uint64_t>(bound));
    }
  }
}

TEST(RngTest, UniformCoversAllValues) {
  Rng rng(11);
  std::set<uint64_t> seen;
  for (int i = 0; i < 2000; ++i) seen.insert(rng.Uniform(10));
  EXPECT_EQ(seen.size(), 10u);
}

TEST(RngTest, NextDoubleInUnitInterval) {
  Rng rng(5);
  for (int i = 0; i < 10000; ++i) {
    const double d = rng.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(RngTest, DoubleMeanIsHalf) {
  Rng rng(13);
  double sum = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) sum += rng.NextDouble();
  EXPECT_NEAR(sum / n, 0.5, 0.01);
}

TEST(RngTest, GaussianMoments) {
  Rng rng(17);
  double sum = 0, sum2 = 0;
  const int n = 200000;
  for (int i = 0; i < n; ++i) {
    const double g = rng.NextGaussian();
    sum += g;
    sum2 += g * g;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.02);
  EXPECT_NEAR(sum2 / n, 1.0, 0.03);
}

TEST(RngTest, SplitProducesIndependentStream) {
  Rng a(99);
  Rng child = a.Split();
  int same = 0;
  for (int i = 0; i < 100; ++i) same += (a.Next64() == child.Next64());
  EXPECT_LT(same, 3);
}

TEST(StringUtilTest, Join) {
  EXPECT_EQ(Join({}, ","), "");
  EXPECT_EQ(Join({"a"}, ","), "a");
  EXPECT_EQ(Join({"a", "b", "c"}, ", "), "a, b, c");
}

TEST(StringUtilTest, Split) {
  EXPECT_EQ(Split("a,b,c", ','), (std::vector<std::string>{"a", "b", "c"}));
  EXPECT_EQ(Split("", ','), (std::vector<std::string>{""}));
  EXPECT_EQ(Split("a,,c", ','), (std::vector<std::string>{"a", "", "c"}));
  EXPECT_EQ(Split("abc", ','), (std::vector<std::string>{"abc"}));
}

TEST(StringUtilTest, StrFormat) {
  EXPECT_EQ(StrFormat("%d-%s", 42, "x"), "42-x");
  EXPECT_EQ(StrFormat("%.2f", 3.14159), "3.14");
  EXPECT_EQ(StrFormat("empty"), "empty");
}

TEST(StringUtilTest, FormatDoubleTrimsZeros) {
  EXPECT_EQ(FormatDouble(1.5), "1.5");
  EXPECT_EQ(FormatDouble(2.0), "2.0");
  EXPECT_EQ(FormatDouble(0.125, 6), "0.125");
  EXPECT_EQ(FormatDouble(3.14159, 2), "3.14");
}

TEST(StringUtilTest, StartsWith) {
  EXPECT_TRUE(StartsWith("hello", "he"));
  EXPECT_TRUE(StartsWith("hello", ""));
  EXPECT_FALSE(StartsWith("hello", "hello world"));
  EXPECT_FALSE(StartsWith("hello", "x"));
}

TEST(CsvTest, RoundTripBasic) {
  CsvWriter w({"a", "b"});
  ASSERT_OK(w.AddRow({"1", "2"}));
  ASSERT_OK(w.AddRow({"x", "y"}));
  EXPECT_EQ(w.ToString(), "a,b\n1,2\nx,y\n");
  EXPECT_EQ(w.num_rows(), 2u);
}

TEST(CsvTest, RejectsWrongWidth) {
  CsvWriter w({"a", "b"});
  EXPECT_FALSE(w.AddRow({"1"}).ok());
  EXPECT_FALSE(w.AddRow({"1", "2", "3"}).ok());
}

TEST(CsvTest, EscapesSpecialCharacters) {
  CsvWriter w({"f"});
  ASSERT_OK(w.AddRow({"a,b"}));
  ASSERT_OK(w.AddRow({"say \"hi\""}));
  EXPECT_EQ(w.ToString(), "f\n\"a,b\"\n\"say \"\"hi\"\"\"\n");
}

TEST(CsvTest, WritesFile) {
  CsvWriter w({"x"});
  ASSERT_OK(w.AddRow({"1"}));
  const std::string path = testing::TempDir() + "/cvopt_csv_test.csv";
  ASSERT_OK(w.WriteFile(path));
  FILE* f = fopen(path.c_str(), "r");
  ASSERT_NE(f, nullptr);
  char buf[64] = {0};
  const size_t got = fread(buf, 1, sizeof(buf) - 1, f);
  fclose(f);
  EXPECT_EQ(std::string(buf, got), "x\n1\n");
}

TEST(HashTest, MixChangesValue) {
  EXPECT_NE(HashMix64(1), 1u);
  EXPECT_NE(HashMix64(1), HashMix64(2));
}

TEST(HashTest, CombineOrderSensitive) {
  const uint64_t a = HashCombine(HashCombine(0, 1), 2);
  const uint64_t b = HashCombine(HashCombine(0, 2), 1);
  EXPECT_NE(a, b);
}

TEST(HashTest, LowCollisionOnSmallKeys) {
  std::unordered_set<uint64_t> seen;
  for (uint64_t i = 0; i < 10000; ++i) {
    seen.insert(HashCombine(0, i));
  }
  EXPECT_EQ(seen.size(), 10000u);
}

TEST(TimerTest, MeasuresElapsed) {
  WallTimer t;
  volatile double sink = 0;
  for (int i = 0; i < 100000; ++i) {
    sink = sink + std::sqrt(static_cast<double>(i));
  }
  EXPECT_GE(t.ElapsedSeconds(), 0.0);
  EXPECT_GE(t.ElapsedMillis(), t.ElapsedSeconds());  // ms >= s numerically
  t.Reset();
  EXPECT_LT(t.ElapsedSeconds(), 1.0);
}

TEST(ParseEnvIntTest, ValidValuesParse) {
  setenv("CVOPT_TEST_KNOB", "42", 1);
  EXPECT_EQ(ParseEnvInt("CVOPT_TEST_KNOB"), std::optional<int64_t>(42));
  setenv("CVOPT_TEST_KNOB", "-7", 1);
  EXPECT_EQ(ParseEnvInt("CVOPT_TEST_KNOB"), std::optional<int64_t>(-7));
  setenv("CVOPT_TEST_KNOB", "0", 1);
  EXPECT_EQ(ParseEnvInt("CVOPT_TEST_KNOB"), std::optional<int64_t>(0));
  // Leading whitespace and an explicit sign are strtoll-standard.
  setenv("CVOPT_TEST_KNOB", "  +13", 1);
  EXPECT_EQ(ParseEnvInt("CVOPT_TEST_KNOB"), std::optional<int64_t>(13));
  unsetenv("CVOPT_TEST_KNOB");
}

TEST(ParseEnvIntTest, UnsetAndEmptyAreNullopt) {
  unsetenv("CVOPT_TEST_KNOB");
  EXPECT_FALSE(ParseEnvInt("CVOPT_TEST_KNOB").has_value());
  setenv("CVOPT_TEST_KNOB", "", 1);
  EXPECT_FALSE(ParseEnvInt("CVOPT_TEST_KNOB").has_value());
  unsetenv("CVOPT_TEST_KNOB");
}

TEST(ParseEnvIntTest, MalformedValuesRejected) {
  // Regression: CVOPT_THREADS=4x used to strtol to 4 and CVOPT_THREADS=abc
  // silently fell back — both now reject (and warn once on stderr).
  const char* bad[] = {"4x",   "abc", "1.5",  "12 ",  "0x10",
                       "--3",  "+",   "-",    "1e3",  "99999999999999999999"};
  for (const char* v : bad) {
    setenv("CVOPT_TEST_KNOB", v, 1);
    EXPECT_FALSE(ParseEnvInt("CVOPT_TEST_KNOB").has_value()) << v;
  }
  unsetenv("CVOPT_TEST_KNOB");
}

TEST(ParseEnvSwitchTest, OnlyZeroAndOneAreAccepted) {
  // Regression: CVOPT_ZONEMAPS and CVOPT_SIMD read raw getenv and treated
  // every value except "0" as on, so CVOPT_ZONEMAPS=off silently left
  // pruning on. Both now parse through ParseEnvSwitch.
  setenv("CVOPT_TEST_SWITCH_ZERO", "0", 1);
  EXPECT_EQ(ParseEnvSwitch("CVOPT_TEST_SWITCH_ZERO"), std::optional<bool>(false));
  setenv("CVOPT_TEST_SWITCH_ONE", "1", 1);
  EXPECT_EQ(ParseEnvSwitch("CVOPT_TEST_SWITCH_ONE"), std::optional<bool>(true));
  unsetenv("CVOPT_TEST_SWITCH_UNSET");
  EXPECT_FALSE(ParseEnvSwitch("CVOPT_TEST_SWITCH_UNSET").has_value());

  // "off" and "2" keep the caller's default, with one warning each.
  const std::pair<std::string, const char*> bad[] = {
      {"CVOPT_TEST_SWITCH_OFF", "off"}, {"CVOPT_TEST_SWITCH_TWO", "2"}};
  for (const auto& [name, value] : bad) {
    setenv(name.c_str(), value, 1);
    testing::internal::CaptureStderr();
    EXPECT_FALSE(ParseEnvSwitch(name.c_str()).has_value()) << value;
    EXPECT_FALSE(ParseEnvSwitch(name.c_str()).has_value()) << value;
    const std::string err = testing::internal::GetCapturedStderr();
    EXPECT_NE(err.find(name), std::string::npos) << value;
    EXPECT_EQ(err.find(name), err.rfind(name)) << "warned twice for " << value;
    unsetenv(name.c_str());
  }
  unsetenv("CVOPT_TEST_SWITCH_ZERO");
  unsetenv("CVOPT_TEST_SWITCH_ONE");
}

}  // namespace
}  // namespace cvopt
