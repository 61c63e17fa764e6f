// Unit coverage for the recoverable-error primitives: Status / StatusOr,
// the propagation macros, errno mapping, retry_transient, and the
// fault-injection registry (programmatic arming plus GCLUS_FAULT
// environment parsing).
#include <algorithm>
#include <cerrno>
#include <cstddef>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/faultpoint.hpp"
#include "common/status.hpp"

namespace gclus {
namespace {

// Installed before main(): the first fault:: call in this process folds
// GCLUS_FAULT in exactly once, so FaultPointTest.EnvSpecsAreApplied below
// observes these arms.  The malformed clause and the unknown point prove
// both are reported-and-ignored rather than fatal — fault injection must
// never be the thing that crashes the process.
const bool kEnvInstalled = [] {
  ::setenv("GCLUS_FAULT",
           "io.open:2;io.read:always;bogus-clause;no.such.point:once", 1);
  return true;
}();

TEST(StatusTest, DefaultIsOk) {
  const Status st;
  EXPECT_TRUE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kOk);
  EXPECT_TRUE(st.message().empty());
  EXPECT_EQ(st.to_string(), "OK");
  EXPECT_EQ(st, OkStatus());
}

TEST(StatusTest, FactoriesCarryCodeAndMessage) {
  EXPECT_EQ(InvalidArgumentError("x").code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(DataLossError("x").code(), StatusCode::kDataLoss);
  EXPECT_EQ(IoError("x").code(), StatusCode::kIoError);
  EXPECT_EQ(ResourceExhaustedError("x").code(),
            StatusCode::kResourceExhausted);
  EXPECT_EQ(UnavailableError("x").code(), StatusCode::kUnavailable);
  EXPECT_EQ(DataLossError("truncated").to_string(), "DATA_LOSS: truncated");
  EXPECT_TRUE(UnavailableError("again").transient());
  EXPECT_FALSE(IoError("hard").transient());
}

TEST(StatusTest, WithContextPrependsOnErrorsOnly) {
  EXPECT_EQ(DataLossError("bad checksum").with_context("a.csr2").message(),
            "a.csr2: bad checksum");
  EXPECT_TRUE(OkStatus().with_context("ignored").ok());
  EXPECT_TRUE(OkStatus().with_context("ignored").message().empty());
}

TEST(StatusTest, ErrnoMapping) {
  EXPECT_EQ(status_from_errno(EINTR, "read").code(),
            StatusCode::kUnavailable);
  EXPECT_EQ(status_from_errno(EAGAIN, "read").code(),
            StatusCode::kUnavailable);
  EXPECT_EQ(status_from_errno(ENOSPC, "write").code(),
            StatusCode::kResourceExhausted);
  EXPECT_EQ(status_from_errno(ENOMEM, "mmap").code(),
            StatusCode::kResourceExhausted);
  EXPECT_EQ(status_from_errno(ENOENT, "open").code(), StatusCode::kIoError);
  const Status st = status_from_errno(ENOENT, "open /tmp/x");
  EXPECT_NE(st.message().find("open /tmp/x: "), std::string::npos);
  EXPECT_NE(st.message().find(std::strerror(ENOENT)), std::string::npos);
}

TEST(StatusOrTest, HoldsValueOrStatus) {
  StatusOr<int> ok_val = 42;
  ASSERT_TRUE(ok_val.ok());
  EXPECT_EQ(ok_val.value(), 42);
  EXPECT_EQ(*ok_val, 42);

  StatusOr<int> err = DataLossError("gone");
  EXPECT_FALSE(err.ok());
  EXPECT_EQ(err.status().code(), StatusCode::kDataLoss);
  EXPECT_EQ(std::move(err).status().message(), "gone");
}

Status fails_then_context(bool fail) {
  GCLUS_RETURN_IF_ERROR(fail ? IoError("inner") : OkStatus());
  return OkStatus();
}

StatusOr<std::string> doubled(StatusOr<std::string> input) {
  GCLUS_ASSIGN_OR_RETURN(std::string s, std::move(input));
  return s + s;
}

TEST(StatusOrTest, PropagationMacros) {
  EXPECT_TRUE(fails_then_context(false).ok());
  EXPECT_EQ(fails_then_context(true).code(), StatusCode::kIoError);

  const auto good = doubled(std::string("ab"));
  ASSERT_TRUE(good.ok());
  EXPECT_EQ(good.value(), "abab");
  const auto bad = doubled(InvalidArgumentError("nope"));
  ASSERT_FALSE(bad.ok());
  EXPECT_EQ(bad.status().message(), "nope");
}

TEST(StatusOrDeathTest, ValueOnErrorAborts) {
  StatusOr<int> err = IoError("broken");
  EXPECT_DEATH((void)err.value(), "StatusOr::value on error");
}

TEST(RetryTest, TransientErrorsRetryUntilSuccess) {
  const RetryPolicy fast{/*attempts=*/4, /*initial_backoff_us=*/0};
  int calls = 0;
  std::uint64_t retries = 0;
  const Status st = retry_transient(
      fast,
      [&] {
        return ++calls < 3 ? UnavailableError("busy") : OkStatus();
      },
      &retries);
  EXPECT_TRUE(st.ok());
  EXPECT_EQ(calls, 3);
  EXPECT_EQ(retries, 2u);
}

TEST(RetryTest, ExhaustionEscalatesToIoError) {
  const RetryPolicy fast{/*attempts=*/3, /*initial_backoff_us=*/0};
  int calls = 0;
  const Status st = retry_transient(fast, [&] {
    ++calls;
    return UnavailableError("still busy");
  });
  EXPECT_EQ(calls, 3);
  EXPECT_EQ(st.code(), StatusCode::kIoError);
  EXPECT_NE(st.message().find("still busy"), std::string::npos);
  EXPECT_NE(st.message().find("giving up after 3 attempts"),
            std::string::npos);
}

TEST(RetryTest, NonTransientErrorsReturnImmediately) {
  const RetryPolicy fast{/*attempts=*/5, /*initial_backoff_us=*/0};
  int calls = 0;
  const Status st = retry_transient(fast, [&] {
    ++calls;
    return DataLossError("torn");
  });
  EXPECT_EQ(calls, 1);
  EXPECT_EQ(st.code(), StatusCode::kDataLoss);
}

TEST(RetryTest, ProcessPolicyIsSane) {
  const RetryPolicy& policy = io_retry_policy();
  EXPECT_GE(policy.attempts, 1);
  EXPECT_GT(policy.multiplier, 0.0);
}

// Must be the first non-death test to touch the fault registry in this
// binary: the GCLUS_FAULT value installed at static-init time is folded
// in on first use.  (Death-test children re-apply it independently.)
TEST(FaultPointTest, EnvSpecsAreApplied) {
  ASSERT_TRUE(kEnvInstalled);
  // io.open:2 — the first two evaluations fail, later ones do not.
  EXPECT_TRUE(fault::should_fail("io.open"));
  EXPECT_TRUE(fault::should_fail("io.open"));
  EXPECT_FALSE(fault::should_fail("io.open"));
  // io.read:always.
  EXPECT_TRUE(fault::should_fail("io.read"));
  EXPECT_TRUE(fault::should_fail("io.read"));
  EXPECT_EQ(fault::trigger_count("io.open"), 2u);
  EXPECT_GE(fault::hit_count("io.open"), 3u);
  fault::disarm_all();
  EXPECT_FALSE(fault::should_fail("io.read"));
}

TEST(FaultPointTest, TableIsSortedAndRegistered) {
  const auto points = fault::all_fault_points();
  ASSERT_FALSE(points.empty());
  for (std::size_t i = 0; i < points.size(); ++i) {
    EXPECT_TRUE(fault::is_registered(points[i])) << points[i];
    if (i > 0) {
      EXPECT_LT(std::strcmp(points[i - 1], points[i]), 0)
          << points[i - 1] << " !< " << points[i];
    }
  }
  EXPECT_FALSE(fault::is_registered("no.such.point"));
}

TEST(FaultPointTest, FirstNAndAlwaysModes) {
  fault::disarm_all();
  fault::arm("spill.write", fault::FaultSpec::once());
  EXPECT_TRUE(fault::should_fail("spill.write"));
  EXPECT_FALSE(fault::should_fail("spill.write"));

  fault::arm("spill.write", fault::FaultSpec::first_n(3));
  int fired = 0;
  for (int i = 0; i < 8; ++i) fired += fault::should_fail("spill.write");
  EXPECT_EQ(fired, 3);

  fault::arm("spill.write", fault::FaultSpec::always());
  EXPECT_TRUE(fault::should_fail("spill.write"));
  EXPECT_TRUE(fault::should_fail("spill.write"));
  fault::disarm("spill.write");
  EXPECT_FALSE(fault::should_fail("spill.write"));
}

TEST(FaultPointTest, ProbabilityModeIsDeterministic) {
  const auto draw_sequence = [] {
    fault::arm("io.mmap", fault::FaultSpec::probability(0.5, 1234));
    std::vector<bool> seq;
    seq.reserve(64);
    for (int i = 0; i < 64; ++i) seq.push_back(fault::should_fail("io.mmap"));
    fault::disarm("io.mmap");  // resets the draw counter
    return seq;
  };
  const auto a = draw_sequence();
  const auto b = draw_sequence();
  EXPECT_EQ(a, b);
  // p=0.5 over 64 draws: both outcomes occur (probability ~2^-64 not to).
  EXPECT_NE(std::count(a.begin(), a.end(), true), 0);
  EXPECT_NE(std::count(a.begin(), a.end(), true), 64);
}

TEST(FaultPointTest, CountersAndReset) {
  fault::disarm_all();
  fault::reset_counters();
  EXPECT_EQ(fault::total_triggers(), 0u);
  fault::arm("cache.publish", fault::FaultSpec::always());
  (void)fault::should_fail("cache.publish");
  (void)fault::should_fail("cache.publish");
  (void)fault::should_fail("io.write");  // unarmed: hit but no trigger
  EXPECT_EQ(fault::hit_count("cache.publish"), 2u);
  EXPECT_EQ(fault::trigger_count("cache.publish"), 2u);
  EXPECT_EQ(fault::hit_count("io.write"), 1u);
  EXPECT_EQ(fault::trigger_count("io.write"), 0u);
  EXPECT_EQ(fault::total_triggers(), 2u);

  const auto counters = fault::triggered_counters();
  ASSERT_EQ(counters.size(), 1u);
  EXPECT_EQ(counters[0].first, "cache.publish");
  EXPECT_EQ(counters[0].second, 2u);

  fault::disarm_all();
  fault::reset_counters();
  EXPECT_EQ(fault::hit_count("cache.publish"), 0u);
  EXPECT_EQ(fault::total_triggers(), 0u);
}

TEST(FaultDeathTest, UndeclaredNamesAbort) {
  EXPECT_DEATH(fault::arm("no.such.point", fault::FaultSpec::once()),
               "fault point not declared");
  EXPECT_DEATH((void)fault::should_fail("no.such.point"),
               "fault point not declared");
}

}  // namespace
}  // namespace gclus
