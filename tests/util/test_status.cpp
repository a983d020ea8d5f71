#include "util/status.hpp"

#include <set>
#include <string>

#include <gtest/gtest.h>

namespace atlantis::util {
namespace {

TEST(ErrorCode, NamesAreStable) {
  EXPECT_STREQ(error_code_name(ErrorCode::kOk), "ok");
  EXPECT_STREQ(error_code_name(ErrorCode::kDmaStall), "dma_stall");
  EXPECT_STREQ(error_code_name(ErrorCode::kDmaAbort), "dma_abort");
  EXPECT_STREQ(error_code_name(ErrorCode::kLinkError), "link_error");
  EXPECT_STREQ(error_code_name(ErrorCode::kTruncatedFrame),
               "truncated_frame");
  EXPECT_STREQ(error_code_name(ErrorCode::kXoff), "xoff");
  EXPECT_STREQ(error_code_name(ErrorCode::kSeu), "seu");
  EXPECT_STREQ(error_code_name(ErrorCode::kConfigCrc), "config_crc");
  EXPECT_STREQ(error_code_name(ErrorCode::kBoardDead), "board_dead");
  EXPECT_STREQ(error_code_name(ErrorCode::kTimeout), "timeout");
  EXPECT_STREQ(error_code_name(ErrorCode::kRetriesExhausted),
               "retries_exhausted");
  EXPECT_STREQ(error_code_name(ErrorCode::kCircuitOpen), "circuit_open");
  EXPECT_STREQ(error_code_name(ErrorCode::kServiceCrash), "service_crash");
  EXPECT_STREQ(error_code_name(ErrorCode::kAdmissionReject),
               "admission_reject");
  EXPECT_STREQ(error_code_name(ErrorCode::kShardOverload), "shard_overload");
}

TEST(ErrorCode, EveryCodeHasAName) {
  // Guards kErrorCodeCount against the enum drifting: a code added
  // without a name (or without bumping the count) fails here.
  std::set<std::string> seen;
  for (int i = 0; i < kErrorCodeCount; ++i) {
    const char* name = error_code_name(static_cast<ErrorCode>(i));
    EXPECT_STRNE(name, "unknown") << "ErrorCode " << i << " has no name";
    EXPECT_TRUE(seen.insert(name).second)
        << "duplicate ErrorCode name: " << name;
  }
  EXPECT_STREQ(error_code_name(static_cast<ErrorCode>(kErrorCodeCount)),
               "unknown");
}

TEST(ErrorCodes, OverloadedHasStableName) {
  EXPECT_STREQ(error_code_name(ErrorCode::kOverloaded), "overloaded");
}

TEST(Result, SuccessCarriesValue) {
  const Result<int> r = 7;
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(static_cast<bool>(r));
  EXPECT_EQ(r.error(), ErrorCode::kOk);
  EXPECT_EQ(r.value(), 7);
  EXPECT_EQ(r.value_or(-1), 7);
  EXPECT_TRUE(r.message().empty());
}

TEST(Result, FailureCarriesCodeAndMessage) {
  const auto r = Result<int>::failure(ErrorCode::kTimeout, "budget spent");
  EXPECT_FALSE(r.ok());
  EXPECT_FALSE(static_cast<bool>(r));
  EXPECT_EQ(r.error(), ErrorCode::kTimeout);
  EXPECT_EQ(r.message(), "budget spent");
  EXPECT_EQ(r.value_or(-1), -1);
  EXPECT_THROW(r.value(), Error);
}

TEST(Result, ValueOrThrowIsTheSanctionedBridge) {
  Result<int> ok = 11;
  EXPECT_EQ(ok.value_or_throw(), 11);
  const Result<int> bad =
      Result<int>::failure(ErrorCode::kShardOverload, "queues full");
  try {
    (void)bad.value_or_throw();
    FAIL() << "value_or_throw on a failure must throw";
  } catch (const StateError& e) {
    // The exception names the code, so throwing call sites lose no
    // diagnostics compared with the old ad-hoc throwing variants.
    EXPECT_NE(std::string(e.what()).find("shard_overload"),
              std::string::npos);
    EXPECT_NE(std::string(e.what()).find("queues full"), std::string::npos);
  }
}

TEST(Result, WorksWithMoveOnlyishPayloads) {
  Result<std::string> r = std::string("payload");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value(), "payload");
  const auto f = Result<std::string>::failure(ErrorCode::kLinkError);
  EXPECT_EQ(f.value_or("fallback"), "fallback");
}

}  // namespace
}  // namespace atlantis::util
