#include "common/status.h"

#include <gtest/gtest.h>

namespace zerobak {
namespace {

TEST(StatusTest, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kOk);
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = NotFoundError("volume 42");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kNotFound);
  EXPECT_EQ(s.message(), "volume 42");
  EXPECT_EQ(s.ToString(), "NOT_FOUND: volume 42");
}

TEST(StatusTest, EqualityComparesCodeAndMessage) {
  EXPECT_EQ(NotFoundError("x"), NotFoundError("x"));
  EXPECT_FALSE(NotFoundError("x") == NotFoundError("y"));
  EXPECT_FALSE(NotFoundError("x") == InternalError("x"));
  EXPECT_EQ(OkStatus(), Status());
}

struct CodeNameCase {
  Status status;
  StatusCode code;
  const char* name;
};

// Without this, gtest prints the raw bytes of the case (padding and heap
// pointers included), and gtest_discover_tests names each test after that
// print, so the test names would change from one build to the next.
void PrintTo(const CodeNameCase& c, std::ostream* os) { *os << c.name; }

class StatusCodeNameTest : public ::testing::TestWithParam<CodeNameCase> {};

TEST_P(StatusCodeNameTest, EveryConstructorMapsToItsCode) {
  const CodeNameCase& c = GetParam();
  EXPECT_EQ(c.status.code(), c.code);
  EXPECT_STREQ(StatusCodeName(c.status.code()), c.name);
}

INSTANTIATE_TEST_SUITE_P(
    AllCodes, StatusCodeNameTest,
    ::testing::Values(
        CodeNameCase{InvalidArgumentError("m"), StatusCode::kInvalidArgument,
                     "INVALID_ARGUMENT"},
        CodeNameCase{NotFoundError("m"), StatusCode::kNotFound, "NOT_FOUND"},
        CodeNameCase{AlreadyExistsError("m"), StatusCode::kAlreadyExists,
                     "ALREADY_EXISTS"},
        CodeNameCase{FailedPreconditionError("m"),
                     StatusCode::kFailedPrecondition, "FAILED_PRECONDITION"},
        CodeNameCase{ResourceExhaustedError("m"),
                     StatusCode::kResourceExhausted, "RESOURCE_EXHAUSTED"},
        CodeNameCase{UnavailableError("m"), StatusCode::kUnavailable,
                     "UNAVAILABLE"},
        CodeNameCase{AbortedError("m"), StatusCode::kAborted, "ABORTED"},
        CodeNameCase{OutOfRangeError("m"), StatusCode::kOutOfRange,
                     "OUT_OF_RANGE"},
        CodeNameCase{DataLossError("m"), StatusCode::kDataLoss, "DATA_LOSS"},
        CodeNameCase{InternalError("m"), StatusCode::kInternal, "INTERNAL"},
        CodeNameCase{UnimplementedError("m"), StatusCode::kUnimplemented,
                     "UNIMPLEMENTED"}));

TEST(StatusOrTest, HoldsValue) {
  StatusOr<int> v = 42;
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(*v, 42);
  EXPECT_EQ(v.value(), 42);
}

TEST(StatusOrTest, HoldsError) {
  StatusOr<int> v = NotFoundError("nope");
  EXPECT_FALSE(v.ok());
  EXPECT_EQ(v.status().code(), StatusCode::kNotFound);
}

TEST(StatusOrTest, MoveOnlyValue) {
  StatusOr<std::unique_ptr<int>> v = std::make_unique<int>(7);
  ASSERT_TRUE(v.ok());
  std::unique_ptr<int> out = std::move(v).value();
  EXPECT_EQ(*out, 7);
}

TEST(StatusOrTest, ArrowOperator) {
  StatusOr<std::string> v = std::string("hello");
  EXPECT_EQ(v->size(), 5u);
}

Status FailsWhenNegative(int x) {
  if (x < 0) return InvalidArgumentError("negative");
  return OkStatus();
}

Status Chained(int x) {
  ZB_RETURN_IF_ERROR(FailsWhenNegative(x));
  return OkStatus();
}

TEST(StatusMacrosTest, ReturnIfErrorPropagates) {
  EXPECT_TRUE(Chained(1).ok());
  EXPECT_EQ(Chained(-1).code(), StatusCode::kInvalidArgument);
}

StatusOr<int> ParsePositive(int x) {
  if (x <= 0) return OutOfRangeError("not positive");
  return x;
}

Status UsesAssign(int x, int* out) {
  ZB_ASSIGN_OR_RETURN(int v, ParsePositive(x));
  *out = v * 2;
  return OkStatus();
}

TEST(StatusMacrosTest, AssignOrReturn) {
  int out = 0;
  ASSERT_TRUE(UsesAssign(21, &out).ok());
  EXPECT_EQ(out, 42);
  EXPECT_EQ(UsesAssign(0, &out).code(), StatusCode::kOutOfRange);
  EXPECT_EQ(out, 42);  // Untouched on error.
}

}  // namespace
}  // namespace zerobak
