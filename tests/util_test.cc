// Unit tests for the util module: Status/Result, BigUint/BigRational,
// ExtFloat, and the seeded RNG.

#include <cmath>
#include <cstdint>

#include <gtest/gtest.h>

#include "util/bigint.h"
#include "util/extfloat.h"
#include "util/result.h"
#include "util/rng.h"
#include "util/status.h"

namespace pqe {
namespace {

// ---------------------------------------------------------------- Status --

TEST(StatusTest, OkByDefault) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kOk);
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = Status::InvalidArgument("bad input");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(s.message(), "bad input");
  EXPECT_EQ(s.ToString(), "InvalidArgument: bad input");
}

TEST(StatusTest, AllCodesHaveNames) {
  EXPECT_STREQ(StatusCodeToString(StatusCode::kNotSupported), "NotSupported");
  EXPECT_STREQ(StatusCodeToString(StatusCode::kResourceExhausted),
               "ResourceExhausted");
  EXPECT_STREQ(StatusCodeToString(StatusCode::kInternal), "Internal");
  EXPECT_STREQ(StatusCodeToString(StatusCode::kNotFound), "NotFound");
  EXPECT_STREQ(StatusCodeToString(StatusCode::kOutOfRange), "OutOfRange");
}

Result<int> ParsePositive(int x) {
  if (x <= 0) return Status::InvalidArgument("not positive");
  return x;
}

Result<int> Doubled(int x) {
  PQE_ASSIGN_OR_RETURN(int v, ParsePositive(x));
  return 2 * v;
}

TEST(ResultTest, ValueAndErrorPaths) {
  Result<int> ok = Doubled(21);
  ASSERT_TRUE(ok.ok());
  EXPECT_EQ(*ok, 42);
  Result<int> err = Doubled(-1);
  ASSERT_FALSE(err.ok());
  EXPECT_EQ(err.status().code(), StatusCode::kInvalidArgument);
}

// --------------------------------------------------------------- BigUint --

TEST(BigUintTest, ConstructionAndDecimal) {
  EXPECT_EQ(BigUint().ToDecimalString(), "0");
  EXPECT_EQ(BigUint(1).ToDecimalString(), "1");
  EXPECT_EQ(BigUint(0xffffffffULL).ToDecimalString(), "4294967295");
  EXPECT_EQ(BigUint(1ULL << 32).ToDecimalString(), "4294967296");
  EXPECT_EQ(BigUint(UINT64_MAX).ToDecimalString(), "18446744073709551615");
}

TEST(BigUintTest, DecimalRoundTrip) {
  const char* cases[] = {"0", "1", "999999999", "1000000000",
                         "123456789012345678901234567890"};
  for (const char* c : cases) {
    auto v = BigUint::FromDecimalString(c);
    ASSERT_TRUE(v.ok()) << c;
    EXPECT_EQ(v->ToDecimalString(), c);
  }
  EXPECT_FALSE(BigUint::FromDecimalString("").ok());
  EXPECT_FALSE(BigUint::FromDecimalString("12x").ok());
}

TEST(BigUintTest, ArithmeticAgreesWithInt128OnRandomInputs) {
  Rng rng(99);
  for (int i = 0; i < 500; ++i) {
    uint64_t a = rng.Next() >> (rng.NextBounded(40));
    uint64_t b = rng.Next() >> (rng.NextBounded(40));
    BigUint A(a), B(b);
    // Add via 128-bit reference.
    unsigned __int128 sum = (unsigned __int128)a + b;
    BigUint expected_sum =
        BigUint((uint64_t)(sum >> 64)).ShiftLeft(64).Add(
            BigUint((uint64_t)sum));
    EXPECT_EQ(A.Add(B).Compare(expected_sum), 0);
    // Mul via 128-bit reference.
    unsigned __int128 prod = (unsigned __int128)a * b;
    BigUint expected_prod =
        BigUint((uint64_t)(prod >> 64)).ShiftLeft(64).Add(
            BigUint((uint64_t)prod));
    EXPECT_EQ(A.Mul(B).Compare(expected_prod), 0);
    // Sub (ordered).
    if (a >= b) {
      EXPECT_EQ(A.Sub(B).ToDecimalString(), BigUint(a - b).ToDecimalString());
    }
    // DivMod.
    if (b != 0) {
      auto dm = A.DivMod(B);
      EXPECT_EQ(dm.quotient.ToDecimalString(),
                BigUint(a / b).ToDecimalString());
      EXPECT_EQ(dm.remainder.ToDecimalString(),
                BigUint(a % b).ToDecimalString());
    }
  }
}

TEST(BigUintTest, DivModIdentityOnWideValues) {
  Rng rng(123);
  for (int i = 0; i < 50; ++i) {
    BigUint a(rng.Next());
    for (int j = 0; j < 4; ++j) a = a.Mul(BigUint(rng.Next() | 1));
    BigUint b(rng.Next() | 1);
    auto dm = a.DivMod(b);
    // a == q*b + r and r < b.
    EXPECT_EQ(dm.quotient.Mul(b).Add(dm.remainder).Compare(a), 0);
    EXPECT_LT(dm.remainder.Compare(b), 0);
  }
}

TEST(BigUintTest, PowerOfTwoAndShifts) {
  EXPECT_EQ(BigUint::PowerOfTwo(0).ToDecimalString(), "1");
  EXPECT_EQ(BigUint::PowerOfTwo(10).ToDecimalString(), "1024");
  EXPECT_EQ(BigUint::PowerOfTwo(64).Compare(BigUint(1).ShiftLeft(64)), 0);
  EXPECT_EQ(BigUint::PowerOfTwo(100).ShiftRight(90).ToDecimalString(),
            "1024");
  EXPECT_EQ(BigUint::PowerOfTwo(100).BitLength(), 101u);
  EXPECT_TRUE(BigUint::PowerOfTwo(100).Bit(100));
  EXPECT_FALSE(BigUint::PowerOfTwo(100).Bit(99));
}

TEST(BigUintTest, Gcd) {
  EXPECT_EQ(BigUint::Gcd(BigUint(12), BigUint(18)).ToDecimalString(), "6");
  EXPECT_EQ(BigUint::Gcd(BigUint(), BigUint(7)).ToDecimalString(), "7");
  EXPECT_EQ(BigUint::Gcd(BigUint(13), BigUint(7)).ToDecimalString(), "1");
}

TEST(BigUintTest, RatioToDouble) {
  EXPECT_DOUBLE_EQ(BigRatioToDouble(BigUint(1), BigUint(2)), 0.5);
  EXPECT_DOUBLE_EQ(BigRatioToDouble(BigUint(), BigUint(5)), 0.0);
  // Huge but equal-magnitude operands.
  BigUint huge = BigUint::PowerOfTwo(5000);
  EXPECT_NEAR(BigRatioToDouble(huge.MulU64(3), huge.MulU64(4)), 0.75, 1e-12);
}

// ----------------------------------------------------------- BigRational --

TEST(BigRationalTest, ArithmeticAndComparison) {
  BigRational half(1, 2), third(1, 3);
  EXPECT_EQ(half.Add(third).Normalized().ToString(), "5/6");
  EXPECT_EQ(half.Sub(third).Normalized().ToString(), "1/6");
  EXPECT_EQ(half.Mul(third).Normalized().ToString(), "1/6");
  EXPECT_EQ(half.Div(third).Normalized().ToString(), "3/2");
  EXPECT_TRUE(third < half);
  EXPECT_TRUE(BigRational(2, 4) == half);
  EXPECT_DOUBLE_EQ(half.ToDouble(), 0.5);
  EXPECT_TRUE(BigRational::Zero().IsZero());
  EXPECT_EQ(BigRational::One().Compare(BigRational(3, 3)), 0);
}

// -------------------------------------------------------------- ExtFloat --

TEST(ExtFloatTest, RoundTripAndOps) {
  EXPECT_TRUE(ExtFloat().IsZero());
  EXPECT_DOUBLE_EQ(ExtFloat::FromDouble(1.5).ToDouble(), 1.5);
  EXPECT_DOUBLE_EQ(ExtFloat::FromUint64(1000).ToDouble(), 1000.0);
  ExtFloat a = ExtFloat::FromDouble(3.0);
  ExtFloat b = ExtFloat::FromDouble(4.0);
  EXPECT_DOUBLE_EQ(a.Mul(b).ToDouble(), 12.0);
  EXPECT_DOUBLE_EQ(a.Add(b).ToDouble(), 7.0);
  EXPECT_DOUBLE_EQ(b.Div(a).ToDouble(), 4.0 / 3.0);
  EXPECT_DOUBLE_EQ(a.Scale(0.5).ToDouble(), 1.5);
  EXPECT_LT(a.Compare(b), 0);
  EXPECT_EQ(a.Compare(ExtFloat::FromDouble(3.0)), 0);
}

TEST(ExtFloatTest, SurvivesHugeExponents) {
  // 2^100000 overflows double; ExtFloat must stay exact in log space.
  ExtFloat big = ExtFloat::FromDouble(2.0);
  for (int i = 0; i < 17; ++i) big = big.Mul(big);  // 2^(2^17)
  EXPECT_NEAR(big.Log2(), 131072.0, 1e-6);
  EXPECT_DOUBLE_EQ(big.Div(big).ToDouble(), 1.0);
  // Adding a vastly smaller number is a no-op.
  EXPECT_EQ(big.Add(ExtFloat::FromDouble(1.0)).Compare(big), 0);
}

TEST(ExtFloatTest, FromBigUintMatchesKnownValues) {
  EXPECT_DOUBLE_EQ(ExtFloat::FromBigUint(BigUint(12345)).ToDouble(), 12345.0);
  EXPECT_NEAR(ExtFloat::FromBigUint(BigUint::PowerOfTwo(200)).Log2(), 200.0,
              1e-9);
  EXPECT_TRUE(ExtFloat::FromBigUint(BigUint()).IsZero());
}

// ------------------------------------------------------------------- Rng --

TEST(RngTest, DeterministicForSeed) {
  Rng a(7), b(7), c(8);
  EXPECT_EQ(a.Next(), b.Next());
  EXPECT_NE(a.Next(), c.Next());
}

TEST(RngTest, BoundedStaysInRange) {
  Rng rng(1);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.NextBounded(7), 7u);
  }
}

TEST(RngTest, DoubleInUnitInterval) {
  Rng rng(2);
  for (int i = 0; i < 1000; ++i) {
    double d = rng.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(RngTest, BernoulliEdgeCases) {
  Rng rng(4);
  EXPECT_FALSE(rng.NextBernoulli(0.0));
  EXPECT_TRUE(rng.NextBernoulli(1.0));
}

}  // namespace
}  // namespace pqe
