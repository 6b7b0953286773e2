#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>

#include "util/big_uint.h"
#include "util/checked.h"
#include "util/env_registry.h"
#include "util/factoradic.h"
#include "util/permutation.h"
#include "util/rng.h"

namespace bss {
namespace {

TEST(Checked, CastRoundTrips) {
  EXPECT_EQ(checked_cast<int>(std::size_t{42}), 42);
  EXPECT_EQ(checked_cast<std::uint8_t>(255), 255);
  EXPECT_THROW(checked_cast<std::uint8_t>(256), InvariantError);
  EXPECT_THROW(checked_cast<unsigned>(-1), InvariantError);
}

TEST(Checked, Factorial) {
  EXPECT_EQ(factorial_u64(0), 1u);
  EXPECT_EQ(factorial_u64(1), 1u);
  EXPECT_EQ(factorial_u64(6), 720u);
  EXPECT_EQ(factorial_u64(20), 2432902008176640000ULL);
  EXPECT_THROW(factorial_u64(21), InvariantError);
  EXPECT_THROW(factorial_u64(-1), InvariantError);
}

/// The text of the InvariantError `fail` throws ("" when it throws none).
template <class Fail>
std::string invariant_text(Fail fail) {
  try {
    fail();
  } catch (const InvariantError& e) {
    return e.what();
  }
  return "";
}

std::string at_line(int line, const std::string& message) {
  return std::string(__FILE__) + ":" + std::to_string(line) + ": " + message;
}

TEST(Checked, ExpectsThrowsFileLineMessageForEveryMessageKind) {
  EXPECT_EQ(invariant_text([] { expects(true, "never thrown"); }), "");
  // Each expects sits on the line after the `line` it is checked against.
  int line = __LINE__ + 1;
  std::string text = invariant_text([] { expects(false, "a literal"); });
  EXPECT_EQ(text, at_line(line, "a literal"));

  const std::string owned = "a std::string message";
  line = __LINE__ + 1;
  text = invariant_text([&] { expects(false, owned); });
  EXPECT_EQ(text, at_line(line, "a std::string message"));

  const int k = 3;
  line = __LINE__ + 1;
  text = invariant_text([&] { expects(false, "k=" + std::to_string(k)); });
  EXPECT_EQ(text, at_line(line, "k=3"));

  // The deferred form: the callable runs only when the check fails.
  int built = 0;
  const auto message = [&] {
    ++built;
    return "k=" + std::to_string(k);
  };
  expects(true, message);
  EXPECT_EQ(built, 0);
  line = __LINE__ + 1;
  text = invariant_text([&] { expects(false, message); });
  EXPECT_EQ(text, at_line(line, "k=3"));
  EXPECT_EQ(built, 1);
}

TEST(Rng, DeterministicAcrossInstances) {
  Rng a(7), b(7);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, BoundsRespected) {
  Rng rng(123);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_LT(rng.next_below(17), 17u);
    const double d = rng.next_double();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
  EXPECT_THROW(rng.next_below(0), InvariantError);
}

TEST(Rng, RoughlyUniform) {
  Rng rng(99);
  std::vector<int> buckets(10, 0);
  constexpr int kSamples = 100000;
  for (int i = 0; i < kSamples; ++i) ++buckets[static_cast<std::size_t>(rng.next_int(10))];
  for (const int count : buckets) {
    EXPECT_GT(count, kSamples / 10 - kSamples / 50);
    EXPECT_LT(count, kSamples / 10 + kSamples / 50);
  }
}

TEST(Factoradic, DigitsRoundTrip) {
  for (int width = 0; width <= 7; ++width) {
    const std::uint64_t count = factorial_u64(width);
    for (std::uint64_t index = 0; index < count; ++index) {
      const auto digits = factoradic_digits(index, width);
      EXPECT_EQ(factoradic_index(digits), index);
    }
  }
}

TEST(Factoradic, PermutationsAreABijection) {
  for (int width = 1; width <= 6; ++width) {
    std::set<std::vector<int>> seen;
    const std::uint64_t count = factorial_u64(width);
    for (std::uint64_t index = 0; index < count; ++index) {
      const auto perm = nth_permutation(index, width);
      EXPECT_EQ(perm.size(), static_cast<std::size_t>(width));
      EXPECT_TRUE(seen.insert(perm).second) << "duplicate permutation";
      EXPECT_EQ(permutation_rank(perm), index);
    }
    EXPECT_EQ(seen.size(), count);
  }
}

TEST(Factoradic, LehmerOrderIsLexicographic) {
  // nth_permutation in factoradic order is lexicographic order on the
  // permutations themselves.
  for (std::uint64_t index = 0; index + 1 < factorial_u64(5); ++index) {
    EXPECT_LT(nth_permutation(index, 5), nth_permutation(index + 1, 5));
  }
}

TEST(Factoradic, RejectsOutOfRange) {
  EXPECT_THROW(factoradic_digits(6, 3), InvariantError);  // 3! == 6
  EXPECT_THROW(factoradic_index({3, 0, 0}), InvariantError);
  EXPECT_THROW(permutation_rank({0, 0, 1}), InvariantError);
}

TEST(Permutation, PrefixPredicate) {
  EXPECT_TRUE(is_permutation_prefix({}, 1, 5));
  EXPECT_TRUE(is_permutation_prefix({3, 1, 4}, 1, 5));
  EXPECT_FALSE(is_permutation_prefix({3, 3}, 1, 5));
  EXPECT_FALSE(is_permutation_prefix({0}, 1, 5));
  EXPECT_FALSE(is_permutation_prefix({5}, 1, 5));
}

TEST(Permutation, PrefixOf) {
  EXPECT_TRUE(is_prefix_of({}, {1, 2}));
  EXPECT_TRUE(is_prefix_of({1, 2}, {1, 2}));
  EXPECT_TRUE(is_prefix_of({1}, {1, 2}));
  EXPECT_FALSE(is_prefix_of({2}, {1, 2}));
  EXPECT_FALSE(is_prefix_of({1, 2, 3}, {1, 2}));
}

TEST(Permutation, LabelRendering) {
  EXPECT_EQ(label_to_string({0, 2, 1}), "⊥.2.1");
  EXPECT_EQ(label_to_string({}), "");
}

TEST(Permutation, AllPermutationsCount) {
  EXPECT_EQ(all_permutations(4).size(), 24u);
  EXPECT_THROW(all_permutations(9), InvariantError);
}

TEST(BigUint, BasicArithmetic) {
  EXPECT_EQ(BigUint(0).to_decimal(), "0");
  EXPECT_EQ((BigUint(999) + BigUint(1)).to_decimal(), "1000");
  EXPECT_EQ((BigUint(123456789) * BigUint(987654321)).to_decimal(),
            "121932631112635269");
}

TEST(BigUint, PowMatchesKnownValues) {
  EXPECT_EQ(BigUint::pow(2, 10).to_decimal(), "1024");
  EXPECT_EQ(BigUint::pow(10, 0).to_decimal(), "1");
  EXPECT_EQ(BigUint::pow(0, 0).to_decimal(), "1");
  EXPECT_EQ(BigUint::pow(3, 12).to_decimal(), "531441");  // paper_upper(3)
  // 2^128, past uint64.
  EXPECT_EQ(BigUint::pow(2, 128).to_decimal(),
            "340282366920938463463374607431768211456");
}

TEST(BigUint, FactorialMatchesKnownValues) {
  EXPECT_EQ(BigUint::factorial(0).to_decimal(), "1");
  EXPECT_EQ(BigUint::factorial(6).to_decimal(), "720");
  EXPECT_EQ(BigUint::factorial(25).to_decimal(),
            "15511210043330985984000000");
}

TEST(BigUint, DecimalRoundTrip) {
  const std::string digits = "98765432109876543210987654321098765432109";
  EXPECT_EQ(BigUint::from_decimal(digits).to_decimal(), digits);
}

TEST(BigUint, Comparisons) {
  EXPECT_TRUE(BigUint(5) < BigUint(6));
  EXPECT_TRUE(BigUint::pow(2, 100) > BigUint::pow(10, 29));
  EXPECT_TRUE(BigUint::pow(2, 100) < BigUint::pow(10, 31));
  EXPECT_EQ(BigUint(42), BigUint::from_decimal("42"));
}

TEST(BigUint, ToDouble) {
  EXPECT_DOUBLE_EQ(BigUint(1000).to_double(), 1000.0);
  EXPECT_NEAR(BigUint::pow(2, 64).to_double(), 1.8446744073709552e19, 1e5);
}

TEST(BigUint, ArithmeticAgreesWithUint64ModP) {
  // Property check: BigUint's + and * agree with native arithmetic modulo a
  // prime, across random operands spanning several limb counts.
  constexpr std::uint64_t kPrime = 1000000007ULL;
  Rng rng(2026);
  const auto mod_of = [&](const BigUint& value) {
    // value mod p via decimal digits (independent of the limb representation
    // under test).
    std::uint64_t mod = 0;
    for (const char c : value.to_decimal()) {
      mod = (mod * 10 + static_cast<std::uint64_t>(c - '0')) % kPrime;
    }
    return mod;
  };
  for (int trial = 0; trial < 50; ++trial) {
    const int limbs_a = 1 + rng.next_int(4);
    const int limbs_b = 1 + rng.next_int(4);
    BigUint a(rng.next_u64() >> 32);
    for (int i = 1; i < limbs_a; ++i) {
      a = a * BigUint(1ULL << 32) + BigUint(rng.next_u64() >> 32);
    }
    BigUint b(rng.next_u64() >> 32);
    for (int i = 1; i < limbs_b; ++i) {
      b = b * BigUint(1ULL << 32) + BigUint(rng.next_u64() >> 32);
    }
    const std::uint64_t ma = mod_of(a);
    const std::uint64_t mb = mod_of(b);
    EXPECT_EQ(mod_of(a + b), (ma + mb) % kPrime);
    EXPECT_EQ(mod_of(a * b), (ma * mb) % kPrime);
  }
}

TEST(BigUint, MultiplicationIsCommutativeAndDistributive) {
  const BigUint a = BigUint::pow(7, 31);
  const BigUint b = BigUint::factorial(23);
  const BigUint c = BigUint::from_decimal("123456789123456789123456789");
  EXPECT_EQ(a * b, b * a);
  EXPECT_EQ(a * (b + c), a * b + a * c);
  EXPECT_EQ((a + b) * c, a * c + b * c);
}

TEST(BigUint, PowIsRepeatedMultiplication) {
  for (const std::uint64_t base : {2ULL, 9ULL, 37ULL}) {
    BigUint accumulated(1);
    for (std::uint64_t exponent = 0; exponent <= 12; ++exponent) {
      EXPECT_EQ(BigUint::pow(base, exponent), accumulated)
          << base << "^" << exponent;
      accumulated *= BigUint(base);
    }
  }
}

TEST(BigUint, FactorialRecurrence) {
  for (int n = 1; n <= 30; ++n) {
    EXPECT_EQ(BigUint::factorial(n),
              BigUint::factorial(n - 1) * BigUint(static_cast<std::uint64_t>(n)));
  }
}

TEST(BigUint, DecimalDigits) {
  EXPECT_EQ(BigUint(0).decimal_digits(), 1);
  EXPECT_EQ(BigUint(9).decimal_digits(), 1);
  EXPECT_EQ(BigUint(10).decimal_digits(), 2);
  EXPECT_EQ(BigUint::pow(10, 20).decimal_digits(), 21);
}

// The env registry is the single source of truth for the BSS_* knob
// surface; bss_lint's env-registry rule flags any getenv("BSS_...") whose
// name is missing from the table.  These pin the table's invariants so the
// lint rule's ground truth stays well-formed.
TEST(EnvRegistry, NamesAreSortedUniqueAndPrefixed) {
  ASSERT_GT(env::kEnvRegistrySize, 0u);
  for (std::size_t i = 0; i < env::kEnvRegistrySize; ++i) {
    const env::EnvVar& var = env::kEnvRegistry[i];
    EXPECT_TRUE(var.name.rfind("BSS_", 0) == 0) << var.name;
    EXPECT_FALSE(var.doc.empty()) << var.name << " has no doc string";
    if (i > 0) {
      EXPECT_LT(env::kEnvRegistry[i - 1].name, var.name)
          << "registry must stay sorted and duplicate-free";
    }
  }
}

TEST(EnvRegistry, LookupMatchesTheTable) {
  for (std::size_t i = 0; i < env::kEnvRegistrySize; ++i) {
    EXPECT_TRUE(env::is_registered_env(env::kEnvRegistry[i].name));
  }
  EXPECT_FALSE(env::is_registered_env("BSS_NOT_A_REAL_KNOB"));
  EXPECT_FALSE(env::is_registered_env("PATH"));
  EXPECT_FALSE(env::is_registered_env(""));
}

TEST(EnvRegistry, StatusKnobsAreRegistered) {
  // The live-heartbeat knobs read by obs::StatusWriter; dropping a row here
  // would make bss_lint's env-registry rule flag the getenv call.
  EXPECT_TRUE(env::is_registered_env("BSS_STATUS"));
  EXPECT_TRUE(env::is_registered_env("BSS_STATUS_EVERY_MS"));
}

}  // namespace
}  // namespace bss
