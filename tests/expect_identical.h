// The byte-identical result contract the explorer's suites share: two
// ExploreResults are identical when every ExploreStats counter, the
// `exhausted` verdict and every violation's full artifact text agree.
// Worker-count invariance, kill-and-resume, pruning and the passivity of
// audit, telemetry and the status heartbeat are all asserted through it.
#pragma once

#include <gtest/gtest.h>

#include <cstddef>
#include <string>

#include "explore/explore.h"

namespace bss::explore {

/// Declared next to ExploreResult's namespace so argument-dependent lookup
/// finds it from any test namespace.
inline void expect_identical(const ExploreResult& expected,
                             const ExploreResult& actual,
                             const std::string& label) {
  for (const CounterRow<ExploreStats>& row : kExploreCounters) {
    EXPECT_EQ(expected.stats.*row.member, actual.stats.*row.member)
        << label << " stat " << row.name;
  }
  EXPECT_EQ(expected.exhausted, actual.exhausted) << label;
  ASSERT_EQ(expected.violations.size(), actual.violations.size()) << label;
  for (std::size_t i = 0; i < expected.violations.size(); ++i) {
    EXPECT_EQ(expected.violations[i].to_artifact(),
              actual.violations[i].to_artifact())
        << label << " violation " << i;
  }
}

}  // namespace bss::explore
