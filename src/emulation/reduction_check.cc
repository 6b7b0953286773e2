#include "emulation/reduction_check.h"

#include <algorithm>
#include <map>
#include <set>
#include <sstream>
#include <string_view>

#include "util/checked.h"
#include "util/permutation.h"

namespace bss::emu {

namespace {

// Maximal labels among the emulators' final labels.
std::vector<Label> maximal_labels(const EmuStats& stats) {
  std::vector<Label> maximal;
  for (const Label& label : stats.final_labels) {
    bool dominated = false;
    for (const Label& other : stats.final_labels) {
      if (other.size() > label.size() && is_label_prefix(label, other)) {
        dominated = true;
        break;
      }
    }
    if (!dominated &&
        std::find(maximal.begin(), maximal.end(), label) == maximal.end()) {
      maximal.push_back(label);
    }
  }
  return maximal;
}

}  // namespace

ReductionVerdict verify_reduction(const EmulationDriver& driver,
                                  const EmuStats& stats,
                                  const ReductionCheckOptions& options) {
  ReductionVerdict verdict;
  std::ostringstream diagnosis;
  const int k = driver.forest().k();
  const std::vector<Label> labels = maximal_labels(stats);

  // ---- C1 + C4, per maximal label.
  verdict.rw_legal = true;
  verdict.cas_sound = true;
  verdict.matching_sound = true;
  for (const Label& label : labels) {
    std::map<std::string_view, std::int64_t> last_write;
    std::map<std::pair<int, int>, int> successes;
    for (const VpStep& step : driver.step_log()) {
      if (!is_label_prefix(step.label, label)) continue;
      if (step.desc.op == sim::OpName("write")) {
        last_write[step.desc.object.view()] = step.desc.arg0;
      } else if (step.desc.op == sim::OpName("read")) {
        const auto it = last_write.find(step.desc.object.view());
        if (it != last_write.end() && step.has_result &&
            step.result != it->second) {
          verdict.rw_legal = false;
          diagnosis << "R|" << label_string(label) << ": read of "
                    << step.desc.object << " returned " << step.result
                    << " after write of " << it->second << "; ";
        }
      } else if (step.desc.op == sim::OpName("cas")) {
        const int expect = checked_cast<int>(step.desc.arg0);
        const int next = checked_cast<int>(step.desc.arg1);
        if (!step.has_result || step.result < 0 || step.result >= k) {
          verdict.cas_sound = false;
          diagnosis << "cas result outside domain; ";
          continue;
        }
        if (step.result == expect && next != expect) {
          ++successes[{expect, next}];
        }
      }
    }
    // ---- C3: successes never exceed history transitions.
    const std::vector<int> history = driver.forest().compute_history(label);
    for (const auto& [edge, count] : successes) {
      const int transitions =
          LabelForest::transition_count(history, edge.first, edge.second);
      if (count > transitions) {
        verdict.matching_sound = false;
        diagnosis << "R|" << label_string(label) << ": " << count
                  << " successful cas(" << edge.first << "->" << edge.second
                  << ") but only " << transitions << " history transitions; ";
      }
    }
  }

  // ---- C2: history shape, per maximal label.
  verdict.history_sound = true;
  for (const Label& label : labels) {
    const std::vector<int> history = driver.forest().compute_history(label);
    if (history.empty() || history.front() != 0) {
      verdict.history_sound = false;
      diagnosis << "history does not start at ⊥; ";
      continue;
    }
    for (std::size_t i = 1; i < history.size(); ++i) {
      if (history[i] == history[i - 1]) {
        verdict.history_sound = false;
        diagnosis << "history repeats " << history[i] << " consecutively; ";
      }
      if (history[i] < 0 || history[i] >= k) {
        verdict.history_sound = false;
        diagnosis << "history symbol outside domain; ";
      }
    }
    if (options.expect_first_value &&
        !bss::is_permutation_prefix(
            std::vector<int>(history.begin() + 1, history.end()), 1, k)) {
      verdict.history_sound = false;
      diagnosis << "first-value history " << label_string(history)
                << " reuses a symbol; ";
    }
  }

  // ---- C5: group agreement and the (k-1)! label bound.
  verdict.groups_agree = true;
  const std::uint64_t label_bound = factorial_u64(k - 1);
  if (labels.size() > label_bound) {
    verdict.groups_agree = false;
    diagnosis << labels.size() << " maximal labels exceed (k-1)! = "
              << label_bound << "; ";
  }
  if (options.expect_agreement) {
    for (const Label& label : labels) {
      std::set<std::int64_t> decisions;
      for (std::size_t id = 0; id < stats.final_labels.size(); ++id) {
        if (stats.final_labels[id] == label &&
            stats.decisions[id].has_value()) {
          decisions.insert(*stats.decisions[id]);
        }
      }
      if (decisions.size() > 1) {
        verdict.groups_agree = false;
        diagnosis << "group " << label_string(label) << " decided "
                  << decisions.size() << " values; ";
      }
    }
    if (stats.distinct_decisions >
        checked_cast<int>(std::min<std::uint64_t>(label_bound, 1000000))) {
      verdict.groups_agree = false;
      diagnosis << stats.distinct_decisions
                << " distinct decisions exceed the (k-1)! set-consensus "
                   "bound; ";
    }
  }

  verdict.diagnosis = diagnosis.str();
  return verdict;
}

}  // namespace bss::emu
