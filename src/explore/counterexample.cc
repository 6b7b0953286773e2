// The counterexample artifact: decision tokens and the bss-counterexample
// v1 (grants only) / v2 (grants + fault tokens) plain-text codec.
#include <algorithm>
#include <cstdint>
#include <exception>
#include <limits>
#include <optional>
#include <sstream>
#include <string>

#include "explore/explore.h"

namespace bss::explore {

std::size_t Counterexample::fault_count() const {
  return static_cast<std::size_t>(
      std::count_if(decisions.begin(), decisions.end(), sim::is_fault_action));
}

// ----------------------------------------------------------------- artifact

std::string action_token(int decision) {
  static constexpr const char* kPrefix[] = {"", "c", "r", "s"};  // by kind
  const sim::Action action = sim::decode_action(decision);
  // Appended, not `"c" + std::to_string(pid)`: GCC 12 reports a false
  // -Wrestrict on that form in optimized builds.
  std::string token = kPrefix[static_cast<int>(action.kind)];
  token += std::to_string(action.pid);
  return token;
}

std::optional<int> parse_action_token(const std::string& token) {
  if (token.empty()) return std::nullopt;
  sim::ActionKind kind = sim::ActionKind::kGrant;
  std::size_t offset = 0;
  switch (token.front()) {
    case 'c':
      kind = sim::ActionKind::kCrash;
      offset = 1;
      break;
    case 'r':
      kind = sim::ActionKind::kRestart;
      offset = 1;
      break;
    case 's':
      kind = sim::ActionKind::kScFailure;
      offset = 1;
      break;
    default:
      break;
  }
  int pid = 0;
  try {
    std::size_t used = 0;
    pid = std::stoi(token.substr(offset), &used);
    if (used != token.size() - offset) return std::nullopt;
  } catch (const std::exception&) {
    return std::nullopt;
  }
  if (pid < 0 || pid > sim::kMaxActionPid) return std::nullopt;
  return sim::encode_action(kind, pid);
}

namespace {

// Strict base-10 parse for artifact header counts: every byte must be a
// digit (no sign, no whitespace, no trailing junk) and the result must not
// exceed `limit`.  The std::stoi/std::stoull these replace threw straight
// through from_artifact on junk like "processes: x" and silently wrapped
// "shrunk-from: -1" to 2^64-1; a corrupt artifact must parse to nullopt,
// never to a crash or a bogus huge count.  (Found by fuzz_counterexample.)
std::optional<std::uint64_t> parse_artifact_count(const std::string& value,
                                                  std::uint64_t limit) {
  if (value.empty() || value.size() > 20) return std::nullopt;
  std::uint64_t out = 0;
  for (const char ch : value) {
    if (ch < '0' || ch > '9') return std::nullopt;
    const auto digit = static_cast<std::uint64_t>(ch - '0');
    if (digit > limit || out > (limit - digit) / 10) return std::nullopt;
    out = out * 10 + digit;
  }
  return out;
}

}  // namespace

std::string Counterexample::to_artifact() const {
  std::ostringstream out;
  std::string flat = violation;
  std::replace(flat.begin(), flat.end(), '\n', ' ');
  // v1 (grants only) stays bit-for-bit the historical format; fault tapes
  // need the v2 token syntax.
  out << (fault_count() == 0 ? "bss-counterexample v1\n"
                             : "bss-counterexample v2\n");
  out << "system: " << system << "\n";
  out << "processes: " << processes << "\n";
  out << "shrunk-from: " << shrunk_from << "\n";
  out << "violation: " << flat << "\n";
  out << "decisions:";
  for (const int decision : decisions) out << ' ' << action_token(decision);
  out << "\n";
  return out.str();
}

std::optional<Counterexample> Counterexample::from_artifact(
    const std::string& text) {
  std::istringstream in(text);
  std::string line;
  if (!std::getline(in, line) ||
      (line != "bss-counterexample v1" && line != "bss-counterexample v2")) {
    return std::nullopt;
  }
  Counterexample cex;
  bool saw_decisions = false;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    const auto colon = line.find(':');
    if (colon == std::string::npos) return std::nullopt;
    const std::string key = line.substr(0, colon);
    std::string value = line.substr(colon + 1);
    if (!value.empty() && value.front() == ' ') value.erase(0, 1);
    if (key == "system") {
      cex.system = value;
    } else if (key == "processes") {
      const auto count = parse_artifact_count(
          value, static_cast<std::uint64_t>(sim::kMaxActionPid) + 1);
      if (!count.has_value()) return std::nullopt;
      cex.processes = static_cast<int>(*count);
    } else if (key == "shrunk-from") {
      const auto count = parse_artifact_count(
          value, std::numeric_limits<std::size_t>::max());
      if (!count.has_value()) return std::nullopt;
      cex.shrunk_from = static_cast<std::size_t>(*count);
    } else if (key == "violation") {
      cex.violation = value;
    } else if (key == "decisions") {
      std::istringstream tokens(value);
      std::string token;
      while (tokens >> token) {
        const std::optional<int> decision = parse_action_token(token);
        if (!decision.has_value()) return std::nullopt;
        cex.decisions.push_back(*decision);
      }
      saw_decisions = true;
    } else {
      return std::nullopt;
    }
  }
  if (!saw_decisions) return std::nullopt;
  return cex;
}

}  // namespace bss::explore
