// bss_lint — the determinism & footprint-conformance checker.
//
// Every guarantee this repo makes (byte-identical serial/parallel
// exploration, canonical-JSON artifacts, POR soundness over declared OpDesc
// footprints) is a *determinism* invariant; the test suite proves each one
// pointwise at runtime, and this tool enforces the hazard classes that
// produce violations statically, before a 10-million-schedule campaign can
// depend on them.  It is a deliberate token/line-level scanner — no libclang,
// no compile commands, std-only — so it builds anywhere the tree builds and
// runs over the whole repo in milliseconds.
//
// Rules (each named, each suppressible at the site):
//
//   no-wallclock            system_clock / steady_clock /
//                           high_resolution_clock / gettimeofday /
//                           clock_gettime outside the timing quarantine
//                           (the bench timing layer: bench/bench_explore.cc,
//                           bench/bench_report.h).  src/ reads the clock
//                           in one suppressed place, PhaseProfiler::now_ns.
//   no-ambient-randomness   std::random_device, rand()/srand(), and argless
//                           construction of std:: engines (mt19937 & co);
//                           randomness must be plumbed from a printed seed
//                           (util/rng.h).
//   ordered-emission        iteration over std::unordered_{map,set,...} in a
//                           function that emits canonical output (JSON,
//                           fingerprints, artifacts, merges) — allowed only
//                           when the function also sorts downstream of the
//                           loop, or with an explicit suppression.
//   no-pointer-order        raw pointer values used as ordering keys:
//                           std::less over pointers, ordered map/set with a
//                           pointer key, reinterpret_cast to (u)intptr_t.
//                           Pointer order is allocation order — i.e. hidden
//                           nondeterminism.
//   env-registry            every getenv("BSS_*") must name a variable
//                           declared in src/util/env_registry.h, so the knob
//                           surface stays enumerable and documented.
//   footprint-declared      every token-stamping register file under a
//                           registers/ directory must carry a
//                           BSS_FOOTPRINT(Class, op...) annotation whose
//                           op-name set matches the file's ctx.sync({...})
//                           op literals exactly (registers/footprint.h).
//                           A sync whose op is not a string literal in
//                           that place is a finding too: the rule cannot
//                           check what it cannot read.
//
// Suppression syntax — on the offending line or the line above:
//
//   // bss-lint: wallclock-ok(reason)         no-wallclock
//   // bss-lint: randomness-ok(reason)        no-ambient-randomness
//   // bss-lint: ordered-ok(reason)           ordered-emission
//   // bss-lint: pointer-order-ok(reason)     no-pointer-order
//   // bss-lint: env-ok(reason)               env-registry
//   // bss-lint: footprint-ok(reason)         footprint-declared
//
// The reason is mandatory by convention (the parenthesis is matched) and is
// the reviewer-facing justification, exactly like the repo's NOLINT policy.
//
// Usage:
//   bss_lint [--root DIR] [PATH...]     scan (default: src bench tools
//                                       examples under --root, which
//                                       defaults to the current directory;
//                                       build*/ and tests/lint_fixtures are
//                                       always skipped)
//   bss_lint --self-test DIR            fixture mode: every bad_<rule>* file
//                                       under DIR must produce >=1 finding
//                                       of that rule; every good_* file must
//                                       produce none
//   bss_lint --list-rules               print the rule catalog
//
// Exit codes: 0 clean, 1 findings (or self-test expectation failures),
// 2 usage error.
#include <algorithm>
#include <cctype>
#include <cstddef>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

namespace fs = std::filesystem;

namespace {

// --------------------------------------------------------------- rule table

struct RuleInfo {
  std::string_view slug;     ///< finding name, e.g. "no-wallclock"
  std::string_view suppress; ///< suppression token, e.g. "wallclock-ok"
  std::string_view summary;
};

constexpr RuleInfo kRules[] = {
    {"no-wallclock", "wallclock-ok",
     "wall-clock read outside the timing quarantine"},
    {"no-ambient-randomness", "randomness-ok",
     "unseeded randomness source"},
    {"ordered-emission", "ordered-ok",
     "unordered-container iteration feeding canonical output"},
    {"no-pointer-order", "pointer-order-ok",
     "raw pointer value used as an ordering key"},
    {"env-registry", "env-ok",
     "getenv(\"BSS_*\") of a variable missing from src/util/env_registry.h"},
    {"footprint-declared", "footprint-ok",
     "register op set does not match its BSS_FOOTPRINT annotation"},
};

std::string_view suppress_token(std::string_view slug) {
  for (const RuleInfo& rule : kRules) {
    if (rule.slug == slug) return rule.suppress;
  }
  return "";
}

// ------------------------------------------------------------ source views

/// A scanned file with the three views the rules match against.
struct SourceFile {
  std::string path;    ///< display path (as discovered)
  std::string raw;     ///< verbatim text (suppression comments live here)
  std::string code;    ///< comments blanked, string literals kept
  std::string nostr;   ///< comments blanked AND string contents blanked
  std::vector<std::size_t> line_starts;  ///< byte offset of each line (raw)
};

/// Blanks comments (and, when keep_strings is false, string/char literal
/// contents) with spaces, preserving length and newlines so byte offsets and
/// line numbers stay aligned across views.  Handles //, /* */, '...', "..."
/// with escapes, and R"delim(...)delim" raw strings.
std::string blank_view(std::string_view text, bool keep_strings) {
  std::string out(text);
  std::size_t i = 0;
  const std::size_t n = text.size();
  auto blank = [&](std::size_t from, std::size_t to) {
    for (std::size_t k = from; k < to && k < n; ++k) {
      if (out[k] != '\n') out[k] = ' ';
    }
  };
  while (i < n) {
    const char c = text[i];
    if (c == '/' && i + 1 < n && text[i + 1] == '/') {
      std::size_t end = text.find('\n', i);
      if (end == std::string_view::npos) end = n;
      blank(i, end);
      i = end;
    } else if (c == '/' && i + 1 < n && text[i + 1] == '*') {
      std::size_t end = text.find("*/", i + 2);
      end = end == std::string_view::npos ? n : end + 2;
      blank(i, end);
      i = end;
    } else if (c == 'R' && i + 1 < n && text[i + 1] == '"') {
      // Raw string literal: R"delim( ... )delim"
      std::size_t paren = text.find('(', i + 2);
      if (paren == std::string_view::npos) {
        ++i;
        continue;
      }
      const std::string closer =
          ")" + std::string(text.substr(i + 2, paren - (i + 2))) + "\"";
      std::size_t end = text.find(closer, paren + 1);
      end = end == std::string_view::npos ? n : end + closer.size();
      if (!keep_strings) blank(paren + 1, end - closer.size());
      i = end;
    } else if (c == '"' || c == '\'') {
      const char quote = c;
      std::size_t j = i + 1;
      while (j < n && text[j] != quote) {
        j += text[j] == '\\' ? 2 : 1;
      }
      const std::size_t end = j < n ? j + 1 : n;
      if (!keep_strings) blank(i + 1, end > i + 1 ? end - 1 : end);
      i = end;
    } else {
      ++i;
    }
  }
  return out;
}

SourceFile load_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  SourceFile file;
  file.path = path;
  file.raw = buffer.str();
  file.code = blank_view(file.raw, /*keep_strings=*/true);
  file.nostr = blank_view(file.raw, /*keep_strings=*/false);
  file.line_starts.push_back(0);
  for (std::size_t i = 0; i < file.raw.size(); ++i) {
    if (file.raw[i] == '\n') file.line_starts.push_back(i + 1);
  }
  return file;
}

/// 1-based line number of a byte offset.
std::size_t line_of(const SourceFile& file, std::size_t pos) {
  const auto it = std::upper_bound(file.line_starts.begin(),
                                   file.line_starts.end(), pos);
  return static_cast<std::size_t>(it - file.line_starts.begin());
}

std::string_view line_text(const SourceFile& file, std::size_t line) {
  if (line == 0 || line > file.line_starts.size()) return {};
  const std::size_t begin = file.line_starts[line - 1];
  const std::size_t end = line < file.line_starts.size()
                              ? file.line_starts[line] - 1
                              : file.raw.size();
  return std::string_view(file.raw).substr(begin, end - begin);
}

bool is_suppressed(const SourceFile& file, std::size_t line,
                   std::string_view token) {
  const std::string needle = "bss-lint: " + std::string(token) + "(";
  for (const std::size_t candidate : {line, line - 1}) {
    if (candidate == 0) continue;
    if (line_text(file, candidate).find(needle) != std::string_view::npos) {
      return true;
    }
  }
  return false;
}

// ----------------------------------------------------------- small scanners

bool ident_char(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) != 0 || c == '_';
}

/// True when text[pos..] starts the whole word `word` (identifier borders).
bool word_at(std::string_view text, std::size_t pos, std::string_view word) {
  if (text.substr(pos, word.size()) != word) return false;
  if (pos > 0 && ident_char(text[pos - 1])) return false;
  const std::size_t end = pos + word.size();
  return end >= text.size() || !ident_char(text[end]);
}

std::size_t skip_ws(std::string_view text, std::size_t pos) {
  while (pos < text.size() &&
         std::isspace(static_cast<unsigned char>(text[pos])) != 0) {
    ++pos;
  }
  return pos;
}

/// Matches the angle-bracket pair opening at `open` ('<'); npos if unmatched.
std::size_t match_angle(std::string_view text, std::size_t open) {
  int depth = 0;
  for (std::size_t i = open; i < text.size(); ++i) {
    if (text[i] == '<') ++depth;
    if (text[i] == '>') {
      if (--depth == 0) return i;
    }
    if (text[i] == ';') break;  // declarations do not span statements
  }
  return std::string_view::npos;
}

struct Finding {
  std::string path;
  std::size_t line = 0;
  std::string rule;
  std::string message;
};

void emit(std::vector<Finding>& findings, const SourceFile& file,
          std::size_t line, std::string_view rule, std::string message) {
  if (is_suppressed(file, line, suppress_token(rule))) return;
  findings.push_back(
      {file.path, line, std::string(rule), std::move(message)});
}

std::string normalized(const std::string& path) {
  std::string out = path;
  std::replace(out.begin(), out.end(), '\\', '/');
  return out;
}

bool path_has_component(const std::string& path, std::string_view component) {
  const std::string norm = "/" + normalized(path) + "/";
  return norm.find("/" + std::string(component) + "/") != std::string::npos;
}

bool path_ends_with(const std::string& path, std::string_view suffix) {
  const std::string norm = normalized(path);
  return norm.size() >= suffix.size() &&
         norm.compare(norm.size() - suffix.size(), suffix.size(), suffix) == 0;
}

// ------------------------------------------------------------ rule: wallclock

bool wallclock_quarantined(const std::string& path) {
  // bench_explore.cc times its fast-path gate and bench_report.h stamps the
  // runreport's wall_ns; the runreport schema quarantines both under
  // "timing".
  return path_ends_with(path, "bench/bench_explore.cc") ||
         path_ends_with(path, "bench/bench_report.h");
}

void check_wallclock(const SourceFile& file, std::vector<Finding>& findings) {
  if (wallclock_quarantined(file.path)) return;
  static constexpr std::string_view kClocks[] = {
      "system_clock",   "steady_clock", "high_resolution_clock",
      "gettimeofday",   "clock_gettime", "localtime",
  };
  for (const std::string_view clock : kClocks) {
    for (std::size_t pos = file.nostr.find(clock); pos != std::string::npos;
         pos = file.nostr.find(clock, pos + 1)) {
      if (!word_at(file.nostr, pos, clock)) continue;
      emit(findings, file, line_of(file, pos), "no-wallclock",
           std::string(clock) +
               " outside the timing quarantine (bench timing, obs timing "
               "channel)");
    }
  }
}

// ----------------------------------------------------------- rule: randomness

void check_randomness(const SourceFile& file,
                      std::vector<Finding>& findings) {
  const std::string_view text = file.nostr;
  for (std::size_t pos = text.find("random_device"); pos != std::string::npos;
       pos = text.find("random_device", pos + 1)) {
    if (!word_at(text, pos, "random_device")) continue;
    emit(findings, file, line_of(file, pos), "no-ambient-randomness",
         "std::random_device draws entropy the replay cannot reproduce; "
         "plumb a printed seed instead");
  }
  for (const std::string_view call : {"rand", "srand"}) {
    for (std::size_t pos = text.find(call); pos != std::string::npos;
         pos = text.find(call, pos + 1)) {
      if (!word_at(text, pos, call)) continue;
      const std::size_t paren = skip_ws(text, pos + call.size());
      if (paren >= text.size() || text[paren] != '(') continue;
      emit(findings, file, line_of(file, pos), "no-ambient-randomness",
           std::string(call) + "() uses hidden global PRNG state");
    }
  }
  // Argless construction of a std engine: `mt19937 gen;`, `mt19937 gen{};`,
  // `mt19937()`.  A seeded constructor (any argument) passes.
  static constexpr std::string_view kEngines[] = {
      "mt19937",  "mt19937_64",    "default_random_engine",
      "minstd_rand", "minstd_rand0", "knuth_b",
  };
  for (const std::string_view engine : kEngines) {
    for (std::size_t pos = text.find(engine); pos != std::string::npos;
         pos = text.find(engine, pos + 1)) {
      if (!word_at(text, pos, engine)) continue;
      std::size_t cursor = skip_ws(text, pos + engine.size());
      // Optional declarator name.
      while (cursor < text.size() && ident_char(text[cursor])) ++cursor;
      cursor = skip_ws(text, cursor);
      if (cursor >= text.size()) continue;
      const char next = text[cursor];
      bool argless = next == ';';
      if (next == '(' || next == '{') {
        const char closer = next == '(' ? ')' : '}';
        argless = skip_ws(text, cursor + 1) < text.size() &&
                  text[skip_ws(text, cursor + 1)] == closer;
      }
      if (!argless) continue;
      emit(findings, file, line_of(file, pos), "no-ambient-randomness",
           "argless std::" + std::string(engine) +
               " seeds from an unspecified source; pass an explicit seed");
    }
  }
}

// ------------------------------------------------- rule: ordered-emission

/// Brace blocks of the file, innermost-last for any position.
struct Block {
  std::size_t open = 0;
  std::size_t close = 0;
};

std::vector<Block> brace_blocks(std::string_view nostr) {
  std::vector<Block> blocks;
  std::vector<std::size_t> stack;
  for (std::size_t i = 0; i < nostr.size(); ++i) {
    if (nostr[i] == '{') stack.push_back(i);
    if (nostr[i] == '}' && !stack.empty()) {
      blocks.push_back({stack.back(), i});
      stack.pop_back();
    }
  }
  return blocks;
}

/// The function-like region containing `pos`: the outermost enclosing block
/// whose header is not a namespace/class/struct/enum/union/extern block.
/// Returns nullopt at namespace/class scope.
std::optional<Block> function_region(std::string_view nostr,
                                     const std::vector<Block>& blocks,
                                     std::size_t pos) {
  std::vector<Block> enclosing;
  for (const Block& block : blocks) {
    if (block.open < pos && pos < block.close) enclosing.push_back(block);
  }
  std::sort(enclosing.begin(), enclosing.end(),
            [](const Block& a, const Block& b) { return a.open < b.open; });
  for (const Block& block : enclosing) {
    // Header: text since the previous statement/block boundary.
    std::size_t begin = block.open;
    while (begin > 0) {
      const char c = nostr[begin - 1];
      if (c == ';' || c == '{' || c == '}') break;
      --begin;
    }
    const std::string_view header = nostr.substr(begin, block.open - begin);
    bool scope_block = false;
    for (const std::string_view keyword :
         {"namespace", "class", "struct", "enum", "union", "extern"}) {
      for (std::size_t k = header.find(keyword);
           k != std::string_view::npos; k = header.find(keyword, k + 1)) {
        if (word_at(header, k, keyword)) {
          scope_block = true;
          break;
        }
      }
      if (scope_block) break;
    }
    if (!scope_block) return block;
  }
  return std::nullopt;
}

bool contains_ci(std::string_view haystack, std::string_view needle) {
  const auto it = std::search(
      haystack.begin(), haystack.end(), needle.begin(), needle.end(),
      [](char a, char b) {
        return std::tolower(static_cast<unsigned char>(a)) ==
               std::tolower(static_cast<unsigned char>(b));
      });
  return it != haystack.end();
}

/// Variable / member names declared with an unordered container type.
std::set<std::string> unordered_names(std::string_view nostr) {
  std::set<std::string> names;
  static constexpr std::string_view kTypes[] = {
      "unordered_map", "unordered_set", "unordered_multimap",
      "unordered_multiset"};
  for (const std::string_view type : kTypes) {
    for (std::size_t pos = nostr.find(type); pos != std::string_view::npos;
         pos = nostr.find(type, pos + 1)) {
      if (!word_at(nostr, pos, type)) continue;
      std::size_t cursor = skip_ws(nostr, pos + type.size());
      if (cursor >= nostr.size() || nostr[cursor] != '<') continue;
      const std::size_t close = match_angle(nostr, cursor);
      if (close == std::string_view::npos) continue;
      cursor = skip_ws(nostr, close + 1);
      while (cursor < nostr.size() &&
             (nostr[cursor] == '&' || nostr[cursor] == '*')) {
        cursor = skip_ws(nostr, cursor + 1);
      }
      std::size_t end = cursor;
      while (end < nostr.size() && ident_char(nostr[end])) ++end;
      if (end > cursor) names.insert(std::string(nostr.substr(cursor, end - cursor)));
    }
  }
  return names;
}

void check_ordered_emission(const SourceFile& file,
                            std::vector<Finding>& findings) {
  const std::string_view nostr = file.nostr;
  const std::set<std::string> unordered = unordered_names(nostr);
  if (unordered.empty()) return;
  const std::vector<Block> blocks = brace_blocks(nostr);
  for (std::size_t pos = nostr.find("for"); pos != std::string_view::npos;
       pos = nostr.find("for", pos + 1)) {
    if (!word_at(nostr, pos, "for")) continue;
    const std::size_t open = skip_ws(nostr, pos + 3);
    if (open >= nostr.size() || nostr[open] != '(') continue;
    // Find the range-for colon at paren depth 1 (skip :: scoping).
    int depth = 0;
    std::size_t colon = std::string_view::npos;
    std::size_t close = std::string_view::npos;
    for (std::size_t i = open; i < nostr.size(); ++i) {
      const char c = nostr[i];
      if (c == '(') ++depth;
      if (c == ')') {
        if (--depth == 0) {
          close = i;
          break;
        }
      }
      if (c == ':' && depth == 1 && colon == std::string_view::npos &&
          (i + 1 >= nostr.size() || nostr[i + 1] != ':') &&
          (i == 0 || nostr[i - 1] != ':')) {
        colon = i;
      }
    }
    if (colon == std::string_view::npos || close == std::string_view::npos) {
      continue;
    }
    // Last identifier of the range expression, e.g. `shards_` in
    // `*state.shards_` or `map` in `map`.
    const std::string_view range = nostr.substr(colon + 1, close - colon - 1);
    std::size_t end = range.size();
    while (end > 0 &&
           std::isspace(static_cast<unsigned char>(range[end - 1])) != 0) {
      --end;
    }
    // `m.items()`-style calls end with ')': the identifier test below simply
    // fails for them; this scanner tracks direct container iteration only.
    std::size_t begin = end;
    while (begin > 0 && ident_char(range[begin - 1])) --begin;
    const std::string name(range.substr(begin, end - begin));
    if (name.empty() || unordered.count(name) == 0) continue;

    const std::optional<Block> region = function_region(nostr, blocks, open);
    if (!region.has_value()) continue;
    const std::string_view region_text =
        nostr.substr(region->open, region->close - region->open);
    // Only functions that feed canonical output are in scope for this rule.
    bool emits = false;
    for (const std::string_view marker :
         {"json", "fingerprint", "merge_from", "artifact", "canonical",
          "emit", "runreport", "dump("}) {
      if (contains_ci(region_text, marker)) {
        emits = true;
        break;
      }
    }
    if (!emits) continue;
    // A sort downstream of the loop re-establishes a canonical order.
    const std::string_view after =
        nostr.substr(pos, region->close - pos);
    bool sorted = false;
    for (const std::string_view sorter : {"sort", "stable_sort"}) {
      for (std::size_t k = after.find(sorter); k != std::string_view::npos;
           k = after.find(sorter, k + 1)) {
        const std::size_t call = skip_ws(after, k + sorter.size());
        if (word_at(after, k, sorter) && call < after.size() &&
            after[call] == '(') {
          sorted = true;
          break;
        }
      }
      if (sorted) break;
    }
    if (sorted) continue;
    emit(findings, file, line_of(file, pos), "ordered-emission",
         "iteration over unordered container '" + name +
             "' in a function that feeds canonical output; sort first or "
             "justify with ordered-ok(...)");
  }
}

// ----------------------------------------------- rule: no-pointer-order

void check_pointer_order(const SourceFile& file,
                         std::vector<Finding>& findings) {
  const std::string_view nostr = file.nostr;
  // std::less over a pointer type.
  for (std::size_t pos = nostr.find("less"); pos != std::string_view::npos;
       pos = nostr.find("less", pos + 1)) {
    if (!word_at(nostr, pos, "less")) continue;
    const std::size_t open = skip_ws(nostr, pos + 4);
    if (open >= nostr.size() || nostr[open] != '<') continue;
    const std::size_t close = match_angle(nostr, open);
    if (close == std::string_view::npos) continue;
    const std::string_view arg = nostr.substr(open + 1, close - open - 1);
    if (arg.find('*') != std::string_view::npos) {
      emit(findings, file, line_of(file, pos), "no-pointer-order",
           "std::less over a pointer type orders by address");
    }
  }
  // Ordered associative container keyed on a pointer.
  static constexpr std::string_view kContainers[] = {"map", "set", "multimap",
                                                     "multiset"};
  for (const std::string_view container : kContainers) {
    for (std::size_t pos = nostr.find(container);
         pos != std::string_view::npos;
         pos = nostr.find(container, pos + 1)) {
      if (!word_at(nostr, pos, container)) continue;
      // unordered_* variants are rule 3's concern, not ordering hazards.
      if (pos >= 10 && nostr.substr(pos - 10, 10) == "unordered_") continue;
      const std::size_t open = skip_ws(nostr, pos + container.size());
      if (open >= nostr.size() || nostr[open] != '<') continue;
      const std::size_t close = match_angle(nostr, open);
      if (close == std::string_view::npos) continue;
      // First top-level template argument == the key type.
      std::string_view args = nostr.substr(open + 1, close - open - 1);
      int depth = 0;
      std::size_t key_end = args.size();
      for (std::size_t i = 0; i < args.size(); ++i) {
        if (args[i] == '<' || args[i] == '(') ++depth;
        if (args[i] == '>' || args[i] == ')') --depth;
        if (args[i] == ',' && depth == 0) {
          key_end = i;
          break;
        }
      }
      std::string_view key = args.substr(0, key_end);
      while (!key.empty() &&
             std::isspace(static_cast<unsigned char>(key.back())) != 0) {
        key.remove_suffix(1);
      }
      if (!key.empty() && key.back() == '*') {
        emit(findings, file, line_of(file, pos), "no-pointer-order",
             "ordered " + std::string(container) +
                 " keyed on a raw pointer iterates in allocation order");
      }
    }
  }
  // Pointer identity laundered through an integer ((u)intptr_t).
  for (std::size_t pos = nostr.find("reinterpret_cast");
       pos != std::string_view::npos;
       pos = nostr.find("reinterpret_cast", pos + 1)) {
    const std::size_t open = skip_ws(nostr, pos + 16);
    if (open >= nostr.size() || nostr[open] != '<') continue;
    const std::size_t close = match_angle(nostr, open);
    if (close == std::string_view::npos) continue;
    const std::string_view arg = nostr.substr(open + 1, close - open - 1);
    if (arg.find("intptr_t") != std::string_view::npos) {
      emit(findings, file, line_of(file, pos), "no-pointer-order",
           "reinterpret_cast<(u)intptr_t> makes an address "
           "orderable/hashable");
    }
  }
}

// -------------------------------------------------- rule: env-registry

/// Declared BSS_* names: `X(BSS_NAME, ...)` rows of the env-registry table
/// (src/util/env_registry.h in the tree; any scanned file may contribute,
/// which is what lets the fixtures self-describe).
std::set<std::string> collect_env_registry(
    const std::vector<SourceFile>& files) {
  std::set<std::string> declared;
  for (const SourceFile& file : files) {
    std::istringstream lines{file.nostr};
    std::string line;
    while (std::getline(lines, line)) {
      const std::size_t x = line.find("X(BSS_");
      if (x == std::string::npos) continue;
      std::size_t begin = x + 2;
      std::size_t end = begin;
      while (end < line.size() && ident_char(line[end])) ++end;
      if (end > begin) declared.insert(line.substr(begin, end - begin));
    }
  }
  return declared;
}

void check_env_registry(const SourceFile& file,
                        const std::set<std::string>& declared,
                        std::vector<Finding>& findings) {
  const std::string_view code = file.code;
  for (std::size_t pos = code.find("getenv"); pos != std::string_view::npos;
       pos = code.find("getenv", pos + 1)) {
    if (!word_at(code, pos, "getenv")) continue;
    std::size_t cursor = skip_ws(code, pos + 6);
    if (cursor >= code.size() || code[cursor] != '(') continue;
    cursor = skip_ws(code, cursor + 1);
    if (cursor >= code.size() || code[cursor] != '"') continue;
    std::size_t begin = cursor + 1;
    std::size_t end = begin;
    while (end < code.size() && ident_char(code[end])) ++end;
    const std::string name(code.substr(begin, end - begin));
    if (name.rfind("BSS_", 0) != 0) continue;
    if (declared.count(name) != 0) continue;
    emit(findings, file, line_of(file, pos), "env-registry",
         "getenv(\"" + name +
             "\") is not declared in src/util/env_registry.h");
  }
}

// --------------------------------------------- rule: footprint-declared

void check_footprint(const SourceFile& file, std::vector<Finding>& findings) {
  if (!path_has_component(file.path, "registers") &&
      !path_has_component(file.path, "lint_fixtures")) {
    return;
  }
  const std::string_view code = file.code;
  // Op names the implementation declares to the scheduler.
  std::map<std::string, std::size_t> sync_ops;  // op -> first line
  for (std::size_t pos = code.find(".sync("); pos != std::string_view::npos;
       pos = code.find(".sync(", pos + 1)) {
    const auto unreadable = [&] {
      emit(findings, file, line_of(file, pos), "footprint-declared",
           "cannot read this sync's op: write it as ctx.sync({object, "
           "\"op\", ...}) with the op a string literal");
    };
    std::size_t cursor = skip_ws(code, pos + 6);
    if (cursor >= code.size() || code[cursor] != '{') {
      unreadable();
      continue;
    }
    // Skip the object-name expression up to the first top-level comma.
    int depth = 0;
    while (cursor < code.size() && depth >= 0) {
      const char c = code[cursor];
      if (c == '(' || c == '{' || c == '[') ++depth;
      if (c == ')' || c == '}' || c == ']') --depth;
      if (c == ',' && depth == 1) break;
      ++cursor;
    }
    if (cursor >= code.size() || code[cursor] != ',') {
      unreadable();
      continue;
    }
    cursor = skip_ws(code, cursor + 1);
    if (cursor >= code.size() || code[cursor] != '"') {
      unreadable();
      continue;
    }
    const std::size_t begin = cursor + 1;
    std::size_t end = begin;
    while (end < code.size() && code[end] != '"') ++end;
    const std::string op(code.substr(begin, end - begin));
    if (op.empty()) {
      unreadable();
      continue;
    }
    sync_ops.emplace(op, line_of(file, pos));
  }
  const bool stamps_tokens =
      code.find("access_token()") != std::string_view::npos;
  if (sync_ops.empty() || !stamps_tokens) return;

  // Ops the BSS_FOOTPRINT annotations declare.
  std::map<std::string, std::size_t> declared_ops;
  std::size_t annotation_line = 0;
  for (std::size_t pos = code.find("BSS_FOOTPRINT(");
       pos != std::string_view::npos;
       pos = code.find("BSS_FOOTPRINT(", pos + 1)) {
    // Skip the macro's own #define.
    if (line_text(file, line_of(file, pos)).find("#define") !=
        std::string_view::npos) {
      continue;
    }
    annotation_line = line_of(file, pos);
    std::size_t cursor = pos + 14;
    bool first = true;  // first argument is the class name
    while (cursor < code.size() && code[cursor] != ')') {
      cursor = skip_ws(code, cursor);
      std::size_t end = cursor;
      while (end < code.size() && ident_char(code[end])) ++end;
      if (!first && end > cursor) {
        declared_ops.emplace(std::string(code.substr(cursor, end - cursor)),
                             annotation_line);
      }
      first = false;
      cursor = skip_ws(code, end);
      if (cursor < code.size() && code[cursor] == ',') ++cursor;
      if (end == cursor && code[cursor] != ',' && code[cursor] != ')') break;
    }
  }

  if (annotation_line == 0) {
    emit(findings, file, sync_ops.begin()->second, "footprint-declared",
         "token-stamping register has no BSS_FOOTPRINT annotation "
         "(registers/footprint.h)");
    return;
  }
  for (const auto& [op, line] : sync_ops) {
    if (declared_ops.count(op) == 0) {
      emit(findings, file, line, "footprint-declared",
           "sync op \"" + op + "\" missing from the BSS_FOOTPRINT annotation");
    }
  }
  for (const auto& [op, line] : declared_ops) {
    if (sync_ops.count(op) == 0) {
      emit(findings, file, line, "footprint-declared",
           "BSS_FOOTPRINT declares op \"" + op +
               "\" that no ctx.sync({...}) in this file performs");
    }
  }
}

// ------------------------------------------------------------------ driver

std::vector<Finding> analyze(const SourceFile& file,
                             const std::set<std::string>& env_registry) {
  std::vector<Finding> findings;
  check_wallclock(file, findings);
  check_randomness(file, findings);
  check_ordered_emission(file, findings);
  check_pointer_order(file, findings);
  check_env_registry(file, env_registry, findings);
  check_footprint(file, findings);
  std::sort(findings.begin(), findings.end(),
            [](const Finding& a, const Finding& b) {
              return std::tie(a.path, a.line, a.rule) <
                     std::tie(b.path, b.line, b.rule);
            });
  return findings;
}

bool lintable_source(const fs::path& path) {
  const std::string ext = path.extension().string();
  return ext == ".h" || ext == ".cc" || ext == ".cpp" || ext == ".hpp";
}

bool skipped_dir(const fs::path& path) {
  const std::string name = path.filename().string();
  return name.rfind("build", 0) == 0 || name == "lint_fixtures" ||
         name == "corpus" || name == ".git";
}

std::vector<std::string> discover(const std::vector<fs::path>& roots) {
  std::vector<std::string> files;
  for (const fs::path& root : roots) {
    if (fs::is_regular_file(root)) {
      files.push_back(root.string());
      continue;
    }
    if (!fs::is_directory(root)) continue;
    fs::recursive_directory_iterator it(root), end;
    while (it != end) {
      if (it->is_directory() && skipped_dir(it->path())) {
        it.disable_recursion_pending();
      } else if (it->is_regular_file() && lintable_source(it->path())) {
        files.push_back(it->path().string());
      }
      ++it;
    }
  }
  std::sort(files.begin(), files.end());
  return files;
}

void print_findings(const std::vector<Finding>& findings) {
  for (const Finding& finding : findings) {
    std::cout << finding.path << ":" << finding.line << ": ["
              << finding.rule << "] " << finding.message << " (suppress: // "
              << "bss-lint: " << suppress_token(finding.rule)
              << "(reason))\n";
  }
}

int run_self_test(const fs::path& dir) {
  const std::vector<std::string> paths = discover({dir});
  if (paths.empty()) {
    std::cerr << "bss_lint: no fixtures under " << dir << "\n";
    return 2;
  }
  std::vector<SourceFile> files;
  files.reserve(paths.size());
  for (const std::string& path : paths) files.push_back(load_file(path));
  const std::set<std::string> env_registry = collect_env_registry(files);

  int fixtures = 0;
  int failures = 0;
  for (const SourceFile& file : files) {
    const std::string stem = fs::path(file.path).stem().string();
    const bool bad = stem.rfind("bad_", 0) == 0;
    const bool good = stem.rfind("good_", 0) == 0;
    if (!bad && !good) continue;
    ++fixtures;
    std::string slug = stem.substr(bad ? 4 : 5);
    std::replace(slug.begin(), slug.end(), '_', '-');
    const std::vector<Finding> findings = analyze(file, env_registry);
    if (good) {
      if (!findings.empty()) {
        ++failures;
        std::cout << "FAIL " << file.path << ": expected clean, got "
                  << findings.size() << " finding(s)\n";
        print_findings(findings);
      } else {
        std::cout << "ok   " << file.path << " (clean)\n";
      }
      continue;
    }
    // bad_<rule...>: the fixture name must start with a rule slug, and the
    // file must trigger that rule at least once.
    std::string expected;
    for (const RuleInfo& rule : kRules) {
      if (slug.rfind(rule.slug, 0) == 0) expected = rule.slug;
    }
    if (expected.empty()) {
      ++failures;
      std::cout << "FAIL " << file.path << ": fixture names no known rule\n";
      continue;
    }
    const bool hit = std::any_of(
        findings.begin(), findings.end(),
        [&](const Finding& finding) { return finding.rule == expected; });
    if (!hit) {
      ++failures;
      std::cout << "FAIL " << file.path << ": expected a " << expected
                << " finding, got none\n";
      print_findings(findings);
    } else {
      std::cout << "ok   " << file.path << " (" << expected << ")\n";
    }
  }
  std::cout << "self-test: " << fixtures << " fixtures, " << failures
            << " failure(s)\n";
  return failures == 0 ? 0 : 1;
}

void print_rules() {
  for (const RuleInfo& rule : kRules) {
    std::cout << rule.slug << "\n    " << rule.summary
              << "\n    suppress: // bss-lint: " << rule.suppress
              << "(reason)\n";
  }
}

}  // namespace

int main(int argc, char** argv) {
  fs::path root = ".";
  std::vector<fs::path> targets;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg == "--list-rules") {
      print_rules();
      return 0;
    }
    if (arg == "--self-test") {
      if (i + 1 >= argc) {
        std::cerr << "bss_lint: --self-test needs a fixture directory\n";
        return 2;
      }
      return run_self_test(argv[i + 1]);
    }
    if (arg == "--root") {
      if (i + 1 >= argc) {
        std::cerr << "bss_lint: --root needs a directory\n";
        return 2;
      }
      root = argv[++i];
      continue;
    }
    if (arg.rfind("--", 0) == 0) {
      std::cerr << "usage: bss_lint [--root DIR] [--self-test DIR] "
                   "[--list-rules] [PATH...]\n";
      return 2;
    }
    targets.push_back(root / fs::path(arg));
  }
  if (targets.empty()) {
    for (const char* dir : {"src", "bench", "tools", "examples"}) {
      targets.push_back(root / dir);
    }
  }

  const std::vector<std::string> paths = discover(targets);
  if (paths.empty()) {
    std::cerr << "bss_lint: nothing to scan\n";
    return 2;
  }
  std::vector<SourceFile> files;
  files.reserve(paths.size());
  for (const std::string& path : paths) files.push_back(load_file(path));
  const std::set<std::string> env_registry = collect_env_registry(files);

  std::size_t total = 0;
  for (const SourceFile& file : files) {
    const std::vector<Finding> findings = analyze(file, env_registry);
    print_findings(findings);
    total += findings.size();
  }
  if (total != 0) {
    std::cerr << "bss_lint: " << total << " finding(s) in " << paths.size()
              << " files\n";
    return 1;
  }
  std::cout << "bss_lint: " << paths.size() << " files clean\n";
  return 0;
}
