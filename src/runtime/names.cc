#include "runtime/names.h"

#include <deque>
#include <mutex>
#include <ostream>
#include <unordered_map>

namespace bss::sim {

namespace {

/// The process-wide table.  A spelling is stored once and never moves (a
/// deque does not relocate its elements), so a handle stays valid for the
/// life of the process.  The table itself is never destroyed: names may be
/// used from static destructors.
struct InternTable {
  std::mutex mutex;
  std::deque<std::string> spellings;
  std::unordered_map<std::string_view, const std::string*> index;
};

InternTable& intern_table() {
  static InternTable* const table = new InternTable;
  return *table;
}

/// This thread's view of the table: spellings it has interned before.  The
/// keys point into the table's storage, which outlives every thread.
thread_local std::unordered_map<std::string_view, const std::string*>
    intern_cache;

const std::string* intern(std::string_view spelling) {
  if (const auto hit = intern_cache.find(spelling); hit != intern_cache.end()) {
    return hit->second;
  }
  InternTable& table = intern_table();
  const std::string* stored = nullptr;
  {
    const std::lock_guard<std::mutex> lock(table.mutex);
    const auto found = table.index.find(spelling);
    if (found != table.index.end()) {
      stored = found->second;
    } else {
      stored = &table.spellings.emplace_back(spelling);
      table.index.emplace(*stored, stored);
    }
  }
  intern_cache.emplace(*stored, stored);
  return stored;
}

}  // namespace

ObjectName::ObjectName(std::string_view spelling)
    : spelling_(spelling.empty() ? nullptr : intern(spelling)) {}

std::ostream& operator<<(std::ostream& out, ObjectName name) {
  return out << name.view();
}

std::ostream& operator<<(std::ostream& out, OpName name) {
  return out << name.view();
}

}  // namespace bss::sim
