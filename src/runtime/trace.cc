#include "runtime/trace.h"

#include <sstream>

namespace bss::sim {

std::vector<TraceEvent> Trace::for_object(std::string_view object) const {
  std::vector<TraceEvent> out;
  for (const auto& event : events_) {
    if (event.desc.object.view() == object) out.push_back(event);
  }
  return out;
}

std::vector<TraceEvent> Trace::for_pid(int pid) const {
  std::vector<TraceEvent> out;
  for (const auto& event : events_) {
    if (event.pid == pid) out.push_back(event);
  }
  return out;
}

std::size_t Trace::count(int pid, std::string_view op) const {
  std::size_t n = 0;
  for (const auto& event : events_) {
    if (event.pid == pid && (op.empty() || event.desc.op.view() == op)) ++n;
  }
  return n;
}

std::string Trace::to_string(std::size_t max_events) const {
  std::ostringstream out;
  std::size_t shown = 0;
  for (const auto& event : events_) {
    if (shown++ >= max_events) {
      out << "... (" << events_.size() - max_events << " more)\n";
      break;
    }
    out << "#" << event.step << " p" << event.pid << " " << event.desc.object
        << "." << event.desc.op << "(" << event.desc.arg0 << ","
        << event.desc.arg1 << ")";
    if (event.has_result) out << " -> " << event.result;
    out << "\n";
  }
  return out.str();
}

}  // namespace bss::sim
