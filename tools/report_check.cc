// report_check — the CI gate for `bss-runreport v1`, `bss-checkpoint v1`
// and `bss-status v1` artifacts.
//
// Validates every file named on the command line: parses it once, then
// dispatches on the document's own schema string through ONE gate table
// to that format's reader — checkpoints through the checkpoint walk (full
// structural validation — frontier frames, pid token ranges, embedded
// counterexamples), status heartbeats through the status walk (closed
// counter set, worker/profile/timing sections), and everything else —
// including documents whose schema line is missing or unreadable —
// through the runreport walk, whose schema-line check covers the
// missing/unknown-schema cases.  Parse failure, a
// missing or unknown schema version, unknown top-level keys (schema drift
// must bump the version, not fork the format) and wrong-typed known keys
// are each reported with the file name, and any finding fails the whole
// invocation.  Prints one OK line per clean file so the CI log shows what
// was actually checked.
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "explore/checkpoint.h"
#include "obs/json.h"
#include "obs/runreport.h"
#include "obs/status.h"

namespace {

namespace json = bss::obs::json;

// Each reader runs the format's one walk over the parsed document, records
// its errors, and returns the OK-line summary (meaningful only when no
// error was recorded).

std::string read_checkpoint(json::Value document,
                            std::vector<std::string>& errors) {
  const auto checkpoint = bss::explore::Checkpoint::read(document, errors);
  char line[160];
  std::snprintf(line, sizeof(line),
                "%s for %s, seq %llu, %s, %zu frontier units",
                std::string(bss::explore::kCheckpointSchema).c_str(),
                checkpoint.system.c_str(),
                static_cast<unsigned long long>(checkpoint.seq),
                checkpoint.complete ? "complete" : "in progress",
                checkpoint.frontier.size());
  return line;
}

std::string read_status(json::Value document,
                        std::vector<std::string>& errors) {
  const auto status = bss::obs::Status::read(document, errors);
  char line[160];
  std::snprintf(line, sizeof(line),
                "%s from %s, seq %llu, %s, %llu schedules",
                std::string(bss::obs::kStatusSchema).c_str(),
                status.producer.c_str(),
                static_cast<unsigned long long>(status.seq),
                status.state.c_str(),
                static_cast<unsigned long long>(status.schedules));
  return line;
}

std::string read_runreport(json::Value document,
                           std::vector<std::string>& errors) {
  const auto report = bss::obs::RunReport::read(std::move(document), errors);
  char line[160];
  std::snprintf(line, sizeof(line), "%s from %s, %zu rows",
                report.kind().c_str(), report.producer().c_str(),
                report.rows() ? report.rows()->size() : std::size_t{0});
  return line;
}

/// One schema the gate understands: the schema string it claims and the
/// reader for it.  The runreport entry doubles as the fallback for unknown
/// or missing schema strings — its schema-line check owns those
/// diagnostics.
struct SchemaGate {
  std::string_view schema;
  std::string (*read)(json::Value, std::vector<std::string>&);
};

constexpr SchemaGate kGates[] = {
    {bss::explore::kCheckpointSchema, read_checkpoint},
    {bss::obs::kStatusSchema, read_status},
    // Fallback entry — must stay last; dispatch stops at the first match
    // and an empty schema string matches nothing above.
    {bss::obs::kRunReportSchema, read_runreport},
};

const SchemaGate& gate_for(const json::Value& document) {
  const json::Value* schema = document.find("schema");
  for (const SchemaGate& gate : kGates) {
    if (schema != nullptr && schema->is_string() &&
        gate.schema == schema->as_string()) {
      return gate;
    }
  }
  return kGates[sizeof(kGates) / sizeof(kGates[0]) - 1];
}

bool check_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    std::fprintf(stderr, "%s: cannot open\n", path.c_str());
    return false;
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  const std::string text = buffer.str();

  std::vector<std::string> errors;
  std::string ok_line;
  if (auto document = json::parse_document(text, errors)) {
    const SchemaGate& gate = gate_for(*document);
    ok_line = gate.read(std::move(*document), errors);
  }
  for (const std::string& error : errors) {
    std::fprintf(stderr, "%s: %s\n", path.c_str(), error.c_str());
  }
  if (!errors.empty()) return false;
  std::printf("%s: OK (%s)\n", path.c_str(), ok_line.c_str());
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    std::fprintf(stderr,
                 "usage: %s REPORT.json [REPORT.json ...]\n"
                 "validates bss-runreport v1, bss-checkpoint v1 and "
                 "bss-status v1 artifacts (dispatching on the schema "
                 "string); any schema error fails the run\n",
                 argv[0]);
    return 2;
  }
  bool ok = true;
  for (int i = 1; i < argc; ++i) {
    if (!check_file(argv[i])) ok = false;
  }
  return ok ? 0 : 1;
}
