// bss_top — live viewer for `bss-status v1` heartbeat files.
//
// Reads a status artifact (written atomically via tmp+rename by explore(),
// the bench campaign drivers, or the leader_worker_pool soak) and renders
// a progress / worker / profile view; with `--follow` it re-reads on an
// interval and redraws until the producer reports state "complete".
// `--json` prints the raw document instead (after validating it), for
// scripting.
//
//   bss_top [--follow] [--interval-ms N] [--json] STATUS.json
//
// Exit status: 0 on a rendered (or, with --follow, completed) status file,
// 1 when the file is unreadable or not a valid bss-status v1 document, 2
// on usage errors.
//
// The file is read through Status::from_artifact, the same reader the CI
// gate (tools/report_check) runs: a monitor that rendered what the gate
// rejects would be a second dialect of the format, not an independent
// check.
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>
#include <thread>

#include "obs/status.h"

namespace {

using bss::obs::Status;
namespace json = bss::obs::json;

// ------------------------------------------------------------ rendering

std::string progress_bar(unsigned long long done, unsigned long long total) {
  constexpr int kWidth = 24;
  std::string bar;
  const int filled =
      total > 0 ? static_cast<int>(done * kWidth / total) : 0;
  for (int i = 0; i < kWidth; ++i) bar += i < filled ? '#' : '.';
  return bar;
}

std::string human_count(unsigned long long n) {
  char out[32];
  if (n >= 10'000'000ULL) {
    std::snprintf(out, sizeof(out), "%.1fM", static_cast<double>(n) / 1e6);
  } else if (n >= 10'000ULL) {
    std::snprintf(out, sizeof(out), "%.1fk", static_cast<double>(n) / 1e3);
  } else {
    std::snprintf(out, sizeof(out), "%llu", n);
  }
  return out;
}

/// A member of the timing section, or nullptr; the status walk has already
/// checked the types of the members rendered here.
const json::Value* member(const json::Object& object, const char* key) {
  const auto it = object.find(key);
  return it != object.end() ? &it->second : nullptr;
}

void render(const Status& status) {
  std::printf("%s", status.producer.c_str());
  if (!status.system.empty()) std::printf("  %s", status.system.c_str());
  std::printf("  [%s]  seq %llu\n", status.state.c_str(),
              static_cast<unsigned long long>(status.seq));
  if (status.max_schedules > 0) {
    std::printf("  schedules  %s / %s  [%s] %3.0f%%\n",
                human_count(status.schedules).c_str(),
                human_count(status.max_schedules).c_str(),
                progress_bar(status.schedules, status.max_schedules).c_str(),
                100.0 * static_cast<double>(status.schedules) /
                    static_cast<double>(status.max_schedules));
  } else {
    std::printf("  schedules  %s (unbounded)\n",
                human_count(status.schedules).c_str());
  }
  std::printf("  violations %llu   frontier %llu   checkpoints %llu   "
              "passes %llu   jobs %llu\n",
              static_cast<unsigned long long>(status.violations),
              static_cast<unsigned long long>(status.frontier),
              static_cast<unsigned long long>(status.checkpoints),
              static_cast<unsigned long long>(status.passes),
              static_cast<unsigned long long>(status.jobs));
  if (status.fingerprint_prunes > 0 || status.fingerprint_hit_rate_ppm > 0) {
    std::printf("  fp-prunes  %s (hit rate %.1f%%)\n",
                human_count(status.fingerprint_prunes).c_str(),
                static_cast<double>(status.fingerprint_hit_rate_ppm) /
                    10'000.0);
  }
  if (!status.timing.empty()) {
    const json::Object& timing = status.timing;
    const json::Value* rate = member(timing, "schedules_per_second");
    const json::Value* window = member(timing, "window_schedules_per_second");
    const json::Value* eta = member(timing, "eta_seconds");
    const json::Value* elapsed = member(timing, "elapsed_ms");
    const json::Value* ckpt_age = member(timing, "checkpoint_age_ms");
    std::printf("  rate      ");
    if (rate != nullptr) std::printf(" %.0f/s cumulative", rate->as_double());
    if (window != nullptr) std::printf("  %.0f/s window", window->as_double());
    if (rate == nullptr && window == nullptr) std::printf(" n/a");
    std::printf("\n");
    if (elapsed != nullptr || eta != nullptr || ckpt_age != nullptr) {
      std::printf("  clock     ");
      if (elapsed != nullptr) {
        std::printf(" elapsed %.1fs", elapsed->as_double() / 1e3);
      }
      if (eta != nullptr) std::printf("  eta %.0fs", eta->as_double());
      if (ckpt_age != nullptr) {
        std::printf("  last checkpoint %.1fs ago", ckpt_age->as_double() / 1e3);
      }
      std::printf("\n");
    }
  }
  if (!status.workers.empty()) {
    std::printf("  %-8s %-9s %9s %11s\n", "worker", "state", "steals",
                "schedules");
    for (const bss::obs::WorkerStatus& row : status.workers) {
      std::printf("  %-8d %-9s %9llu %11llu\n", row.worker, row.state.c_str(),
                  static_cast<unsigned long long>(row.steals),
                  static_cast<unsigned long long>(row.schedules));
    }
  }
  if (!status.profile.empty()) {
    std::printf("  %-18s %9s %11s\n", "phase", "calls", "ms");
    for (const auto& [phase, cell] : status.profile) {
      const json::Object& fields = cell.as_object();
      std::printf("  %-18s %9lld %11.1f\n", phase.c_str(),
                  static_cast<long long>(fields.at("calls").as_int()),
                  fields.at("ns").as_double() / 1e6);
    }
  }
}

// --------------------------------------------------------------- driver

int usage(const char* program) {
  std::fprintf(stderr,
               "usage: %s [--follow] [--interval-ms N] [--json] STATUS.json\n"
               "  --follow         re-read and redraw until state is "
               "\"complete\"\n"
               "  --interval-ms N  follow poll interval (default 500)\n"
               "  --json           print the raw document (schema-checked) "
               "instead of the tables\n",
               program);
  return 2;
}

struct Snapshot {
  std::string text;
  Status status;
};

/// Reads and validates one snapshot; diagnostics only when `verbose` (the
/// follow loop stays quiet between good reads — a campaign may create the
/// file a beat after the monitor starts).
std::optional<Snapshot> read_snapshot(const std::string& path, bool verbose) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    if (verbose) std::fprintf(stderr, "%s: cannot open\n", path.c_str());
    return std::nullopt;
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  std::string error;
  std::optional<Status> status = Status::from_artifact(buffer.str(), &error);
  if (!status.has_value()) {
    if (verbose) std::fprintf(stderr, "%s: %s\n", path.c_str(), error.c_str());
    return std::nullopt;
  }
  return Snapshot{buffer.str(), std::move(*status)};
}

}  // namespace

int main(int argc, char** argv) {
  bool follow = false;
  bool json = false;
  long interval_ms = 500;
  std::string path;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--follow") {
      follow = true;
    } else if (arg == "--json") {
      json = true;
    } else if (arg == "--interval-ms" && i + 1 < argc) {
      char* end = nullptr;
      interval_ms = std::strtol(argv[++i], &end, 10);
      if (end == argv[i] || *end != '\0' || interval_ms < 1) {
        return usage(argv[0]);
      }
    } else if (arg == "--help" || arg == "-h") {
      usage(argv[0]);
      return 0;
    } else if (!arg.empty() && arg[0] == '-') {
      return usage(argv[0]);
    } else if (path.empty()) {
      path = arg;
    } else {
      return usage(argv[0]);
    }
  }
  if (path.empty()) return usage(argv[0]);

  if (!follow) {
    const auto snapshot = read_snapshot(path, /*verbose=*/true);
    if (!snapshot.has_value()) return 1;
    if (json) {
      std::fputs(snapshot->text.c_str(), stdout);
    } else {
      render(snapshot->status);
    }
    return 0;
  }

  // Follow mode: poll until the producer says "complete".  A file that
  // does not exist yet is normal — the natural workflow launches bss_top
  // right after the campaign, a beat before its seq-0 write — so we wait
  // for it (with one notice).  A file that exists but is not a bss-status
  // document is a typo'd path or a foreign artifact: diagnose and exit 1
  // rather than spin forever looking healthy.
  bool first = true;
  bool announced_wait = false;
  std::uint64_t last_seq = ~std::uint64_t{0};
  for (;;) {
    if (first && !std::ifstream(path).good()) {
      if (!announced_wait) {
        std::fprintf(stderr, "bss_top: waiting for %s ...\n", path.c_str());
        announced_wait = true;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(interval_ms));
      continue;
    }
    const auto snapshot = read_snapshot(path, first);
    if (first && !snapshot.has_value()) return 1;
    first = false;
    if (snapshot.has_value()) {
      if (snapshot->status.seq != last_seq) {
        last_seq = snapshot->status.seq;
        if (json) {
          std::fputs(snapshot->text.c_str(), stdout);
          std::fflush(stdout);
        } else {
          std::printf("\033[2J\033[H");  // clear + home, top(1)-style
          render(snapshot->status);
          std::fflush(stdout);
        }
      }
      if (snapshot->status.state == "complete") return 0;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(interval_ms));
  }
}
