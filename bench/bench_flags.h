// Shared command-line parsing for the table-shaped bench binaries
// (bench_explore, bench_faults, …): flags are accepted in any position,
// unknown arguments get a usage message instead of being silently ignored.
// (The google-benchmark binaries keep benchmark's own flag handling; see
// bench_gbench.h.)
#pragma once

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

namespace bss::bench {

/// Renders a bench's valid campaign names ("skewed, mutant") for usage and
/// error messages, so a typo'd --campaign lists what WOULD have worked.
inline std::string campaign_list(const std::vector<std::string>& campaigns) {
  std::string out;
  for (const std::string& name : campaigns) {
    if (!out.empty()) out += ", ";
    out += name;
  }
  return out;
}

struct BenchFlags {
  int jobs = 1;  ///< explorer worker threads (ExploreOptions::jobs)
  /// When non-empty, a `bss-runreport v1` document is also written to this
  /// path (stdout keeps the table either way).
  std::string out;
  // Checkpoint/resume campaign flags (bench_explore and bench_service; other
  // benches reject them like any unknown argument).
  std::string campaign;          ///< run ONE named long campaign instead
  std::string checkpoint;        ///< ExploreOptions::checkpoint_path
  std::uint64_t checkpoint_every = 0;  ///< 0 keeps the explorer default
  std::string resume;            ///< ExploreOptions::resume_path
  std::string status;            ///< ExploreOptions::status_path
  std::uint64_t status_every = 0;  ///< milliseconds; 0 keeps the default
};

inline void print_usage(const char* program, bool accepts_jobs,
                        bool accepts_checkpoint = false,
                        const std::vector<std::string>& campaigns = {}) {
  std::fprintf(stderr, "usage: %s%s [--out PATH]%s\n", program,
               accepts_jobs ? " [--jobs N]" : "",
               accepts_checkpoint
                   ? " [--campaign NAME] [--checkpoint PATH]"
                     " [--checkpoint-every N] [--resume PATH]"
                     " [--status PATH] [--status-every MS]"
                   : "");
  if (accepts_jobs) {
    std::fprintf(stderr,
                 "  --jobs N   explorer worker threads (1..64, default 1; "
                 "results are identical for every N)\n");
  }
  std::fprintf(stderr,
               "  --out PATH write a bss-runreport v1 artifact to PATH "
               "(stdout output is unchanged)\n");
  if (accepts_checkpoint) {
    std::fprintf(stderr,
                 "  --campaign NAME      run one named campaign (%s) "
                 "instead of the default run\n"
                 "  --checkpoint PATH    write bss-checkpoint v1 artifacts "
                 "to PATH during the campaign\n"
                 "  --checkpoint-every N checkpoint cadence in schedules "
                 "(default: explorer default)\n"
                 "  --resume PATH        resume the campaign from a "
                 "bss-checkpoint v1 artifact\n"
                 "  --status PATH        write a live bss-status v1 "
                 "heartbeat to PATH during the campaign\n"
                 "  --status-every MS    heartbeat cadence in milliseconds "
                 "(default 1000)\n",
                 campaigns.empty() ? "none defined"
                                   : campaign_list(campaigns).c_str());
  }
}

/// Parses [--jobs N] [--out PATH] (and, with accepts_checkpoint, the
/// campaign/checkpoint/resume flags) anywhere on the command line.  Exits
/// with status 2 (after printing usage) on unknown arguments, missing or
/// malformed values; exits 0 on --help.  `campaigns` is the bench's set of
/// valid --campaign names: a value outside it is rejected HERE, with the
/// valid names enumerated, instead of falling through to the bench's
/// campaign dispatch (where a typo used to die without saying what would
/// have worked).
inline BenchFlags parse_flags(int argc, char** argv, bool accepts_jobs,
                              bool accepts_checkpoint = false,
                              const std::vector<std::string>& campaigns = {}) {
  BenchFlags flags;
  const auto fail = [&]() {
    print_usage(argv[0], accepts_jobs, accepts_checkpoint, campaigns);
    std::exit(2);
  };
  // Range errors name the flag, the offending value and the valid range
  // (the --campaign error style): "--jobs 0" used to die with only the
  // generic usage block, which never said what WOULD have been accepted.
  const auto parse_ranged_int = [&](const char* name, const char* value,
                                    long lo, long hi, int* into) {
    char* end = nullptr;
    const long parsed = std::strtol(value, &end, 10);
    if (end == value || *end != '\0' || parsed < lo || parsed > hi) {
      std::fprintf(stderr, "%s: invalid %s '%s' (valid: %ld..%ld)\n", argv[0],
                   name, value, lo, hi);
      fail();
    }
    *into = static_cast<int>(parsed);
  };
  const auto parse_string = [&](const char* value, std::string* into) {
    if (value[0] == '\0') fail();
    *into = value;
  };
  const auto parse_every = [&](const char* value, std::uint64_t* into) {
    char* end = nullptr;
    const long long parsed = std::strtoll(value, &end, 10);
    if (end == value || *end != '\0' || parsed < 1) fail();
    *into = static_cast<std::uint64_t>(parsed);
  };
  // Flags taking a value accept both "--flag VALUE" and "--flag=VALUE".
  const auto value_of = [&](const std::string& arg, const char* name,
                            int* i) -> const char* {
    const std::string prefix = std::string(name) + "=";
    if (arg == name) {
      if (*i + 1 >= argc) fail();
      return argv[++*i];
    }
    if (arg.rfind(prefix, 0) == 0) return arg.c_str() + prefix.size();
    return nullptr;
  };
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const char* value = nullptr;
    if (arg == "--help" || arg == "-h") {
      print_usage(argv[0], accepts_jobs, accepts_checkpoint, campaigns);
      std::exit(0);
    } else if (accepts_jobs && (value = value_of(arg, "--jobs", &i))) {
      parse_ranged_int("--jobs", value, 1, 64, &flags.jobs);
    } else if ((value = value_of(arg, "--out", &i))) {
      parse_string(value, &flags.out);
    } else if (accepts_checkpoint &&
               (value = value_of(arg, "--campaign", &i))) {
      parse_string(value, &flags.campaign);
    } else if (accepts_checkpoint &&
               (value = value_of(arg, "--checkpoint", &i))) {
      parse_string(value, &flags.checkpoint);
    } else if (accepts_checkpoint &&
               (value = value_of(arg, "--checkpoint-every", &i))) {
      parse_every(value, &flags.checkpoint_every);
    } else if (accepts_checkpoint &&
               (value = value_of(arg, "--resume", &i))) {
      parse_string(value, &flags.resume);
    } else if (accepts_checkpoint && (value = value_of(arg, "--status", &i))) {
      parse_string(value, &flags.status);
    } else if (accepts_checkpoint &&
               (value = value_of(arg, "--status-every", &i))) {
      parse_every(value, &flags.status_every);
    } else {
      std::fprintf(stderr, "%s: unknown argument '%s'\n", argv[0],
                   arg.c_str());
      fail();
    }
  }
  if ((!flags.checkpoint.empty() || !flags.resume.empty()) &&
      flags.campaign.empty()) {
    std::fprintf(stderr,
                 "%s: --checkpoint/--resume require --campaign\n", argv[0]);
    fail();
  }
  if ((!flags.status.empty() || flags.status_every != 0) &&
      flags.campaign.empty()) {
    std::fprintf(stderr,
                 "%s: --status/--status-every require --campaign\n", argv[0]);
    fail();
  }
  if (!flags.campaign.empty()) {
    bool known = false;
    for (const std::string& name : campaigns) known |= name == flags.campaign;
    if (!known) {
      std::fprintf(stderr, "%s: unknown campaign '%s' (valid: %s)\n", argv[0],
                   flags.campaign.c_str(),
                   campaigns.empty() ? "none defined"
                                     : campaign_list(campaigns).c_str());
      fail();
    }
  }
  return flags;
}

}  // namespace bss::bench
