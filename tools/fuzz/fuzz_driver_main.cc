// Standalone driver for the fuzz harnesses when libFuzzer is unavailable
// (the default: the repo toolchain is gcc, libFuzzer ships with clang).
// Each harness defines LLVMFuzzerTestOneInput; this main replays corpus
// files through it and can deterministically mutate them.
//
//   fuzz_checkpoint corpus/checkpoint            # replay every file
//   fuzz_checkpoint --mutate 400 --seed 7 FILE   # + 400 seeded mutants each
//
// Mutation is driven by a self-contained splitmix64 stream, so a given
// (corpus, --mutate, --seed) triple exercises byte-identical inputs on
// every run and every machine — the ctest fuzz smoke depends on that.
// Crashes surface as crashes: the driver adds no handlers, so an abort()
// in a harness oracle or an ASan report fails the test run loudly.
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data,
                                      std::size_t size);

namespace {

// Deliberately not bss::Rng: the driver must stay dependency-free so the
// harnesses link only the library under test.
// bss-lint: randomness-ok(seeded splitmix64, seed comes from --seed)
std::uint64_t splitmix64(std::uint64_t& state) {
  state += 0x9e3779b97f4a7c15ULL;
  std::uint64_t z = state;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

// Tokens the four artifact grammars (counterexample, checkpoint, runreport,
// status) actually react to; splicing them in reaches far deeper than byte
// noise alone.
const char* const kDictionary[] = {
    "bss-counterexample v1", "bss-counterexample v2", "bss-checkpoint v1",
    "bss-runreport v1",      "bss-status v1",         "schema",
    "processes",             "shrunk_from",           "decisions",
    "frontier",              "complete",              "progress",
    "workers",               "profile",               "fp_cache",
    "fp_partials",           "fp_dirty",              "timing",
    "schedules_per_second",  "stats",                 "1e999",
    "-1",                    "18446744073709551616",  "nan",
    "null",                  "\"\"",                  "{",
    "}",                     "[",                     "]",
    ":",                     ",",                     "\\u0000",
    "0x7f",                  " c 3 17",
};

std::string mutate(const std::string& base, std::uint64_t& state) {
  std::string out = base;
  const int edits = 1 + static_cast<int>(splitmix64(state) % 4);
  for (int e = 0; e < edits; ++e) {
    const std::uint64_t roll = splitmix64(state) % 6;
    const std::size_t at =
        out.empty() ? 0 : static_cast<std::size_t>(splitmix64(state) %
                                                   (out.size() + 1));
    switch (roll) {
      case 0:  // flip a byte
        if (!out.empty() && at < out.size()) {
          out[at] = static_cast<char>(splitmix64(state) & 0xff);
        }
        break;
      case 1:  // insert a byte
        out.insert(at, 1, static_cast<char>(splitmix64(state) & 0xff));
        break;
      case 2:  // delete a span
        if (!out.empty() && at < out.size()) {
          out.erase(at, 1 + splitmix64(state) % 8);
        }
        break;
      case 3:  // splice a dictionary token
        out.insert(at, kDictionary[splitmix64(state) %
                                   (sizeof(kDictionary) /
                                    sizeof(kDictionary[0]))]);
        break;
      case 4:  // truncate
        out.resize(at);
        break;
      default:  // duplicate a prefix chunk
        out.insert(at, out.substr(0, splitmix64(state) % (out.size() + 1)));
        break;
    }
    if (out.size() > (1u << 20)) out.resize(1u << 20);  // keep mutants bounded
  }
  return out;
}

void run_one(const std::string& input) {
  LLVMFuzzerTestOneInput(reinterpret_cast<const std::uint8_t*>(input.data()),
                         input.size());
}

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--mutate N] [--seed S] <file-or-dir>...\n"
               "Replays each corpus file through the fuzz entry point; with\n"
               "--mutate, additionally runs N deterministic mutants per file.\n",
               argv0);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  long mutants = 0;
  std::uint64_t seed = 1;
  std::vector<std::string> inputs;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--mutate" && i + 1 < argc) {
      mutants = std::strtol(argv[++i], nullptr, 10);
    } else if (arg == "--seed" && i + 1 < argc) {
      seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--help" || arg == "-h" || arg.rfind("--", 0) == 0) {
      return usage(argv[0]);
    } else {
      inputs.push_back(arg);
    }
  }
  if (inputs.empty()) return usage(argv[0]);

  // Expand directories into a sorted file list so the replay (and the
  // mutation stream consumed per file) is order-stable across platforms.
  std::vector<std::string> files;
  for (const std::string& in : inputs) {
    if (std::filesystem::is_directory(in)) {
      for (const auto& entry : std::filesystem::directory_iterator(in)) {
        if (entry.is_regular_file()) files.push_back(entry.path().string());
      }
    } else {
      files.push_back(in);
    }
  }
  std::sort(files.begin(), files.end());

  long executed = 0;
  for (const std::string& path : files) {
    std::ifstream stream(path, std::ios::binary);
    if (!stream) {
      std::fprintf(stderr, "fuzz driver: cannot read %s\n", path.c_str());
      return 2;
    }
    std::ostringstream buffer;
    buffer << stream.rdbuf();
    const std::string base = buffer.str();
    run_one(base);
    ++executed;
    std::uint64_t state = seed;
    for (long m = 0; m < mutants; ++m) {
      run_one(mutate(base, state));
      ++executed;
    }
  }
  std::fprintf(stderr, "fuzz driver: %ld input(s) over %zu file(s), ok\n",
               executed, files.size());
  return 0;
}
