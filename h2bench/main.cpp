// h2bench — the h2reuse benchmark driver.
//
//   h2bench --workload study|audit --seed N --seconds S --trace 0|1
//           [--expect-digest HEX] [--scratch DIR]
//
// Builds the workload's inputs from the seed, measures for S seconds, and
// checks the outputs: every batch of a run must produce the same output
// digest, equal to --expect-digest when given, and a traced run's driver
// must produce the untraced digest. Prints a machine record, one line per
// metric with its unit, and as its last line the result JSON
// ({"correct", "attempted", "failed", "metrics"}). With --trace 0 the
// metrics are the end-to-end ones; with --trace 1 the per-layer ones.
// Exits 0 when the outputs are correct, 1 when they are not, 2 on bad
// arguments (printing no result).
//
// run.py builds this program and supplies --expect-digest and --scratch.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>
#include <thread>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

#include "common.hpp"

#ifndef H2BENCH_BUILD_TYPE
#define H2BENCH_BUILD_TYPE "unknown"
#endif

namespace {

using namespace h2bench;

struct Workload {
  const char* name;
  /// Worker threads the workload keeps busy at once.
  unsigned threads;
  Outcome (*run)(const RunArgs&);
};

constexpr Workload kWorkloads[] = {
    {"study", kStudyCampaigns * kStudyThreadsPerCampaign,
     run_study_workload},
    {"audit", 1, run_audit},
};

int usage(const char* problem) {
  std::fprintf(stderr,
               "h2bench: %s\n"
               "usage: h2bench --workload study|audit --seed N "
               "--seconds S --trace 0|1\n"
               "               [--expect-digest HEX] [--scratch DIR]\n",
               problem);
  return 2;
}

/// Whole decimal number with no sign, spaces or trailing text.
bool parse_u64(const char* text, std::uint64_t& value) {
  if (text == nullptr || *text == '\0' || std::strlen(text) > 19) return false;
  value = 0;
  for (const char* p = text; *p != '\0'; ++p) {
    if (*p < '0' || *p > '9') return false;
    value = value * 10 + static_cast<std::uint64_t>(*p - '0');
  }
  return true;
}

std::string cpu_model() {
#if defined(__x86_64__) || defined(__i386__)
  unsigned int regs[12] = {};
  if (__get_cpuid_max(0x80000000u, nullptr) >= 0x80000004u) {
    for (unsigned int leaf = 0; leaf < 3; ++leaf) {
      __get_cpuid(0x80000002u + leaf, &regs[leaf * 4], &regs[leaf * 4 + 1],
                  &regs[leaf * 4 + 2], &regs[leaf * 4 + 3]);
    }
    char brand[49] = {};
    std::memcpy(brand, regs, 48);
    std::string model = brand;
    const auto first = model.find_first_not_of(' ');
    const auto last = model.find_last_not_of(' ');
    if (first != std::string::npos) {
      return model.substr(first, last - first + 1);
    }
  }
#endif
  return "unknown";
}

std::string compiler() {
#if defined(__clang__)
  return std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  return std::string("gcc ") + __VERSION__;
#else
  return "unknown";
#endif
}

std::string json_string(const std::string& text) {
  std::string out = "\"";
  for (const char c : text) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out + "\"";
}

std::string number(double value) {
  char text[40];
  std::snprintf(text, sizeof text, "%.17g", value);
  return text;
}

}  // namespace

int main(int argc, char** argv) {
  RunArgs args;
  bool have_seed = false;
  bool have_seconds = false;
  bool have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return usage(("missing value for " + flag).c_str());
    const char* value = argv[++i];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      if (!parse_u64(value, args.seed)) return usage("bad --seed");
      have_seed = true;
    } else if (flag == "--seconds") {
      std::uint64_t seconds = 0;
      if (!parse_u64(value, seconds) || seconds == 0 || seconds > 3600) {
        return usage("bad --seconds (a whole number from 1 to 3600)");
      }
      args.seconds = static_cast<double>(seconds);
      have_seconds = true;
    } else if (flag == "--trace") {
      if (std::strcmp(value, "0") != 0 && std::strcmp(value, "1") != 0) {
        return usage("bad --trace (0 or 1)");
      }
      args.trace = value[0] == '1';
      have_trace = true;
    } else if (flag == "--expect-digest") {
      args.expect_digest = value;
    } else if (flag == "--scratch") {
      args.scratch = value;
    } else {
      return usage(("unknown argument " + flag).c_str());
    }
  }
  const Workload* workload = nullptr;
  for (const Workload& w : kWorkloads) {
    if (args.workload == w.name) workload = &w;
  }
  if (workload == nullptr) return usage("unknown or missing --workload");
  if (!have_seed || !have_seconds || !have_trace) {
    return usage("--seed, --seconds and --trace are required");
  }

  // A workload configured with more workers than the machine has cores
  // measures the scheduler, not the program: refuse it.
  const unsigned nproc = std::thread::hardware_concurrency();
  if (nproc != 0 && workload->threads > nproc) {
    std::fprintf(stderr,
                 "h2bench: workload %s needs %u worker threads but this "
                 "machine has %u; refusing to run\n",
                 workload->name, workload->threads, nproc);
    return 2;
  }

  Outcome out;
  try {
    out = workload->run(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "h2bench: %s failed: %s\n", workload->name, e.what());
    return 1;
  }

  if (out.threads != workload->threads) {
    out.errors.push_back("ran " + std::to_string(out.threads) +
                         " worker threads at once, configured for " +
                         std::to_string(workload->threads));
  }

  // ------------------------------------------------------- output check
  std::uint64_t mismatched_batches = 0;
  const std::string& reference =
      !args.expect_digest.empty()
          ? args.expect_digest
          : (out.digests.empty() ? std::string() : out.digests.front());
  for (const std::string& d : out.digests) {
    if (d != reference) ++mismatched_batches;
  }
  for (const std::string& d : out.traced_digests) {
    if (d != reference) ++mismatched_batches;
  }
  if (out.digests.empty()) out.errors.push_back("no batch completed");
  if (mismatched_batches > 0) {
    const std::size_t batches =
        out.digests.size() + out.traced_digests.size();
    out.failed += out.attempted / batches * mismatched_batches;
    out.errors.push_back(
        std::to_string(mismatched_batches) + " of " +
        std::to_string(batches) + " batches produced digest " +
        (out.digests.empty() ? std::string("-") : out.digests.front()) +
        ", expected " + reference);
  }
  out.failed = std::min(out.failed, out.attempted);

  const auto& expected =
      args.trace ? per_layer_metrics() : end_to_end_metrics();
  for (const auto& [name, unit] : expected) {
    auto it = out.metrics.find(name);
    if (it == out.metrics.end()) {
      // A layer that does no work on this workload reads 0.
      if (!args.trace) {
        out.errors.push_back("metric " + name + " was not measured");
      }
      out.metrics[name] = {0.0, ""};
    } else if (!std::isfinite(it->second.value)) {
      out.errors.push_back("metric " + name + " is not finite");
      it->second.value = 0.0;
    }
  }
  const bool correct = out.errors.empty() && out.failed == 0;

  std::printf("h2bench machine {\"nproc\": %u, \"cpu\": %s, \"compiler\": %s, "
              "\"build_type\": %s, \"threads\": %u}\n",
              nproc, json_string(cpu_model()).c_str(),
              json_string(compiler()).c_str(),
              json_string(H2BENCH_BUILD_TYPE).c_str(), out.threads);
  std::printf("h2bench workload %s seed %llu trace %d digest %s (%s)\n",
              workload->name, static_cast<unsigned long long>(args.seed),
              args.trace ? 1 : 0,
              out.digests.empty() ? "-" : out.digests.front().c_str(),
              args.expect_digest.empty() ? "not pinned for this seed"
                                         : "pinned");
  for (const std::string& error : out.errors) {
    std::printf("h2bench error: %s\n", error.c_str());
  }
  std::string metrics;
  for (const auto& [name, unit] : expected) {
    Metric& m = out.metrics[name];
    if (m.value == 0.0) m.note = "no work on this workload";
    std::printf("  %-28s %14.6g %-8s %s\n", name.c_str(), m.value,
                unit.c_str(), m.note.c_str());
    if (!metrics.empty()) metrics += ", ";
    metrics += json_string(name) + ": {\"value\": " + number(m.value) +
               ", \"unit\": " + json_string(unit) + "}";
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {%s}}\n",
              correct ? "true" : "false",
              static_cast<unsigned long long>(out.attempted),
              static_cast<unsigned long long>(out.failed), metrics.c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}
