// easechk — systematic failure-schedule exploration and invariant checking.
//
// Enumerates power-failure placements over the instants a reference run visits
// (depth 1: every single placement; depth 2: pairs seeded from each depth-1 trial's
// own post-failure trace), re-executes the application at each, and checks the safety
// invariants: golden-output equivalence, Single at-most-once, Timely freshness, DMA
// integrity, WAR commit semantics.
//
// Usage:
//   easechk [--app=NAME] [--runtime=NAME] [--depth=1|2] [--jobs=N] [--budget=N]
//           [--seed=N] [--off-us=N] [--no-regional] [--no-snapshot] [--json=PATH]
//           [--expect-clean] [--trace-failures=DIR]
//
//   --app       dma | temp | lea | fir | weather | branch | unitask | all
//               (unitask = dma+temp+lea; default: unitask)
//   --runtime   alpaca | ink | samoyed | easeio | easeio-op | all  (default: easeio)
//   --depth     failure placements per schedule (default: 2)
//   --jobs      worker threads; 0 = hardware concurrency (default: 0)
//   --budget    schedule cap per (app, runtime); excess subsampled (default: 1500)
//   --seed      device/sensor seed (default: 1)
//   --off-us    dark time after each injected failure (default: 700)
//   --no-regional   disable EaseIO regional DMA privatization (bug-hunting ablation)
//   --no-snapshot   full-replay every schedule, depth-1 and depth-2, instead of
//                   resuming it from a snapshot taken on its group's shared trunk
//                   (cross-check; slower, same results)
//   --no-prune      disable schedule-space pruning (state-hash dedup + idempotent-
//                   region partial-order reduction); cross-check — identical verdicts
//                   and non-timing JSON, more trials executed
//   --exhaust=N     coverage mode: enumerate EVERY schedule of at most N failures
//                   (N = 1 or 2) under the prunings instead of budget-subsampling,
//                   and emit a coverage certificate per exploration in the JSON.
//                   Overrides --depth, ignores --budget, and requires the snapshot
//                   engine (conflicts with --no-snapshot; exit 2)
//   --json      also write results as JSON to PATH
//   --metrics   dump the metrics registry (phase timers, trial latency histogram,
//               engine counters) to PATH at exit — easeio-metrics/1 JSON, or
//               Prometheus text if PATH ends in .prom. Attaching the registry
//               also enables the per-phase clocks; the checking results are
//               byte-identical either way (metrics are timing-class)
//   --no-timing omit the host-dependent "timing" object from the JSON, making the
//               document fully deterministic (byte-identical across machines and
//               engine modes — the form the easeiod result cache stores)
//   --expect-clean  exit nonzero if any invariant violation was found
//   --trace-failures=DIR  for every invariant violation, deterministically replay its
//               failure schedule with the observability probe attached and write a
//               Chrome trace-event / Perfetto timeline to DIR (one file per violation,
//               named <app>-<runtime>-<invariant>-<n>.json). The directory is created
//               up front; an empty or uncreatable/unwritable DIR is rejected before
//               any exploration runs (exit 2), so a long sweep never ends with the
//               evidence unwritable.
//
// Each flag may appear at most once; a duplicated flag is a usage error (exit 2) —
// silently keeping the last occurrence has bitten scripted sweeps before.

#include <cctype>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "cli_flags.h"
#include "obs/capture.h"
#include "obs/metrics.h"
#include "obs/metrics_export.h"
#include "obs/timeline.h"
#include "report/jobs.h"
#include "report/table.h"

namespace {

using namespace easeio;

bool ParseUintFlag(const char* flag, const char* s, uint64_t min, uint64_t max,
                   uint64_t* out) {
  return tools::ParseUintFlag("easechk", flag, s, min, max, out);
}

void PrintUsage(std::FILE* out) {
  std::fprintf(out,
               "usage: easechk [--app=NAME] [--runtime=NAME] [--depth=1|2] [--jobs=N]\n"
               "               [--budget=N] [--seed=N] [--off-us=N] [--no-regional]\n"
               "               [--no-snapshot] [--no-prune] [--exhaust=1|2]\n"
               "               [--json=PATH] [--no-timing] [--expect-clean]\n"
               "               [--metrics=PATH] [--trace-failures=DIR]\n");
}

// Violation invariant names become path components; keep them portable.
std::string SanitizeForFilename(const std::string& s) {
  std::string out;
  for (char c : s) {
    out += std::isalnum(static_cast<unsigned char>(c)) ? c : '-';
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  report::ExploreJob job;
  job.apps.assign(std::begin(apps::kUnitaskApps), std::end(apps::kUnitaskApps));
  job.runtimes = {apps::RuntimeKind::kEaseio};
  chk::ExploreConfig& base = job.base;
  std::string json_path;
  std::string metrics_path;
  std::string trace_dir;
  bool trace_failures = false;
  bool expect_clean = false;
  bool include_timing = true;

  tools::FlagDeduper dedupe("easechk");
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&arg](const char* prefix) -> const char* {
      return std::strncmp(arg.c_str(), prefix, std::strlen(prefix)) == 0
                 ? arg.c_str() + std::strlen(prefix)
                 : nullptr;
    };
    if (arg.rfind("--", 0) == 0 && arg != "--help" && !dedupe.Note(arg)) {
      PrintUsage(stderr);
      return 2;
    }
    if (const char* v = value("--app=")) {
      if (!report::ParseAppList(v, &job.apps)) {
        std::fprintf(stderr, "easechk: unknown app '%s'\n", v);
        return 2;
      }
    } else if (const char* v = value("--runtime=")) {
      if (!report::ParseRuntimeList(v, &job.runtimes)) {
        std::fprintf(stderr, "easechk: unknown runtime '%s'\n", v);
        return 2;
      }
    } else if (const char* v = value("--depth=")) {
      uint64_t depth = 0;
      if (!ParseUintFlag("--depth", v, 1, 2, &depth)) {
        return 2;
      }
      base.depth = static_cast<int>(depth);
    } else if (const char* v = value("--jobs=")) {
      uint64_t jobs = 0;
      if (!ParseUintFlag("--jobs", v, 0, 4096, &jobs)) {
        return 2;
      }
      base.jobs = static_cast<uint32_t>(jobs);
    } else if (const char* v = value("--budget=")) {
      uint64_t budget = 0;
      if (!ParseUintFlag("--budget", v, 1, UINT32_MAX, &budget)) {
        return 2;
      }
      base.budget = static_cast<uint32_t>(budget);
    } else if (const char* v = value("--seed=")) {
      if (!ParseUintFlag("--seed", v, 0, UINT64_MAX, &base.seed)) {
        return 2;
      }
    } else if (const char* v = value("--off-us=")) {
      if (!ParseUintFlag("--off-us", v, 0, UINT64_MAX, &base.off_us)) {
        return 2;
      }
    } else if (const char* v = value("--json=")) {
      json_path = v;
    } else if (const char* v = value("--metrics=")) {
      metrics_path = v;
      if (metrics_path.empty()) {
        std::fprintf(stderr, "easechk: --metrics= requires a path\n");
        return 2;
      }
    } else if (const char* v = value("--trace-failures=")) {
      trace_dir = v;
      trace_failures = true;
    } else if (arg == "--no-regional") {
      base.easeio_regional_privatization = false;
    } else if (const char* v = value("--exhaust=")) {
      uint64_t exhaust = 0;
      if (!ParseUintFlag("--exhaust", v, 1, 2, &exhaust)) {
        return 2;
      }
      base.exhaust = static_cast<uint32_t>(exhaust);
    } else if (arg == "--no-snapshot") {
      base.use_snapshot = false;
    } else if (arg == "--no-prune") {
      base.use_pruning = false;
    } else if (arg == "--no-timing") {
      include_timing = false;
    } else if (arg == "--expect-clean") {
      expect_clean = true;
    } else if (arg == "--help" || arg == "-h") {
      PrintUsage(stdout);
      return 0;
    } else {
      std::fprintf(stderr, "easechk: unknown option '%s' (try --help)\n", arg.c_str());
      return 2;
    }
  }

  // Exhaust mode resumes every pair suffix from a snapshot; full replay has no way to
  // honour the coverage accounting. Reject the combination whichever order the flags
  // came in.
  if (base.exhaust > 0 && !base.use_snapshot) {
    std::fprintf(stderr, "easechk: --exhaust requires the snapshot engine (drop --no-snapshot)\n");
    PrintUsage(stderr);
    return 2;
  }

  // Validate the trace destination before burning exploration time: an empty path,
  // an uncreatable directory, or an unwritable one is a usage error up front.
  if (trace_failures) {
    if (trace_dir.empty()) {
      std::fprintf(stderr, "easechk: --trace-failures requires a directory path\n");
      PrintUsage(stderr);
      return 2;
    }
    std::error_code ec;
    std::filesystem::create_directories(trace_dir, ec);
    if (ec || !std::filesystem::is_directory(trace_dir, ec)) {
      std::fprintf(stderr, "easechk: cannot create trace directory %s (%s)\n",
                   trace_dir.c_str(), ec.message().c_str());
      return 2;
    }
    const std::string probe_path = trace_dir + "/.easechk-writable";
    {
      std::ofstream probe(probe_path);
      if (!probe) {
        std::fprintf(stderr, "easechk: trace directory %s is not writable\n",
                     trace_dir.c_str());
        return 2;
      }
    }
    std::filesystem::remove(probe_path, ec);
  }

  // The registry outlives every exploration; attaching it turns on the per-phase
  // clocks inside the explorer (detached counters still accumulate, they just have
  // nowhere visible to go).
  obs::Registry metrics;
  if (!metrics_path.empty()) {
    base.metrics = &metrics;
  }

  const report::ExploreJobResult exploration = report::ExecuteExploreJob(job);
  const std::vector<chk::ExploreResult>& results = exploration.results;
  const std::vector<chk::ExploreConfig>& configs = exploration.configs;
  const size_t total_violations = exploration.total_violations;

  report::TextTable table({"App", "Runtime", "Trace pts", "Schedules", "Completed",
                           "Skipped", "Violations"});
  for (const chk::ExploreResult& r : results) {
    table.AddRow({r.app, r.runtime, std::to_string(r.candidate_instants),
                  std::to_string(r.schedules), std::to_string(r.completed),
                  std::to_string(r.schedules_skipped), std::to_string(r.violations.size())});
  }
  table.Print();

  for (const chk::ExploreResult& r : results) {
    for (const chk::Violation& v : r.violations) {
      std::string sched = "{";
      for (size_t i = 0; i < v.schedule.size(); ++i) {
        sched += (i ? ", " : "") + std::to_string(v.schedule[i]);
      }
      sched += "}";
      std::printf("VIOLATION [%s/%s] %s: %s — %s at failure schedule %s us\n", r.app.c_str(),
                  r.runtime.c_str(), chk::ToString(v.invariant), v.subject.c_str(),
                  v.detail.c_str(), sched.c_str());
    }
  }

  // Dump one Perfetto-loadable timeline per violation: replay its exact failure
  // schedule (deterministic — same scripted instants, same seed) with the obs probe
  // subscribed, then serialize the captured run.
  if (trace_failures) {
    size_t traces_written = 0;
    for (size_t r = 0; r < results.size(); ++r) {
      const chk::ExploreResult& res = results[r];
      for (size_t i = 0; i < res.violations.size(); ++i) {
        const chk::Violation& v = res.violations[i];
        chk::ReplayOutput replay = chk::ReplaySchedule(configs[r], v.schedule);
        const obs::CapturedRun run = obs::FromReplay(configs[r], std::move(replay));
        const std::string path = trace_dir + "/" + res.app + "-" + res.runtime + "-" +
                                 SanitizeForFilename(chk::ToString(v.invariant)) + "-" +
                                 std::to_string(i) + ".json";
        std::ofstream out(path, std::ios::binary);
        if (!out || !(out << obs::ChromeTraceJson(run) << "\n")) {
          std::fprintf(stderr, "easechk: cannot write trace %s\n", path.c_str());
          return 2;
        }
        ++traces_written;
      }
    }
    std::printf("easechk: wrote %zu failure trace(s) to %s\n", traces_written,
                trace_dir.c_str());
  }

  if (!json_path.empty()) {
    std::ofstream out(json_path);
    if (!out) {
      std::fprintf(stderr, "easechk: cannot write %s\n", json_path.c_str());
      return 2;
    }
    out << chk::ToJson(results, include_timing) << "\n";
  }

  if (!metrics_path.empty()) {
    std::string metrics_error;
    if (!obs::WriteMetricsFile(metrics, metrics_path, &metrics_error)) {
      std::fprintf(stderr, "easechk: %s\n", metrics_error.c_str());
      return 2;
    }
  }

  if (total_violations == 0) {
    std::printf("easechk: %zu exploration(s), no invariant violations\n", results.size());
  } else {
    std::printf("easechk: %zu exploration(s), %zu invariant violation(s)\n", results.size(),
                total_violations);
  }
  return expect_clean && total_violations > 0 ? 1 : 0;
}
