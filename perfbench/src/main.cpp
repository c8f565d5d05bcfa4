//===- perfbench/src/main.cpp - Benchmark driver -----------------------------===//
///
/// Runs one workload in this process and prints its metrics; the last
/// line of stdout is the result object:
///
///   {"correct": bool, "attempted": N, "failed": N, "metrics": {...}}
///
/// With --trace 0 the metrics are the end-to-end ones; with --trace 1
/// the per-layer ones, from a run that records spans at the benchmark's
/// call sites and writes them as Chrome trace-event JSON.
///
/// Usage: perfbench --workload W --seed N --seconds S --trace 0|1
///                  --refs FILE [--out-dir DIR]
///        perfbench --regen-refs FILE
///
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include "support/AllocCounter.h"
#include "support/FaultInjector.h"

#include <cstdlib>
#include <fstream>
#include <sys/resource.h>
#include <thread>

TPDE_INSTALL_ALLOC_COUNTER

using namespace perfbench;

namespace {

struct MetricDef {
  const char *Name;
  const char *Unit;
};

/// Every workload reports every metric of both lists (BENCHMARK.json
/// names the same ones). A per-layer metric a workload does not exercise
/// reads 0.
constexpr MetricDef EndToEnd[] = {
    {"compile_speedup_vs_o0", "x"}, {"a64_compile_speedup_vs_o0", "x"},
    {"run_time_vs_o0", "x"},        {"text_bytes", "bytes"},
    {"a64_text_bytes", "bytes"},    {"latency_p50_vs_o0", "x"},
    {"throughput_vs_o0", "x"},      {"peak_rss_mb", "MB"},
    {"setup_s", "s"},
};
constexpr MetricDef PerLayer[] = {
    {"latency_p90_vs_o0", "x"},
    {"tpde_tir.prepare_ns", "ns"},
    {"core.analyze_ns", "ns"},
    {"core.codegen_x64_ns", "ns"},
    {"tpde_tir.compile_x64_ns", "ns"},
    {"tpde_tir.compile_a64_ns", "ns"},
    {"baseline.o0_compile_ns", "ns"},
    {"asmx.elf_write_ns", "ns"},
    {"asmx.jit_map_ns", "ns"},
    {"support.allocs_per_func", "count"},
    {"core.par.compile_ns", "ns"},
    {"core.par.reserve_ns", "ns"},
    {"core.par.place_ns", "ns"},
    {"core.par.stitch_ns", "ns"},
    {"core.par.serial_ns", "ns"},
    {"tir.values", "count"},
    {"asmx.symbols", "count"},
    {"asmx.relocs", "count"},
    {"asmx.stitch_relocs", "count"},
    {"asmx.placed_bytes", "bytes"},
    {"asmx.elf_bytes", "bytes"},
    {"service.submit_ns", "ns"},
    {"service.queue_wait_p50_ns", "ns"},
    {"uir.verify_ns", "ns"},
    {"support.fingerprint_ns", "ns"},
    {"uir.compile_ns", "ns"},
    {"service.miss_unaccounted_ns", "ns"},
    {"service.hit_p50_us", "us"},
    {"service.hit_p99_us", "us"},
    {"service.miss_p99_us", "us"},
    {"service.hits", "count"},
    {"service.misses", "count"},
    {"service.coalesced", "count"},
    {"service.evictions", "count"},
    {"service.failed", "count"},
    {"service.shed", "count"},
    {"service.retried", "count"},
    {"gen.max_late_us", "us"},
    {"gen.late_jobs", "count"},
    {"trace.overhead_pct", "%"},
    {"trace.spans", "count"},
};

std::string jsonStr(const std::string &S) {
  std::string Out = "\"";
  for (char C : S) {
    if (C == '"' || C == '\\')
      Out += '\\';
    if (static_cast<unsigned char>(C) >= 0x20)
      Out += C;
  }
  return Out + "\"";
}

std::string num(double V) {
  if (!std::isfinite(V))
    return "null";
  char Buf[64];
  std::snprintf(Buf, sizeof(Buf), "%.17g", V);
  return Buf;
}

/// The machine and build a result comes from. compare.py refuses to
/// compare results whose stamps differ.
std::vector<std::pair<std::string, std::string>> stamp() {
  std::string Cpu = "unknown";
  std::ifstream In("/proc/cpuinfo");
  for (std::string L; std::getline(In, L);)
    if (L.rfind("model name", 0) == 0) {
      Cpu = L.substr(L.find(':') + 2);
      break;
    }
#ifdef NDEBUG
  const char *NDebug = "true";
#else
  const char *NDebug = "false";
#endif
  return {
      {"nproc", std::to_string(std::thread::hardware_concurrency())},
      {"cpu", jsonStr(Cpu)},
      {"compiler", jsonStr(__VERSION__)},
      {"build_type", jsonStr(PERFBENCH_BUILD_TYPE)},
      {"ndebug", NDebug},
      {"fault_injection",
       tpde::support::faultInjectionEnabled() ? "true" : "false"},
  };
}

/// Writes the traced run's spans as Chrome trace-event JSON (loadable in
/// Perfetto or chrome://tracing) and a per-span summary table.
void writeTrace(const std::string &Base) {
  const std::vector<SpanRec> &Spans = Tracer::spans();
  u64 T0 = Spans.empty() ? 0 : Spans.front().StartNs;
  {
    std::ofstream F(Base + ".trace.json");
    F << "{\"displayTimeUnit\": \"ns\", \"traceEvents\": [\n";
    for (size_t I = 0; I < Spans.size(); ++I) {
      const SpanRec &S = Spans[I];
      F << "{\"name\": " << jsonStr(S.Name)
        << ", \"ph\": \"X\", \"pid\": 1, \"tid\": 1, \"ts\": "
        << num(static_cast<double>(S.StartNs - T0) / 1e3)
        << ", \"dur\": " << num(static_cast<double>(S.EndNs - S.StartNs) / 1e3)
        << ", \"args\": {\"id\": " << I + 1 << ", \"parent\": " << S.Parent
        << ", \"job\": " << S.Job << "}}" << (I + 1 < Spans.size() ? ",\n" : "\n");
    }
    F << "]}\n";
  }
  std::ofstream T(Base + ".layers.txt");
  char Line[256];
  std::snprintf(Line, sizeof(Line), "%-28s %10s %16s %16s %14s\n", "span",
                "count", "total_ns", "self_ns", "self_ns/call");
  T << Line;
  for (const auto &[Name, S] : Tracer::summarize()) {
    std::snprintf(Line, sizeof(Line), "%-28s %10llu %16.0f %16.0f %14.0f\n",
                  Name.c_str(), static_cast<unsigned long long>(S.Count),
                  S.TotalNs, S.SelfNs, S.SelfNs / static_cast<double>(S.Count));
    T << Line;
  }
}

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload spec_aot|large_parallel_jit|"
               "query_stream --seed N --seconds S --trace 0|1 --refs FILE "
               "[--out-dir DIR]\n       perfbench --regen-refs FILE\n");
  return 2;
}

} // namespace

int main(int argc, char **argv) {
  Options O;
  for (int I = 1; I < argc; ++I) {
    std::string A = argv[I];
    if (I + 1 >= argc)
      return usage();
    std::string V = argv[++I];
    if (A == "--regen-refs")
      return regenerateRefs(V, std::thread::hardware_concurrency());
    char *End = nullptr;
    if (A == "--workload")
      O.Workload = V;
    else if (A == "--seed")
      O.Seed = std::strtoull(V.c_str(), &End, 10);
    else if (A == "--seconds")
      O.Seconds = std::strtod(V.c_str(), &End);
    else if (A == "--trace")
      O.Trace = V == "1";
    else if (A == "--refs")
      O.RefsPath = V;
    else if (A == "--out-dir")
      O.OutDir = V;
    else
      return usage();
    if (End && *End)
      return usage();
  }
  if (O.Seconds <= 0 || O.RefsPath.empty() ||
      (O.Workload != "spec_aot" && O.Workload != "large_parallel_jit" &&
       O.Workload != "query_stream"))
    return usage();
  if (tpde::support::faultInjectionEnabled()) {
    std::fprintf(stderr, "refusing to run: the library was built with "
                         "TPDE_FAULT_INJECTION, whose hooks change timing\n");
    return 2;
  }
  Refs Rf;
  std::string Err;
  if (!Rf.load(O.RefsPath, Err)) {
    std::fprintf(stderr, "reference outputs: %s\n", Err.c_str());
    return 2;
  }

  Result R;
  if (O.Workload == "spec_aot")
    runSpecAot(O, Rf, R);
  else if (O.Workload == "large_parallel_jit")
    runLargeParallelJit(O, Rf, R);
  else
    runQueryStream(O, R);

  rusage RU;
  getrusage(RUSAGE_SELF, &RU);
  R.e2e("peak_rss_mb", static_cast<double>(RU.ru_maxrss) / 1024.0, "MB");
  const double ErrorRate = static_cast<double>(R.Failed) /
                           static_cast<double>(std::max<u64>(1, R.Attempted));

  std::vector<std::pair<std::string, Metric>> Out;
  if (O.Trace) {
    // The tail is reported, not gated: on a shared VM a few stalls move it
    // by several times between identical runs.
    R.layer("latency_p90_vs_o0", R.EndToEnd["latency_p90_vs_o0"].Value, "x");
    for (const auto &[Name, V] : R.ExactCounts)
      R.layer(Name, static_cast<double>(V), "count");
    R.layer("trace.spans", static_cast<double>(Tracer::spans().size()),
            "count");
    for (const MetricDef &D : PerLayer) {
      auto It = R.PerLayer.find(D.Name);
      Out.push_back({D.Name, {It == R.PerLayer.end() ? 0 : It->second.Value,
                              D.Unit}});
    }
  } else {
    for (const MetricDef &D : EndToEnd) {
      auto It = R.EndToEnd.find(D.Name);
      Out.push_back({D.Name, {It == R.EndToEnd.end() ? 0 : It->second.Value,
                              D.Unit}});
    }
  }

  std::printf("perfbench %s seed %llu, %.0f s, trace %d\n", O.Workload.c_str(),
              static_cast<unsigned long long>(O.Seed), O.Seconds, O.Trace);
  for (const auto &[K, V] : stamp())
    std::printf("  stamp %-16s %s\n", K.c_str(), V.c_str());
  for (const std::string &N : R.Notes)
    std::printf("  %s\n", N.c_str());
  for (const auto &[Name, M] : Out)
    std::printf("  %-30s %18.6g %s\n", Name.c_str(), M.Value, M.Unit.c_str());
  std::printf("  %-30s %18.6g (%llu failed of %llu checked)\n", "error_rate",
              ErrorRate, static_cast<unsigned long long>(R.Failed),
              static_cast<unsigned long long>(R.Attempted));
  for (const std::string &F : R.Failures)
    std::printf("  FAILED: %s\n", F.c_str());

  std::string Metrics = "{";
  for (size_t I = 0; I < Out.size(); ++I)
    Metrics += (I ? ", " : "") + jsonStr(Out[I].first) +
               ": {\"value\": " + num(Out[I].second.Value) +
               ", \"unit\": " + jsonStr(Out[I].second.Unit) + "}";
  Metrics += "}";

  if (!O.OutDir.empty()) {
    std::string Base = O.OutDir + "/" + O.Workload + "-seed" +
                       std::to_string(O.Seed) + "-trace" +
                       (O.Trace ? "1" : "0");
    if (O.Trace)
      writeTrace(Base);
    std::ofstream F(Base + ".json");
    F << "{\"workload\": " << jsonStr(O.Workload) << ", \"seed\": " << O.Seed
      << ", \"seconds\": " << num(O.Seconds) << ", \"trace\": " << O.Trace
      << ", \"stamp\": {";
    bool First = true;
    for (const auto &[K, V] : stamp()) {
      F << (First ? "" : ", ") << jsonStr(K) << ": " << V;
      First = false;
    }
    char Hash[24];
    std::snprintf(Hash, sizeof(Hash), "%016llx",
                  static_cast<unsigned long long>(R.Inputs.H));
    F << "}, \"inputs_hash\": " << jsonStr(Hash) << ", \"exact_counts\": {";
    First = true;
    for (const auto &[K, V] : R.ExactCounts) {
      F << (First ? "" : ", ") << jsonStr(K) << ": " << V;
      First = false;
    }
    F << "}, \"error_rate\": " << num(ErrorRate)
      << ", \"attempted\": " << R.Attempted << ", \"failed\": " << R.Failed
      << ", \"metrics\": " << Metrics << "}\n";
  }

  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": %s}\n",
              R.Failed ? "false" : "true",
              static_cast<unsigned long long>(R.Attempted),
              static_cast<unsigned long long>(R.Failed), Metrics.c_str());
  std::fflush(stdout);
  return R.Failed ? 1 : 0;
}
