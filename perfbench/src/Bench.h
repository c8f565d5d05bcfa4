//===- perfbench/src/Bench.h - Shared benchmark plumbing --------*- C++ -*-===//
///
/// \file
/// What the three workloads share: the options they receive, the result
/// they fill, a seeded input generator, quantiles, and the span recorder
/// of the traced run. Everything here lives in the benchmark, not in the
/// library, so the library can change underneath it and be compared
/// against its parent with identical measuring code.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_BENCH_H
#define PERFBENCH_BENCH_H

#include "support/Common.h"
#include "workloads/Generator.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

using tpde::i64;
using tpde::u32;
using tpde::u64;
using tpde::u8;

/// Monotonic nanoseconds. The benchmark keeps its own clock so that its
/// timing does not depend on library helpers a change might touch.
inline u64 clockNs() {
  return static_cast<u64>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// splitmix64: the benchmark's own input generator (deterministic in the
/// seed, independent of the library's RNG).
class SeedRng {
public:
  explicit SeedRng(u64 Seed) : S(Seed) {}
  u64 next() {
    u64 Z = (S += 0x9e3779b97f4a7c15ull);
    Z = (Z ^ (Z >> 30)) * 0xbf58476d1ce4e5b9ull;
    Z = (Z ^ (Z >> 27)) * 0x94d049bb133111ebull;
    return Z ^ (Z >> 31);
  }
  u64 below(u64 N) { return next() % N; }
  template <typename T> void shuffle(std::vector<T> &V) {
    for (size_t I = V.size(); I > 1; --I)
      std::swap(V[I - 1], V[below(I)]);
  }

private:
  u64 S;
};

/// Running FNV-1a over the generated inputs; printed so that a test can
/// see that a different seed produced different inputs.
struct InputHash {
  u64 H = 0xcbf29ce484222325ull;
  void add(u64 V) {
    for (int I = 0; I < 8; ++I) {
      H ^= (V >> (8 * I)) & 0xff;
      H *= 0x100000001b3ull;
    }
  }
  void add(const std::string &S) {
    for (char C : S) {
      H ^= static_cast<u8>(C);
      H *= 0x100000001b3ull;
    }
  }
};

/// Linear-interpolated quantile (same convention as numpy's default).
inline double quantile(std::vector<double> V, double Q) {
  if (V.empty())
    return 0;
  std::sort(V.begin(), V.end());
  double Pos = Q * static_cast<double>(V.size() - 1);
  size_t Lo = static_cast<size_t>(Pos);
  size_t Hi = std::min(Lo + 1, V.size() - 1);
  double F = Pos - static_cast<double>(Lo);
  return V[Lo] + (V[Hi] - V[Lo]) * F;
}
inline double median(const std::vector<double> &V) { return quantile(V, 0.5); }

inline double geomean(const std::vector<double> &V) {
  if (V.empty())
    return 0;
  double S = 0;
  for (double X : V)
    S += std::log(X);
  return std::exp(S / static_cast<double>(V.size()));
}

struct Options {
  std::string Workload;
  u64 Seed = 1;
  double Seconds = 10;
  bool Trace = false;
  std::string RefsPath;
  std::string OutDir;
};

struct Metric {
  double Value = 0;
  std::string Unit;
};

/// One workload's outcome. Attempted counts every checked operation
/// (compile, run, service job); Failed counts those that failed, were
/// refused, or produced a wrong output.
struct Result {
  std::map<std::string, Metric> EndToEnd;
  std::map<std::string, Metric> PerLayer;
  u64 Attempted = 0;
  u64 Failed = 0;
  std::vector<std::string> Failures; ///< First few failure descriptions.
  std::vector<std::string> Notes;    ///< Human-readable sample counts etc.
  InputHash Inputs;
  /// Exact work counts that must repeat bit-for-bit for one seed.
  std::map<std::string, u64> ExactCounts;

  void e2e(const std::string &Name, double V, const char *Unit) {
    EndToEnd[Name] = {V, Unit};
  }
  void layer(const std::string &Name, double V, const char *Unit) {
    PerLayer[Name] = {V, Unit};
  }
  void exact(const std::string &Name, u64 V) { ExactCounts[Name] = V; }
  /// Records one checked operation; a false \p OK counts as a failure.
  void check(bool OK, const std::string &What) {
    ++Attempted;
    if (!OK) {
      ++Failed;
      if (Failures.size() < 16)
        Failures.push_back(What);
    }
  }
  /// Records \p N checked operations of which \p Bad failed.
  void checks(u64 N, u64 Bad, const std::string &What) {
    Attempted += N;
    Failed += Bad;
    if (Bad && Failures.size() < 16)
      Failures.push_back(What);
  }
  void note(const std::string &S) { Notes.push_back(S); }
};

// --- Tracing ----------------------------------------------------------------

/// One recorded span: name, start/end, the span open when it began, and
/// the service job it belongs to (0 = none).
struct SpanRec {
  const char *Name;
  u64 StartNs;
  u64 EndNs;
  u32 Parent; ///< Index + 1 of the enclosing span; 0 = root.
  u64 Job;
};

/// In-memory span store of the traced run. Spans are opened and closed
/// only on the benchmark's main thread (the workloads call into the
/// library from there), so nesting is a plain stack.
class Tracer {
public:
  static inline bool On = false;

  static u32 open(const char *Name, u64 Job) {
    Spans.push_back({Name, clockNs(), 0, Stack.empty() ? 0 : Stack.back(), Job});
    Stack.push_back(static_cast<u32>(Spans.size()));
    return static_cast<u32>(Spans.size() - 1);
  }
  static void close(u32 Idx) {
    Spans[Idx].EndNs = clockNs();
    Stack.pop_back();
  }
  static const std::vector<SpanRec> &spans() { return Spans; }

  /// Summed duration of every span called \p Name.
  static double total(const char *Name) {
    double T = 0;
    for (const SpanRec &S : Spans)
      if (std::string_view(S.Name) == Name)
        T += static_cast<double>(S.EndNs - S.StartNs);
    return T;
  }

  struct Summary {
    u64 Count = 0;
    double TotalNs = 0;
    double SelfNs = 0;
  };
  /// Per-name count, total and self time. A span's self time is its
  /// duration minus the durations of its direct children (children of
  /// one span never overlap: they run on the same thread).
  static std::map<std::string, Summary> summarize() {
    std::vector<double> Self(Spans.size());
    for (size_t I = 0; I < Spans.size(); ++I)
      Self[I] = static_cast<double>(Spans[I].EndNs - Spans[I].StartNs);
    for (const SpanRec &S : Spans)
      if (S.Parent)
        Self[S.Parent - 1] -= static_cast<double>(S.EndNs - S.StartNs);
    std::map<std::string, Summary> Out;
    for (size_t I = 0; I < Spans.size(); ++I) {
      Summary &Sm = Out[Spans[I].Name];
      ++Sm.Count;
      Sm.TotalNs += static_cast<double>(Spans[I].EndNs - Spans[I].StartNs);
      Sm.SelfNs += Self[I];
    }
    return Out;
  }

private:
  static inline std::vector<SpanRec> Spans;
  static inline std::vector<u32> Stack;
};

/// RAII span; free (one branch) when the run is not traced.
class Span {
public:
  explicit Span(const char *Name, u64 Job = 0) {
    if (Tracer::On)
      Idx = Tracer::open(Name, Job);
  }
  ~Span() {
    if (Idx != NoSpan)
      Tracer::close(Idx);
  }
  Span(const Span &) = delete;
  Span &operator=(const Span &) = delete;

private:
  static constexpr u32 NoSpan = ~0u;
  u32 Idx = NoSpan;
};

/// Runs \p Fn, returns its wall time in ns, and records it as a span
/// called \p Name when the run is traced.
template <typename Fn> u64 timed(const char *Name, Fn &&F, u64 Job = 0) {
  Span S(Name, Job);
  u64 T0 = clockNs();
  F();
  return clockNs() - T0;
}

// --- Workloads ----------------------------------------------------------------

/// A module whose main_entry the benchmark executes: its reference key
/// ("O1/602.gcc", "O0/605.mcf", "large") and generator profile.
struct RefModule {
  std::string Key;
  tpde::workloads::Profile P;
  /// False for the two -O0 modules whose generated code runs for seconds
  /// to minutes (602.gcc, 631.deepsjeng): they are compiled, never run.
  bool Runs = true;
};
/// The nine SPEC-like programs in one IR flavour.
std::vector<RefModule> specModules(bool O0Flavor);
/// The 10,001-function module of the large_parallel_jit workload.
RefModule largeModule();

/// Committed main_entry results computed by the reference interpreter
/// (perfbench/refs.txt): key "<module>#<arg index>" -> result.
struct Refs {
  std::map<std::string, u64> Results;
  /// Argument pairs, indexed by the arg index of a key.
  std::vector<std::pair<u64, u64>> Args;
  bool load(const std::string &Path, std::string &Err);
  const u64 *find(const std::string &Module, u32 ArgIdx) const {
    auto It = Results.find(Module + "#" + std::to_string(ArgIdx));
    return It == Results.end() ? nullptr : &It->second;
  }
};

/// Number of committed argument pairs; the seed picks one.
inline constexpr u32 NumArgPairs = 16;
/// The deterministic argument pair \p K of the reference table.
inline std::pair<u64, u64> argPair(u32 K) {
  SeedRng R(0x5eedull * 1000003 + K);
  return {R.next(), R.next()};
}

/// Recomputes every reference with the interpreter and writes \p Path.
int regenerateRefs(const std::string &Path, unsigned Threads);

/// Layer replay beside a measured compile (as bench/fig6 does): the TIR
/// prepare pass (TirAdapter::switchFunc) over every function, then
/// core::Analyzer::analyze alone. Adds the two times to the outputs.
void replayPrepareAnalyze(tpde::tir::Module &M, double &PrepareNs,
                          double &AnalyzeNs);

/// Runs the small a64 module on the simulator and compares main_entry
/// with the interpreter (one check in \p R).
void checkA64OnSim(Result &R);

void runSpecAot(const Options &O, const Refs &Rf, Result &R);
void runLargeParallelJit(const Options &O, const Refs &Rf, Result &R);
void runQueryStream(const Options &O, Result &R);

} // namespace perfbench

#endif // PERFBENCH_BENCH_H
