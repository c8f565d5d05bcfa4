//===- perfbench/src/QueryStream.cpp - The query_stream workload ------------===//
///
/// A database compiling one query per request (the paper's §7 setting)
/// through the compile service: generated single-query UIR modules
/// (workloads::genQueryPlans, FP predicates included) go to a
/// uir::UirCompileService with 2 workers, in three phases:
///
///  * light: an open loop at 10,000 jobs/s (about 15% of saturation on a
///    4-core machine). Half the jobs repeat one of the last 256 distinct
///    queries, so they should hit the code cache; latency runs from each
///    job's due time, so a stalled generator counts against the service.
///  * burst: chunks of all-distinct jobs submitted back-to-back.
///  * replay: a sample of the run's queries compiled solo with TPDE-UIR,
///    and translated to TIR and compiled with Baseline-O0 and TPDE a64
///    (the paper's Fig. 10 framing), for the compile/run ratios and sizes.
///
/// Every callable the service returns is checked against uir::evalPlan on
/// a fixed table. The service layers (admission, fingerprint, cache
/// claim, batching, wake-up), UIR codegen and one JITMapper::map per
/// compiled job are what this workload exercises.
///
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include "asmx/JITMapper.h"
#include "baseline/Baseline.h"
#include "support/AllocCounter.h"
#include "tpde_tir/TirCompilerA64.h"
#include "uir/Service.h"
#include "uir/TpdeUir.h"

#include <condition_variable>
#include <deque>
#include <memory>
#include <mutex>
#include <thread>

namespace perfbench {

using namespace tpde;

namespace {

/// jobs/s: about 15% of the ~16k distinct jobs/s the 2-worker service
/// sustains once its cache is full (4 vCPUs); the light phase is meant to
/// be lightly loaded.
constexpr double LightRate = 2'500;
constexpr size_t RecentWindow = 256; ///< Repeats draw from these queries.
constexpr u32 BurstChunk = 256;
/// The light phase hands one query to the reference worker every RefEvery
/// jobs; the burst phase takes RefPerChunk solo samples between chunks.
constexpr size_t RefEvery = 8;
constexpr u32 RefPerChunk = 8;
constexpr u32 ReplaySample = 512;
constexpr u32 NumCols = 8;
/// Code cache budget of both services (an operator setting): ~800
/// single-query entries, 3x the light phase's working set. The 64 MB
/// default cannot keep up with a full cache (perfbench/README.md).
constexpr u64 CacheBudget = u64{4} << 20;
/// A job that starts more than this after its due time counts as late.
constexpr u64 LateNs = 50'000;

using QueryFn = i64 (*)(const i64 *const *, i64);

struct Plan {
  uir::QueryPlan P;
  i64 Expected = 0; ///< evalPlan over the check table.
};

/// Seeded query plans, generated in chunks and named uniquely per run.
class PlanSource {
public:
  PlanSource(u64 Seed, const uir::Table &Check) : Seed(Seed), Check(Check) {}
  /// Appends \p N fresh plans to \p Out.
  void take(u32 N, std::vector<Plan> &Out) {
    workloads::QueryProfile QP;
    QP.Seed = Seed * 1000003 + Chunk++;
    QP.NumQueries = N;
    QP.NumCols = NumCols;
    for (uir::QueryPlan &P : workloads::genQueryPlans(QP)) {
      P.Name = "q" + std::to_string(Next++);
      i64 E = uir::evalPlan(P, Check);
      Out.push_back({std::move(P), E});
    }
  }

private:
  u64 Seed;
  const uir::Table &Check;
  u64 Chunk = 0, Next = 0;
};

uir::UModule build(const uir::QueryPlan &P) {
  uir::UModule M;
  uir::compilePlan(M, P);
  return M;
}

/// The Baseline-O0 path of a query: translate to TIR, compile, map.
bool o0CompileMap(const uir::UModule &U, asmx::Assembler &Asm,
                  asmx::JITMapper &JIT) {
  tir::Module T;
  return uir::translateToTir(U, T) &&
         baseline::compileModule(T, Asm, baseline::OptLevel::O0) &&
         JIT.map(Asm);
}

/// One submitted job as the checker sees it.
struct Pending {
  service::ResultPtr Res;
  const Plan *P;
  u64 DueNs;
  bool Traced;
};

/// Checks completed jobs in submission order on its own thread and drops
/// each handle right away, so the service's cache budget — not the
/// benchmark — bounds the mapped code alive at once.
class Checker {
public:
  explicit Checker(const uir::Table &Check)
      : Check(Check), Thread([this] { loop(); }) {}
  ~Checker() { finish(); }
  Checker(const Checker &) = delete;
  Checker &operator=(const Checker &) = delete;

  void push(Pending P) {
    {
      std::lock_guard<std::mutex> L(Mtx);
      Queue.push_back(std::move(P));
    }
    CV.notify_one();
  }
  void finish() {
    {
      std::lock_guard<std::mutex> L(Mtx);
      Done = true;
    }
    CV.notify_one();
    if (Thread.joinable())
      Thread.join();
  }

  // Valid after finish().
  std::vector<double> HitUs, MissUs, MissUsTraced, MissUsUntraced;
  std::vector<u64> MissDueNs; ///< Due time of each MissUs sample.
  u64 Checked = 0, Wrong = 0;
  std::string FirstError;

private:
  void loop() {
    for (;;) {
      Pending P;
      {
        std::unique_lock<std::mutex> L(Mtx);
        CV.wait(L, [&] { return Done || !Queue.empty(); });
        if (Queue.empty())
          return;
        P = std::move(Queue.front());
        Queue.pop_front();
      }
      P.Res->wait();
      ++Checked;
      auto *F = P.Res->ok() ? reinterpret_cast<QueryFn>(
                                  P.Res->address(P.P->P.Name))
                            : nullptr;
      if (!F || F(Check.ColPtrs.data(), static_cast<i64>(Check.Rows)) !=
                    P.P->Expected) {
        if (FirstError.empty())
          FirstError = P.P->P.Name + (P.Res->ok() ? ": wrong result"
                                                  : ": " +
                                                        P.Res->status().Message);
        ++Wrong;
        continue;
      }
      // The service stamps completion; latency runs from the due time.
      u64 DoneNs = P.Res->SubmitNs + P.Res->latencyNs();
      double Us = static_cast<double>(DoneNs - std::min(DoneNs, P.DueNs)) / 1e3;
      if (P.Res->hit()) {
        HitUs.push_back(Us);
      } else {
        MissUs.push_back(Us);
        MissDueNs.push_back(P.DueNs);
        (P.Traced ? MissUsTraced : MissUsUntraced).push_back(Us);
      }
    }
  }

  const uir::Table &Check;
  std::mutex Mtx;
  std::condition_variable CV;
  std::deque<Pending> Queue;
  bool Done = false;
  std::thread Thread; // last: started after the members it uses
};

/// Solo Baseline-O0 cost of one query (translate + compile + map) on the
/// calling thread: the unit of the burst throughput, sampled between
/// chunks so it sees the same machine as the service does.
double o0Solo(const Plan &P, Result &R) {
  Span S("o0_reference");
  uir::UModule U = build(P.P);
  asmx::Assembler Asm;
  asmx::JITMapper JIT;
  u64 T0 = clockNs();
  bool OK = o0CompileMap(U, Asm, JIT);
  double Ns = static_cast<double>(clockNs() - T0);
  R.check(OK, P.P.Name + " Baseline-O0 reference compile");
  return Ns;
}

/// The light phase's reference: an idle thread that is handed one query,
/// wakes up, compiles it with Baseline-O0 and maps it, like a service
/// worker serving a miss without the service. Its latency (hand-off to
/// mapped code) is the unit of the light-phase latency metrics, so
/// thread wake-up and page-table costs of the machine cancel out.
class RefWorker {
public:
  RefWorker() : Thread([this] { loop(); }) {}
  ~RefWorker() { stop(); }
  RefWorker(const RefWorker &) = delete;
  RefWorker &operator=(const RefWorker &) = delete;

  /// Hands \p P to the worker unless it is still busy with the last one.
  void post(const Plan *P) {
    {
      std::lock_guard<std::mutex> L(Mtx);
      if (Job || Stop)
        return;
      Job = P;
      PostNs = clockNs();
    }
    CV.notify_one();
  }
  void stop() {
    {
      std::lock_guard<std::mutex> L(Mtx);
      Stop = true;
    }
    CV.notify_one();
    if (Thread.joinable())
      Thread.join();
  }

  // Valid after stop().
  std::vector<double> Ns;
  u64 Failed = 0;

private:
  void loop() {
    std::unique_lock<std::mutex> L(Mtx);
    for (;;) {
      CV.wait(L, [&] { return Stop || Job; });
      if (!Job)
        return;
      const Plan *P = Job;
      u64 T0 = PostNs;
      L.unlock();
      asmx::Assembler Asm;
      asmx::JITMapper JIT;
      bool OK = o0CompileMap(build(P->P), Asm, JIT);
      u64 T1 = clockNs();
      L.lock();
      Ns.push_back(static_cast<double>(T1 - T0));
      Failed += !OK;
      Job = nullptr;
    }
  }

  std::mutex Mtx;
  std::condition_variable CV;
  const Plan *Job = nullptr;
  u64 PostNs = 0;
  bool Stop = false;
  std::thread Thread; // last: started after the members it uses
};

/// Median over one-second windows (by due time) of each window's \p Q
/// quantile. A stall of the machine spoils the windows it falls in, not
/// the whole run's tail.
double windowedQuantile(const std::vector<double> &Us,
                        const std::vector<u64> &DueNs, double Q) {
  if (Us.empty())
    return 0;
  const u64 First = *std::min_element(DueNs.begin(), DueNs.end());
  std::map<u64, std::vector<double>> Windows;
  for (size_t I = 0; I < Us.size(); ++I)
    Windows[(DueNs[I] - First) / 1'000'000'000].push_back(Us[I]);
  std::vector<double> PerWindow;
  for (const auto &[W, V] : Windows)
    PerWindow.push_back(quantile(V, Q));
  return median(PerWindow);
}

void waitUntil(u64 DueNs) {
  while (clockNs() < DueNs)
    std::this_thread::yield();
}

} // namespace

void runQueryStream(const Options &O, Result &R) {
  const uir::Table Check(NumCols, 256, /*Seed=*/11);
  const uir::Table RunT(NumCols, 65536, /*Seed=*/12);
  const double LightS = O.Seconds * 0.45, BurstS = O.Seconds * 0.25,
               ReplayS = O.Seconds * 0.30;
  const size_t LightJobs = static_cast<size_t>(LightRate * LightS);

  service::ServiceOptions SO;
  SO.NumWorkers = 2;
  SO.CacheBudgetBytes = CacheBudget;

  // Set-up: the light phase's plans (and their expected results), the
  // replay sample's expected results over the run table, and two warmed
  // services. Repeated three times; setup_s is the median.
  std::vector<Plan> Light;
  std::vector<i64> RunExpected;
  std::unique_ptr<PlanSource> Src;
  std::unique_ptr<uir::UirCompileService> LightSvc, BurstSvc;
  std::vector<double> SetupS;
  for (int Rep = 0; Rep < 3; ++Rep) {
    u64 T0 = clockNs();
    LightSvc.reset();
    BurstSvc.reset();
    Light.clear();
    RunExpected.clear();
    Src = std::make_unique<PlanSource>(O.Seed, Check);
    Src->take(static_cast<u32>(LightJobs / 2 + ReplaySample), Light);
    for (u32 I = 0; I < ReplaySample; ++I)
      RunExpected.push_back(uir::evalPlan(Light[I].P, RunT));
    checkA64OnSim(R);
    LightSvc = std::make_unique<uir::UirCompileService>(SO);
    BurstSvc = std::make_unique<uir::UirCompileService>(SO);
    // Fill both caches to their budget, so every measured miss runs in
    // the steady state of a long-running service: it evicts.
    for (auto *Svc : {LightSvc.get(), BurstSvc.get()}) {
      PlanSource WS(~O.Seed, Check);
      while (Svc->stats().Evictions == 0) {
        std::vector<Plan> Warm;
        WS.take(256, Warm);
        std::vector<service::ResultPtr> Res;
        for (Plan &P : Warm) {
          P.P.Name = "warm_" + P.P.Name;
          Res.push_back(Svc->submit(build(P.P)));
        }
        for (size_t I = 0; I < Res.size(); ++I) {
          Res[I]->wait();
          R.check(Res[I]->ok(), "warm-up job " + Warm[I].P.Name);
        }
      }
    }
    SetupS.push_back(static_cast<double>(clockNs() - T0) / 1e9);
  }
  for (const Plan &P : Light) {
    R.Inputs.add(static_cast<u64>(P.Expected));
    for (const uir::Pred &Pr : P.P.Preds)
      R.Inputs.add(static_cast<u64>(Pr.K) * 64 + Pr.Col);
  }

  // --- light: open loop ----------------------------------------------------
  SeedRng Rng(O.Seed * 0x9e3779b97f4a7c15ull + 3);
  u64 MaxLateNs = 0, LateJobs = 0;
  std::vector<double> SubmitNs;
  // Counts are light-phase deltas (the set-up fill is excluded).
  service::ServiceStatsSnapshot L0 = LightSvc->stats(), LS;
  Checker LightCheck(Check);
  std::vector<double> LightRef, BurstRef;
  RefWorker Ref;
  {
    const u64 PeriodNs = static_cast<u64>(1e9 / LightRate);
    size_t NextDistinct = ReplaySample; // the sample is kept for replay
    std::vector<size_t> Recent;
    u64 Due = clockNs() + 1'000'000;
    for (size_t J = 0; J < LightJobs; ++J, Due += PeriodNs) {
      bool Repeat = !Recent.empty() && (Rng.next() & 1);
      size_t Idx;
      if (Repeat || NextDistinct == Light.size()) {
        Idx = Recent[Rng.below(Recent.size())];
      } else {
        Idx = NextDistinct++;
        if (Recent.size() < RecentWindow)
          Recent.push_back(Idx);
        else
          Recent[J % RecentWindow] = Idx;
      }
      uir::UModule Mod = build(Light[Idx].P);
      waitUntil(Due);
      const bool Traced = O.Trace && J % 2 == 0;
      Tracer::On = Traced;
      u64 S0 = clockNs();
      MaxLateNs = std::max(MaxLateNs, S0 - Due);
      LateJobs += S0 - Due > LateNs;
      service::ResultPtr Res;
      u64 Ns = timed("service.submit",
                     [&] { Res = LightSvc->submit(std::move(Mod)); }, J + 1);
      if (Traced)
        SubmitNs.push_back(static_cast<double>(Ns));
      LightCheck.push({std::move(Res), &Light[Idx], Due, Traced});
      if (J % RefEvery == 0)
        Ref.post(&Light[(J / RefEvery) % ReplaySample]);
    }
    Ref.stop();
    LightRef = Ref.Ns;
    R.checks(Ref.Ns.size(), Ref.Failed, "Baseline-O0 reference compile");
    Tracer::On = false;
    LightCheck.finish();
    LS = LightSvc->stats();
    LightSvc.reset();
  }
  R.checks(LightCheck.Checked, LightCheck.Wrong,
           "light-phase job " + LightCheck.FirstError);

  // --- burst: back-to-back all-distinct chunks -------------------------------
  std::vector<double> BurstJobsS;
  {
    const u64 End = clockNs() + static_cast<u64>(BurstS * 1e9);
    do {
      std::vector<Plan> Chunk;
      Src->take(BurstChunk, Chunk);
      std::vector<uir::UModule> Mods;
      Mods.reserve(Chunk.size());
      for (const Plan &P : Chunk)
        Mods.push_back(build(P.P));
      std::vector<service::ResultPtr> Res;
      Res.reserve(Mods.size());
      u64 T0 = clockNs();
      {
        Span S("burst.chunk");
        for (uir::UModule &M : Mods)
          Res.push_back(BurstSvc->submit(std::move(M)));
      }
      u64 Last = T0;
      for (size_t I = 0; I < Res.size(); ++I) {
        Res[I]->wait();
        Last = std::max(Last, Res[I]->SubmitNs + Res[I]->latencyNs());
        auto *F = Res[I]->ok() ? reinterpret_cast<QueryFn>(
                                     Res[I]->address(Chunk[I].P.Name))
                               : nullptr;
        R.check(F && F(Check.ColPtrs.data(), static_cast<i64>(Check.Rows)) ==
                         Chunk[I].Expected,
                "burst job " + Chunk[I].P.Name);
        Res[I].reset();
      }
      BurstJobsS.push_back(static_cast<double>(Chunk.size()) * 1e9 /
                           static_cast<double>(Last - T0));
      for (u32 I = 0; I < RefPerChunk; ++I)
        BurstRef.push_back(
            o0Solo(Light[(BurstRef.size() + I) % ReplaySample], R));
    } while (clockNs() < End);
    BurstSvc.reset();
  }

  // --- replay: solo compiles of the sample ----------------------------------
  std::vector<std::vector<double>> Speed(ReplaySample),
      SpeedA64(ReplaySample), RunR(ReplaySample);
  std::vector<double> VerifyNs, FpNs, CompileNs, MapNs;
  u64 TextX64 = 0, TextA64 = 0, Values = 0, Symbols = 0, Relocs = 0;
  u64 Allocs = 0, AllocFuncs = 0;
  u32 Rounds = 0;
  {
    std::vector<u32> Order(ReplaySample);
    for (u32 I = 0; I < ReplaySample; ++I)
      Order[I] = I;
    const u64 End = clockNs() + static_cast<u64>(ReplayS * 1e9);
    while (Rounds < 2 || clockNs() < End) {
      Tracer::On = O.Trace;
      Rng.shuffle(Order);
      // Compile every sampled query first and run them afterwards, so the
      // scans of the 4 MB run table do not cool the caches a compile
      // starts from.
      struct Code {
        asmx::Assembler TAsm, BAsm;
        asmx::JITMapper TJIT, BJIT;
      };
      std::vector<std::unique_ptr<Code>> Live(ReplaySample);
      for (u32 I : Order) {
        const Plan &P = Light[I];
        uir::UModule U = build(P.P);
        std::string Err;
        bool VOK = false;
        VerifyNs.push_back(static_cast<double>(
            timed("uir.verify", [&] { VOK = uir::verifyModule(U, Err); })));
        support::Fp128 Fp;
        FpNs.push_back(static_cast<double>(timed(
            "support.fingerprint",
            [&] { Fp = uir::UirServiceTraits::fingerprint(U); })));
        R.check(VOK, P.P.Name + " verify");

        // TPDE-UIR: IR -> mapped.
        auto C = std::make_unique<Code>();
        asmx::Assembler &TAsm = C->TAsm, &BAsm = C->BAsm;
        asmx::JITMapper &TJIT = C->TJIT, &BJIT = C->BJIT;
        bool OK = false;
        support::AllocWatch W;
        u64 CNs = timed("uir.compile", [&] { OK = uir::compileTpdeUir(U, TAsm); });
        Allocs += W.newCalls();
        ++AllocFuncs;
        u64 MNs = timed("asmx.jit_map", [&] { OK = OK && TJIT.map(TAsm); });
        CompileNs.push_back(static_cast<double>(CNs));
        MapNs.push_back(static_cast<double>(MNs));
        // Baseline-O0 and TPDE a64 through the TIR translation.
        asmx::Assembler AAsm;
        asmx::JITMapper AJIT;
        bool BOK = false, AOK = false;
        u64 BNs = timed("baseline.o0_compile_map",
                        [&] { BOK = o0CompileMap(U, BAsm, BJIT); });
        u64 ANs = timed("tpde_a64.compile_map", [&] {
          tir::Module T;
          AOK = uir::translateToTir(U, T) &&
                tpde_tir::compileModuleA64(T, AAsm) &&
                AJIT.map(AAsm, nullptr, asmx::JITMapper::StubArch::A64);
          if (Rounds == 0)
            for (const tir::Function &F : T.Funcs)
              Values += F.Values.size();
        });
        R.check(OK && BOK && AOK, P.P.Name + " replay compile");
        if (!(OK && BOK && AOK))
          continue;
        Speed[I].push_back(static_cast<double>(BNs) /
                           static_cast<double>(CNs + MNs));
        SpeedA64[I].push_back(static_cast<double>(BNs) /
                              static_cast<double>(ANs));
        if (Rounds == 0) {
          TextX64 += TAsm.text().size();
          TextA64 += AAsm.text().size();
          Symbols += TAsm.symbolCount();
          Relocs += TAsm.relocs().size();
        }
        Live[I] = std::move(C);
      }
      // Generated code over the run table, TPDE and Baseline-O0.
      for (u32 I : Order) {
        if (!Live[I])
          continue;
        const Plan &P = Light[I];
        auto *TF = reinterpret_cast<QueryFn>(Live[I]->TJIT.address(P.P.Name));
        auto *BF = reinterpret_cast<QueryFn>(Live[I]->BJIT.address(P.P.Name));
        i64 TG = 0, BG = 0;
        const i64 Rows = static_cast<i64>(RunT.Rows);
        u64 TR = TF ? timed("run.query", [&] { TG = TF(RunT.ColPtrs.data(), Rows); }) : 0;
        u64 BR = BF ? timed("run.query", [&] { BG = BF(RunT.ColPtrs.data(), Rows); }) : 0;
        R.check(TF && BF && TG == RunExpected[I] && BG == RunExpected[I],
                P.P.Name + " replay result differs from evalPlan");
        if (TR && BR)
          RunR[I].push_back(static_cast<double>(TR) / static_cast<double>(BR));
      }
      ++Rounds;
    }
    Tracer::On = false;
  }
  std::vector<double> SpeedMed, SpeedA64Med, RunMed;
  for (u32 I = 0; I < ReplaySample; ++I) {
    if (Speed[I].empty() || RunR[I].empty())
      continue;
    SpeedMed.push_back(median(Speed[I]));
    SpeedA64Med.push_back(median(SpeedA64[I]));
    RunMed.push_back(median(RunR[I]));
  }

  const double MissP50 =
      windowedQuantile(LightCheck.MissUs, LightCheck.MissDueNs, 0.5);
  R.e2e("compile_speedup_vs_o0", geomean(SpeedMed), "x");
  R.e2e("a64_compile_speedup_vs_o0", geomean(SpeedA64Med), "x");
  R.e2e("run_time_vs_o0", geomean(RunMed), "x");
  R.e2e("text_bytes", static_cast<double>(TextX64), "bytes");
  R.e2e("a64_text_bytes", static_cast<double>(TextA64), "bytes");
  // Service latency and throughput in units of Baseline-O0 serving the
  // same kind of query without the service, sampled during the phase, so
  // a slower or faster machine moves both sides alike.
  const double O0Us = median(LightRef) / 1e3;
  const double MissP90 =
      windowedQuantile(LightCheck.MissUs, LightCheck.MissDueNs, 0.9);
  R.e2e("latency_p50_vs_o0", MissP50 / O0Us, "x");
  R.e2e("latency_p90_vs_o0", MissP90 / O0Us, "x");
  R.e2e("throughput_vs_o0", median(BurstJobsS) * median(BurstRef) / 1e9,
        "x");
  R.e2e("setup_s", median(SetupS), "s");
  R.note("query_stream light: " + std::to_string(LightJobs) + " jobs at " +
         std::to_string(static_cast<int>(LightRate)) + "/s, " +
         std::to_string(LightCheck.MissUs.size()) + " misses, " +
         std::to_string(LightCheck.HitUs.size()) + " hits (hit p50 " +
         std::to_string(median(LightCheck.HitUs)) + " us); burst: " +
         std::to_string(BurstJobsS.size()) + " chunks of " +
         std::to_string(BurstChunk) + "; replay: " + std::to_string(Rounds) +
         " rounds x " + std::to_string(ReplaySample) + " queries");
  R.note("raw: light miss p50 " + std::to_string(MissP50) + " us, p90 " +
         std::to_string(MissP90) + " us; burst " +
         std::to_string(median(BurstJobsS)) + " jobs/s; solo Baseline-O0 " +
         std::to_string(O0Us) + " us per query");

  R.exact("text_bytes", TextX64);
  R.exact("a64_text_bytes", TextA64);
  R.exact("tir.values", Values);
  R.exact("asmx.symbols", Symbols);
  R.exact("asmx.relocs", Relocs);

  if (!O.Trace)
    return;
  const double Work =
      median(VerifyNs) + median(FpNs) + median(CompileNs) + median(MapNs);
  R.layer("service.submit_ns", median(SubmitNs), "ns");
  R.layer("service.queue_wait_p50_ns", static_cast<double>(LS.QueueWaitP50Ns),
          "ns");
  R.layer("uir.verify_ns", median(VerifyNs), "ns");
  R.layer("support.fingerprint_ns", median(FpNs), "ns");
  R.layer("uir.compile_ns", median(CompileNs), "ns");
  R.layer("asmx.jit_map_ns", median(MapNs), "ns");
  R.layer("service.miss_unaccounted_ns", MissP50 * 1e3 - Work, "ns");
  R.layer("service.hit_p50_us", median(LightCheck.HitUs), "us");
  R.layer("service.hit_p99_us", quantile(LightCheck.HitUs, 0.99), "us");
  R.layer("service.miss_p99_us", quantile(LightCheck.MissUs, 0.99), "us");
  R.layer("service.hits", static_cast<double>(LS.Hits - L0.Hits), "count");
  R.layer("service.misses", static_cast<double>(LS.Misses - L0.Misses), "count");
  R.layer("service.coalesced", static_cast<double>(LS.Coalesced - L0.Coalesced), "count");
  R.layer("service.evictions", static_cast<double>(LS.Evictions - L0.Evictions), "count");
  R.layer("service.failed", static_cast<double>(LS.Failed - L0.Failed), "count");
  R.layer("service.shed", static_cast<double>(LS.Shed - L0.Shed), "count");
  R.layer("service.retried", static_cast<double>(LS.Retried - L0.Retried), "count");
  R.layer("gen.max_late_us", static_cast<double>(MaxLateNs) / 1e3, "us");
  R.layer("gen.late_jobs", static_cast<double>(LateJobs), "count");
  R.layer("support.allocs_per_func",
          static_cast<double>(Allocs) / static_cast<double>(AllocFuncs),
          "count");
  R.layer("trace.overhead_pct",
          (median(LightCheck.MissUsTraced) / median(LightCheck.MissUsUntraced) -
           1) * 100,
          "%");
}

} // namespace perfbench
