//===- perfbench/src/LargeJit.cpp - The large_parallel_jit workload ---------===//
///
/// One 10,001-function module (the compile_throughput "_large" module)
/// taken IR -> mapped, callable code through the parallel driver with 4
/// threads, against a serial Baseline-O0 compile of the same module.
/// Most of the work lands in the core driver (shard compile, reserve,
/// place, and the serial stitch, the Amdahl term) and in asmx symbol and
/// relocation handling at scale; the image is JIT-mapped whole. The
/// per-function code generator is the one spec_aot measures, so a codegen
/// change should move both workloads and a driver change only this one.
///
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include "asmx/JITMapper.h"
#include "baseline/Baseline.h"
#include "support/AllocCounter.h"
#include "tpde_tir/ParallelCompiler.h"

#include <algorithm>
#include <memory>

namespace perfbench {

using namespace tpde;

namespace {

constexpr unsigned Threads = 4;
/// TPDE compiles per round: the Baseline-O0 compile takes ~6x longer, so
/// each round times several TPDE compiles against one Baseline-O0 one.
constexpr int TpdePerRound = 4;
constexpr int RunsPerRound = 3;

using EntryFn = u64 (*)(u64, u64);

bool sameText(const asmx::Assembler &A, const asmx::Assembler &B) {
  return A.text().size() == B.text().size() &&
         std::equal(A.text().Data.begin(), A.text().Data.end(),
                    B.text().Data.begin());
}

} // namespace

void runLargeParallelJit(const Options &O, const Refs &Rf, Result &R) {
  const u32 K = static_cast<u32>(O.Seed % NumArgPairs);
  const auto [ArgA, ArgB] = Rf.Args[K];
  R.Inputs.add(ArgA);
  R.Inputs.add(ArgB);
  const RefModule RM = largeModule();
  const u64 *Want = Rf.find(RM.Key, K);
  R.check(Want, "no reference for " + RM.Key);
  const u64 Expected = Want ? *Want : 0;

  // Set-up: generate the module, spawn both worker pools, and warm them
  // with one compile each. Repeated three times; setup_s is the median.
  std::unique_ptr<tir::Module> M;
  std::unique_ptr<tpde_tir::ParallelModuleCompiler> PC;
  std::unique_ptr<tpde_tir::ParallelModuleCompilerA64> PCA;
  asmx::Assembler Out, OutA64;
  std::vector<double> SetupS;
  for (int Rep = 0; Rep < 3; ++Rep) {
    u64 T0 = clockNs();
    PC.reset();
    PCA.reset();
    M = std::make_unique<tir::Module>();
    workloads::genModule(*M, RM.P);
    checkA64OnSim(R);
    tpde_tir::ParallelCompileOptions PO;
    PO.NumThreads = Threads;
    PC = std::make_unique<tpde_tir::ParallelModuleCompiler>(*M, PO);
    PCA = std::make_unique<tpde_tir::ParallelModuleCompilerA64>(*M, PO);
    R.check(PC->compile(Out) && PCA->compile(OutA64), "warm-up compile");
    SetupS.push_back(static_cast<double>(clockNs() - T0) / 1e9);
  }
  u64 Values = 0;
  u32 Funcs = 0;
  for (const tir::Function &F : M->Funcs) {
    Values += F.Values.size();
    Funcs += F.IsDeclaration ? 0 : 1;
  }

  std::vector<double> TpdeUs[2], Ratio, RatioA64, RunRatio, VsO0;
  std::vector<double> ParCompile, Reserve, Place, Stitch, MapNs, Serial,
      Prepare, Analyze, A64Ns, O0Ns;
  u64 Allocs = 0, AllocFuncs = 0, TextX64 = 0, TextA64 = 0;
  u64 Symbols = 0, Relocs = 0, StitchRelocs = 0, Placed = 0;
  u32 Rounds = 0;
  const u64 Start = clockNs();
  const u64 Budget = static_cast<u64>(O.Seconds * 1e9);
  while (Rounds < 3 || clockNs() - Start < Budget) {
    const bool TraceRound = O.Trace && Rounds % 2 == 0;
    Tracer::On = TraceRound;
    Span RoundSpan("large_parallel_jit.round");
    std::vector<double> Tp;
    u64 RunTpde = 0, RunO0 = 0;
    // Median of RunsPerRound calls of main_entry, each on a fresh mapping
    // (main_entry mutates module globals), every result checked.
    auto runChecked = [&](const asmx::Assembler &Asm, const char *Who) {
      std::vector<double> Ns;
      for (int I = 0; I < RunsPerRound; ++I) {
        asmx::JITMapper JIT;
        auto *F = JIT.map(Asm)
                      ? reinterpret_cast<EntryFn>(JIT.address("main_entry"))
                      : nullptr;
        u64 Got = 0;
        if (F)
          Ns.push_back(static_cast<double>(
              timed("run.main_entry", [&] { Got = F(ArgA, ArgB); })));
        R.check(F && Got == Expected, std::string("large main_entry under ") +
                                          Who + " differs from the interpreter");
      }
      return static_cast<u64>(median(Ns));
    };
    // The Baseline-O0 compile goes first on odd rounds, last on even ones.
    auto BaselineStep = [&] {
      asmx::Assembler BAsm;
      asmx::JITMapper BJIT;
      bool OK = false;
      u64 CompileNs = 0;
      u64 Ns = timed("baseline.o0_compile_map", [&] {
        CompileNs = timed("baseline.o0_compile", [&] {
          OK = baseline::compileModule(*M, BAsm, baseline::OptLevel::O0);
        });
        OK = OK && BJIT.map(BAsm);
      });
      R.check(OK, "Baseline-O0 IR -> mapped");
      O0Ns.push_back(static_cast<double>(CompileNs));
      if (OK)
        RunO0 = runChecked(BAsm, "Baseline-O0");
      return Ns;
    };
    u64 O0MapNs = Rounds % 2 ? BaselineStep() : 0;
    for (int I = 0; I < TpdePerRound; ++I) {
      asmx::JITMapper JIT;
      bool OK = false;
      support::AllocWatch W;
      u64 CompileNs = 0, Map = 0;
      u64 Ns = timed("tpde.compile_map", [&] {
        CompileNs = timed("core.par.compile", [&] { OK = PC->compile(Out); });
        Map = timed("asmx.jit_map", [&] { OK = OK && JIT.map(Out); });
      });
      Allocs += W.newCalls();
      AllocFuncs += Funcs;
      R.check(OK, "TPDE parallel IR -> mapped");
      Tp.push_back(static_cast<double>(Ns) / 1e3);
      TpdeUs[TraceRound ? 1 : 0].push_back(static_cast<double>(Ns) / 1e3);
      const core::EmitStats &ES = PC->emitStats();
      if (TraceRound) {
        ParCompile.push_back(static_cast<double>(ES.CompileNs));
        Reserve.push_back(static_cast<double>(ES.ReserveNs));
        Place.push_back(static_cast<double>(ES.PlaceNs));
        Stitch.push_back(static_cast<double>(ES.StitchNs));
        MapNs.push_back(static_cast<double>(Map));
      }
      if (Rounds == 0 && I == 0) {
        TextX64 = Out.text().size();
        Symbols = Out.symbolCount();
        Relocs = Out.relocs().size();
        StitchRelocs = ES.StitchRelocs;
        Placed = ES.PlacedBytes;
      }
      R.check(Out.text().size() == TextX64,
              "parallel code size changed between compiles");
      if (OK && I == TpdePerRound - 1)
        RunTpde = runChecked(Out, "TPDE");
    }
    {
      asmx::JITMapper JIT;
      bool OK = false;
      u64 CompileNs = 0;
      u64 Ns = timed("tpde_a64.compile_map", [&] {
        CompileNs = timed("tpde_tir.compile_a64",
                          [&] { OK = PCA->compile(OutA64); });
        OK = OK && JIT.map(OutA64, nullptr, asmx::JITMapper::StubArch::A64);
      });
      R.check(OK, "TPDE a64 parallel IR -> mapped");
      if (Rounds == 0)
        TextA64 = OutA64.text().size();
      R.check(OutA64.text().size() == TextA64,
              "a64 parallel code size changed between compiles");
      A64Ns.push_back(static_cast<double>(CompileNs));
      RatioA64.push_back(static_cast<double>(Ns)); // divided below
    }
    if (!(Rounds % 2))
      O0MapNs = BaselineStep();
    const double TpMedUs = median(Tp);
    Ratio.push_back(static_cast<double>(O0MapNs) / 1e3 / TpMedUs);
    RatioA64.back() = static_cast<double>(O0MapNs) / RatioA64.back();
    for (double T : Tp)
      VsO0.push_back(T * 1e3 / static_cast<double>(O0MapNs));
    if (RunTpde && RunO0)
      RunRatio.push_back(static_cast<double>(RunTpde) /
                         static_cast<double>(RunO0));
    if (TraceRound) {
      // TPDE's serial compile of the same module, and the layer replays.
      asmx::Assembler SAsm;
      Serial.push_back(static_cast<double>(timed("tpde_tir.compile_x64", [&] {
        tpde_tir::compileModuleX64(*M, SAsm);
      })));
      double P = 0, A = 0;
      replayPrepareAnalyze(*M, P, A);
      Prepare.push_back(P);
      Analyze.push_back(A);
    }
    ++Rounds;
  }
  Tracer::On = false;

  // Determinism: the parallel .text must be byte-identical to a serial
  // compile of the same module.
  {
    asmx::Assembler SAsm;
    bool OK = tpde_tir::compileModuleX64(*M, SAsm) && PC->compile(Out);
    R.check(OK && sameText(SAsm, Out),
            "parallel .text differs from the serial compile");
  }

  std::vector<double> AllTp = TpdeUs[0];
  AllTp.insert(AllTp.end(), TpdeUs[1].begin(), TpdeUs[1].end());
  R.e2e("compile_speedup_vs_o0", median(Ratio), "x");
  R.e2e("a64_compile_speedup_vs_o0", median(RatioA64), "x");
  R.e2e("run_time_vs_o0", median(RunRatio), "x");
  R.e2e("text_bytes", static_cast<double>(TextX64), "bytes");
  R.e2e("a64_text_bytes", static_cast<double>(TextA64), "bytes");
  // One request: the module IR -> mapped code, normalized by the serial
  // Baseline-O0 IR -> mapped time of the same round.
  R.e2e("latency_p50_vs_o0", median(VsO0), "x");
  R.e2e("latency_p90_vs_o0", quantile(VsO0, 0.9), "x");
  R.e2e("throughput_vs_o0", 1 / median(VsO0), "x");
  R.e2e("setup_s", median(SetupS), "s");
  R.note("large_parallel_jit: " + std::to_string(Rounds) + " rounds; " +
         std::to_string(AllTp.size()) + " TPDE 4-thread IR -> mapped " +
         "compiles; " + std::to_string(Ratio.size()) +
         " Baseline-O0 serial compiles; argument pair #" + std::to_string(K));
  R.note("raw: TPDE 4-thread IR -> mapped p50 " + std::to_string(median(AllTp)) +
         " us, p90 " + std::to_string(quantile(AllTp, 0.9)) + " us");

  R.exact("text_bytes", TextX64);
  R.exact("a64_text_bytes", TextA64);
  R.exact("tir.values", Values);
  R.exact("asmx.symbols", Symbols);
  R.exact("asmx.relocs", Relocs);
  R.exact("asmx.stitch_relocs", StitchRelocs);
  R.exact("asmx.placed_bytes", Placed);

  if (!O.Trace)
    return;
  // Per-layer numbers: median ns per compile of the traced rounds;
  // codegen derived from the serial compile as in bench/fig6.
  R.layer("core.par.compile_ns", median(ParCompile), "ns");
  R.layer("core.par.reserve_ns", median(Reserve), "ns");
  R.layer("core.par.place_ns", median(Place), "ns");
  R.layer("core.par.stitch_ns", median(Stitch), "ns");
  R.layer("core.par.serial_ns", median(Serial), "ns");
  R.layer("tpde_tir.compile_x64_ns", median(Serial), "ns");
  R.layer("tpde_tir.prepare_ns", median(Prepare), "ns");
  R.layer("core.analyze_ns", median(Analyze), "ns");
  R.layer("core.codegen_x64_ns",
          median(Serial) - median(Prepare) - median(Analyze), "ns");
  R.layer("tpde_tir.compile_a64_ns", median(A64Ns), "ns");
  R.layer("baseline.o0_compile_ns", median(O0Ns), "ns");
  R.layer("asmx.jit_map_ns", median(MapNs), "ns");
  R.layer("support.allocs_per_func",
          static_cast<double>(Allocs) / static_cast<double>(AllocFuncs),
          "count");
  R.layer("trace.overhead_pct",
          (median(TpdeUs[1]) / median(TpdeUs[0]) - 1) * 100, "%");
}

} // namespace perfbench
