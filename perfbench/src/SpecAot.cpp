//===- perfbench/src/SpecAot.cpp - The spec_aot workload --------------------===//
///
/// The paper's Fig. 5/6/7 setting: the nine SPEC-like programs in both
/// IR flavours (18 modules) compiled IR -> ELF object by TPDE x64, TPDE
/// a64 and Baseline-O0, interleaved within each round; then main_entry of
/// the nine -O1 modules runs natively under the TPDE and the Baseline-O0
/// code and is checked against the interpreter's committed result. Most
/// of the work is the per-function single pass (prepare, analyze,
/// codegen, encoders) and the ELF writer; the parallel driver, the
/// service and JIT-mapping time are not measured here.
///
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include "asmx/ElfWriter.h"
#include "asmx/JITMapper.h"
#include "baseline/Baseline.h"
#include "core/Analyzer.h"
#include "support/AllocCounter.h"
#include "tpde_tir/TirAdapter.h"
#include "tpde_tir/TirCompilerA64.h"
#include "tpde_tir/TirCompilerX64.h"

#include <memory>

namespace perfbench {

using namespace tpde;

namespace {

enum Backend { X64, A64, O0, NumBackends };
/// Compile passes per run phase: the run phase takes ~1.5 s (mostly the
/// -O1 602.gcc program), a pass ~0.15 s, so each round compiles the set
/// several times to get enough compile samples per run.
constexpr int CompilePasses = 4;
constexpr const char *SpanName[NumBackends] = {
    "tpde_tir.compile_x64", "tpde_tir.compile_a64", "baseline.o0_compile"};

struct Mod {
  RefModule Ref;
  tir::Module IR;
  u32 Funcs = 0;
  u64 Values = 0;
  /// Per-round IR -> ELF times (ns), one vector per back-end.
  std::vector<double> Ns[NumBackends];
  std::vector<double> RunRatio; ///< TPDE / Baseline-O0 run time per round.
};

using EntryFn = u64 (*)(u64, u64);

/// Maps \p Asm, calls main_entry once on fresh globals, and checks the
/// result. Returns the call's wall time.
u64 runChecked(const asmx::Assembler &Asm, const char *Who, const Mod &M,
               u64 A, u64 B, u64 Want, Result &R) {
  asmx::JITMapper JIT;
  bool OK = false;
  timed("asmx.jit_map", [&] { OK = JIT.map(Asm); });
  auto *F = OK ? reinterpret_cast<EntryFn>(JIT.address("main_entry")) : nullptr;
  u64 Got = 0;
  u64 Ns = F ? timed("run.main_entry", [&] { Got = F(A, B); }) : 0;
  R.check(F && Got == Want, M.Ref.Key + " main_entry under " + Who +
                                " differs from the interpreter");
  return Ns;
}

bool compileWith(Backend Bk, tir::Module &M, asmx::Assembler &Asm) {
  switch (Bk) {
  case X64:
    return tpde_tir::compileModuleX64(M, Asm);
  case A64:
    return tpde_tir::compileModuleA64(M, Asm);
  default:
    return baseline::compileModule(M, Asm, baseline::OptLevel::O0);
  }
}

} // namespace

void replayPrepareAnalyze(tir::Module &M, double &PrepareNs,
                          double &AnalyzeNs) {
  tpde_tir::TirAdapter PA(M);
  PrepareNs += static_cast<double>(timed("tpde_tir.prepare", [&] {
    for (u32 F = 0; F < PA.funcCount(); ++F)
      if (PA.funcIsDefinition(F))
        PA.switchFunc(F);
  }));
  // Analysis alone: the span covers the replay, the metric only the
  // analyze() calls (switchFunc is the prepare pass, timed above).
  Span S("replay.analyze");
  tpde_tir::TirAdapter AA(M);
  core::Analyzer<tpde_tir::TirAdapter> An(AA);
  for (u32 F = 0; F < AA.funcCount(); ++F)
    if (AA.funcIsDefinition(F)) {
      AA.switchFunc(F);
      u64 T0 = clockNs();
      An.analyze();
      AnalyzeNs += static_cast<double>(clockNs() - T0);
    }
}

void runSpecAot(const Options &O, const Refs &Rf, Result &R) {
  const u32 K = static_cast<u32>(O.Seed % NumArgPairs);
  const auto [ArgA, ArgB] = Rf.Args[K];
  R.Inputs.add(ArgA);
  R.Inputs.add(ArgB);

  // Set-up: generate the 18 modules, check the a64 back-end on the
  // simulator, and run the -O0 modules whose code finishes quickly once
  // under each x64 back-end. Repeated three times; setup_s is the median.
  std::vector<std::unique_ptr<Mod>> Mods;
  std::vector<double> SetupS;
  for (int Rep = 0; Rep < 3; ++Rep) {
    u64 T0 = clockNs();
    Mods.clear();
    for (bool O0F : {false, true})
      for (RefModule &RM : specModules(O0F)) {
        auto M = std::make_unique<Mod>();
        M->Ref = std::move(RM);
        workloads::genModule(M->IR, M->Ref.P);
        for (const tir::Function &F : M->IR.Funcs) {
          M->Funcs += F.IsDeclaration ? 0 : 1;
          M->Values += F.Values.size();
        }
        Mods.push_back(std::move(M));
      }
    checkA64OnSim(R);
    for (auto &M : Mods) {
      if (!M->Ref.P.SSAForm && M->Ref.Runs) {
        const u64 *Want = Rf.find(M->Ref.Key, K);
        R.check(Want, "no reference for " + M->Ref.Key);
        for (Backend Bk : {X64, O0}) {
          asmx::Assembler Asm;
          R.check(compileWith(Bk, M->IR, Asm), M->Ref.Key + " compile");
          runChecked(Asm, Bk == X64 ? "TPDE" : "Baseline-O0", *M, ArgA, ArgB,
                     Want ? *Want : 0, R);
        }
      }
    }
    SetupS.push_back(static_cast<double>(clockNs() - T0) / 1e9);
  }

  // Measured rounds. Each round makes CompilePasses passes that compile
  // every module with the three back-ends in a seeded order (module order
  // and back-end rotation), then runs the -O1 programs compiled by the
  // last pass. The traced run alternates tracing on and off per round so
  // the difference is the tracing overhead.
  SeedRng Rng(O.Seed * 0x2545f4914f6cdd1dull + 1);
  std::vector<size_t> Order(Mods.size());
  for (size_t I = 0; I < Order.size(); ++I)
    Order[I] = I;
  u64 TextX64 = 0, TextA64 = 0, Symbols = 0, Relocs = 0, ElfBytes = 0;
  u64 Allocs = 0, AllocFuncs = 0;
  std::vector<double> SetUs[2], SetVsO0;
  std::vector<double> Prepare, Analyze, CompileX64, CompileA64, Elf, Base;
  u32 Rounds = 0, Passes = 0, TracedRounds = 0;
  const u64 Start = clockNs();
  const u64 Budget = static_cast<u64>(O.Seconds * 1e9);
  while (Rounds < 3 || clockNs() - Start < Budget) {
    const bool TraceRound = O.Trace && Rounds % 2 == 0;
    Tracer::On = TraceRound;
    Span RoundSpan("spec_aot.round");
    std::vector<std::pair<Mod *, std::unique_ptr<asmx::Assembler>>> ToRun[2];
    for (int Pass = 0; Pass < CompilePasses; ++Pass, ++Passes) {
      const bool Last = Pass + 1 == CompilePasses;
      Rng.shuffle(Order);
      u64 PassText[2] = {0, 0}, PassX64 = 0, PassO0 = 0;
      for (size_t Idx = 0; Idx < Order.size(); ++Idx) {
        Mod &M = *Mods[Order[Idx]];
        for (int Step = 0; Step < NumBackends; ++Step) {
          Backend Bk = static_cast<Backend>((Step + Passes + Idx) % NumBackends);
          auto Asm = std::make_unique<asmx::Assembler>();
          bool OK = false;
          std::vector<u8> Obj;
          support::AllocWatch W;
          u64 CompileNs =
              timed(SpanName[Bk], [&] { OK = compileWith(Bk, M.IR, *Asm); });
          u64 NewCalls = W.newCalls();
          u64 ElfNs = timed("asmx.elf_write", [&] {
            Obj = asmx::writeElfObject(*Asm, Bk == A64
                                                 ? asmx::ElfMachine::AArch64
                                                 : asmx::ElfMachine::X86_64);
          });
          R.check(OK && Obj.size() > 64, M.Ref.Key + " IR -> ELF");
          M.Ns[Bk].push_back(static_cast<double>(CompileNs + ElfNs));
          if (Bk == X64) {
            PassX64 += CompileNs + ElfNs;
            PassText[0] += Asm->text().size();
            if (Passes == 0) {
              Symbols += Asm->symbolCount();
              Relocs += Asm->relocs().size();
              ElfBytes += Obj.size();
            }
            Allocs += NewCalls;
            AllocFuncs += M.Funcs;
          } else if (Bk == A64) {
            PassText[1] += Asm->text().size();
          } else {
            PassO0 += CompileNs + ElfNs;
          }
          if (TraceRound) {
            (Bk == X64   ? CompileX64
             : Bk == A64 ? CompileA64
                         : Base)
                .push_back(static_cast<double>(CompileNs));
            Elf.push_back(static_cast<double>(ElfNs));
          }
          if (Last && M.Ref.P.SSAForm && (Bk == X64 || Bk == O0))
            ToRun[Bk == X64 ? 0 : 1].push_back({&M, std::move(Asm)});
        }
      }
      if (Passes == 0) {
        TextX64 = PassText[0];
        TextA64 = PassText[1];
      }
      R.check(PassText[0] == TextX64 && PassText[1] == TextA64,
              "code size changed between passes (non-deterministic output)");
      SetUs[TraceRound ? 1 : 0].push_back(static_cast<double>(PassX64) / 1e3);
      SetVsO0.push_back(static_cast<double>(PassX64) /
                        static_cast<double>(PassO0));
    }

    // Layer replays of the traced rounds, after the timed passes so they
    // do not disturb them.
    if (TraceRound) {
      double P = 0, A = 0;
      for (auto &M : Mods)
        replayPrepareAnalyze(M->IR, P, A);
      Prepare.push_back(P);
      Analyze.push_back(A);
    }

    // Run phase: main_entry of every -O1 module under both back-ends, on
    // fresh mappings (main_entry mutates module globals), alternating
    // which back-end goes first.
    for (size_t I = 0; I < ToRun[0].size(); ++I) {
      Mod &M = *ToRun[0][I].first;
      const u64 *Want = Rf.find(M.Ref.Key, K);
      R.check(Want, "no reference for " + M.Ref.Key);
      u64 Ns[2];
      for (int S = 0; S < 2; ++S) {
        int Which = (S + Rounds) % 2;
        Ns[Which] = runChecked(*ToRun[Which][I].second,
                               Which ? "Baseline-O0" : "TPDE", M, ArgA, ArgB,
                               Want ? *Want : 0, R);
      }
      if (Ns[0] && Ns[1])
        M.RunRatio.push_back(static_cast<double>(Ns[0]) /
                             static_cast<double>(Ns[1]));
    }
    ++Rounds;
    TracedRounds += TraceRound;
  }
  Tracer::On = false;

  std::vector<double> Speedup, SpeedupA64, RunRatios;
  for (auto &M : Mods) {
    std::vector<double> RX, RA;
    for (size_t I = 0; I < M->Ns[X64].size(); ++I) {
      RX.push_back(M->Ns[O0][I] / M->Ns[X64][I]);
      RA.push_back(M->Ns[O0][I] / M->Ns[A64][I]);
    }
    Speedup.push_back(median(RX));
    SpeedupA64.push_back(median(RA));
    if (!M->RunRatio.empty())
      RunRatios.push_back(median(M->RunRatio));
  }
  std::vector<double> AllSetUs = SetUs[0];
  AllSetUs.insert(AllSetUs.end(), SetUs[1].begin(), SetUs[1].end());
  R.e2e("compile_speedup_vs_o0", geomean(Speedup), "x");
  R.e2e("a64_compile_speedup_vs_o0", geomean(SpeedupA64), "x");
  R.e2e("run_time_vs_o0", geomean(RunRatios), "x");
  R.e2e("text_bytes", static_cast<double>(TextX64), "bytes");
  R.e2e("a64_text_bytes", static_cast<double>(TextA64), "bytes");
  // The request is "compile the 18-module set"; its time is normalized
  // by Baseline-O0's time for the same set in the same pass.
  R.e2e("latency_p50_vs_o0", median(SetVsO0), "x");
  R.e2e("latency_p90_vs_o0", quantile(SetVsO0, 0.9), "x");
  R.e2e("throughput_vs_o0", 1 / median(SetVsO0), "x");
  R.e2e("setup_s", median(SetupS), "s");
  R.note("spec_aot: " + std::to_string(Rounds) + " rounds, " +
         std::to_string(Passes) + " compile passes x " +
         std::to_string(Mods.size()) + " modules x 3 back-ends; latency "
         "over " + std::to_string(AllSetUs.size()) +
         " TPDE x64 compiles of the 18-module set; run_time over " +
         std::to_string(RunRatios.size()) + " -O1 programs, argument pair #" +
         std::to_string(K));
  R.note("raw: TPDE x64 18-module set IR -> ELF p50 " +
         std::to_string(median(AllSetUs)) + " us, p90 " +
         std::to_string(quantile(AllSetUs, 0.9)) + " us");

  u64 Values = 0;
  for (auto &M : Mods)
    Values += M->Values;
  R.exact("text_bytes", TextX64);
  R.exact("a64_text_bytes", TextA64);
  R.exact("tir.values", Values);
  R.exact("asmx.symbols", Symbols);
  R.exact("asmx.relocs", Relocs);
  R.exact("asmx.elf_bytes", ElfBytes);

  if (!O.Trace)
    return;
  // Per-layer numbers: ns per compile of the 18-module set, from the
  // traced rounds only. Codegen is derived (compile - prepare - analyze),
  // as bench/fig6_time_distribution.cpp derives it.
  const double TR = std::max(1u, TracedRounds);
  auto Sum = [](const std::vector<double> &V) {
    double S = 0;
    for (double X : V)
      S += X;
    return S;
  };
  auto PerPass = [&](const std::vector<double> &V) {
    return Sum(V) / (TR * CompilePasses);
  };
  auto PerRound = [&](const std::vector<double> &V) { return Sum(V) / TR; };
  R.layer("tpde_tir.prepare_ns", PerRound(Prepare), "ns");
  R.layer("core.analyze_ns", PerRound(Analyze), "ns");
  R.layer("tpde_tir.compile_x64_ns", PerPass(CompileX64), "ns");
  R.layer("core.codegen_x64_ns",
          PerPass(CompileX64) - PerRound(Prepare) - PerRound(Analyze), "ns");
  R.layer("tpde_tir.compile_a64_ns", PerPass(CompileA64), "ns");
  R.layer("baseline.o0_compile_ns", PerPass(Base), "ns");
  R.layer("asmx.elf_write_ns", PerPass(Elf), "ns");
  R.layer("asmx.jit_map_ns", Tracer::total("asmx.jit_map") / TR, "ns");
  R.layer("support.allocs_per_func",
          static_cast<double>(Allocs) / static_cast<double>(AllocFuncs),
          "count");
  R.layer("trace.overhead_pct",
          (median(SetUs[1]) / median(SetUs[0]) - 1) * 100, "%");
}

} // namespace perfbench
