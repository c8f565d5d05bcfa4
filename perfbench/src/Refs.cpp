//===- perfbench/src/Refs.cpp - Reference outputs ---------------------------===//
///
/// The inputs whose outputs the benchmark checks, and the checks that do
/// not come from the compiler under test: main_entry results computed
/// by the reference interpreter (tir::Interp) and committed in
/// perfbench/refs.txt, plus a small module run on the AArch64 simulator.
///
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include "a64/Sim.h"
#include "tir/Interp.h"
#include "tpde_tir/TirCompilerA64.h"

#include <atomic>
#include <fstream>
#include <sstream>
#include <thread>

namespace perfbench {

using namespace tpde;

std::vector<RefModule> specModules(bool O0Flavor) {
  std::vector<RefModule> Out;
  for (const workloads::NamedProfile &NP :
       workloads::specLikeProfiles(O0Flavor)) {
    std::string Name = NP.Name;
    bool Slow = Name == "602.gcc" || Name == "631.deepsjeng";
    Out.push_back({std::string(O0Flavor ? "O0/" : "O1/") + Name, NP.P,
                   !(O0Flavor && Slow)});
  }
  return Out;
}

RefModule largeModule() {
  workloads::Profile P;
  P.Seed = 29;
  P.NumFuncs = 10000;
  P.RegionBudget = 3;
  P.InstsPerBlock = 5;
  P.CallPct = 12;
  P.SSAForm = true;
  return {"large", P, true};
}

namespace {

std::vector<RefModule> allRefModules() {
  std::vector<RefModule> Out = specModules(false);
  for (RefModule &M : specModules(true))
    Out.push_back(std::move(M));
  Out.push_back(largeModule());
  return Out;
}

u32 funcIndex(const tir::Module &M, const char *Name) {
  for (u32 I = 0; I < M.Funcs.size(); ++I)
    if (M.Funcs[I].Name == Name)
      return I;
  return ~0u;
}

std::string hex(u64 V) {
  char Buf[24];
  std::snprintf(Buf, sizeof(Buf), "%016llx", static_cast<unsigned long long>(V));
  return Buf;
}

} // namespace

bool Refs::load(const std::string &Path, std::string &Err) {
  std::ifstream In(Path);
  if (!In) {
    Err = "cannot read " + Path;
    return false;
  }
  Args.assign(NumArgPairs, {0, 0});
  std::vector<bool> Seen(NumArgPairs);
  std::string Line;
  while (std::getline(In, Line)) {
    if (Line.empty() || Line[0] == '#')
      continue;
    std::istringstream LS(Line);
    std::string Kind, Key;
    u32 K = 0;
    LS >> Kind;
    if (Kind == "args") {
      std::string A, B;
      LS >> K >> A >> B;
      if (!LS || K >= NumArgPairs) {
        Err = "bad line: " + Line;
        return false;
      }
      Args[K] = {std::stoull(A, nullptr, 16), std::stoull(B, nullptr, 16)};
      // The table must describe the inputs this binary generates.
      if (Args[K] != argPair(K)) {
        Err = "argument pair " + std::to_string(K) +
              " differs from the generator; regenerate the references";
        return false;
      }
      Seen[K] = true;
    } else if (Kind == "ref") {
      std::string V;
      LS >> Key >> K >> V;
      if (!LS || K >= NumArgPairs) {
        Err = "bad line: " + Line;
        return false;
      }
      Results[Key + "#" + std::to_string(K)] = std::stoull(V, nullptr, 16);
    } else {
      Err = "bad line: " + Line;
      return false;
    }
  }
  for (u32 K = 0; K < NumArgPairs; ++K)
    if (!Seen[K]) {
      Err = "missing argument pair " + std::to_string(K);
      return false;
    }
  return true;
}

int regenerateRefs(const std::string &Path, unsigned Threads) {
  std::vector<RefModule> Mods = allRefModules();
  std::vector<tir::Module> IR(Mods.size());
  for (size_t I = 0; I < Mods.size(); ++I)
    workloads::genModule(IR[I], Mods[I].P);

  struct Task {
    size_t Mod;
    u32 K;
    u64 Value = 0;
    bool OK = false;
  };
  std::vector<Task> Tasks;
  for (size_t I = 0; I < Mods.size(); ++I)
    if (Mods[I].Runs)
      for (u32 K = 0; K < NumArgPairs; ++K)
        Tasks.push_back({I, K});
  // Longest first: -O1 602.gcc takes ~30 s per argument pair.
  std::stable_partition(Tasks.begin(), Tasks.end(), [&](const Task &T) {
    return Mods[T.Mod].Key == "O1/602.gcc";
  });
  std::atomic<size_t> Next{0};
  auto Work = [&] {
    for (size_t T; (T = Next.fetch_add(1)) < Tasks.size();) {
      Task &Tk = Tasks[T];
      const tir::Module &M = IR[Tk.Mod];
      tir::Interp I(M);
      I.StepBudget = ~u64{0};
      auto [A, B] = argPair(Tk.K);
      auto V = I.run(funcIndex(M, "main_entry"), {{A, 0}, {B, 0}});
      Tk.OK = V.has_value();
      Tk.Value = V ? V->Lo : 0;
      std::fprintf(stderr, "ref %-18s #%-2u %s\n", Mods[Tk.Mod].Key.c_str(),
                   Tk.K, Tk.OK ? hex(Tk.Value).c_str() : "TRAPPED");
    }
  };
  std::vector<std::thread> Pool;
  for (unsigned I = 0; I < std::max(1u, Threads); ++I)
    Pool.emplace_back(Work);
  for (std::thread &T : Pool)
    T.join();

  std::ofstream Out(Path);
  Out << "# main_entry(a, b) results computed by the reference interpreter\n"
         "# (tir::Interp, unlimited step budget), never by a compiler under\n"
         "# test. Regenerate with: python3 perfbench/run.py --regen-refs\n"
         "# args <k> <a> <b>: the k-th argument pair (hex); the seed picks k.\n"
         "# ref <module> <k> <result>\n";
  for (u32 K = 0; K < NumArgPairs; ++K)
    Out << "args " << K << " " << hex(argPair(K).first) << " "
        << hex(argPair(K).second) << "\n";
  bool AllOK = true;
  for (const Task &T : Tasks) {
    AllOK &= T.OK;
    if (T.OK)
      Out << "ref " << Mods[T.Mod].Key << " " << T.K << " " << hex(T.Value)
          << "\n";
  }
  return AllOK && Out ? 0 : 1;
}

void checkA64OnSim(Result &R) {
  tir::Module M;
  workloads::Profile P;
  P.Seed = 3;
  P.NumFuncs = 6;
  P.RegionBudget = 3;
  P.MaxLoopTrip = 2;
  P.SSAForm = true;
  workloads::genModule(M, P);
  tir::Interp I(M);
  auto Want = I.run(funcIndex(M, "main_entry"), {{7, 0}, {9, 0}});
  asmx::Assembler Asm;
  bool OK = Want.has_value() && tpde_tir::compileModuleA64(M, Asm);
  a64::Sim S;
  a64::SimModule Mod;
  OK = OK && Mod.map(Asm, S);
  u64 Got = OK ? S.call(Mod.address("main_entry"), {7, 9}) : 0;
  R.check(OK && !S.Trapped && Got == Want->Lo,
          "a64 main_entry on the simulator differs from the interpreter");
}

} // namespace perfbench
