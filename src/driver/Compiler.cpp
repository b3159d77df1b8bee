//===- driver/Compiler.cpp ------------------------------------------------===//

#include "driver/Compiler.h"

#include "frontend/Convert.h"
#include "ir/StableHash.h"
#include "stats/Stats.h"
#include "support/Parallel.h"

#include <optional>
#include <vector>

using namespace s1lisp;
using namespace s1lisp::driver;

size_t MemoizedFunction::byteSize() const {
  size_t Bytes = sizeof(MemoizedFunction) + Unit.byteSize();
  for (const stats::TallyDelta &D : Tally)
    Bytes += sizeof(stats::TallyDelta) + D.Name.size();
  for (const stats::Remark &R : Remarks)
    Bytes += sizeof(stats::Remark) + R.Phase.size() + R.Rule.size() +
             R.Function.size() + R.Before.size() + R.After.size() +
             R.Detail.size();
  return Bytes;
}

uint64_t driver::optionsFingerprint(const CompilerOptions &O) {
  uint64_t H = ir::hashString(0, "s1lisp.options.v1");
  auto B = [&H](bool V) { H = ir::hashCombine(H, V ? 1 : 0); };
  auto U = [&H](uint64_t V) { H = ir::hashCombine(H, V); };
  B(O.Optimize);
  B(O.Cse);
  B(O.Opt.Substitute);
  B(O.Opt.IfDistribute);
  B(O.Opt.ConstantFold);
  B(O.Opt.AssocCommut);
  B(O.Opt.IdentityElim);
  B(O.Opt.RedundantTest);
  B(O.Opt.MachineTrig);
  B(O.Opt.DeadCode);
  U(O.Opt.DuplicationLimit);
  U(O.Opt.MaxPasses);
  B(O.Opt.FaultConstantFold);
  U(O.CseOpts.MinComplexity);
  U(O.CseOpts.MaxRounds);
  B(O.Codegen.TnBind.UseRegisters);
  B(O.Codegen.Annotate.RepAnalysis);
  B(O.Codegen.Annotate.PdlNumbers);
  B(O.Codegen.SpecialCache);
  B(O.Codegen.TailCalls);
  B(O.Codegen.RegisterTemps);
  // Jobs deliberately excluded: output is bit-identical for any count.
  return H;
}

namespace {

/// The memo key for function \p F under \p OptsFp: content hash + name +
/// options + the module-index resolution of every global name the unit's
/// code could bake into an immediate.
uint64_t
memoKey(const ir::Function &F, uint64_t OptsFp,
        const std::unordered_map<std::string, int> &FuncIndex) {
  uint64_t K = ir::stableFunctionHash(F);
  K = ir::hashString(K, F.name());
  K = ir::hashCombine(K, OptsFp);
  for (const std::string &Name : ir::referencedGlobalNames(F)) {
    K = ir::hashString(K, Name);
    auto It = FuncIndex.find(Name);
    K = ir::hashCombine(K, It == FuncIndex.end()
                               ? ~0ull
                               : static_cast<uint64_t>(It->second));
  }
  return K;
}

} // namespace

CompileOutcome driver::compileModule(ir::Module &M, const CompilerOptions &Opts,
                                     stats::RemarkStream *Remarks,
                                     FunctionMemo *Memo) {
  CompileOutcome Out;
  const size_t N = M.functions().size();

  // Pre-assign module-function indices so mutually recursive calls resolve
  // identically in every unit.
  std::unordered_map<std::string, int> FuncIndex;
  for (const auto &F : M.functions())
    FuncIndex[F->name()] = static_cast<int>(FuncIndex.size());

  codegen::CodegenOptions CG = Opts.Codegen;
  CG.Jobs = Opts.Jobs;

  struct Slot {
    uint64_t Key = 0;
    std::shared_ptr<const MemoizedFunction> Hit;
    std::shared_ptr<MemoizedFunction> Fresh;
  };
  std::vector<Slot> Slots(N);

  // Serial probe pass: hashing is cheap next to the middle end, and a
  // serial pass keeps the memo's hit/miss counter order deterministic.
  if (Memo) {
    stats::PhaseTimer Timer("driver.memo");
    const uint64_t OptsFp = optionsFingerprint(Opts);
    for (size_t I = 0; I < N; ++I) {
      Slots[I].Key = memoKey(*M.functions()[I], OptsFp, FuncIndex);
      Slots[I].Hit = Memo->lookup(Slots[I].Key);
      ++(Slots[I].Hit ? Out.MemoHits : Out.MemoMisses);
    }
  }

  // Compile the misses, fanned out per function. Each function optimizes
  // and generates code against private remark/stat sinks; folding those in
  // function order afterwards makes the transcript and counter totals
  // independent of worker scheduling AND lets a memo store the deltas for
  // bit-identical replay on later hits. Without a memo, the sinks are only
  // engaged when the caller collects stats/remarks, preserving the
  // plain path's costs. The nested phase timers fire only at Jobs <= 1,
  // where the lambda runs on this thread.
  const bool Tally = stats::enabled();
  support::parallelFor(N, Opts.Jobs, [&](size_t I) {
    if (Slots[I].Hit)
      return;
    ir::Function &F = *M.functions()[I];
    auto MF = std::make_shared<MemoizedFunction>();
    stats::LocalTally T;
    stats::RemarkStream R;
    stats::RemarkStream *RS = (Memo || Remarks) ? &R : nullptr;
    {
      std::optional<stats::TallyScope> Scope;
      if (Memo || Tally)
        Scope.emplace(T);
      // A phase that leaves the tree inconsistent fails this function's
      // unit (and so the link) instead of reaching code generation.
      DiagEngine Broken;
      if (Opts.Optimize || Opts.Cse) {
        stats::PhaseTimer Timer("driver.optimize");
        if (Opts.Optimize)
          opt::metaEvaluate(F, Opts.Opt, RS, &Broken);
        if (Opts.Cse && !Broken.hasErrors())
          opt::eliminateCommonSubexpressions(F, Opts.CseOpts, RS, &Broken);
      }
      if (Broken.hasErrors())
        MF->Unit.Error = Broken.str();
      else
        MF->Unit = codegen::compileFunctionUnit(M, F, CG, FuncIndex);
    }
    MF->Tally = T.deltas();
    MF->Remarks = std::move(R.Remarks);
    Slots[I].Fresh = std::move(MF);
  });

  // Fold observability in function order: counter deltas replay through
  // the ambient record() path (so a surrounding TallyScope — e.g. a
  // service request's — sees them), remarks merge into the caller's
  // stream. Cached and fresh slots replay identically.
  for (size_t I = 0; I < N; ++I) {
    const MemoizedFunction *MF =
        Slots[I].Hit ? Slots[I].Hit.get() : Slots[I].Fresh.get();
    stats::applyTallyDeltas(MF->Tally);
    if (Remarks)
      for (const stats::Remark &Rm : MF->Remarks)
        Remarks->remark(Rm);
  }

  if (Memo)
    for (Slot &S : Slots)
      if (S.Fresh && S.Fresh->Unit.Ok)
        Memo->insert(S.Key, S.Fresh);

  std::vector<const codegen::CompiledUnit *> Units;
  Units.reserve(N);
  for (const Slot &S : Slots)
    Units.push_back(S.Hit ? &S.Hit->Unit : &S.Fresh->Unit);
  codegen::CompileResult R = codegen::linkUnits(M, Units);
  if (!R.Ok) {
    Out.Error = R.Error;
    return Out;
  }
  Out.Ok = true;
  Out.Program = std::move(R.Program);
  return Out;
}

CompileOutcome driver::compileSource(ir::Module &M, std::string_view Source,
                                     const CompilerOptions &Opts,
                                     stats::RemarkStream *Remarks,
                                     FunctionMemo *Memo) {
  CompileOutcome Out;
  DiagEngine Diags;
  {
    stats::PhaseTimer Timer("frontend.convert");
    if (!frontend::convertSource(M, Source, Diags)) {
      Out.Error = Diags.str();
      return Out;
    }
  }
  return compileModule(M, Opts, Remarks, Memo);
}

std::string driver::listing(const s1::Program &P) {
  std::string Out;
  for (const s1::AsmFunction &F : P.Functions) {
    Out += s1::printListing(F);
    Out += '\n';
  }
  return Out;
}
