//===- driver/Compiler.cpp ------------------------------------------------===//

#include "driver/Compiler.h"

#include "frontend/Convert.h"
#include "ir/StableHash.h"
#include "sexpr/Reader.h"
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

size_t FrontEntry::byteSize() const {
  size_t Bytes = sizeof(FrontEntry) + Name.size();
  for (const std::string &G : Globals)
    Bytes += sizeof(std::string) + G.size();
  for (const stats::TallyDelta &D : Tally)
    Bytes += sizeof(stats::TallyDelta) + D.Name.size();
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

using FuncIndexMap = std::unordered_map<std::string, int>;

/// What the memo key needs from \p F's converted tree.
FrontEntry frontEntryOf(const ir::Function &F) {
  return {ir::stableFunctionHash(F), F.name(), ir::referencedGlobalNames(F),
          {}};
}

/// The memo key for the function \p E describes under \p OptsFp: content
/// hash + name + options + the module-index resolution of every global
/// name the unit's code could bake into an immediate.
uint64_t memoKey(const FrontEntry &E, uint64_t OptsFp,
                 const FuncIndexMap &FuncIndex) {
  uint64_t K = ir::hashString(E.IrHash, E.Name);
  K = ir::hashCombine(K, OptsFp);
  for (const std::string &Name : E.Globals) {
    K = ir::hashString(K, Name);
    auto It = FuncIndex.find(Name);
    K = ir::hashCombine(K, It == FuncIndex.end()
                               ? ~0ull
                               : static_cast<uint64_t>(It->second));
  }
  return K;
}

/// One module function on its way to a unit. F is null for a function
/// the front cache and the memo both hit: it was never converted.
struct Slot {
  ir::Function *F = nullptr;
  uint64_t Key = 0;
  std::shared_ptr<const MemoizedFunction> Hit;
  std::shared_ptr<MemoizedFunction> Fresh;
};

void probe(Slot &S, uint64_t Key, FunctionMemo &Memo, CompileOutcome &Out) {
  S.Key = Key;
  S.Hit = Memo.lookup(Key);
  ++(S.Hit ? Out.MemoHits : Out.MemoMisses);
}

/// Compiles the slots without a memo hit, folds every slot's counters and
/// remarks in slot order, offers the fresh units to \p Memo, and links.
/// No step reads another function of \p M.
CompileOutcome compileSlots(ir::Module &M, std::vector<Slot> &Slots,
                            const FuncIndexMap &FuncIndex,
                            const CompilerOptions &Opts,
                            stats::RemarkStream *Remarks, FunctionMemo *Memo,
                            CompileOutcome Out) {
  const size_t N = Slots.size();
  codegen::CodegenOptions CG = Opts.Codegen;
  CG.Jobs = Opts.Jobs;

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
    ir::Function &F = *Slots[I].F;
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
  for (const Slot &S : Slots) {
    const MemoizedFunction *MF = S.Hit ? S.Hit.get() : S.Fresh.get();
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

/// The function name of a (defun name ...) form, else null.
const sexpr::Symbol *defunName(sexpr::Value Form) {
  if (!Form.isCons() || !Form.car().isSymbol() ||
      Form.car().symbol()->name() != "defun")
    return nullptr;
  sexpr::Value Rest = Form.cdr();
  return Rest.isCons() && Rest.car().isSymbol() ? Rest.car().symbol()
                                                : nullptr;
}

} // namespace

CompileOutcome driver::compileModule(ir::Module &M, const CompilerOptions &Opts,
                                     stats::RemarkStream *Remarks,
                                     FunctionMemo *Memo) {
  CompileOutcome Out;
  // Pre-assign module-function indices so mutually recursive calls resolve
  // identically in every unit.
  FuncIndexMap FuncIndex;
  for (const auto &F : M.functions())
    FuncIndex[F->name()] = static_cast<int>(FuncIndex.size());

  std::vector<Slot> Slots(M.functions().size());
  for (size_t I = 0; I < Slots.size(); ++I)
    Slots[I].F = M.functions()[I].get();

  // Serial probe pass: hashing is cheap next to the middle end, and a
  // serial pass keeps the memo's hit/miss counter order deterministic.
  if (Memo) {
    stats::PhaseTimer Timer("driver.memo");
    const uint64_t OptsFp = optionsFingerprint(Opts);
    for (Slot &S : Slots)
      probe(S, memoKey(frontEntryOf(*S.F), OptsFp, FuncIndex), *Memo, Out);
  }
  return compileSlots(M, Slots, FuncIndex, Opts, Remarks, Memo, std::move(Out));
}

CompileOutcome driver::convertAndCompile(ir::Module &M, std::string_view Source,
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

CompileOutcome driver::compileSource(ir::Module &M, std::string_view Source,
                                     const CompilerOptions &Opts,
                                     stats::RemarkStream *Remarks,
                                     FunctionMemo *Memo) {
  if (!Memo)
    return convertAndCompile(M, Source, Opts, Remarks);

  CompileOutcome Out;
  DiagEngine Diags;
  FuncIndexMap FuncIndex;
  std::vector<Slot> Slots;
  {
    stats::PhaseTimer Timer("frontend.convert");
    std::vector<sexpr::Value> Forms =
        sexpr::readAll(M.Syms, M.DataHeap, Source, Diags);
    if (Diags.hasErrors()) {
      Out.Error = Diags.str();
      return Out;
    }
    // The index compileModule would build, from the defun names alone.
    for (sexpr::Value Form : Forms)
      if (const sexpr::Symbol *Name = defunName(Form))
        FuncIndex[Name->name()] = static_cast<int>(FuncIndex.size());

    const uint64_t OptsFp = optionsFingerprint(Opts);
    // The names of the specials proclaimed so far, in order: conversion
    // reads them, so they are part of every front key.
    uint64_t SpecialsKey = ir::hashString(0, "s1lisp.front.v1");
    size_t SpecialsSeen = 0;
    for (sexpr::Value Form : Forms) {
      const sexpr::Symbol *Name = defunName(Form);
      // Proclamations always convert. After an error every form converts,
      // as convertAndCompile would, and the memo is not probed again.
      if (!Name || Diags.hasErrors()) {
        frontend::convertTopLevel(M, Form, Diags);
        for (; SpecialsSeen < M.Specials.size(); ++SpecialsSeen)
          SpecialsKey =
              ir::hashString(SpecialsKey, M.Specials[SpecialsSeen]->name());
        continue;
      }
      const uint64_t FrontKey = ir::stableDatumHash(SpecialsKey, Form);
      Slot S;
      if (std::shared_ptr<const FrontEntry> E = Memo->lookupFront(FrontKey)) {
        probe(S, memoKey(*E, OptsFp, FuncIndex), *Memo, Out);
        if (S.Hit) {
          // Replay what converting the form would have recorded.
          stats::applyTallyDeltas(E->Tally);
          Slots.push_back(std::move(S));
          continue;
        }
        S.F = frontend::convertTopLevel(M, Form, Diags);
      } else {
        // Convert under a private tally, so the entry can replay it.
        const size_t DiagsBefore = Diags.diagnostics().size();
        stats::LocalTally T;
        {
          stats::TallyScope Scope(T);
          S.F = frontend::convertTopLevel(M, Form, Diags);
        }
        std::vector<stats::TallyDelta> Deltas = T.deltas();
        stats::applyTallyDeltas(Deltas);
        if (!S.F)
          continue;
        auto Entry = std::make_shared<FrontEntry>(frontEntryOf(*S.F));
        Entry->Tally = std::move(Deltas);
        probe(S, memoKey(*Entry, OptsFp, FuncIndex), *Memo, Out);
        // A hit must leave Diags as converting would, so a form that
        // reported anything (a warning included) is not remembered.
        if (Diags.diagnostics().size() == DiagsBefore)
          Memo->insertFront(FrontKey, std::move(Entry));
      }
      if (S.F)
        Slots.push_back(std::move(S));
    }
  }
  if (Diags.hasErrors()) {
    // As without a memo: no memo traffic is reported for a failed convert.
    CompileOutcome Failed;
    Failed.Error = Diags.str();
    return Failed;
  }
  return compileSlots(M, Slots, FuncIndex, Opts, Remarks, Memo, std::move(Out));
}

std::string driver::listing(const s1::Program &P) {
  std::string Out;
  for (const s1::AsmFunction &F : P.Functions) {
    Out += s1::printListing(F);
    Out += '\n';
  }
  return Out;
}
