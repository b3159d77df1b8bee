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
  if (Remarks)
    for (const stats::Remark &R : *Remarks)
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
  return {F.name(), ir::referencedGlobalNames(F), {}};
}

/// The memo key for the defun with front key \p FrontKey, which \p E
/// describes, under \p OptsFp: front key + options + the module-index
/// resolution of every global name the unit's code could bake into an
/// immediate.
uint64_t memoKey(uint64_t FrontKey, const FrontEntry &E, uint64_t OptsFp,
                 const FuncIndexMap &FuncIndex) {
  uint64_t K = ir::hashCombine(FrontKey, OptsFp);
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

/// Looks \p Key up. A hit stored without remarks cannot serve a caller
/// that wants them: it counts as a hit, since its key matched, but the
/// slot compiles as a miss does, and the fresh entry replaces it.
void probe(Slot &S, uint64_t Key, FunctionMemo &Memo, bool WantRemarks,
           CompileOutcome &Out) {
  S.Key = Key;
  S.Hit = Memo.lookup(Key);
  ++(S.Hit ? Out.MemoHits : Out.MemoMisses);
  if (S.Hit && WantRemarks && !S.Hit->Remarks)
    S.Hit = nullptr;
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

  // Compile the misses, fanned out per function. Each function optimizes
  // and generates code against private remark/stat sinks; folding those in
  // function order afterwards makes the transcript and counter totals
  // independent of worker scheduling AND lets a memo store the deltas for
  // bit-identical replay on later hits. The counter sink is engaged when
  // there is a memo or the caller collects stats, the remark sink only
  // when the caller asked for remarks. The nested phase timers fire only
  // at Jobs <= 1, where the lambda runs on this thread.
  const bool Tally = stats::enabled();
  support::parallelFor(N, Opts.Jobs, [&](size_t I) {
    if (Slots[I].Hit)
      return;
    ir::Function &F = *Slots[I].F;
    auto MF = std::make_shared<MemoizedFunction>();
    stats::LocalTally T;
    stats::RemarkStream R;
    stats::RemarkStream *RS = Remarks ? &R : nullptr;
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
        MF->Unit = codegen::compileFunctionUnit(M, F, Opts.Codegen, FuncIndex);
    }
    MF->Tally = T.deltas();
    if (Remarks)
      MF->Remarks = std::move(R.Remarks);
    Slots[I].Fresh = std::move(MF);
  });

  // Fold observability in function order: counter deltas replay through
  // the ambient record() path (so a surrounding TallyScope — e.g. a
  // service request's — sees them), remarks merge into the caller's
  // stream. Cached and fresh slots replay identically; with a stream,
  // probe() left only hits that hold remarks.
  for (const Slot &S : Slots) {
    const MemoizedFunction *MF = S.Hit ? S.Hit.get() : S.Fresh.get();
    stats::applyTallyDeltas(MF->Tally);
    if (Remarks)
      for (const stats::Remark &Rm : *MF->Remarks)
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
      Form.car().symbol()->known() != sexpr::Known::Defun)
    return nullptr;
  sexpr::Value Rest = Form.cdr();
  return Rest.isCons() && Rest.car().isSymbol() ? Rest.car().symbol()
                                                : nullptr;
}

} // namespace

CompileOutcome driver::compileModule(ir::Module &M, const CompilerOptions &Opts,
                                     stats::RemarkStream *Remarks) {
  // Pre-assign module-function indices so mutually recursive calls resolve
  // identically in every unit.
  FuncIndexMap FuncIndex;
  for (const auto &F : M.functions())
    FuncIndex[F->name()] = static_cast<int>(FuncIndex.size());

  std::vector<Slot> Slots(M.functions().size());
  for (size_t I = 0; I < Slots.size(); ++I)
    Slots[I].F = M.functions()[I].get();
  return compileSlots(M, Slots, FuncIndex, Opts, Remarks, nullptr, {});
}

namespace {

/// Converts every top-level form in \p Source into \p M, then runs
/// compileModule.
CompileOutcome convertAndCompile(ir::Module &M, std::string_view Source,
                                 const CompilerOptions &Opts,
                                 stats::RemarkStream *Remarks) {
  CompileOutcome Out;
  DiagEngine Diags;
  {
    stats::PhaseTimer Timer("frontend.convert");
    if (!frontend::convertSource(M, Source, Diags)) {
      Out.Error = Diags.str();
      return Out;
    }
  }
  return compileModule(M, Opts, Remarks);
}

/// One top-level form on the front-cache path: its span, its front key,
/// the front entry that key found, and its datum once it has been read.
struct TopLevelForm {
  sexpr::FormSpan Span;
  uint64_t FrontKey = 0;
  std::shared_ptr<const FrontEntry> Front;
  std::optional<sexpr::Value> Datum;

  /// The function name when the form is a defun, else null. A front
  /// miss has been read by the time this is asked.
  const std::string *functionName() const {
    if (Front)
      return &Front->Name;
    const sexpr::Symbol *Name = defunName(*Datum);
    return Name ? &Name->name() : nullptr;
  }
};

} // namespace

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
  bool Scanned = true;
  {
    stats::PhaseTimer Timer("frontend.convert");
    sexpr::Reader R(M.Syms, M.DataHeap, Source, Diags);
    std::vector<TopLevelForm> Forms;
    {
      stats::PhaseTimer ReadTimer("frontend.read");
      std::vector<sexpr::FormSpan> Spans;
      Scanned = R.scan(Spans);
      if (!Scanned)
        Spans.clear(); // converted whole below
      // A form's front key is its text mixed with the names of the
      // specials proclaimed before it, which conversion reads. Only the
      // forms the front cache misses are read here; a proclamation always
      // misses, and adds the specials it proclaims to the keys after it.
      uint64_t SpecialsKey = ir::hashString(0, "s1lisp.front.v1");
      Forms.reserve(Spans.size());
      for (const sexpr::FormSpan &Span : Spans) {
        TopLevelForm &F = Forms.emplace_back();
        F.Span = Span;
        F.FrontKey = ir::hashString(SpecialsKey,
                                    Source.substr(Span.Offset, Span.Length));
        F.Front = Memo->lookupFront(F.FrontKey);
        if (F.Front)
          continue;
        R.seek(Span);
        F.Datum = R.read();
        if (Diags.hasErrors()) {
          // The first form that fails to read, as readAll reports it.
          Out.Error = Diags.str();
          return Out;
        }
        for (const sexpr::Symbol *S : frontend::proclaimedSpecials(*F.Datum))
          SpecialsKey = ir::hashString(SpecialsKey, S->name());
      }
    }
    // The index compileModule would build, from the defun names alone.
    for (const TopLevelForm &F : Forms)
      if (const std::string *Name = F.functionName())
        FuncIndex[*Name] = static_cast<int>(FuncIndex.size());

    const uint64_t OptsFp = optionsFingerprint(Opts);
    const bool WantRemarks = Remarks != nullptr;
    // A front hit is read only if it has to convert.
    auto DatumOf = [&R](TopLevelForm &F) {
      if (!F.Datum) {
        stats::PhaseTimer ReadTimer("frontend.read");
        R.seek(F.Span);
        F.Datum = R.read();
      }
      return F.Datum.value_or(sexpr::Value::nil());
    };
    for (TopLevelForm &F : Forms) {
      // Proclamations always convert. After an error every form converts,
      // as convertAndCompile would, and the memo is not probed again.
      if (Diags.hasErrors() || !F.functionName()) {
        frontend::convertTopLevel(M, DatumOf(F), Diags);
        continue;
      }
      Slot S;
      if (F.Front) {
        probe(S, memoKey(F.FrontKey, *F.Front, OptsFp, FuncIndex), *Memo,
              WantRemarks, Out);
        if (S.Hit) {
          // Replay what converting the form would have recorded.
          stats::applyTallyDeltas(F.Front->Tally);
          Slots.push_back(std::move(S));
          continue;
        }
        S.F = frontend::convertTopLevel(M, DatumOf(F), Diags);
      } else {
        // Convert under a private tally, so the entry can replay it.
        const size_t DiagsBefore = Diags.diagnostics().size();
        stats::LocalTally T;
        {
          stats::TallyScope Scope(T);
          S.F = frontend::convertTopLevel(M, *F.Datum, Diags);
        }
        std::vector<stats::TallyDelta> Deltas = T.deltas();
        stats::applyTallyDeltas(Deltas);
        if (!S.F)
          continue;
        auto Entry = std::make_shared<FrontEntry>(frontEntryOf(*S.F));
        Entry->Tally = std::move(Deltas);
        probe(S, memoKey(F.FrontKey, *Entry, OptsFp, FuncIndex), *Memo,
              WantRemarks, Out);
        // A hit must leave Diags as converting would, so a form that
        // reported anything (a warning included) is not remembered.
        if (Diags.diagnostics().size() == DiagsBefore)
          Memo->insertFront(F.FrontKey, std::move(Entry));
      }
      if (S.F)
        Slots.push_back(std::move(S));
    }
  }
  // Input the reader rejects: read and convert it whole, as without a
  // memo, so the diagnostics are the reader's own. The conversion fails,
  // so nothing reaches the memo.
  if (!Scanned)
    return convertAndCompile(M, Source, Opts, Remarks);
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
