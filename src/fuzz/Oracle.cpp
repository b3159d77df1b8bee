//===- fuzz/Oracle.cpp ----------------------------------------------------===//

#include "fuzz/Oracle.h"

#include "frontend/Convert.h"
#include "interp/Interp.h"
#include "sexpr/Printer.h"
#include "stats/Stats.h"
#include "support/Parallel.h"
#include "vm/Machine.h"

#include <algorithm>
#include <optional>

using namespace s1lisp;
using namespace s1lisp::fuzz;
using sexpr::Value;

ErrorClass fuzz::classifyError(const std::string &Message) {
  auto Has = [&](const char *Needle) {
    return Message.find(Needle) != std::string::npos;
  };
  if (Has("stack overflow"))
    return ErrorClass::Other;
  if (Has("overflow"))
    return ErrorClass::Overflow;
  if (Has("wrong type"))
    return ErrorClass::WrongType;
  if (Has("wrong number of arguments"))
    return ErrorClass::WrongArgCount;
  if (Has("division by zero"))
    return ErrorClass::DivisionByZero;
  if (Has("fuel"))
    return ErrorClass::Fuel;
  if (Has("undefined function") || Has("not defined"))
    return ErrorClass::Undefined;
  if (Has("non-function"))
    return ErrorClass::NotAFunction;
  if (Has("unbound"))
    return ErrorClass::Unbound;
  return ErrorClass::Other;
}

Outcome Outcome::value(std::string Printed) {
  Outcome O;
  O.K = Kind::Value;
  O.Text = std::move(Printed);
  return O;
}

Outcome Outcome::error(std::string Message) {
  Outcome O;
  O.K = Kind::Error;
  O.EC = classifyError(Message);
  O.Text = std::move(Message);
  return O;
}

Outcome Outcome::compileError(std::string Message) {
  Outcome O;
  O.K = Kind::CompileError;
  O.EC = ErrorClass::Other;
  O.Text = std::move(Message);
  return O;
}

namespace {

/// One interpreter run from a fresh evaluator (no state carries over
/// between grid points, in particular after an error).
Outcome interpRun(ir::Module &M, const std::string &Entry,
                  const std::vector<Value> &Args, uint64_t Fuel,
                  uint64_t GcEvery) {
  interp::Interpreter I(M);
  I.setFuel(Fuel);
  if (GcEvery) {
    I.setGcEvery(GcEvery);
    I.setGcVerify(true);
  }
  std::vector<interp::RtValue> RtArgs;
  RtArgs.reserve(Args.size());
  for (Value V : Args)
    RtArgs.push_back(interp::RtValue::data(V));
  interp::Interpreter::Result R = I.call(Entry, RtArgs);
  if (!R.Ok)
    return Outcome::error(R.Error);
  return Outcome::value(R.Value.str());
}

/// One simulator run from a fresh machine (a trap leaves a machine in an
/// undefined state, so each grid point gets its own address space). The
/// pre-decoded program is shared across every machine built for the same
/// compile, so the grid pays for decoding once.
Outcome vmRun(const s1::Program &P, ir::Module &M, const std::string &Entry,
              const std::vector<Value> &Args, uint64_t Fuel, vm::Engine Eng,
              uint64_t GcEvery,
              const std::shared_ptr<const vm::DecodedProgram> &Decoded) {
  vm::Machine VM(P, M.Syms, M.DataHeap);
  VM.setFuel(Fuel);
  VM.setEngine(Eng);
  VM.setGcEvery(GcEvery);
  if (Decoded)
    VM.setDecodedProgram(Decoded);
  vm::Machine::RunResult R = VM.call(Entry, Args);
  if (!R.Ok)
    return Outcome::error(R.Error);
  return Outcome::value(R.Result ? sexpr::toString(*R.Result)
                                 : "#<undecodable>");
}

void compareOne(const Outcome &Ref, const Outcome &Act,
                const driver::AblationConfig &Config, size_t ArgIndex,
                const std::string &StatsJson, CheckResult &R) {
  ++R.RowsCompared;
  switch (judgeOutcome(Ref, Act, Config.Opts)) {
  case Judgement::Agree:
    return;
  case Judgement::ToleratedOverflow:
    ++R.ToleratedOverflows;
    return;
  case Judgement::ToleratedElision:
    ++R.ToleratedElisions;
    return;
  case Judgement::Diverge:
    R.Divergences.push_back({Config.Name, ArgIndex, Ref, Act, StatsJson});
    return;
  }
}

} // namespace

Judgement fuzz::judgeOutcome(const Outcome &Ref, const Outcome &Act,
                             const driver::CompilerOptions &Opts) {
  // The fixnum-width / fuel taint: either side overflowing (or running
  // out of fuel) makes the grid point incomparable across engines.
  auto Tainted = [](const Outcome &O) {
    return O.EC == ErrorClass::Overflow || O.EC == ErrorClass::Fuel;
  };
  if (Tainted(Ref) || Tainted(Act))
    return Judgement::ToleratedOverflow;
  if (Ref.K == Outcome::Kind::Error && Act.K == Outcome::Kind::Value &&
      (Opts.Optimize || Opts.Cse))
    return Judgement::ToleratedElision;
  bool Agree = false;
  if (Ref.K == Outcome::Kind::Value && Act.K == Outcome::Kind::Value)
    Agree = Ref.Text == Act.Text;
  else if (Ref.K == Outcome::Kind::Error && Act.K == Outcome::Kind::Error)
    Agree = Ref.EC == Act.EC;
  return Agree ? Judgement::Agree : Judgement::Diverge;
}

CheckResult fuzz::checkProgram(const GeneratedProgram &P,
                               const OracleOptions &O) {
  CheckResult R;
  std::vector<driver::AblationConfig> Matrix =
      O.Configs.empty() ? driver::ablationMatrix() : O.Configs;

  // The reference: the unoptimized interpreter over the converted tree.
  ir::Module RefM;
  DiagEngine Diags;
  if (!frontend::convertSource(RefM, P.Source, Diags)) {
    R.St = CheckResult::Status::ConvertError;
    R.ConvertMessage = Diags.str();
    return R;
  }
  std::vector<Outcome> Ref;
  Ref.reserve(P.ArgGrid.size());
  for (const std::vector<Value> &Args : P.ArgGrid)
    Ref.push_back(interpRun(RefM, P.Entry, Args, O.InterpFuel, O.GcEvery));

  // Every configuration is independent: it converts the source into its
  // own module and compiles that, the two calls driver::compileSource
  // makes without a memo, so it compiles what s1lispc and s1lispd do. It
  // runs the grid on its own machines, merging into a per-config result
  // slot. Its conversion is not counted (the reference's was); a captured
  // stats delta comes from a private tally around the compile alone, so
  // it covers optimize + codegen only and is the same at any job count.
  std::vector<CheckResult> PerConfig(Matrix.size());
  support::parallelFor(Matrix.size(), std::max(1u, O.Jobs), [&](size_t C) {
    const driver::AblationConfig &Config = Matrix[C];
    CheckResult &CR = PerConfig[C];
    ir::Module M;
    DiagEngine ConfigDiags;
    bool Converted;
    {
      stats::ThreadBaselineScope Uncounted;
      Converted = frontend::convertSource(M, P.Source, ConfigDiags);
    }
    stats::LocalTally Tally;
    std::optional<stats::TallyScope> Scope;
    if (O.CaptureStats)
      Scope.emplace(Tally);
    driver::CompileOutcome Out;
    if (Converted)
      Out = driver::compileModule(M, Config.Opts);
    else
      Out.Error = ConfigDiags.str();
    Scope.reset();
    std::string StatsJson = O.CaptureStats
                                ? stats::tallyDeltasJson(Tally.deltas())
                                : std::string();
    if (!Out.Ok) {
      // The reference converted this program, so failing to compile it is
      // itself a divergence, reported once against the first grid row.
      CR.Divergences.push_back({Config.Name, 0,
                                Ref.empty() ? Outcome() : Ref.front(),
                                Outcome::compileError(Out.Error), StatsJson});
      return;
    }
    std::shared_ptr<const vm::DecodedProgram> Decoded =
        O.Engine != vm::Engine::Legacy ? vm::predecode(Out.Program) : nullptr;
    for (size_t I = 0; I < P.ArgGrid.size(); ++I) {
      Outcome Act = vmRun(Out.Program, M, P.Entry, P.ArgGrid[I], O.VmFuel,
                          O.Engine, O.GcEvery, Decoded);
      compareOne(Ref[I], Act, Config, I, StatsJson, CR);
    }
  });
  // Merge in matrix order so reports are deterministic under any schedule.
  for (CheckResult &CR : PerConfig) {
    R.RowsCompared += CR.RowsCompared;
    R.ToleratedOverflows += CR.ToleratedOverflows;
    R.ToleratedElisions += CR.ToleratedElisions;
    for (Divergence &D : CR.Divergences)
      R.Divergences.push_back(std::move(D));
  }
  R.St = R.Divergences.empty() ? CheckResult::Status::Agree
                               : CheckResult::Status::Diverged;
  return R;
}

std::vector<Divergence> fuzz::checkAgainstConfig(
    const std::string &Source, const std::string &Entry,
    const std::vector<std::vector<Value>> &Grid,
    const driver::AblationConfig &Config, const OracleOptions &O) {
  GeneratedProgram P;
  P.Source = Source;
  P.Entry = Entry;
  P.ArgGrid = Grid;
  OracleOptions Single = O;
  Single.Configs = {Config};
  // A candidate that no longer converts is simply not a failing candidate.
  return checkProgram(P, Single).Divergences;
}
