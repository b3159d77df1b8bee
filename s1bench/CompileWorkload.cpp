//===- s1bench/CompileWorkload.cpp - The `compile` workload ---------------===//
//
// An in-process cold driver::compileSource (jobs=1, no memo, no remarks)
// over a seeded corpus: the repository's examples, fuzz::Generator modules
// of 10 to 100 functions at -O2 with and without CSE, and single-function
// bodies of 1k to 8k setq forms. All the time goes to the frontend, opt
// and codegen layers; none goes to the VM.
//
// The compiled corpus is checked once against references the compiler did
// not produce (closed forms, the interpreter), and every later compile
// must reproduce the checked program exactly. The traced run compiles the
// corpus layer by layer through the layers' public functions, which must
// give a program bit-identical to driver::compileSource.
//
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include "codegen/Codegen.h"
#include "driver/Compiler.h"
#include "frontend/Convert.h"
#include "fuzz/Generator.h"
#include "opt/Cse.h"
#include "opt/MetaEval.h"
#include "stats/Stats.h"

#include <algorithm>
#include <filesystem>
#include <memory>
#include <optional>
#include <regex>

using namespace s1lisp;
using sexpr::Value;

namespace s1bench {
namespace {

/// One corpus module: its source, compiler options, and the entry calls
/// its compiled program is checked on.
struct Item {
  std::string Name;
  std::string Source;
  driver::CompilerOptions Opts;
  std::string Entry;
  std::vector<std::vector<Value>> Grid;
  /// Closed-form printed result per grid row; empty means the reference
  /// is the interpreter over the unoptimized tree.
  std::vector<std::string> ClosedForm;
};

/// A compiled module plus the exact program it must keep producing.
struct Compiled {
  std::unique_ptr<ir::Module> M;
  s1::Program Program;
  std::string Listing;
};

/// The integer argument of the call in `(defun main () (f N))`.
std::optional<int64_t> mainArgument(const std::string &Source) {
  static const std::regex Main(R"(\(defun\s+main\s*\(\)\s*\(\S+\s+(-?\d+)\))");
  std::smatch Mm;
  if (!std::regex_search(Source, Mm, Main))
    return std::nullopt;
  return std::stoll(Mm[1]);
}

/// The results the repository documents for its top-level examples. The
/// interpreter cannot serve as testfn's reference: the optimizer's
/// sin$f -> sinc$f rewrite legitimately changes its last digits.
std::optional<std::string> documentedResult(const std::string &Stem) {
  if (Stem == "exptl")
    return "1024";
  if (Stem == "testfn")
    return "-0.7568024773704285";
  return std::nullopt;
}

/// Closed forms of the examples/gc workloads, from their header comments.
std::optional<int64_t> gcClosedForm(const std::string &Stem, int64_t N) {
  if (Stem == "map-chain") // 3 * (n(n-1)(2n-1)/6 + n)
    return 3 * (N * (N - 1) * (2 * N - 1) / 6 + N);
  if (Stem == "assoc") // n(n-1)(2n-1)/6
    return N * (N - 1) * (2 * N - 1) / 6;
  if (Stem == "append-reverse") // n * n(n+1)/2
    return N * (N * (N + 1) / 2);
  return std::nullopt;
}

void addExamples(const std::string &Dir, bool ClosedForms,
                 std::vector<Item> &Out) {
  std::vector<std::filesystem::path> Files;
  std::error_code Ec;
  for (const auto &E : std::filesystem::directory_iterator(Dir, Ec))
    if (E.path().extension() == ".lisp")
      Files.push_back(E.path());
  std::sort(Files.begin(), Files.end());
  for (const auto &P : Files) {
    Item It;
    It.Name = "example:" + P.stem().string();
    readFile(P.string(), It.Source);
    It.Entry = "main";
    It.Grid = {{}};
    if (auto V = documentedResult(P.stem().string()))
      It.ClosedForm = {*V};
    if (ClosedForms)
      if (auto N = mainArgument(It.Source))
        if (auto V = gcClosedForm(P.stem().string(), *N))
          It.ClosedForm = {std::to_string(*V)};
    Out.push_back(std::move(It));
  }
}

/// One function whose body is a `let` of four variables followed by \p N
/// seeded `setq` forms, each adding or subtracting a small constant; its
/// value (the sum of the four) is computed here alongside.
Item longBody(uint64_t Seed, unsigned N) {
  static const char *Vars[] = {"a", "b", "c", "d"};
  static const int64_t Args[] = {3, -11};
  Item It;
  It.Name = "long" + std::to_string(N);
  It.Entry = "long-body";
  std::string S = "(defun long-body (x)\n  (let ((a x) (b 1) (c 2) (d 3))\n";
  struct Step {
    unsigned Dst, Src;
    int64_t K;
  };
  std::vector<Step> Steps;
  for (unsigned I = 0; I < N; ++I) {
    uint64_t H = mix(Seed, I);
    Step St{static_cast<unsigned>(H % 4), static_cast<unsigned>((H >> 8) % 4),
            static_cast<int64_t>((H >> 16) % 19) - 9};
    Steps.push_back(St);
    S += std::string("    (setq ") + Vars[St.Dst] + " (" +
         (St.K < 0 ? "- " : "+ ") + Vars[St.Src] + " " +
         std::to_string(St.K < 0 ? -St.K : St.K) + "))\n";
  }
  S += "    (+ a b c d)))\n";
  It.Source = std::move(S);
  for (int64_t X : Args) {
    int64_t V[4] = {X, 1, 2, 3};
    for (const Step &St : Steps)
      V[St.Dst] = V[St.Src] + St.K;
    It.Grid.push_back({Value::fixnum(X)});
    It.ClosedForm.push_back(std::to_string(V[0] + V[1] + V[2] + V[3]));
  }
  return It;
}

std::vector<Item> buildCorpus(const Options &O) {
  std::vector<Item> C;
  addExamples(O.Root + "/examples", false, C);
  addExamples(O.Root + "/examples/gc", true, C);
  // The generated modules come from fixed generator seeds, renamed by the
  // run's seed: a freshly generated module's compile time varies by 20-40%
  // from one generator seed to the next, which would swamp the bounds.
  std::string Suffix = "-s" + std::to_string(O.Seed);
  for (unsigned Fns : {10u, 25u, 50u, 100u}) {
    fuzz::GenOptions GO;
    GO.Helpers = Fns - 1;
    GO.MaxDepth = 5;
    GO.SizeBudget = 120;
    fuzz::GeneratedProgram P = fuzz::Generator(7000 + Fns, GO).generate();
    for (bool Cse : {false, true}) {
      Item It;
      It.Name = "gen" + std::to_string(Fns) + (Cse ? "+cse" : "");
      It.Source = renameFunctions(P.Source, Suffix);
      It.Opts.Cse = Cse;
      It.Entry = P.Entry + Suffix;
      It.Grid = P.ArgGrid;
      C.push_back(std::move(It));
    }
  }
  for (unsigned N : {1000u, 2000u, 4000u, 8000u})
    C.push_back(longBody(mix(O.Seed, 0x10000 + N), N));
  return C;
}

/// The checked compile: driver::compileSource, as a user calls it.
bool compileWhole(const Item &It, Compiled &Out, std::string &Err) {
  Out.M = std::make_unique<ir::Module>();
  driver::CompileOutcome R = driver::compileSource(*Out.M, It.Source, It.Opts);
  if (!R.Ok) {
    Err = R.Error;
    return false;
  }
  Out.Program = std::move(R.Program);
  return true;
}

/// The same compile, one public layer function at a time, with a span
/// around each call. Mirrors driver::compileModule at jobs=1 without memo
/// or remarks.
bool compileByLayers(const Item &It, Compiled &Out, std::string &Err) {
  Out.M = std::make_unique<ir::Module>();
  ir::Module &M = *Out.M;
  DiagEngine Diags;
  bool Converted;
  {
    Span S("frontend::convertSource");
    Converted = frontend::convertSource(M, It.Source, Diags);
  }
  if (!Converted) {
    Err = Diags.str();
    return false;
  }
  std::unordered_map<std::string, int> FuncIndex;
  for (const auto &F : M.functions())
    FuncIndex[F->name()] = static_cast<int>(FuncIndex.size());
  codegen::CodegenOptions CG = It.Opts.Codegen;
  CG.Jobs = It.Opts.Jobs;
  std::vector<codegen::CompiledUnit> Units(M.functions().size());
  for (size_t I = 0; I < Units.size(); ++I) {
    ir::Function &F = *M.functions()[I];
    if (It.Opts.Optimize) {
      Span S("opt::metaEvaluate");
      opt::metaEvaluate(F, It.Opts.Opt, nullptr);
    }
    if (It.Opts.Cse) {
      Span S("opt::eliminateCommonSubexpressions");
      opt::eliminateCommonSubexpressions(F, It.Opts.CseOpts, nullptr);
    }
    Span S("codegen::compileFunctionUnit");
    Units[I] = codegen::compileFunctionUnit(M, F, CG, FuncIndex);
  }
  std::vector<const codegen::CompiledUnit *> Ptrs;
  for (const codegen::CompiledUnit &U : Units)
    Ptrs.push_back(&U);
  codegen::CompileResult R;
  {
    Span S("codegen::linkUnits");
    R = codegen::linkUnits(M, Ptrs);
  }
  if (!R.Ok) {
    Err = R.Error;
    return false;
  }
  Out.Program = std::move(R.Program);
  return true;
}

/// Runs every item's compiled program on its grid and compares it with the
/// item's reference. Done once, outside timing. Returns the simulated
/// instructions retired by the examples and long bodies (the generated
/// modules' run lengths vary too much by seed to be compared).
uint64_t checkAgainstReferences(const std::vector<Item> &Corpus,
                                const std::vector<Compiled> &Programs,
                                Report &R, unsigned &Rows, unsigned &Skipped) {
  uint64_t Retired = 0;
  for (size_t I = 0; I < Corpus.size(); ++I) {
    const Item &It = Corpus[I];
    ir::Module RefM;
    DiagEngine Diags;
    bool Interp = It.ClosedForm.empty();
    if (Interp && !frontend::convertSource(RefM, It.Source, Diags)) {
      R.attempt();
      R.fail(It.Name + ": reference conversion failed: " + Diags.str());
      continue;
    }
    for (size_t Row = 0; Row < It.Grid.size(); ++Row) {
      R.attempt();
      ++Rows;
      fuzz::Outcome Ref = Interp ? interpOutcome(RefM, It.Entry, It.Grid[Row])
                                 : fuzz::Outcome::value(It.ClosedForm[Row]);
      uint64_t Insns = 0;
      fuzz::Outcome Act = vmOutcome(Programs[I].Program, *Programs[I].M,
                                    It.Entry, It.Grid[Row], &Insns);
      if (It.Name.rfind("gen", 0) != 0)
        Retired += Insns;
      Verdict V = compareOutcomes(Ref, Act, It.Opts.Optimize || It.Opts.Cse);
      if (V == Verdict::Skipped)
        ++Skipped;
      else if (V == Verdict::Disagree)
        R.fail(It.Name + " row " + std::to_string(Row) + ": expected " +
               Ref.Text + ", got " + Act.Text);
    }
  }
  return Retired;
}

/// Per-pass latencies of one corpus pass.
struct Pass {
  std::vector<double> Ms;
  double TotalMs = 0;
};

} // namespace

void runCompileWorkload(const Options &O, Report &R) {
  // Set-up: build the corpus and compile it once, so lazy initialization
  // and page faults are paid before timing. Repeated; median reported.
  std::vector<Item> Corpus;
  std::vector<Compiled> Checked;
  std::vector<double> SetupS;
  while (moreSetups(SetupS)) {
    auto T0 = Clock::now();
    Corpus = buildCorpus(O);
    Checked.clear();
    Checked.resize(Corpus.size());
    for (size_t I = 0; I < Corpus.size(); ++I) {
      std::string Err;
      if (!compileWhole(Corpus[I], Checked[I], Err)) {
        R.attempt();
        R.fail(Corpus[I].Name + ": " + Err);
        return;
      }
    }
    SetupS.push_back(secondsSince(T0));
  }
  double SourceKb = 0;
  size_t CodeWordsTotal = 0;
  for (size_t I = 0; I < Corpus.size(); ++I) {
    SourceKb += static_cast<double>(Corpus[I].Source.size()) / 1024.0;
    Checked[I].Listing = driver::listing(Checked[I].Program);
    CodeWordsTotal += codeWords(Checked[I].Program);
  }

  unsigned Rows = 0, Skipped = 0;
  uint64_t Retired = checkAgainstReferences(Corpus, Checked, R, Rows, Skipped);
  R.note("corpus: " + std::to_string(Corpus.size()) + " modules, " +
         std::to_string(static_cast<int>(SourceKb)) + " KB source; " +
         std::to_string(Rows) + " reference rows checked, " +
         std::to_string(Skipped) + " skipped (fixnum width or fuel)");

  // A compile must reproduce the checked program exactly: same listing,
  // same static pool. A difference is a failure, not noise.
  auto Reproduces = [&](size_t I, const Compiled &C, const char *How) {
    R.attempt();
    if (C.Program.Static != Checked[I].Program.Static ||
        driver::listing(C.Program) != Checked[I].Listing)
      R.fail(Corpus[I].Name + ": " + How +
             " compile differs from the checked program");
  };

  auto RunPass = [&](bool ByLayers, uint64_t PassNo) {
    Pass P;
    for (size_t I = 0; I < Corpus.size(); ++I) {
      Compiled C;
      std::string Err;
      bool Ok;
      auto T0 = Clock::now();
      {
        OpScope Op(PassNo * 1000 + I);
        Span S("compile");
        Ok = ByLayers ? compileByLayers(Corpus[I], C, Err)
                      : compileWhole(Corpus[I], C, Err);
      }
      double Ms = secondsSince(T0) * 1e3;
      P.Ms.push_back(Ms);
      P.TotalMs += Ms;
      if (!Ok) {
        R.attempt();
        R.fail(Corpus[I].Name + ": " + Err);
      } else {
        Reproduces(I, C, ByLayers ? "layer-by-layer" : "repeated");
      }
    }
    return P;
  };

  const auto Deadline =
      Clock::now() + std::chrono::duration<double>(O.Seconds);

  if (!O.Trace) {
    std::vector<double> P50, P90, PassS;
    std::vector<std::vector<double>> ItemMs(Corpus.size());
    Calibration Cal;
    for (uint64_t N = 0; N < 3 || Clock::now() < Deadline; ++N) {
      Cal.sample();
      Pass P = RunPass(false, N);
      for (size_t I = 0; I < Corpus.size(); ++I)
        ItemMs[I].push_back(P.Ms[I]);
      P50.push_back(percentile(P.Ms, 0.5));
      P90.push_back(percentile(P.Ms, 0.9));
      PassS.push_back(P.TotalMs / 1e3);
    }
    double Pass = quiet(PassS);
    R.note("passes: " + std::to_string(P50.size()) +
           "; quiet compile time per module (ms):");
    for (size_t I = 0; I < Corpus.size(); ++I)
      R.note("  " + Corpus[I].Name + " " + std::to_string(quiet(ItemMs[I])));
    const double F = Cal.factor();
    R.scaled("setup_s", median(SetupS), "s", F);
    R.scaled("latency_ms_p50", quiet(P50), "ms", F);
    R.scaled("latency_ms_p90", quiet(P90), "ms", F);
    R.scaled("ops_per_s", static_cast<double>(Corpus.size()) / Pass, "1/s",
             1 / F);
    R.metric("peak_rss_mb", selfPeakRssMb(), "MB");
    R.metric("code_words", static_cast<double>(CodeWordsTotal), "words");
    R.metric("s1_instructions", static_cast<double>(Retired), "count");
    R.extra("compile_ms_p50", quiet(P50) * F, "ms");
    R.extra("compile_ms_p90", quiet(P90) * F, "ms");
    R.extra("compile_src_kb_per_s", SourceKb / Pass / F, "KB/s");
    R.extra("median_pass_s", median(PassS), "s");
    R.extra("calibration_ms", Cal.quietMs(), "ms");
    return;
  }

  // Traced run: untraced whole-pipeline passes alternate with traced
  // layer-by-layer passes; counters are collected on the traced ones only.
  static const char *CounterNames[] = {
      "opt.metaeval.rewrites", "opt.metaeval.passes", "codegen.instructions",
      "codegen.movs",          "tnbind.vars.registers", "tnbind.vars.frame"};
  std::vector<double> Untraced, Traced;
  std::optional<Counters> FirstDeltas;
  Counters Deltas;
  uint64_t TracedModules = 0;
  for (uint64_t N = 0; N < 4 || Clock::now() < Deadline; ++N) {
    bool Trace = N % 2 == 1;
    if (!Trace) {
      Untraced.push_back(RunPass(false, N).TotalMs);
      continue;
    }
    setTracing(true);
    stats::setEnabled(true);
    Counters Before = snapshotCounters();
    Traced.push_back(RunPass(true, N).TotalMs);
    Counters After = snapshotCounters();
    stats::setEnabled(false);
    setTracing(false);
    TracedModules += Corpus.size();
    Deltas.clear();
    for (const char *C : CounterNames)
      Deltas[C] = counterDelta(Before, After, C);
    R.attempt();
    if (!FirstDeltas)
      FirstDeltas = Deltas;
    else if (*FirstDeltas != Deltas)
      R.fail("compile counters differ between identical traced passes");
  }

  std::map<std::string, LayerTime> L = layerTimes();
  auto PerModule = [&](const char *Span) {
    return L[Span].TotalMs / static_cast<double>(TracedModules);
  };
  double CompileMs = L["compile"].TotalMs;
  R.note("passes: " + std::to_string(Untraced.size()) + " untraced, " +
         std::to_string(Traced.size()) + " traced; every layer-by-layer "
         "program bit-identical to driver::compileSource");
  R.metric("frontend.convert_ms", PerModule("frontend::convertSource"), "ms");
  R.metric("frontend.convert_share",
           L["frontend::convertSource"].TotalMs / CompileMs, "ratio");
  R.metric("opt.metaeval_ms", PerModule("opt::metaEvaluate"), "ms");
  R.metric("opt.metaeval_rewrites",
           static_cast<double>(Deltas["opt.metaeval.rewrites"]), "count");
  R.metric("opt.metaeval_passes",
           static_cast<double>(Deltas["opt.metaeval.passes"]), "count");
  R.metric("opt.cse_ms", PerModule("opt::eliminateCommonSubexpressions"),
           "ms");
  R.metric("codegen.unit_ms", PerModule("codegen::compileFunctionUnit"), "ms");
  R.metric("codegen.link_ms", PerModule("codegen::linkUnits"), "ms");
  R.metric("codegen.instructions",
           static_cast<double>(Deltas["codegen.instructions"]), "count");
  R.metric("codegen.movs", static_cast<double>(Deltas["codegen.movs"]),
           "count");
  R.metric("tnbind.vars_registers",
           static_cast<double>(Deltas["tnbind.vars.registers"]), "count");
  R.metric("tnbind.vars_frame",
           static_cast<double>(Deltas["tnbind.vars.frame"]), "count");
  R.metric("trace.overhead", quiet(Traced) / quiet(Untraced), "ratio");
}

} // namespace s1bench
