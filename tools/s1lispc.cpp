//===- tools/s1lispc.cpp - The S1LISP command-line compiler driver --------===//
//
// Drives the whole Table 1 pipeline over real .lisp files: compile,
// print listings, run on the S-1 simulator (or the interpreter, as the
// semantic oracle), with every CompilerOptions ablation switch exposed
// and the full observability surface — phase timing, the statistics
// registry, and structured optimization remarks — on tap.
//
//===----------------------------------------------------------------------===//

#include "driver/Ablation.h"
#include "driver/Compiler.h"
#include "frontend/Convert.h"
#include "interp/Interp.h"
#include "service/Client.h"
#include "sexpr/Printer.h"
#include "stats/Remark.h"
#include "stats/Stats.h"
#include "vm/Machine.h"

#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

using namespace s1lisp;

namespace {

const char *UsageText =
    "usage: s1lispc [options] file.lisp...\n"
    "\n"
    "Compiles LISP source files with the S-1 pipeline (conversion ->\n"
    "optimization -> annotation -> TNBIND -> code generation) and\n"
    "optionally runs the result on the S-1/64 simulator.\n"
    "\n"
    "Execution:\n"
    "  --run[=ENTRY]       compile, then call ENTRY (default \"main\") with\n"
    "                      no arguments on the simulator\n"
    "  --interp[=ENTRY]    evaluate ENTRY with the tree-walking interpreter\n"
    "                      instead (the semantic oracle)\n"
    "  --engine=E          simulator dispatch engine: \"threaded\" (pre-decoded\n"
    "                      direct-threaded loop, default), \"native\" (template\n"
    "                      JIT over the pre-decoded stream; x86-64 only, falls\n"
    "                      back to threaded elsewhere) or \"legacy\" (the\n"
    "                      original per-step switch)\n"
    "  --listing           print the generated assembly (Table 4 style)\n"
    "  --server=SOCKET     submit the compile to a running s1lispd at the\n"
    "                      given unix socket instead of compiling locally\n"
    "                      (same output; warm daemons reuse cached units)\n"
    "\n"
    "Garbage collection (--run / --interp):\n"
    "  --gc-every=N        collect the runtime heap every N allocations\n"
    "                      (0 = never, the default): conses under --interp,\n"
    "                      every word-heap object (conses, boxed numbers,\n"
    "                      closures, environments) under --run; results\n"
    "                      are identical with or without collections\n"
    "  --heap-budget=BYTES collect when the heap outgrows BYTES: the\n"
    "                      tenured generation under --interp, the live\n"
    "                      word heap under --run\n"
    "  --gc-verify         re-verify the heap after every collection\n"
    "                      (debugging aid; aborts on corruption)\n"
    "\n"
    "Optimization level:\n"
    "  -O0                 disable the source-level optimizer\n"
    "  -O2                 enable it (default)\n"
    "  --cse               also run the 4.3 common-subexpression phase\n"
    "\n"
    "Per-phase ablations (mirror driver::CompilerOptions):\n"
    "  --no-substitute --no-if-distribute --no-constant-fold\n"
    "  --no-assoc-commut --no-identity-elim --no-redundant-test\n"
    "  --no-machine-trig --no-dead-code --no-registers\n"
    "  --no-register-temps --no-rep-analysis --no-pdl-numbers\n"
    "  --no-special-cache --no-tail-calls\n"
    "\n"
    "Observability:\n"
    "  --time-phases       print the per-phase timing report\n"
    "  --stats[=json]      print the statistics registry (text or JSON)\n"
    "  --remarks=FILE      write optimization remarks as JSON to FILE\n"
    "                      (\"-\" writes to stdout)\n"
    "  --transcript        print the paper-style ;**** rewrite transcript\n"
    "\n"
    "  --help              this text\n";

struct CliOptions {
  std::vector<std::string> Files;
  driver::CompilerOptions Compiler;
  /// The raw compiler-option tokens (-O0, --cse, --no-*), kept so
  /// --server can forward them verbatim in the request's options field.
  std::vector<std::string> CompilerFlags;
  std::string Server; ///< unix-socket path; empty compiles locally
  bool Listing = false;
  bool Run = false;
  bool Interp = false;
  vm::Engine Engine = vm::Engine::Threaded;
  std::string Entry = "main";
  bool TimePhases = false;
  bool Stats = false;
  bool StatsJson = false;
  std::string RemarksFile; ///< empty: none; "-": stdout
  bool Transcript = false;
  uint64_t GcEvery = 0;   ///< 0 = never collect (grow-only, the default)
  uint64_t HeapBudget = 0; ///< heap budget in bytes; 0 = unbounded
  bool GcVerify = false;
};

bool parseUnsignedArg(const char *Text, const char *Flag, uint64_t &Out) {
  char *End = nullptr;
  unsigned long long V = std::strtoull(Text, &End, 10);
  if (End == Text || *End != '\0') {
    fprintf(stderr, "s1lispc: %s needs a non-negative integer\n", Flag);
    return false;
  }
  Out = V;
  return true;
}

bool startsWith(const char *Arg, const char *Prefix) {
  return std::strncmp(Arg, Prefix, std::strlen(Prefix)) == 0;
}

/// Parses argv; returns false (after printing a message) on bad usage.
bool parseArgs(int Argc, char **Argv, CliOptions &O) {
  for (int I = 1; I < Argc; ++I) {
    const char *A = Argv[I];
    if (std::strcmp(A, "--help") == 0 || std::strcmp(A, "-h") == 0) {
      fputs(UsageText, stdout);
      std::exit(0);
    } else if (std::strcmp(A, "--listing") == 0) {
      O.Listing = true;
    } else if (std::strcmp(A, "--run") == 0) {
      O.Run = true;
    } else if (startsWith(A, "--run=")) {
      O.Run = true;
      O.Entry = A + 6;
    } else if (std::strcmp(A, "--interp") == 0) {
      O.Interp = true;
    } else if (startsWith(A, "--interp=")) {
      O.Interp = true;
      O.Entry = A + 9;
    } else if (startsWith(A, "--engine=")) {
      auto E = vm::engineByName(A + 9);
      if (!E) {
        fprintf(stderr,
                "s1lispc: unknown engine '%s' (expected legacy, threaded, or "
                "native)\n",
                A + 9);
        return false;
      }
      O.Engine = *E;
      // Also route through the shared flag table so --server forwards the
      // engine exactly like every other compiler flag.
      if (driver::applyCompilerFlag(A, O.Compiler))
        O.CompilerFlags.push_back(A);
    } else if (startsWith(A, "--server=")) {
      O.Server = A + 9;
      if (O.Server.empty()) {
        fprintf(stderr, "s1lispc: --server needs a socket path\n");
        return false;
      }
    } else if (std::strcmp(A, "--time-phases") == 0) {
      O.TimePhases = true;
    } else if (std::strcmp(A, "--stats") == 0) {
      O.Stats = true;
    } else if (std::strcmp(A, "--stats=json") == 0) {
      O.Stats = O.StatsJson = true;
    } else if (startsWith(A, "--remarks=")) {
      O.RemarksFile = A + 10;
      if (O.RemarksFile.empty()) {
        fprintf(stderr, "s1lispc: --remarks needs a file name (or -)\n");
        return false;
      }
    } else if (std::strcmp(A, "--transcript") == 0) {
      O.Transcript = true;
    } else if (startsWith(A, "--gc-every=")) {
      if (!parseUnsignedArg(A + 11, "--gc-every", O.GcEvery))
        return false;
    } else if (startsWith(A, "--heap-budget=")) {
      if (!parseUnsignedArg(A + 14, "--heap-budget", O.HeapBudget))
        return false;
    } else if (std::strcmp(A, "--gc-verify") == 0) {
      O.GcVerify = true;
    } else if (A[0] == '-' && A[1] != '\0') {
      // -O0/-O2/--cse and every --no-* ablation go through the shared
      // table (driver/Ablation.h), which is also what the compile
      // service's options field accepts.
      if (driver::applyCompilerFlag(A, O.Compiler)) {
        O.CompilerFlags.push_back(A);
      } else {
        fprintf(stderr, "s1lispc: unknown option '%s' (try --help)\n", A);
        return false;
      }
    } else {
      O.Files.push_back(A);
    }
  }
  if (O.Files.empty()) {
    fprintf(stderr, "s1lispc: no input files (try --help)\n");
    return false;
  }
  if (O.Run && O.Interp) {
    fprintf(stderr, "s1lispc: --run and --interp are mutually exclusive\n");
    return false;
  }
  return true;
}

bool readFile(const std::string &Path, std::string &Out) {
  std::ifstream In(Path, std::ios::binary);
  if (!In)
    return false;
  std::ostringstream SS;
  SS << In.rdbuf();
  Out = SS.str();
  return true;
}

bool writeFileOrStdout(const std::string &Path, const std::string &Content) {
  if (Path == "-") {
    fputs(Content.c_str(), stdout);
    if (!Content.empty() && Content.back() != '\n')
      fputc('\n', stdout);
    return true;
  }
  std::ofstream OutF(Path, std::ios::binary | std::ios::trunc);
  if (!OutF)
    return false;
  OutF << Content << '\n';
  return OutF.good();
}

int runOnSimulator(ir::Module &M, const s1::Program &P, const CliOptions &O) {
  vm::Machine VM(P, M.Syms, M.DataHeap);
  VM.setEngine(O.Engine);
  VM.setGcEvery(O.GcEvery);
  VM.setGcBudget(O.HeapBudget);
  if (P.indexOf(O.Entry) < 0) {
    fprintf(stderr, "s1lispc: entry function '%s' is not defined", O.Entry.c_str());
    fprintf(stderr, P.Functions.empty() ? "\n" : "; available:");
    for (const s1::AsmFunction &F : P.Functions)
      fprintf(stderr, " %s", F.Name.c_str());
    if (!P.Functions.empty())
      fputc('\n', stderr);
    return 1;
  }
  auto R = VM.call(O.Entry, {});
  if (O.Stats)
    VM.publishStats();
  if (!VM.output().empty())
    fputs(VM.output().c_str(), stdout);
  if (!R.Ok) {
    fprintf(stderr, "s1lispc: runtime error: %s\n", R.Error.c_str());
    return 1;
  }
  printf("=> %s\n", R.Result ? sexpr::toString(*R.Result).c_str()
                             : "#<unprintable>");
  return 0;
}

/// The --server path: forward the compile to a running s1lispd and print
/// the response exactly as the local pipeline would have.
int runViaServer(const std::string &Source, const CliOptions &O) {
  service::Client C;
  std::string Err;
  if (!C.connectUnix(O.Server, &Err)) {
    fprintf(stderr, "s1lispc: %s\n", Err.c_str());
    return 1;
  }
  service::Message Req;
  Req.set("cmd", "compile");
  Req.set("source", Source);
  std::string Flags;
  for (const std::string &F : O.CompilerFlags) {
    if (!Flags.empty())
      Flags += ' ';
    Flags += F;
  }
  Req.set("options", Flags);
  if (O.Run || O.Interp) {
    Req.set("entry", O.Entry);
    Req.set("run", O.Interp ? "interp" : "vm");
    if (O.Run)
      Req.set("engine", vm::engineName(O.Engine));
  }
  if (O.Listing)
    Req.set("listing", "1");
  if (O.Transcript)
    Req.set("transcript", "1");
  if (!O.RemarksFile.empty())
    Req.set("remarks", "1");
  if (O.Stats)
    Req.set("stats", O.StatsJson ? "json" : "text");
  if (O.TimePhases)
    Req.set("timing", "1");

  service::Message Resp;
  if (!C.roundTrip(Req, Resp, &Err)) {
    fprintf(stderr, "s1lispc: %s\n", Err.c_str());
    return 1;
  }
  if (Resp.getOr("ok") != "1") {
    fprintf(stderr, "s1lispc: %s\n",
            Resp.getOr("error", "server error").c_str());
    return 1;
  }

  // Mirror the local output order: transcript, remarks, listing, run
  // output/value, timing, stats.
  if (O.Transcript)
    fputs(Resp.getOr("transcript").c_str(), stdout);
  if (!O.RemarksFile.empty() &&
      !writeFileOrStdout(O.RemarksFile, Resp.getOr("remarks"))) {
    fprintf(stderr, "s1lispc: cannot write '%s'\n", O.RemarksFile.c_str());
    return 1;
  }
  if (O.Listing)
    fputs(Resp.getOr("listing").c_str(), stdout);

  int Status = 0;
  if (O.Run || O.Interp) {
    fputs(Resp.getOr("output").c_str(), stdout);
    if (const std::string *RunErr = Resp.get("run-error")) {
      fprintf(stderr, "s1lispc: runtime error: %s\n", RunErr->c_str());
      Status = 1;
    } else {
      printf("=> %s\n", Resp.getOr("value").c_str());
    }
  }

  if (O.TimePhases)
    fputs(Resp.getOr("timing").c_str(), stdout);
  if (O.Stats)
    fputs(Resp.getOr("stats").c_str(), stdout);
  if (O.StatsJson)
    fputc('\n', stdout);
  return Status;
}

int runOnInterpreter(ir::Module &M, const CliOptions &O) {
  if (!M.lookup(O.Entry)) {
    fprintf(stderr, "s1lispc: entry function '%s' is not defined\n",
            O.Entry.c_str());
    return 1;
  }
  interp::Interpreter I(M);
  I.setGcEvery(O.GcEvery);
  I.setHeapBudget(O.HeapBudget);
  I.setGcVerify(O.GcVerify);
  auto R = I.call(O.Entry, {});
  if (!I.output().empty())
    fputs(I.output().c_str(), stdout);
  if (!R.Ok) {
    fprintf(stderr, "s1lispc: runtime error: %s\n", R.Error.c_str());
    return 1;
  }
  printf("=> %s\n", R.Value.str().c_str());
  return 0;
}

} // namespace

int main(int Argc, char **Argv) {
  CliOptions O;
  if (!parseArgs(Argc, Argv, O))
    return 2;

  stats::setEnabled(O.Stats);
  stats::setTimingEnabled(O.TimePhases);

  std::string Source;
  for (const std::string &Path : O.Files) {
    std::string Text;
    if (!readFile(Path, Text)) {
      fprintf(stderr, "s1lispc: cannot read '%s'\n", Path.c_str());
      return 1;
    }
    Source += Text;
    Source += '\n';
  }

  if (!O.Server.empty())
    return runViaServer(Source, O);

  ir::Module M;
  stats::RemarkStream Remarks;
  bool WantRemarks = !O.RemarksFile.empty() || O.Transcript;
  auto Out = driver::compileSource(M, Source, O.Compiler,
                                   WantRemarks ? &Remarks : nullptr);
  if (!Out.Ok) {
    fprintf(stderr, "s1lispc: %s\n", Out.Error.c_str());
    return 1;
  }

  if (O.Transcript)
    fputs(Remarks.str().c_str(), stdout);
  if (!O.RemarksFile.empty() &&
      !writeFileOrStdout(O.RemarksFile, Remarks.json())) {
    fprintf(stderr, "s1lispc: cannot write '%s'\n", O.RemarksFile.c_str());
    return 1;
  }
  if (O.Listing)
    fputs(driver::listing(Out.Program).c_str(), stdout);

  int Status = 0;
  if (O.Run)
    Status = runOnSimulator(M, Out.Program, O);
  else if (O.Interp)
    Status = runOnInterpreter(M, O);

  if (O.TimePhases)
    fputs(stats::reportPhaseTimes().c_str(), stdout);
  if (O.Stats)
    fputs((O.StatsJson ? stats::reportStatsJson() : stats::reportStats()).c_str(),
          stdout);
  if (O.StatsJson)
    fputc('\n', stdout);
  return Status;
}
