//===- s1bench/Bench.cpp --------------------------------------------------===//

#include "Bench.h"

#include "interp/Interp.h"
#include "sexpr/Printer.h"
#include "stats/Stats.h"
#include "vm/Machine.h"

#include <algorithm>
#include <cctype>
#include <charconv>
#include <cstdio>
#include <fstream>
#include <memory>
#include <set>
#include <sstream>

#include <sys/resource.h>

using namespace s1lisp;

namespace s1bench {

uint64_t mix(uint64_t X) {
  X += 0x9e3779b97f4a7c15ull;
  X = (X ^ (X >> 30)) * 0xbf58476d1ce4e5b9ull;
  X = (X ^ (X >> 27)) * 0x94d049bb133111ebull;
  return X ^ (X >> 31);
}

double percentile(std::vector<double> V, double Q) {
  if (V.empty())
    return 0;
  std::sort(V.begin(), V.end());
  double Pos = Q * static_cast<double>(V.size() - 1);
  size_t Lo = static_cast<size_t>(Pos);
  size_t Hi = std::min(Lo + 1, V.size() - 1);
  double Frac = Pos - static_cast<double>(Lo);
  return V[Lo] + (V[Hi] - V[Lo]) * Frac;
}

void Calibration::sample() {
  auto T0 = Clock::now();
  uint64_t X = 1;
  std::vector<std::string> Keys;
  Keys.reserve(1500);
  for (int I = 0; I < 1500; ++I)
    Keys.push_back(std::to_string((X = mix(X)) % 1000000007));
  std::sort(Keys.begin(), Keys.end());
  std::map<uint64_t, uint64_t> Tree;
  for (int I = 0; I < 10000; ++I)
    Tree[(X = mix(X)) % 1000003] = I;
  uint64_t Acc = Keys.front().size();
  for (int I = 0; I < 10000; ++I) {
    auto It = Tree.lower_bound((X = mix(X)) % 1000003);
    Acc += It == Tree.end() ? 1 : It->second;
  }
  std::vector<uint8_t> Ops(4096);
  for (uint8_t &Op : Ops)
    Op = static_cast<uint8_t>((X = mix(X)) & 7);
  for (uint64_t Rep = 0; Rep < 40; ++Rep)
    for (uint8_t Op : Ops)
      switch (Op) {
      case 0: Acc += Rep; break;
      case 1: Acc ^= Acc >> 3; break;
      case 2: Acc *= 3; break;
      case 3: Acc -= Op; break;
      case 4: Acc = (Acc << 1) | (Acc >> 63); break;
      case 5: Acc += Acc & 0xff; break;
      case 6: Acc ^= Rep << 7; break;
      default: Acc += 11; break;
      }
  volatile uint64_t Sink = Acc;
  (void)Sink;
  Samples.push_back(secondsSince(T0) * 1e3);
}

double selfPeakRssMb() {
  rusage U{};
  getrusage(RUSAGE_SELF, &U);
  return static_cast<double>(U.ru_maxrss) / 1024.0; // ru_maxrss is in KB
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

size_t codeWords(const s1::Program &P) {
  size_t N = P.Static.size();
  for (const s1::AsmFunction &F : P.Functions)
    for (const s1::Instruction &I : F.Code)
      N += I.Op != s1::Opcode::LABEL;
  return N;
}

fuzz::Outcome interpOutcome(ir::Module &M, const std::string &Entry,
                            const std::vector<sexpr::Value> &Args) {
  interp::Interpreter I(M);
  I.setFuel(20'000'000);
  std::vector<interp::RtValue> RtArgs;
  for (sexpr::Value V : Args)
    RtArgs.push_back(interp::RtValue::data(V));
  interp::Interpreter::Result R = I.call(Entry, RtArgs);
  return R.Ok ? fuzz::Outcome::value(R.Value.str())
              : fuzz::Outcome::error(R.Error);
}

fuzz::Outcome vmOutcome(const s1::Program &P, ir::Module &M,
                        const std::string &Entry,
                        const std::vector<sexpr::Value> &Args,
                        uint64_t *Insns) {
  vm::Machine VM(P, M.Syms, M.DataHeap);
  VM.setFuel(200'000'000);
  vm::Machine::RunResult R = VM.call(Entry, Args);
  if (Insns)
    *Insns = VM.stats().Instructions;
  if (!R.Ok)
    return fuzz::Outcome::error(R.Error);
  return fuzz::Outcome::value(R.Result ? sexpr::toString(*R.Result)
                                       : "#<undecodable>");
}

std::string renameFunctions(const std::string &Src, const std::string &Suffix) {
  auto Delim = [](char C) {
    return std::isspace(static_cast<unsigned char>(C)) || C == '(' ||
           C == ')' || C == '\'' || C == '"';
  };
  auto TokenEnd = [&](size_t I) {
    while (I < Src.size() && !Delim(Src[I]))
      ++I;
    return I;
  };
  std::set<std::string> Names;
  for (size_t At = Src.find("(defun "); At != std::string::npos;
       At = Src.find("(defun ", At + 1)) {
    size_t B = At + 7;
    Names.insert(Src.substr(B, TokenEnd(B) - B));
  }
  std::string Out;
  Out.reserve(Src.size() + Src.size() / 8);
  for (size_t I = 0; I < Src.size();) {
    if (Delim(Src[I])) {
      Out += Src[I++];
      continue;
    }
    size_t E = TokenEnd(I);
    std::string Tok = Src.substr(I, E - I);
    Out += Tok;
    if (Names.count(Tok))
      Out += Suffix;
    I = E;
  }
  return Out;
}

Verdict compareOutcomes(const fuzz::Outcome &Ref, const fuzz::Outcome &Act,
                        bool Optimizes) {
  auto Tainted = [](const fuzz::Outcome &O) {
    return O.EC == fuzz::ErrorClass::Overflow || O.EC == fuzz::ErrorClass::Fuel;
  };
  if (Tainted(Ref) || Tainted(Act))
    return Verdict::Skipped;
  using K = fuzz::Outcome::Kind;
  if (Ref.K == K::Error && Act.K == K::Value && Optimizes)
    return Verdict::Skipped;
  if (Ref.K == K::Value && Act.K == K::Value)
    return Ref.Text == Act.Text ? Verdict::Agree : Verdict::Disagree;
  if (Ref.K == K::Error && Act.K == K::Error)
    return Ref.EC == Act.EC ? Verdict::Agree : Verdict::Disagree;
  return Verdict::Disagree;
}

//===----------------------------------------------------------------------===//
// Report
//===----------------------------------------------------------------------===//

void Report::attempt(uint64_t N) {
  std::lock_guard<std::mutex> L(Mu);
  Attempted += N;
}

void Report::fail(const std::string &Why) {
  std::lock_guard<std::mutex> L(Mu);
  ++Failed;
  // The first few failures explain the rest; don't flood stderr.
  if (Failed <= 20)
    std::fprintf(stderr, "s1bench: FAILED: %s\n", Why.c_str());
}

void Report::metric(const std::string &Name, double Value,
                    const std::string &Unit) {
  std::lock_guard<std::mutex> L(Mu);
  Metrics.push_back({Name, Value, Unit});
}

void Report::scaled(const std::string &Name, double Raw,
                    const std::string &Unit, double Factor) {
  metric(Name, Raw * Factor, Unit);
  extra("raw." + Name, Raw, Unit);
}

void Report::extra(const std::string &Name, double Value,
                   const std::string &Unit) {
  std::lock_guard<std::mutex> L(Mu);
  Extras.push_back({Name, Value, Unit});
}

void Report::completePerLayer(
    const std::vector<std::pair<std::string, std::string>> &PerLayer) {
  std::lock_guard<std::mutex> L(Mu);
  std::vector<Metric> Ordered;
  for (const auto &[Name, Unit] : PerLayer) {
    auto It = std::find_if(Metrics.begin(), Metrics.end(),
                           [&](const Metric &M) { return M.Name == Name; });
    Ordered.push_back(It != Metrics.end() ? *It : Metric{Name, 0.0, Unit});
  }
  Metrics = std::move(Ordered);
}

void Report::note(const std::string &Line) {
  std::lock_guard<std::mutex> L(Mu);
  Notes.push_back(Line);
}

uint64_t Report::failed() const {
  std::lock_guard<std::mutex> L(Mu);
  return Failed;
}

namespace {

/// Shortest round-trip decimal form of \p V (every digit as measured).
std::string number(double V) {
  char Buf[64];
  auto [End, Ec] = std::to_chars(Buf, Buf + sizeof(Buf), V);
  if (Ec != std::errc())
    return "0";
  return std::string(Buf, End);
}

} // namespace

int Report::finish() const {
  std::lock_guard<std::mutex> L(Mu);
  for (const std::string &N : Notes)
    std::printf("%s\n", N.c_str());
  double Ratio = Attempted ? static_cast<double>(Failed) /
                                 static_cast<double>(Attempted)
                           : 1.0;
  std::printf("%-32s %20s  %s\n", "metric", "value", "unit");
  for (const std::vector<Metric> *Ms : {&Metrics, &Extras})
    for (const Metric &M : *Ms)
      std::printf("%-32s %20s  %s\n", M.Name.c_str(), number(M.Value).c_str(),
                  M.Unit.c_str());
  std::printf("%-32s %20s  %s\n", "failed_ratio", number(Ratio).c_str(),
              "ratio");

  bool Correct = Failed == 0 && Attempted > 0;
  std::string J = "{\"correct\": ";
  J += Correct ? "true" : "false";
  J += ", \"attempted\": " + std::to_string(Attempted);
  J += ", \"failed\": " + std::to_string(Failed);
  J += ", \"metrics\": {";
  bool First = true;
  for (const Metric &M : Metrics) {
    if (!First)
      J += ", ";
    First = false;
    J += "\"" + M.Name + "\": {\"value\": " + number(M.Value) +
         ", \"unit\": \"" + M.Unit + "\"}";
  }
  J += "}}";
  std::printf("%s\n", J.c_str());
  std::fflush(stdout);
  return Correct ? 0 : 1;
}

//===----------------------------------------------------------------------===//
// Tracing
//===----------------------------------------------------------------------===//

namespace {

struct SpanRecord {
  const char *Name;
  int64_t StartNs;
  int64_t EndNs;
  int Parent; ///< index in the same thread's buffer, -1 for a root span
  uint64_t Op;
};

/// One thread's spans. Buffers are owned by a global list, so they outlive
/// the client threads that filled them.
struct ThreadSpans {
  unsigned Tid = 0;
  std::vector<SpanRecord> Spans;
  int Open = -1;
  uint64_t Op = 0;
};

thread_local bool TracingOn = false;
const Clock::time_point Epoch = Clock::now();
std::mutex BuffersMu;
std::vector<std::unique_ptr<ThreadSpans>> Buffers;
thread_local ThreadSpans *Mine = nullptr;

ThreadSpans &mine() {
  if (!Mine) {
    std::lock_guard<std::mutex> L(BuffersMu);
    Buffers.push_back(std::make_unique<ThreadSpans>());
    Mine = Buffers.back().get();
    Mine->Tid = static_cast<unsigned>(Buffers.size());
  }
  return *Mine;
}

int64_t nowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              Epoch)
      .count();
}

} // namespace

void setTracing(bool On) { TracingOn = On; }
bool tracing() { return TracingOn; }

Span::Span(const char *Name) {
  if (!tracing())
    return;
  ThreadSpans &T = mine();
  Idx = static_cast<int>(T.Spans.size());
  PrevOpen = T.Open;
  T.Spans.push_back({Name, nowNs(), 0, T.Open, T.Op});
  T.Open = Idx;
}

Span::~Span() {
  if (Idx < 0)
    return;
  ThreadSpans &T = mine();
  T.Spans[static_cast<size_t>(Idx)].EndNs = nowNs();
  T.Open = PrevOpen;
}

OpScope::OpScope(uint64_t Id) : Prev(mine().Op) { mine().Op = Id; }
OpScope::~OpScope() { mine().Op = Prev; }

std::map<std::string, LayerTime> layerTimes() {
  std::lock_guard<std::mutex> L(BuffersMu);
  std::map<std::string, LayerTime> Out;
  for (const auto &B : Buffers)
    for (const SpanRecord &S : B->Spans) {
      LayerTime &LT = Out[S.Name];
      ++LT.Count;
      LT.TotalMs += static_cast<double>(S.EndNs - S.StartNs) / 1e6;
    }
  return Out;
}

bool writeChromeTrace(const std::string &Path) {
  std::lock_guard<std::mutex> L(BuffersMu);
  std::FILE *F = std::fopen(Path.c_str(), "w");
  if (!F)
    return false;
  std::fputs("{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n", F);
  bool First = true;
  for (const auto &B : Buffers) {
    std::vector<int64_t> ChildNs(B->Spans.size(), 0);
    for (const SpanRecord &S : B->Spans)
      if (S.Parent >= 0)
        ChildNs[static_cast<size_t>(S.Parent)] += S.EndNs - S.StartNs;
    for (size_t I = 0; I < B->Spans.size(); ++I) {
      const SpanRecord &S = B->Spans[I];
      std::fprintf(F,
                   "%s{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, "
                   "\"tid\": %u, \"ts\": %.3f, \"dur\": %.3f, \"args\": "
                   "{\"op\": %llu, \"parent\": \"%s\", \"self_us\": %.3f}}",
                   First ? "" : ",\n", S.Name, B->Tid,
                   static_cast<double>(S.StartNs) / 1e3,
                   static_cast<double>(S.EndNs - S.StartNs) / 1e3,
                   static_cast<unsigned long long>(S.Op),
                   S.Parent >= 0
                       ? B->Spans[static_cast<size_t>(S.Parent)].Name
                       : "",
                   static_cast<double>(S.EndNs - S.StartNs - ChildNs[I]) /
                       1e3);
      First = false;
    }
  }
  std::fputs("\n]}\n", F);
  return std::fclose(F) == 0;
}

Counters snapshotCounters() {
  Counters C;
  for (const stats::StatValue &V : stats::allStats(/*IncludeZeros=*/true))
    C[V.Name] = V.Value;
  return C;
}

uint64_t counterDelta(const Counters &Before, const Counters &After,
                      const std::string &Name) {
  auto A = After.find(Name);
  if (A == After.end())
    return 0;
  auto B = Before.find(Name);
  return A->second - (B == Before.end() ? 0 : B->second);
}

} // namespace s1bench
