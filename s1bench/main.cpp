//===- s1bench/main.cpp - The end-to-end benchmark driver -----------------===//
//
// Runs one workload of the S1LISP benchmark and prints its metrics:
//
//   s1bench --workload compile|run|service --seed N --seconds S --trace 0|1
//           --root DIR --scratch DIR --daemon PATH
//           [--trace-out FILE] [--per-layer NAME=UNIT,...]
//
// With --trace 0 it measures the end-to-end metrics; with --trace 1 it
// records spans around the calls into each layer and reports the per-layer
// metrics listed by --per-layer instead. s1bench/run.py builds this binary
// and supplies the other flags from the checkout and BENCHMARK.json; see
// s1bench/README.md.
//
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <utility>
#include <vector>

using namespace s1bench;

namespace {

bool optimizedBuild() {
#if !defined(NDEBUG) || !defined(__OPTIMIZE__)
  return false;
#elif defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  return false;
#else
  return true;
#endif
}

const char *hostArch() {
#if defined(__x86_64__)
  return "x86_64";
#elif defined(__aarch64__)
  return "aarch64";
#else
  return "other";
#endif
}

/// "name=unit,name=unit,..." -> (name, unit) pairs.
std::vector<std::pair<std::string, std::string>> parsePerLayer(const char *S) {
  std::vector<std::pair<std::string, std::string>> Out;
  std::string Spec = S;
  size_t B = 0;
  while (B < Spec.size()) {
    size_t E = Spec.find(',', B);
    if (E == std::string::npos)
      E = Spec.size();
    std::string Item = Spec.substr(B, E - B);
    size_t Eq = Item.find('=');
    if (Eq != std::string::npos)
      Out.emplace_back(Item.substr(0, Eq), Item.substr(Eq + 1));
    B = E + 1;
  }
  return Out;
}

int usage(const char *Why) {
  std::fprintf(stderr,
               "s1bench: %s\nusage: s1bench --workload compile|run|service "
               "--seed N --seconds S --trace 0|1 --root DIR --scratch DIR "
               "--daemon PATH [--trace-out FILE] [--per-layer NAME=UNIT,...]\n",
               Why);
  return 2;
}

} // namespace

int main(int Argc, char **Argv) {
  Options O;
  for (int I = 1; I + 1 < Argc; I += 2) {
    std::string Flag = Argv[I];
    const char *V = Argv[I + 1];
    if (Flag == "--workload")
      O.Workload = V;
    else if (Flag == "--seed")
      O.Seed = std::strtoull(V, nullptr, 10);
    else if (Flag == "--seconds")
      O.Seconds = std::strtod(V, nullptr);
    else if (Flag == "--trace")
      O.Trace = std::strcmp(V, "0") != 0;
    else if (Flag == "--root")
      O.Root = V;
    else if (Flag == "--daemon")
      O.Daemon = V;
    else if (Flag == "--trace-out")
      O.TraceOut = V;
    else if (Flag == "--scratch")
      O.Scratch = V;
    else if (Flag == "--per-layer")
      O.PerLayer = parsePerLayer(V);
    else
      return usage(("unknown flag " + Flag).c_str());
  }
  if (Argc % 2 == 0)
    return usage("every flag takes a value");
  if (O.Root.empty() || O.Scratch.empty() || O.Seconds <= 0 ||
      (O.Trace && O.PerLayer.empty()))
    return usage("--root, --scratch, a positive --seconds and, with --trace "
                 "1, --per-layer are required");
  if (!optimizedBuild())
    return usage("refusing to measure a Debug or sanitizer build");

  Report R;
  R.note(std::string("host: nproc=") +
         std::to_string(std::thread::hardware_concurrency()) +
         " arch=" + hostArch() + " compiler=" + S1BENCH_COMPILER +
         " build=" + S1BENCH_BUILD_TYPE);
  R.note("workload=" + O.Workload + " seed=" + std::to_string(O.Seed) +
         " seconds=" + std::to_string(O.Seconds) +
         " trace=" + (O.Trace ? "1" : "0"));

  if (O.Workload == "compile")
    runCompileWorkload(O, R);
  else if (O.Workload == "run")
    runRunWorkload(O, R);
  else if (O.Workload == "service")
    runServiceWorkload(O, R);
  else
    return usage(("unknown workload '" + O.Workload + "'").c_str());

  if (O.Trace)
    R.completePerLayer(O.PerLayer);
  if (O.Trace && !O.TraceOut.empty()) {
    if (writeChromeTrace(O.TraceOut))
      R.note("trace: " + O.TraceOut);
    else
      R.fail("cannot write trace file " + O.TraceOut);
  }
  return R.finish();
}
