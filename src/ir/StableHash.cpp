//===- ir/StableHash.cpp --------------------------------------------------===//

#include "ir/StableHash.h"

#include <algorithm>
#include <bit>
#include <cstring>

using namespace s1lisp;
using namespace s1lisp::ir;

uint64_t ir::hashCombine(uint64_t Seed, uint64_t V) {
  // splitmix64 finalizer over the xored accumulation; good diffusion and
  // byte-order independent.
  uint64_t X = Seed ^ (V + 0x9e3779b97f4a7c15ull + (Seed << 6) + (Seed >> 2));
  X ^= X >> 30;
  X *= 0xbf58476d1ce4e5b9ull;
  X ^= X >> 27;
  X *= 0x94d049bb133111ebull;
  X ^= X >> 31;
  return X;
}

namespace {

/// The \p N (1 to 8) bytes at \p P as a big-endian number: the first byte
/// is the most significant, on every host.
uint64_t loadBigEndian(const char *P, size_t N) {
  uint64_t W = 0;
  std::memcpy(&W, P, N);
  if constexpr (std::endian::native == std::endian::little)
    W = __builtin_bswap64(W);
  return W >> (8 * (8 - N));
}

} // namespace

uint64_t ir::hashString(uint64_t Seed, std::string_view S) {
  // Eight bytes per mixing step, packed in a fixed order so the hash is
  // the same on every host: a front key hashes a defun's whole text.
  uint64_t H = hashCombine(Seed, S.size());
  for (size_t I = 0; I < S.size(); I += 8)
    H = hashCombine(H, loadBigEndian(S.data() + I,
                                     std::min<size_t>(8, S.size() - I)));
  return H;
}

std::vector<std::string> ir::referencedGlobalNames(const Function &F) {
  std::vector<const sexpr::Symbol *> Syms;
  forEachNode(static_cast<const Node *>(F.Root),
              [&](const Node *N) {
                if (const auto *C = dyn_cast<CallNode>(N)) {
                  if (C->Name)
                    Syms.push_back(C->Name);
                } else if (const auto *L = dyn_cast<LiteralNode>(N)) {
                  if (L->Datum.isSymbol())
                    Syms.push_back(L->Datum.symbol());
                }
              });
  // One symbol per name, so identity dedupes them before any string.
  std::sort(Syms.begin(), Syms.end());
  Syms.erase(std::unique(Syms.begin(), Syms.end()), Syms.end());
  std::vector<std::string_view> Names;
  Names.reserve(Syms.size() + 2);
  for (const sexpr::Symbol *S : Syms)
    Names.push_back(S->name());
  // The machine-trig rewrite can introduce these call names after
  // conversion; pin their resolution into every signature.
  Names.push_back("sinc$f");
  Names.push_back("cosc$f");
  std::sort(Names.begin(), Names.end());
  Names.erase(std::unique(Names.begin(), Names.end()), Names.end());
  return {Names.begin(), Names.end()};
}
