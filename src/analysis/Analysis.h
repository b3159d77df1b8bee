//===- analysis/Analysis.h - Source-program analyses ------------*- C++ -*-===//
///
/// \file
/// The machine-independent analyses of Table 1: environment analysis
/// (variable read/write sets live on ir::Variable via recomputeVariableRefs),
/// side-effects analysis, complexity analysis (object-code size estimates
/// feeding the optimizer's duplication heuristics), and tail-recursion
/// analysis (which calls are "parameter-passing gotos").
///
//===----------------------------------------------------------------------===//

#ifndef S1LISP_ANALYSIS_ANALYSIS_H
#define S1LISP_ANALYSIS_ANALYSIS_H

#include "ir/Ir.h"

namespace s1lisp {
namespace analysis {

/// Computes the side-effect classification of executing \p N, on demand
/// by walking its subtree: the meta-evaluator mutates the tree between
/// queries, so it asks here rather than read Ann.Effects.
ir::EffectInfo effectsOf(const ir::Node *N);

/// Estimated object-code size of \p N (complexity analysis): a unit per
/// node with extra weight for calls and dispatch constructs. On demand,
/// like effectsOf.
unsigned complexityOf(const ir::Node *N);

/// Runs all per-node analyses over \p F, filling Ann.Effects,
/// Ann.Complexity, and Ann.Tail, and rebuilding variable referent lists.
/// Linear: one postorder walk applies effectsOf's and complexityOf's
/// rules to each node over its children's annotations, so every node's
/// Ann.Effects and Ann.Complexity equal those queries on it until the
/// tree next changes.
void analyze(ir::Function &F);

/// Marks Ann.Tail: a node is in tail position when its value is the value
/// of the enclosing lambda. Calls marked Tail compile as jumps.
void analyzeTails(ir::Function &F);

/// Structural equality of two subtrees: same shapes, same variables, eql
/// literals. Used by redundant-test elimination.
bool equalTrees(const ir::Node *A, const ir::Node *B);

} // namespace analysis
} // namespace s1lisp

#endif // S1LISP_ANALYSIS_ANALYSIS_H
