// Reference decider for finite-semantics entailment, written straight
// from the paper's definitions (Section 2). It shares no evaluation code
// with the engines: it reads only the surface Database and Query, so a
// bug in the engines' common preprocessing (point merging, the dag view,
// the enumeration state, the fact index, the compiled matchers) cannot
// hide from it.
//
// Definition. D |=Fin Φ iff Φ is true in every finite model of D.
//
// The decider enumerates every *ordered partition* of D's order constants
// that respects D's order atoms: for "u < v" the block of u comes strictly
// before the block of v, for "u <= v" not after it, and for "u != v" the
// two blocks differ. Each partition is read as a finite model: the blocks,
// in order, are the points of the linear order; an order constant denotes
// its block and an object constant denotes itself; the facts are exactly
// the images of D's proper atoms. Φ is checked on each model by naive
// backtracking: order variables range over the blocks, object variables
// over D's object constants, query constants denote their own constant.
// A variable used in no atom is an order variable.
//
// Why no minimality filter is needed. Every such partition is a model of
// D. Conversely, in any finite model M of D the images of D's constants
// form a substructure whose points, ordered by M, are one of these
// partitions, and whose facts include the images of D's proper atoms. So
// the partition model maps into M injectively on points, preserving "<",
// "<=", "!=" and every fact. Positive existential queries are preserved
// by such maps, so if Φ is true in every partition model, it is true in
// every finite model; the converse holds because the partition models
// are finite models themselves.
//
// The decider answers for the finite semantics only, and only for
// databases with at most kMaxOrderConstants order constants (the blocks
// are built as bitmask subsets). It rejects, with an error, query
// constants that do not occur in D with the sort their position requires,
// unknown predicates, arity mismatches and variables used at both sorts.

#ifndef IODB_TESTS_ORACLE_ORACLE_H_
#define IODB_TESTS_ORACLE_ORACLE_H_

#include "core/database.h"
#include "core/query.h"
#include "util/status.h"

namespace iodb::oracle {

enum class Verdict {
  kEntailed,     // the query is true in every partition model
  kNotEntailed,  // some partition model falsifies it
  kInconsistent, // no partition respects D's order atoms: D has no model
};

/// Size bound on the raw order constants of D (one bit each). The default
/// conformance corpus stays at 10 or fewer.
inline constexpr int kMaxOrderConstants = 16;

/// Decides D |=Fin Φ from the definition.
Result<Verdict> Decide(const Database& db, const Query& query);

}  // namespace iodb::oracle

#endif  // IODB_TESTS_ORACLE_ORACLE_H_
