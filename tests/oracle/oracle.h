// Reference decider for entailment under the finite, integer and
// rational semantics, written straight from the paper's definitions
// (Section 2). It shares no evaluation code with the engines: it reads
// only the surface Database and Query, so a bug in the engines' common
// preprocessing (point merging, the dag view, the enumeration state, the
// fact index, the compiled matchers, the semantics reductions) cannot
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
// backtracking: order variables range over the points, object variables
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
// Z and Q. D |=Z Φ (D |=Q Φ) iff Φ is true in every model of D whose
// order is the integers (the rationals). The decider enumerates the same
// partitions and pads each one into a finite model. Let m be the largest
// number of order variables in a disjunct of Φ.
//   * Under Z the blocks are consecutive points, with m unlabeled points
//     below the first block and m above the last.
//   * Under Q there are m unlabeled points in every gap between two
//     blocks, m below the first block and m above the last.
// Padding points carry no fact. The padded model embeds into every Z-
// (Q-) model M that realizes the partition: M's points below, above and
// (under Q, by density) between the blocks are infinite in number, so the
// padding maps into them in order, and the blocks map to their images.
// So if Φ is true in the padded model, it is true in M. Conversely, let
// M be the Z-model with the blocks at consecutive integers (the Q-model
// with the blocks at any rationals) and no facts beyond the images of
// D's atoms. M is a model of D, so if D |=Z Φ (D |=Q Φ), a disjunct of Φ
// has a witness in M. The witness puts at most m variables off the
// blocks; under Z they all sit below the first block or above the last,
// and under Q in one of the gaps or ends. Each such region has m padding
// points, and the off-block points carry no fact, so the witness moves
// onto the padding in order and stays a witness: Φ is true in the padded
// model. Every Z- (Q-) model of D realizes one of the partitions, so Φ
// holds in every padded model iff D |=Z Φ (D |=Q Φ). None of this uses
// the sentinel construction or the rational closure of core/semantics.h;
// the decider takes only the OrderSemantics name from that file.
//
// The decider answers only for databases with at most kMaxOrderConstants
// order constants (the blocks are built as bitmask subsets). It rejects, with an error, query
// constants that do not occur in D with the sort their position requires,
// unknown predicates, arity mismatches and variables used at both sorts.

#ifndef IODB_TESTS_ORACLE_ORACLE_H_
#define IODB_TESTS_ORACLE_ORACLE_H_

#include "core/database.h"
#include "core/query.h"
#include "core/semantics.h"
#include "util/status.h"

namespace iodb::oracle {

enum class Verdict {
  kEntailed,     // the query is true in every (padded) partition model
  kNotEntailed,  // some (padded) partition model falsifies it
  kInconsistent, // no partition respects D's order atoms: D has no model
};

/// Size bound on the raw order constants of D (one bit each). The default
/// conformance corpus stays at 10 or fewer.
inline constexpr int kMaxOrderConstants = 16;

/// Decides D |=Fin Φ (or |=Z, |=Q) from the definition.
Result<Verdict> Decide(const Database& db, const Query& query,
                       OrderSemantics semantics = OrderSemantics::kFinite);

}  // namespace iodb::oracle

#endif  // IODB_TESTS_ORACLE_ORACLE_H_
