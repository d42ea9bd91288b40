// Text formats for databases and queries.
//
// Database: one statement per line (or ';'-separated), '#' comments.
//   pred IC(order, order, object)        # optional declaration
//   P(u)                                 # ground proper atom
//   IC(z1, z2, A)
//   z1 < z2 <= z3                        # order chains
//   u != v                               # inequality (Section 7)
// Constant sorts are inferred: names occurring in order chains are order
// constants; other names default to the predicate's declared sort, else
// to object.
//
// Query (disjunctive normal form):
//   exists t1 t2 x: P(t1) & t1 < t2 & Q(x, t2)
//   | exists t: R(t)
// Names listed after `exists` are variables of that disjunct; every other
// name is a constant. Variable sorts are inferred during normalization.
// A bare `true` is the empty conjunction, so a disjunct that quantifies
// variables without constraining them ("exists t0 t1: true") parses; the
// printer emits exactly that form for atomless disjuncts.

#ifndef IODB_CORE_PARSER_H_
#define IODB_CORE_PARSER_H_

#include <string>

#include "core/database.h"
#include "core/query.h"
#include "util/status.h"

namespace iodb {

/// Parses a database, registering predicates into `vocab`.
Result<Database> ParseDatabase(const std::string& text, VocabularyPtr vocab);

/// As ParseDatabase, but registers nothing into `vocab`, so databases
/// can be parsed on many threads while registrations are kept in a
/// chosen order. If the text names a predicate `vocab` does not hold,
/// the parse stops at the first statement that would register one,
/// leaves the predicate's name in `*unregistered` and fails. Otherwise
/// `*unregistered` is left empty and the outcome, success or error, is
/// byte for byte what ParseDatabase returns against any later state of
/// `vocab`: predicates are append-only and keep their signatures.
Result<Database> ParseDatabaseWithoutRegistering(const std::string& text,
                                                 VocabularyPtr vocab,
                                                 std::string* unregistered);

/// Parses a query in disjunctive normal form. Predicates must already be
/// known to `vocab` (parse the database first, or declare them).
Result<Query> ParseQuery(const std::string& text, VocabularyPtr vocab);

}  // namespace iodb

#endif  // IODB_CORE_PARSER_H_
