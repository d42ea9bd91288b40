#include "core/parser.h"

#include <algorithm>
#include <bit>
#include <cstddef>
#include <optional>
#include <string_view>
#include <vector>

namespace iodb {
namespace {

enum class TokKind {
  kIdent,
  kLParen,
  kRParen,
  kComma,
  kColon,
  kAmp,
  kBar,
  kLt,
  kLe,
  kNeq,
  kSemicolon,
  kEnd,
};

// `text` views the identifier in the source, or the punctuation's
// spelling (a newline reads as ";"), for error messages.
struct Token {
  TokKind kind;
  std::string_view text;
};

// ASCII classes of the grammar (what <cctype> answers in the "C" locale,
// without its per-call locale lookup).
bool IsSpace(char c) {
  return c == ' ' || (c >= '\t' && c <= '\r');
}
bool IsAlpha(char c) {
  return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z');
}
bool IsIdentStart(char c) { return IsAlpha(c) || c == '_' || c == '@'; }
bool IsIdentChar(char c) {
  return IsAlpha(c) || (c >= '0' && c <= '9') || c == '_' || c == '\'';
}

// Tokenizes `text` into `tokens`, views into `text`; newlines are
// emitted as kSemicolon so both separators behave alike in the database
// format (queries ignore them).
Status Tokenize(std::string_view text, bool newline_separates,
                std::vector<Token>* tokens) {
  tokens->clear();
  tokens->reserve(text.size() / 2 + 1);
  const size_t n = text.size();
  size_t i = 0;
  while (i < n) {
    const char c = text[i];
    if (c == '#') {
      while (i < n && text[i] != '\n') ++i;
      continue;
    }
    if (c == '\n') {
      if (newline_separates) tokens->push_back({TokKind::kSemicolon, ";"});
      ++i;
      continue;
    }
    if (IsSpace(c)) {
      ++i;
      continue;
    }
    if (IsIdentStart(c)) {
      const size_t start = i++;
      while (i < n && IsIdentChar(text[i])) ++i;
      tokens->push_back({TokKind::kIdent, text.substr(start, i - start)});
      continue;
    }
    const bool eq_next = i + 1 < n && text[i + 1] == '=';
    switch (c) {
      case '(':
        tokens->push_back({TokKind::kLParen, "("});
        break;
      case ')':
        tokens->push_back({TokKind::kRParen, ")"});
        break;
      case ',':
        tokens->push_back({TokKind::kComma, ","});
        break;
      case ':':
        tokens->push_back({TokKind::kColon, ":"});
        break;
      case '&':
        tokens->push_back({TokKind::kAmp, "&"});
        break;
      case '|':
        tokens->push_back({TokKind::kBar, "|"});
        break;
      case ';':
        tokens->push_back({TokKind::kSemicolon, ";"});
        break;
      case '<':
        if (eq_next) {
          tokens->push_back({TokKind::kLe, "<="});
          ++i;
        } else {
          tokens->push_back({TokKind::kLt, "<"});
        }
        break;
      case '!':
        if (!eq_next) {
          return Status::InvalidArgument("unexpected '!' in input");
        }
        tokens->push_back({TokKind::kNeq, "!="});
        ++i;
        break;
      default:
        return Status::InvalidArgument(std::string("unexpected character '") +
                                       c + "'");
    }
    ++i;
  }
  tokens->push_back({TokKind::kEnd, ""});
  return Status::Ok();
}

bool IsRel(TokKind kind) {
  return kind == TokKind::kLt || kind == TokKind::kLe || kind == TokKind::kNeq;
}

struct Cursor {
  const std::vector<Token>& tokens;
  size_t pos = 0;

  const Token& Peek() const { return tokens[pos]; }
  const Token& Next() { return tokens[pos++]; }
  bool Accept(TokKind kind) {
    if (tokens[pos].kind == kind) {
      ++pos;
      return true;
    }
    return false;
  }
};

std::string Quoted(std::string_view text) {
  std::string out = "'";
  out += text;
  out += '\'';
  return out;
}

// One database statement, as a token range. kDecl and kAtom: the name is
// token `first` and argument i (a sort name or a constant) token
// first + 2 + 2i. kChain: term i is token first + 2i, relation i token
// first + 2i + 1.
struct DbStatement {
  enum Kind { kDecl, kAtom, kChain } kind;
  size_t first;
  size_t count;
};

Status ParseDbStatements(Cursor& cursor, std::vector<DbStatement>* out) {
  for (;;) {
    while (cursor.Accept(TokKind::kSemicolon)) {
    }
    if (cursor.Peek().kind == TokKind::kEnd) return Status::Ok();
    if (cursor.Peek().kind != TokKind::kIdent) {
      return Status::InvalidArgument("expected identifier, got " +
                                     Quoted(cursor.Peek().text));
    }
    const size_t first = cursor.pos;
    const std::string_view name = cursor.Next().text;
    if (name == "pred" && cursor.Peek().kind == TokKind::kIdent) {
      DbStatement decl{DbStatement::kDecl, first + 1, 0};
      cursor.Next();
      if (!cursor.Accept(TokKind::kLParen)) {
        return Status::InvalidArgument("expected '(' after pred name");
      }
      for (;;) {
        if (cursor.Peek().kind != TokKind::kIdent) {
          return Status::InvalidArgument("expected sort name");
        }
        cursor.Next();
        ++decl.count;
        if (cursor.Accept(TokKind::kComma)) continue;
        break;
      }
      if (!cursor.Accept(TokKind::kRParen)) {
        return Status::InvalidArgument("expected ')' in pred declaration");
      }
      out->push_back(decl);
      continue;
    }
    if (cursor.Accept(TokKind::kLParen)) {
      DbStatement atom{DbStatement::kAtom, first, 0};
      for (;;) {
        if (cursor.Peek().kind != TokKind::kIdent) {
          return Status::InvalidArgument("expected constant in atom " +
                                         Quoted(name));
        }
        cursor.Next();
        ++atom.count;
        if (cursor.Accept(TokKind::kComma)) continue;
        break;
      }
      if (!cursor.Accept(TokKind::kRParen)) {
        return Status::InvalidArgument("expected ')' in atom " + Quoted(name));
      }
      out->push_back(atom);
      continue;
    }
    if (IsRel(cursor.Peek().kind)) {
      DbStatement chain{DbStatement::kChain, first, 1};
      while (IsRel(cursor.Peek().kind)) {
        cursor.Next();
        if (cursor.Peek().kind != TokKind::kIdent) {
          return Status::InvalidArgument("expected constant after relation");
        }
        cursor.Next();
        ++chain.count;
      }
      out->push_back(chain);
      continue;
    }
    return Status::InvalidArgument("unexpected token after " + Quoted(name));
  }
}

// Open-addressing index from names (views into the parsed text) to dense
// ids 0, 1, ... in first-insertion order. No node per name: one slot
// array plus the name and hash of each entry.
class NameIndex {
 public:
  explicit NameIndex(size_t expected) {
    slots_.assign(std::bit_ceil(std::max<size_t>(16, 2 * expected)), -1);
  }

  size_t size() const { return names_.size(); }
  std::string_view name(int id) const { return names_[id]; }

  /// The id of `name`, or -1.
  int Find(std::string_view name) const {
    const size_t hash = std::hash<std::string_view>{}(name);
    return slots_[Probe(name, hash)];
  }

  /// The id of `name`, inserting it if absent; `*inserted` says which.
  int Intern(std::string_view name, bool* inserted) {
    const size_t hash = std::hash<std::string_view>{}(name);
    size_t slot = Probe(name, hash);
    *inserted = slots_[slot] < 0;
    if (!*inserted) return slots_[slot];
    const int id = static_cast<int>(names_.size());
    names_.push_back(name);
    hashes_.push_back(hash);
    slots_[slot] = id;
    if (2 * names_.size() > slots_.size()) Grow();
    return id;
  }

 private:
  // The slot holding `name`, or the empty slot where it belongs.
  size_t Probe(std::string_view name, size_t hash) const {
    const size_t mask = slots_.size() - 1;
    for (size_t slot = hash & mask;; slot = (slot + 1) & mask) {
      const int id = slots_[slot];
      if (id < 0 || (hashes_[id] == hash && names_[id] == name)) return slot;
    }
  }

  void Grow() {
    slots_.assign(2 * slots_.size(), -1);
    const size_t mask = slots_.size() - 1;
    for (size_t id = 0; id < names_.size(); ++id) {
      size_t slot = hashes_[id] & mask;
      while (slots_[slot] >= 0) slot = (slot + 1) & mask;
      slots_[slot] = static_cast<int>(id);
    }
  }

  std::vector<int> slots_;
  std::vector<std::string_view> names_;
  std::vector<size_t> hashes_;
};

// Builds a database from parsed statements without a per-fact round trip
// through the Database API: each predicate name resolves against the
// vocabulary once, each constant interns with one index probe, and the
// atoms and constant tables move into the database in bulk at the end.
// Interning order, atom order, revision and every error text are those
// of building the database statement by statement (Database::AddFact,
// GetOrAddConstant, AddOrderAtom, AddInequality).
class DbBuilder {
 public:
  // `unregistered` null: predicates register as they appear. Otherwise
  // nothing registers, and an unknown predicate ends the build with its
  // name in *unregistered.
  DbBuilder(const std::vector<Token>& tokens, size_t num_statements,
            VocabularyPtr vocab, std::string* unregistered)
      : tokens_(tokens),
        vocab_(std::move(vocab)),
        unregistered_(unregistered),
        constants_(tokens.size() / 4),
        preds_(16) {
    proper_.reserve(num_statements);
  }

  Result<Database> Build(const std::vector<DbStatement>& statements) {
    // Pass 1: names occurring in order chains are order constants.
    std::vector<int> chain_ids;
    for (const DbStatement& st : statements) {
      if (st.kind != DbStatement::kChain) continue;
      for (size_t i = 0; i < st.count; ++i) {
        int id = 0;
        Intern(Text(st.first + 2 * i), Sort::kOrder, &id);
        chain_ids.push_back(id);
      }
    }
    // Pass 2: declarations, atoms and chains.
    size_t next_chain_id = 0;
    for (const DbStatement& st : statements) {
      Status status = Status::Ok();
      switch (st.kind) {
        case DbStatement::kDecl:
          status = Declare(st);
          break;
        case DbStatement::kAtom:
          status = AddAtom(st);
          break;
        case DbStatement::kChain:
          for (size_t i = 0; i + 1 < st.count; ++i) {
            const int u = chain_ids[next_chain_id + i];
            const int v = chain_ids[next_chain_id + i + 1];
            const TokKind rel = tokens_[st.first + 2 * i + 1].kind;
            if (rel == TokKind::kNeq) {
              inequalities_.push_back({u, v});
            } else {
              order_.push_back(
                  {u, v, rel == TokKind::kLt ? OrderRel::kLt : OrderRel::kLe});
            }
          }
          next_chain_id += st.count;
          break;
      }
      if (!status.ok()) return status;
    }

    std::vector<std::string> tables[2];
    for (size_t id = 0; id < constants_.size(); ++id) {
      tables[static_cast<int>(entries_[id].sort)].emplace_back(
          constants_.name(static_cast<int>(id)));
    }
    Database db(std::move(vocab_));
    Status restored = db.RestoreConstantTables(std::move(tables[0]),
                                               std::move(tables[1]));
    IODB_CHECK(restored.ok());  // the index holds each name once
    db.AppendAtoms(std::move(proper_), std::move(order_),
                   std::move(inequalities_));
    return db;
  }

 private:
  // A constant: its sort and its id within that sort.
  struct ConstantEntry {
    Sort sort;
    int id;
  };
  // A predicate resolved against the vocabulary (the reference is stable).
  struct PredEntry {
    int pred;
    const PredicateInfo* info;
  };

  std::string_view Text(size_t token) const { return tokens_[token].text; }

  // Interns `name` with `sort` (GetOrAddConstant) and sets `*id`; false
  // if the name is already interned with the other sort.
  bool Intern(std::string_view name, Sort sort, int* id) {
    bool inserted = false;
    const int index = constants_.Intern(name, &inserted);
    if (!inserted) {
      *id = entries_[index].id;
      return entries_[index].sort == sort;
    }
    int& next = sort == Sort::kObject ? num_object_ : num_order_;
    entries_.push_back({sort, next});
    *id = next++;
    return true;
  }

  // GetOrAddPredicate, or without registration the lookup half of it.
  Result<int> Resolve(std::string_view name, std::vector<Sort> sorts) {
    if (unregistered_ == nullptr) {
      return vocab_->GetOrAddPredicate(std::string(name), std::move(sorts));
    }
    Result<std::optional<int>> found = vocab_->FindPredicate(name, sorts);
    if (!found.ok()) return found.status();
    if (found.value().has_value()) return *found.value();
    *unregistered_ = std::string(name);
    return Status::Unsupported("predicate " + Quoted(name) +
                               " is not registered");
  }

  static Status Redeclared(std::string_view name) {
    return Status::InvalidArgument("predicate " + Quoted(name) +
                                   " redeclared with a different signature");
  }

  Status Declare(const DbStatement& st) {
    std::vector<Sort> sorts;
    sorts.reserve(st.count);
    for (size_t i = 0; i < st.count; ++i) {
      const std::string_view sort = Text(st.first + 2 + 2 * i);
      if (sort == "object") {
        sorts.push_back(Sort::kObject);
      } else if (sort == "order") {
        sorts.push_back(Sort::kOrder);
      } else {
        return Status::InvalidArgument("unknown sort " + Quoted(sort));
      }
    }
    const std::string_view name = Text(st.first);
    Result<int> pred = Resolve(name, std::move(sorts));
    if (!pred.ok()) return pred.status();
    bool inserted = false;
    preds_.Intern(name, &inserted);
    if (inserted) {
      pred_entries_.push_back({pred.value(), &vocab_->predicate(pred.value())});
    }
    return Status::Ok();
  }

  Status AddAtom(const DbStatement& st) {
    const std::string_view name = Text(st.first);
    // Argument sorts as AddFact infers them: an interned name keeps its
    // sort; a fresh one takes the predicate's declared sort, else object.
    found_.resize(st.count);
    for (size_t i = 0; i < st.count; ++i) {
      found_[i] = constants_.Find(Text(st.first + 2 + 2 * i));
    }
    bool inserted = false;
    const int index = preds_.Intern(name, &inserted);
    if (inserted) {
      std::optional<int> existing = vocab_->FindPredicate(name);
      const PredicateInfo* declared =
          existing.has_value() ? &vocab_->predicate(*existing) : nullptr;
      std::vector<Sort> sorts;
      sorts.reserve(st.count);
      for (size_t i = 0; i < st.count; ++i) {
        if (found_[i] >= 0) {
          sorts.push_back(entries_[found_[i]].sort);
        } else if (declared != nullptr && i < declared->arg_sorts.size()) {
          sorts.push_back(declared->arg_sorts[i]);
        } else {
          sorts.push_back(Sort::kObject);
        }
      }
      Result<int> pred = Resolve(name, std::move(sorts));
      if (!pred.ok()) return pred.status();  // ends the parse
      pred_entries_.push_back({pred.value(), &vocab_->predicate(pred.value())});
    }
    const PredEntry& pred = pred_entries_[index];
    const std::vector<Sort>& arg_sorts = pred.info->arg_sorts;
    // A known predicate: the signature check GetOrAddPredicate makes.
    if (arg_sorts.size() != st.count) return Redeclared(name);
    for (size_t i = 0; i < st.count; ++i) {
      if (found_[i] >= 0 && entries_[found_[i]].sort != arg_sorts[i]) {
        return Redeclared(name);
      }
    }
    TermVec args;
    args.reserve(st.count);
    for (size_t i = 0; i < st.count; ++i) {
      const Sort sort = arg_sorts[i];
      int id = 0;
      if (found_[i] >= 0) {
        id = entries_[found_[i]].id;
      } else if (!Intern(Text(st.first + 2 + 2 * i), sort, &id)) {
        // Fresh before this atom, but an earlier argument of it
        // interned the same name with the other sort.
        return Status::InvalidArgument("constant " +
                                       Quoted(Text(st.first + 2 + 2 * i)) +
                                       " used with conflicting sorts");
      }
      args.push_back({sort, id});
    }
    proper_.push_back({pred.pred, std::move(args)});
    return Status::Ok();
  }

  const std::vector<Token>& tokens_;
  VocabularyPtr vocab_;
  std::string* unregistered_;
  NameIndex constants_;
  std::vector<ConstantEntry> entries_;  // by constants_ id
  int num_object_ = 0;
  int num_order_ = 0;
  NameIndex preds_;
  std::vector<PredEntry> pred_entries_;  // by preds_ id
  std::vector<int> found_;               // scratch: constants_ ids
  std::vector<ProperAtom> proper_;
  std::vector<OrderAtom> order_;
  std::vector<InequalityAtom> inequalities_;
};

Result<Database> ParseDb(const std::string& text, VocabularyPtr vocab,
                         std::string* unregistered) {
  std::vector<Token> tokens;
  Status status = Tokenize(text, /*newline_separates=*/true, &tokens);
  if (!status.ok()) return status;
  Cursor cursor{tokens};
  std::vector<DbStatement> statements;
  statements.reserve(tokens.size() / 4 + 1);
  status = ParseDbStatements(cursor, &statements);
  if (!status.ok()) return status;
  return DbBuilder(tokens, statements.size(), std::move(vocab), unregistered)
      .Build(statements);
}

}  // namespace

Result<Database> ParseDatabase(const std::string& text, VocabularyPtr vocab) {
  return ParseDb(text, std::move(vocab), nullptr);
}

Result<Database> ParseDatabaseWithoutRegistering(const std::string& text,
                                                 VocabularyPtr vocab,
                                                 std::string* unregistered) {
  unregistered->clear();
  return ParseDb(text, std::move(vocab), unregistered);
}

Result<Query> ParseQuery(const std::string& text, VocabularyPtr vocab) {
  std::vector<Token> tokens;
  Status status = Tokenize(text, /*newline_separates=*/false, &tokens);
  if (!status.ok()) return status;
  Cursor cursor{tokens};

  Query query(std::move(vocab));
  for (;;) {
    QueryConjunct conjunct;
    if (cursor.Peek().kind == TokKind::kIdent &&
        cursor.Peek().text == "exists") {
      cursor.Next();
      while (cursor.Peek().kind == TokKind::kIdent) {
        conjunct.Exists(std::string(cursor.Next().text));
      }
      if (!cursor.Accept(TokKind::kColon)) {
        return Status::InvalidArgument("expected ':' after exists list");
      }
    }
    // Conjunction of atoms.
    for (;;) {
      if (cursor.Peek().kind != TokKind::kIdent) {
        return Status::InvalidArgument("expected atom, got " +
                                       Quoted(cursor.Peek().text));
      }
      const std::string_view first = cursor.Next().text;
      // Bare `true` is the empty conjunction: it contributes no atom, so
      // a disjunct that quantifies variables without constraining them
      // ("exists t0 t1: true", the printer's form) parses back exactly.
      // A predicate named "true" still works — it is followed by '('.
      if (first == "true" && cursor.Peek().kind != TokKind::kLParen &&
          !IsRel(cursor.Peek().kind)) {
        if (cursor.Accept(TokKind::kAmp)) continue;
        break;
      }
      if (cursor.Peek().kind == TokKind::kLParen) {
        cursor.Next();
        QueryProperAtom& atom = conjunct.proper_atoms.emplace_back();
        atom.pred = first;
        for (;;) {
          if (cursor.Peek().kind != TokKind::kIdent) {
            return Status::InvalidArgument("expected term in atom " +
                                           Quoted(first));
          }
          atom.args.push_back({std::string(cursor.Next().text)});
          if (cursor.Accept(TokKind::kComma)) continue;
          break;
        }
        if (!cursor.Accept(TokKind::kRParen)) {
          return Status::InvalidArgument("expected ')' in atom " +
                                         Quoted(first));
        }
      } else if (IsRel(cursor.Peek().kind)) {
        std::string_view prev = first;
        while (IsRel(cursor.Peek().kind)) {
          const TokKind rel = cursor.Next().kind;
          if (cursor.Peek().kind != TokKind::kIdent) {
            return Status::InvalidArgument("expected term after relation");
          }
          const std::string_view next = cursor.Next().text;
          if (rel == TokKind::kNeq) {
            conjunct.inequalities.push_back(
                {{std::string(prev)}, {std::string(next)}});
          } else {
            conjunct.order_atoms.push_back(
                {{std::string(prev)},
                 {std::string(next)},
                 rel == TokKind::kLt ? OrderRel::kLt : OrderRel::kLe});
          }
          prev = next;
        }
      } else {
        return Status::InvalidArgument("expected '(' or relation after " +
                                       Quoted(first));
      }
      if (cursor.Accept(TokKind::kAmp)) continue;
      break;
    }
    query.AddDisjunct(std::move(conjunct));
    if (cursor.Accept(TokKind::kBar)) continue;
    break;
  }
  if (cursor.Peek().kind != TokKind::kEnd) {
    return Status::InvalidArgument("trailing input: " +
                                   Quoted(cursor.Peek().text));
  }
  return query;
}

}  // namespace iodb
