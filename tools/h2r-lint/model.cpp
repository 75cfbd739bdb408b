#include "model.hpp"

#include <algorithm>
#include <cctype>

namespace h2r::lint {

namespace {

constexpr std::string_view kControlKeywords[] = {
    "if", "for", "while", "switch", "catch", "return", "do", "else",
    "sizeof", "alignof", "decltype", "static_assert", "new", "delete",
    "throw", "co_await", "co_return", "co_yield", "and", "or", "not",
    "assert",
};

bool is_control_keyword(std::string_view name) {
  return std::find(std::begin(kControlKeywords), std::end(kControlKeywords),
                   name) != std::end(kControlKeywords);
}

/// Position of the first `c` at parenthesis/angle depth zero; npos if none.
std::size_t find_top_level(std::string_view s, char c) {
  int paren = 0;
  for (std::size_t i = 0; i < s.size(); ++i) {
    const char cur = s[i];
    // Compare before adjusting depth so the first top-level '(' itself
    // is findable.
    if (paren == 0 && cur == c) {
      // `<=>` and `<=` / `>=` / `==` / `!=` are operators, not the
      // initializer `=` a field declaration pivots on.
      if (c == '=' &&
          ((i > 0 && (s[i - 1] == '<' || s[i - 1] == '>' || s[i - 1] == '=' ||
                      s[i - 1] == '!' || s[i - 1] == '+' || s[i - 1] == '-' ||
                      s[i - 1] == '*' || s[i - 1] == '/' || s[i - 1] == '|' ||
                      s[i - 1] == '&' || s[i - 1] == '^' ||
                      s[i - 1] == '%')) ||
           (i + 1 < s.size() && s[i + 1] == '='))) {
        continue;
      }
      return i;
    }
    if (cur == '(' || cur == '[') ++paren;
    if (cur == ')' || cur == ']') --paren;
  }
  return std::string_view::npos;
}

/// Last identifier in `s` (empty if none).
std::string last_ident(std::string_view s) {
  std::size_t end = s.size();
  while (end > 0 && !ident_char(s[end - 1])) --end;
  std::size_t begin = end;
  while (begin > 0 && ident_char(s[begin - 1])) --begin;
  return std::string(s.substr(begin, end - begin));
}

/// First identifier token of `s` (empty if none).
std::string first_ident(std::string_view s) {
  std::size_t begin = 0;
  while (begin < s.size() && !ident_char(s[begin])) ++begin;
  std::size_t end = begin;
  while (end < s.size() && ident_char(s[end])) ++end;
  return std::string(s.substr(begin, end - begin));
}

/// Strips a leading `template <...>` clause (balanced angle brackets).
std::string_view strip_template(std::string_view s, bool* templated) {
  std::string_view t = trim(s);
  if (t.rfind("template", 0) != 0) return t;
  if (templated != nullptr) *templated = true;
  std::size_t i = 8;
  while (i < t.size() && t[i] != '<') ++i;
  int depth = 0;
  for (; i < t.size(); ++i) {
    if (t[i] == '<') ++depth;
    if (t[i] == '>' && --depth == 0) {
      ++i;
      break;
    }
  }
  return trim(t.substr(i));
}

/// Strips leading access-specifier labels ("public:", friend-free).
std::string_view strip_labels(std::string_view s) {
  std::string_view t = trim(s);
  for (std::string_view label : {"public", "protected", "private"}) {
    if (t.rfind(label, 0) == 0) {
      std::string_view rest = trim(t.substr(label.size()));
      if (!rest.empty() && rest.front() == ':') {
        t = trim(rest.substr(1));
      }
    }
  }
  return t;
}

constexpr std::string_view kMutexTypes[] = {
    "std::mutex", "std::shared_mutex", "std::recursive_mutex",
    "std::timed_mutex"};

/// If `decl` declares a mutex variable, returns its name.
std::string mutex_decl_name(std::string_view decl) {
  for (std::string_view type : kMutexTypes) {
    std::size_t p = decl.find(type);
    while (p != std::string_view::npos) {
      const std::size_t end = p + type.size();
      const bool left_ok = p == 0 || (decl[p - 1] != '<');
      const bool right_ok = end >= decl.size() ||
                            (decl[end] != '>' && !ident_char(decl[end]) &&
                             decl[end] != ':');
      if (left_ok && right_ok) {
        std::string_view rest = trim(decl.substr(end));
        if (!rest.empty() && ident_char(rest.front())) {
          std::size_t name_end = 0;
          while (name_end < rest.size() && ident_char(rest[name_end])) {
            ++name_end;
          }
          return std::string(rest.substr(0, name_end));
        }
      }
      p = decl.find(type, p + 1);
    }
  }
  return {};
}

/// One entry of the scope stack the statement scanner maintains.
struct Scope {
  enum class Kind { kNamespace, kType, kFunction, kInit, kBlock };
  Kind kind = Kind::kBlock;
  int open_depth = 0;      // brace depth BEFORE this scope's '{'
  bool is_struct = false;  // kType: struct (modeled) vs class (mutex-only)
  bool templated = false;
  std::string type_name;   // kType
  std::size_t function_index = 0;  // kFunction: index into functions
  std::string table_name;  // kInit at namespace scope: table to record
  std::string table_text;  // captured initializer text
  bool keep_stmt = false;  // kInit for brace initializers: statement
                           // continues after the closing '}'
};

/// Comment text attached to a statement: the comments on its own lines
/// plus any directly preceding comment-only lines.
std::string gather_comments(const std::vector<Line>& lines, int first_line,
                            int last_line) {
  std::string out;
  int back = first_line - 1;  // 1-based line above the statement
  while (back >= 1) {
    const Line& line = lines[static_cast<std::size_t>(back) - 1];
    if (!trim(line.code).empty() || trim(line.comment).empty()) break;
    --back;
  }
  for (int l = back + 1; l <= last_line && l <= static_cast<int>(lines.size());
       ++l) {
    const Line& line = lines[static_cast<std::size_t>(l) - 1];
    if (!line.comment.empty()) {
      out += line.comment;
      out += '\n';
    }
  }
  return out;
}

/// Parses `// contract: diagnostic -- why` / `// contract: exclude(a, b)
/// -- why` out of a field's comments. Returns the excluded rule set;
/// flags a malformed annotation through `issue`.
std::set<std::string> parse_field_contract(std::string_view comments,
                                           bool* malformed,
                                           std::string* issue_text) {
  std::set<std::string> excluded;
  std::size_t tag = comments.find("contract:");
  if (tag == std::string_view::npos) return excluded;
  std::string_view rest = trim(comments.substr(tag + 9));
  std::set<std::string> rules;
  bool ok = false;
  if (rest.rfind("diagnostic", 0) == 0) {
    rules = {"merge", "eq", "codec"};
    rest.remove_prefix(10);
    ok = true;
  } else if (rest.rfind("exclude(", 0) == 0) {
    rest.remove_prefix(8);
    const std::size_t close = rest.find(')');
    if (close != std::string_view::npos) {
      std::string_view list = rest.substr(0, close);
      rest.remove_prefix(close + 1);
      ok = true;
      while (!list.empty()) {
        const std::size_t comma = list.find(',');
        const std::string rule{trim(list.substr(0, comma))};
        if (rule != "merge" && rule != "eq" && rule != "codec") {
          ok = false;
          break;
        }
        rules.insert(rule);
        if (comma == std::string_view::npos) break;
        list.remove_prefix(comma + 1);
      }
    }
  } else {
    // Some other "contract:" prose; not an annotation.
    return excluded;
  }
  // The reason clause is mandatory, exactly like allow(rule) -- reason.
  bool has_reason = false;
  std::string_view tail = trim(rest);
  if (tail.rfind("--", 0) == 0) {
    has_reason = !trim(tail.substr(2)).empty();
  } else if (tail.rfind("\xE2\x80\x94", 0) == 0) {
    has_reason = !trim(tail.substr(3)).empty();
  }
  if (!ok || !has_reason) {
    *malformed = true;
    *issue_text = std::string(trim(comments.substr(tag)));
    // Cut at the first newline so the issue reads as one annotation.
    const std::size_t nl = issue_text->find('\n');
    if (nl != std::string::npos) issue_text->resize(nl);
    return excluded;
  }
  return rules;
}

/// Whether the comments carry the hotpath function annotation (grammar
/// in lint.hpp); `missing_reason` set when the mandatory reason clause
/// is absent.
bool parse_hotpath(std::string_view comments, bool* missing_reason) {
  const std::size_t tag = comments.find("h2r-lint: hotpath");
  if (tag == std::string_view::npos) return false;
  std::string_view rest = trim(comments.substr(tag + 17));
  bool has_reason = false;
  if (rest.rfind("--", 0) == 0) {
    has_reason = !trim(rest.substr(2)).empty();
  } else if (rest.rfind("\xE2\x80\x94", 0) == 0) {
    has_reason = !trim(rest.substr(3)).empty();
  }
  *missing_reason = !has_reason;
  return true;
}

int line_of_offset(std::string_view body, std::size_t offset, int begin_line) {
  return begin_line +
         static_cast<int>(std::count(body.begin(),
                                     body.begin() + static_cast<std::ptrdiff_t>(
                                                        offset),
                                     '\n'));
}

/// Post-processes a function body: lock acquisitions and call sites in
/// body order.
void index_function_body(FunctionDef& fn) {
  const std::string_view body = fn.body;
  // Guard-object acquisitions: std::lock_guard<...> g(m); scoped_lock
  // over several mutexes; unique/shared_lock.
  for (std::string_view guard :
       {"lock_guard", "scoped_lock", "unique_lock", "shared_lock"}) {
    std::size_t pos = 0;
    while ((pos = body.find(guard, pos)) != std::string_view::npos) {
      const std::size_t start = pos;
      pos += guard.size();
      const bool left_ok = start == 0 || !ident_char(body[start - 1]);
      if (!left_ok) continue;
      std::size_t i = pos;
      // Optional template argument list.
      while (i < body.size() && std::isspace(static_cast<unsigned char>(
                                    body[i]))) {
        ++i;
      }
      if (i < body.size() && body[i] == '<') {
        int depth = 0;
        for (; i < body.size(); ++i) {
          if (body[i] == '<') ++depth;
          if (body[i] == '>' && --depth == 0) {
            ++i;
            break;
          }
        }
      }
      // Guard variable name.
      while (i < body.size() &&
             std::isspace(static_cast<unsigned char>(body[i]))) {
        ++i;
      }
      std::size_t name_end = i;
      while (name_end < body.size() && ident_char(body[name_end])) ++name_end;
      if (name_end == i) continue;
      i = name_end;
      while (i < body.size() &&
             std::isspace(static_cast<unsigned char>(body[i]))) {
        ++i;
      }
      if (i >= body.size() || (body[i] != '(' && body[i] != '{')) continue;
      const char open = body[i];
      const char close = open == '(' ? ')' : '}';
      int depth = 0;
      std::size_t args_begin = i + 1;
      std::size_t args_end = args_begin;
      for (; i < body.size(); ++i) {
        if (body[i] == open) ++depth;
        if (body[i] == close && --depth == 0) {
          args_end = i;
          break;
        }
      }
      std::string_view args = body.substr(args_begin, args_end - args_begin);
      // Split top-level commas; each plain identifier is a mutex operand.
      int pdepth = 0;
      std::size_t item_begin = 0;
      for (std::size_t j = 0; j <= args.size(); ++j) {
        const char c = j < args.size() ? args[j] : ',';
        if (c == '(' || c == '<' || c == '[') ++pdepth;
        if (c == ')' || c == '>' || c == ']') --pdepth;
        if (c == ',' && pdepth <= 0) {
          std::string_view item = trim(args.substr(item_begin, j - item_begin));
          while (!item.empty() && (item.front() == '&' || item.front() == '*')) {
            item.remove_prefix(1);
          }
          if (item.rfind("this->", 0) == 0) item.remove_prefix(6);
          bool plain = !item.empty();
          for (char ic : item) {
            if (!ident_char(ic)) {
              plain = false;
              break;
            }
          }
          if (plain && item != "std") {
            fn.locks.push_back(
                {std::string(item), start,
                 line_of_offset(body, start, fn.body_begin_line)});
          }
          item_begin = j + 1;
        }
      }
    }
  }
  // Direct .lock() calls: receiver identifier right before the dot.
  std::size_t pos = 0;
  while ((pos = body.find(".lock()", pos)) != std::string_view::npos) {
    std::size_t end = pos;
    std::size_t begin = end;
    while (begin > 0 && ident_char(body[begin - 1])) --begin;
    if (begin != end) {
      fn.locks.push_back(
          {std::string(body.substr(begin, end - begin)), begin,
           line_of_offset(body, begin, fn.body_begin_line)});
    }
    pos += 7;
  }
  std::sort(fn.locks.begin(), fn.locks.end(),
            [](const LockUse& a, const LockUse& b) {
              return a.offset < b.offset;
            });
  // Call sites: every identifier directly followed by '('.
  pos = 0;
  while (pos < body.size()) {
    if (!ident_char(body[pos])) {
      ++pos;
      continue;
    }
    std::size_t end = pos;
    while (end < body.size() && ident_char(body[end])) ++end;
    const std::string_view name = body.substr(pos, end - pos);
    std::size_t after = end;
    while (after < body.size() &&
           std::isspace(static_cast<unsigned char>(body[after]))) {
      ++after;
    }
    if (after < body.size() && body[after] == '(' &&
        !is_control_keyword(name) &&
        !(std::isdigit(static_cast<unsigned char>(name.front())) != 0)) {
      fn.calls.push_back({std::string(name), pos,
                          line_of_offset(body, pos, fn.body_begin_line)});
    }
    pos = end;
  }
}

/// The statement-level scanner: walks the blanked code of every line,
/// tracking brace depth and a scope stack, and records the file's
/// structs, functions, tables and mutexes.
class FileParser {
 public:
  FileParser(std::string_view path, const std::vector<Line>& lines)
      : path_(path), lines_(lines) {
    file_.path = std::string(path);
  }

  FileModel run() {
    bool prev_preprocessor_continues = false;
    for (std::size_t idx = 0; idx < lines_.size(); ++idx) {
      cur_line_ = static_cast<int>(idx) + 1;
      const std::string& code = lines_[idx].code;
      const std::string_view trimmed = trim(code);
      if (prev_preprocessor_continues || trimmed.rfind('#', 0) == 0) {
        prev_preprocessor_continues =
            !trimmed.empty() && trimmed.back() == '\\';
        append_to_function('\n');
        continue;
      }
      for (const char c : code) consume(c);
      consume_newline();
    }
    // Close any function left open by unbalanced braces (defensively).
    for (FunctionDef& fn : file_.functions) index_function_body(fn);
    return std::move(file_);
  }

 private:
  void append_to_function(char c) {
    // Every enclosing function scope receives the char: a lambda's body
    // also belongs to the function it sits in, so field mentions inside
    // lambdas still count toward coverage.
    for (auto it = scopes_.rbegin(); it != scopes_.rend(); ++it) {
      if (it->kind == Scope::Kind::kFunction) {
        file_.functions[it->function_index].body += c;
      }
    }
  }

  void append_to_capture(char c) {
    for (auto it = scopes_.rbegin(); it != scopes_.rend(); ++it) {
      if (it->kind == Scope::Kind::kInit && !it->table_name.empty()) {
        it->table_text += c;
        return;
      }
    }
  }

  bool inside_capture() const {
    for (auto it = scopes_.rbegin(); it != scopes_.rend(); ++it) {
      if (it->kind == Scope::Kind::kInit && !it->table_name.empty()) {
        return true;
      }
    }
    return false;
  }

  Scope* innermost_type() {
    for (auto it = scopes_.rbegin(); it != scopes_.rend(); ++it) {
      if (it->kind == Scope::Kind::kType) return &*it;
      if (it->kind == Scope::Kind::kFunction) break;
    }
    return nullptr;
  }

  bool in_function() const {
    for (auto it = scopes_.rbegin(); it != scopes_.rend(); ++it) {
      if (it->kind == Scope::Kind::kFunction) return true;
    }
    return false;
  }

  /// True when the scanner sits directly in a type's member list.
  bool at_member_level() {
    if (scopes_.empty()) return false;
    const Scope& top = scopes_.back();
    return top.kind == Scope::Kind::kType && depth_ == top.open_depth + 1;
  }

  void consume_newline() {
    append_to_function('\n');
    if (inside_capture()) append_to_capture('\n');
    if (!trim(stmt_).empty() && stmt_.back() != ' ') stmt_ += ' ';
  }

  void consume(char c) {
    append_to_function(c);
    if (c == '{') {
      if (inside_capture()) {
        append_to_capture(c);
        ++depth_;
        return;
      }
      open_brace();
      ++depth_;
      return;
    }
    if (c == '}') {
      --depth_;
      if (!scopes_.empty() && scopes_.back().open_depth == depth_) {
        close_scope();
      } else if (inside_capture()) {
        append_to_capture(c);
      }
      return;
    }
    if (inside_capture()) {
      append_to_capture(c);
      return;
    }
    if (c == ';' && stmt_paren_depth_ <= 0) {
      end_statement();
      stmt_paren_depth_ = 0;
      return;
    }
    if (trim(stmt_).empty() && !std::isspace(static_cast<unsigned char>(c))) {
      stmt_start_line_ = cur_line_;
      stmt_paren_depth_ = 0;
    }
    if (c == '(') ++stmt_paren_depth_;
    if (c == ')' && stmt_paren_depth_ > 0) --stmt_paren_depth_;
    stmt_ += c;
  }

  void open_brace() {
    Scope scope;
    scope.open_depth = depth_;
    bool templated = false;
    const std::string_view stmt = strip_labels(strip_template(stmt_, &templated));
    const std::string head = first_ident(stmt);
    if (stmt_paren_depth_ > 0) {
      // '{' inside an unclosed argument list: a braced init or lambda
      // body, never a definition header. Keep the statement alive.
      scope.kind = Scope::Kind::kInit;
      scope.keep_stmt = true;
    } else if (head == "namespace") {
      scope.kind = Scope::Kind::kNamespace;
    } else if (head == "struct" || head == "class" ||
               ((head == "typedef" || head == "mutable" ||
                 head == "static") &&
                false)) {
      scope.kind = Scope::Kind::kType;
      scope.is_struct = head == "struct";
      scope.templated = templated;
      scope.type_name = first_ident(stmt.substr(stmt.find(head) + head.size()));
      if (scope.type_name == "alignas" || scope.type_name.empty()) {
        scope.kind = Scope::Kind::kBlock;
      }
    } else if (head == "enum" || head == "union" || head == "extern") {
      scope.kind = Scope::Kind::kBlock;
    } else if (find_top_level(stmt, '=') != std::string_view::npos) {
      // Initializer: a namespace-scope `constexpr T kName[] = {...}`
      // becomes a recorded table; any other brace init keeps its
      // statement alive across the braces (field default initializers).
      scope.kind = Scope::Kind::kInit;
      scope.keep_stmt = true;
      if (!in_function() && innermost_type() == nullptr) {
        std::string_view before_eq =
            stmt.substr(0, find_top_level(stmt, '='));
        while (!before_eq.empty() &&
               (before_eq.back() == '[' || before_eq.back() == ']' ||
                std::isspace(static_cast<unsigned char>(before_eq.back())))) {
          before_eq.remove_suffix(1);
        }
        scope.table_name = last_ident(before_eq);
      }
    } else if (function_head(stmt, templated, &scope)) {
      // scope filled in by function_head.
    } else if (!trim(stmt).empty() &&
               (at_member_level() || innermost_type() == nullptr) &&
               !in_function()) {
      // Brace initializer without '=': `std::array<...> rates{};`
      scope.kind = Scope::Kind::kInit;
      scope.keep_stmt = true;
    } else {
      scope.kind = Scope::Kind::kBlock;
    }
    if (!scope.keep_stmt) stmt_.clear();
    scopes_.push_back(std::move(scope));
  }

  /// Tries to parse `stmt` as a function definition header; fills `scope`
  /// and registers the FunctionDef when it is one.
  bool function_head(std::string_view stmt, bool templated, Scope* scope) {
    // `operator==` / `operator<=>` need special carving (their '=' and
    // '<' would confuse the generic scan).
    std::size_t paren = std::string_view::npos;
    std::string name;
    std::size_t op = stmt.find("operator");
    if (op != std::string_view::npos &&
        (op == 0 || !ident_char(stmt[op - 1]))) {
      std::size_t p = op + 8;
      while (p < stmt.size() && stmt[p] != '(') ++p;
      if (p < stmt.size()) {
        paren = p;
        name = std::string(trim(stmt.substr(op, p - op)));
        // Normalize "operator ==" -> "operator==".
        name.erase(std::remove(name.begin(), name.end(), ' '), name.end());
      }
    }
    if (paren == std::string_view::npos) {
      paren = find_top_level(stmt, '(');
      if (paren == std::string_view::npos) return false;
      name = last_ident(stmt.substr(0, paren));
    }
    if (name.empty() || is_control_keyword(name)) return false;
    if (std::isdigit(static_cast<unsigned char>(name.front())) != 0) {
      return false;
    }
    // An '=' before the parameter list means this is an initializer with
    // a function-call default, not a definition header.
    const std::size_t eq = find_top_level(stmt.substr(0, paren), '=');
    if (eq != std::string_view::npos && stmt.find("operator") == std::string_view::npos) {
      return false;
    }

    FunctionDef fn;
    fn.name = name;
    fn.templated = templated;
    fn.path = std::string(path_);
    fn.header_line = stmt_start_line_;
    fn.body_begin_line = cur_line_;
    // Out-of-line qualifier: the identifier before the trailing `::`.
    std::string_view before_name = stmt.substr(0, stmt.rfind(name, paren));
    before_name = trim(before_name);
    if (before_name.size() >= 2 &&
        before_name.substr(before_name.size() - 2) == "::") {
      fn.qualifier = last_ident(before_name.substr(0, before_name.size() - 2));
      before_name = before_name.substr(0, before_name.size() - 2);
      // Drop the qualifier chain from the return text.
      while (!before_name.empty() &&
             (ident_char(before_name.back()) || before_name.back() == ':')) {
        before_name.remove_suffix(1);
      }
    } else if (Scope* type = innermost_type(); type != nullptr) {
      fn.qualifier = type->type_name;
      fn.templated = fn.templated || type->templated;
    }
    fn.return_text = std::string(before_name);
    // Parameter text: the balanced group starting at `paren`.
    int depth = 0;
    std::size_t params_end = paren;
    for (std::size_t i = paren; i < stmt.size(); ++i) {
      if (stmt[i] == '(') ++depth;
      if (stmt[i] == ')' && --depth == 0) {
        params_end = i;
        break;
      }
    }
    fn.params = std::string(stmt.substr(paren + 1, params_end - paren - 1));

    const std::string comments =
        gather_comments(lines_, stmt_start_line_, cur_line_);
    bool missing_reason = false;
    if (parse_hotpath(comments, &missing_reason)) {
      fn.hotpath = true;
      fn.hotpath_missing_reason = missing_reason;
      fn.hotpath_line = stmt_start_line_;
    }

    scope->kind = Scope::Kind::kFunction;
    scope->function_index = file_.functions.size();
    file_.functions.push_back(std::move(fn));
    return true;
  }

  void close_scope() {
    Scope scope = std::move(scopes_.back());
    scopes_.pop_back();
    switch (scope.kind) {
      case Scope::Kind::kType:
        if (scope.is_struct && pending_struct_ != nullptr) {
          // finalized below through pending_structs_ stack
        }
        finalize_type(scope);
        stmt_.clear();
        break;
      case Scope::Kind::kInit:
        if (!scope.table_name.empty()) {
          file_.tables[scope.table_name] = std::move(scope.table_text);
        }
        if (scope.keep_stmt) {
          stmt_ += " {} ";  // stand-in so the tail still ends in ';'
        } else {
          stmt_.clear();
        }
        break;
      case Scope::Kind::kFunction:
      case Scope::Kind::kNamespace:
      case Scope::Kind::kBlock:
        stmt_.clear();
        break;
    }
  }

  void finalize_type(const Scope& scope) {
    auto it = open_structs_.find(scope_key(scope));
    if (it == open_structs_.end()) return;
    if (scope.is_struct) file_.structs.push_back(std::move(it->second));
    open_structs_.erase(it);
  }

  std::string scope_key(const Scope& scope) const {
    return scope.type_name + "@" + std::to_string(scope.open_depth);
  }

  /// The StructModel being filled for the innermost open type (created
  /// lazily at the first member).
  StructModel& open_struct(const Scope& type) {
    const std::string key = scope_key(type);
    auto it = open_structs_.find(key);
    if (it == open_structs_.end()) {
      StructModel model;
      model.name = type.type_name;
      model.path = std::string(path_);
      model.line = cur_line_;
      model.templated = type.templated;
      it = open_structs_.emplace(key, std::move(model)).first;
    }
    return it->second;
  }

  void end_statement() {
    const std::string_view raw = trim(stmt_);
    if (raw.empty()) {
      stmt_.clear();
      return;
    }
    if (at_member_level()) {
      member_statement(raw);
    } else {
      // Namespace-scope and function-local (incl. static) mutex
      // declarations share the file-scoped identity path::name.
      const std::string name = mutex_decl_name(raw);
      if (!name.empty()) {
        file_.mutexes.push_back({std::string(path_) + "::" + name, name,
                                 std::string(path_), cur_line_});
      }
    }
    stmt_.clear();
  }

  void member_statement(std::string_view raw) {
    Scope* type = innermost_type();
    if (type == nullptr) return;
    bool templated = false;
    std::string_view stmt = strip_labels(strip_template(raw, &templated));
    if (stmt.empty()) return;
    StructModel& model = open_struct(*type);
    model.templated = model.templated || type->templated;

    // Defaulted equality: operator== or operator<=> ... = default.
    if ((stmt.find("operator==") != std::string_view::npos ||
         stmt.find("operator ==") != std::string_view::npos ||
         stmt.find("operator<=>") != std::string_view::npos)) {
      model.declares_eq = true;
      if (stmt.find("default") != std::string_view::npos) {
        model.defaulted_eq = true;
      }
      return;
    }

    const std::string head = first_ident(stmt);
    if (head == "using" || head == "typedef" || head == "friend" ||
        head == "static" || head == "enum" || head == "struct" ||
        head == "class" || head == "template" || head == "explicit" ||
        head == "virtual" || head == "operator") {
      return;
    }

    // Member mutexes get identity Type::name and are not value state.
    const std::string mutex_name = mutex_decl_name(stmt);
    if (!mutex_name.empty()) {
      file_.mutexes.push_back({type->type_name + "::" + mutex_name,
                               mutex_name, std::string(path_), cur_line_});
      return;
    }

    // A '(' before any top-level '=' means a member-function declaration.
    std::size_t eq = find_top_level(stmt, '=');
    std::string_view decl_part =
        eq == std::string_view::npos ? stmt : stmt.substr(0, eq);
    if (decl_part.find('(') != std::string_view::npos) return;
    // Strip the brace-init stand-in the kInit close appends.
    while (!decl_part.empty() &&
           (decl_part.back() == '{' || decl_part.back() == '}' ||
            std::isspace(static_cast<unsigned char>(decl_part.back())))) {
      decl_part.remove_suffix(1);
    }
    const std::string name = last_ident(decl_part);
    if (name.empty()) return;
    // `std::atomic<...>` members and bare references are not mergeable
    // value state either, but they ARE fields the contract covers — a
    // struct holding them next to merged counters is already suspect.

    FieldDecl field;
    field.name = name;
    field.path = std::string(path_);
    field.line = cur_line_;
    field.decl = std::string(trim(raw));
    const std::string comments =
        gather_comments(lines_, stmt_start_line_, cur_line_);
    bool malformed = false;
    std::string issue_text;
    field.excluded = parse_field_contract(comments, &malformed, &issue_text);
    if (malformed) {
      file_.annotation_issues.push_back(
          {std::string(path_), stmt_start_line_, issue_text});
    }
    model.fields.push_back(std::move(field));
  }

  std::string_view path_;
  const std::vector<Line>& lines_;
  FileModel file_;
  std::vector<Scope> scopes_;
  std::map<std::string, StructModel> open_structs_;
  StructModel* pending_struct_ = nullptr;
  std::string stmt_;
  int stmt_paren_depth_ = 0;  // ';' inside for(..;..;..) is not a terminator
  int stmt_start_line_ = 1;
  int cur_line_ = 1;
  int depth_ = 0;
};

}  // namespace

FileModel parse_file(std::string_view path, const std::vector<Line>& lines) {
  return FileParser(path, lines).run();
}

const std::string* Model::find_table(const FileModel& file,
                                     const std::string& name) const {
  const auto it = file.tables.find(name);
  if (it != file.tables.end()) return &it->second;
  return nullptr;
}

Model build_model(const std::vector<FileModel>& files) {
  Model model;
  model.files = files;
  for (const FileModel& file : model.files) {
    for (const StructModel& s : file.structs) {
      if (s.templated) continue;
      model.structs.emplace(s.name, &s);  // first definition wins
    }
    for (const FunctionDef& fn : file.functions) {
      model.functions_by_name[fn.name].push_back(&fn);
    }
    for (const MutexDecl& mutex : file.mutexes) {
      model.mutexes.push_back(&mutex);
    }
  }
  return model;
}

}  // namespace h2r::lint
