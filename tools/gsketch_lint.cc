// gsketch_lint — the project's source-level concurrency/layering gate,
// run as a ctest and as a CI step over everything under src/.
//
// Clang's -Wthread-safety proves lock discipline for code written AGAINST
// the annotated primitives; this checker closes the holes the analysis
// cannot see:
//
//   raw-sync     No raw std::mutex / std::condition_variable /
//                std::lock_guard / std::unique_lock / std::scoped_lock /
//                std::shared_mutex outside src/core/sync.h. A raw
//                primitive carries no capability, so code using one is
//                silently EXEMPT from the analysis — exactly the code
//                that most needs it.
//   atomic-order No std::atomic load/store/RMW without an explicit
//                std::memory_order argument. The drain barrier's
//                Dekker-style pairing (ingest_pipeline.cc) and the COW
//                page publication (cow_arena.cc) are correct only under
//                their DOCUMENTED orders; a defaulted seq_cst hides the
//                author's intent and invites a "harmless" downgrade.
//   layering     No #include of src/driver/ or src/session/ headers from
//                the pure sketch layers (src/core, src/sketch, src/hash,
//                src/graph). The sketch math must stay hoistable into the
//                upcoming daemon / out-of-core tiers without dragging the
//                ingestion machinery along.
//   printf       No printf-family writes to stdout/stderr (and no
//                iostream writes) in library code, outside
//                src/driver/progress.cc (the progress bar's default
//                stream is the caller-overridable stderr). Library
//                output goes to caller-provided FILE*/strings — the
//                Describe/PrintAnswer(out) paths — so embedders (the
//                daemon next) never get surprise terminal writes.
//
// Scanning is lexical (comments and string/char literals are stripped
// first, so prose mentioning std::mutex does not trip the gate), which
// keeps the checker dependency-free and fast enough to run on every
// ctest invocation. Usage:  gsketch_lint <repo_root>
#include <algorithm>
#include <cctype>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

namespace {

namespace fs = std::filesystem;

struct Finding {
  std::string file;  // repo-relative
  size_t line;
  std::string rule;
  std::string message;
};

// Replaces comments and string/char literal CONTENTS with spaces,
// preserving newlines so offsets keep mapping to the original lines.
// Handles // and /* */ comments, escape sequences, and plain "..."/'...'
// literals. (Raw string literals are not handled; the codebase has none,
// and one would only ever cause a false positive, never a miss.)
std::string StripCommentsAndLiterals(const std::string& src) {
  std::string out = src;
  enum class State { kCode, kLineComment, kBlockComment, kString, kChar };
  State state = State::kCode;
  for (size_t i = 0; i < src.size(); ++i) {
    char c = src[i];
    char next = i + 1 < src.size() ? src[i + 1] : '\0';
    switch (state) {
      case State::kCode:
        if (c == '/' && next == '/') {
          state = State::kLineComment;
          out[i] = out[i + 1] = ' ';
          ++i;
        } else if (c == '/' && next == '*') {
          state = State::kBlockComment;
          out[i] = out[i + 1] = ' ';
          ++i;
        } else if (c == '"') {
          state = State::kString;
        } else if (c == '\'') {
          state = State::kChar;
        }
        break;
      case State::kLineComment:
        if (c == '\n') {
          state = State::kCode;
        } else {
          out[i] = ' ';
        }
        break;
      case State::kBlockComment:
        if (c == '*' && next == '/') {
          state = State::kCode;
          out[i] = out[i + 1] = ' ';
          ++i;
        } else if (c != '\n') {
          out[i] = ' ';
        }
        break;
      case State::kString:
      case State::kChar: {
        char quote = state == State::kString ? '"' : '\'';
        if (c == '\\' && next != '\0') {
          out[i] = ' ';
          if (next != '\n') out[i + 1] = ' ';
          ++i;
        } else if (c == quote) {
          state = State::kCode;
        } else if (c != '\n') {
          out[i] = ' ';
        }
        break;
      }
    }
  }
  return out;
}

size_t LineOfOffset(const std::string& text, size_t offset) {
  size_t line = 1;
  for (size_t i = 0; i < offset && i < text.size(); ++i) {
    if (text[i] == '\n') ++line;
  }
  return line;
}

bool IsIdentChar(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) != 0 || c == '_';
}

// True when `text[pos..]` starts with `token` at an identifier boundary.
bool TokenAt(const std::string& text, size_t pos, const std::string& token) {
  if (text.compare(pos, token.size(), token) != 0) return false;
  if (pos > 0 && IsIdentChar(text[pos - 1])) return false;
  size_t end = pos + token.size();
  if (end < text.size() && IsIdentChar(text[end])) return false;
  return true;
}

// Every occurrence of `token` (identifier-bounded) in `text`.
std::vector<size_t> FindToken(const std::string& text,
                              const std::string& token) {
  std::vector<size_t> hits;
  size_t pos = 0;
  while ((pos = text.find(token, pos)) != std::string::npos) {
    if (TokenAt(text, pos, token)) hits.push_back(pos);
    pos += token.size();
  }
  return hits;
}

// The span of a balanced parenthesized argument list starting at the '('
// at `open`. Returns the text inside the parens (empty when unbalanced —
// treated as "no memory_order found" by the caller).
std::string ArgListAt(const std::string& text, size_t open) {
  if (open >= text.size() || text[open] != '(') return std::string();
  int depth = 0;
  for (size_t i = open; i < text.size(); ++i) {
    if (text[i] == '(') ++depth;
    if (text[i] == ')') {
      --depth;
      if (depth == 0) return text.substr(open + 1, i - open - 1);
    }
  }
  return std::string();
}

// --------------------------------------------------------------- rules --

void CheckRawSync(const std::string& rel, const std::string& text,
                  std::vector<Finding>* findings) {
  if (rel == "src/core/sync.h") return;  // the one legitimate home
  static const char* kBanned[] = {
      "std::mutex",          "std::timed_mutex",
      "std::recursive_mutex", "std::recursive_timed_mutex",
      "std::shared_mutex",   "std::shared_timed_mutex",
      "std::condition_variable", "std::condition_variable_any",
      "std::lock_guard",     "std::unique_lock",
      "std::scoped_lock",    "std::shared_lock",
      "pthread_mutex_t",     "pthread_cond_t",
  };
  for (const char* token : kBanned) {
    // The "std::" prefix is not identifier-bounded on its left by ':' —
    // TokenAt handles '_' and alnum only — so match on the full token.
    for (size_t pos : FindToken(text, token)) {
      findings->push_back(
          {rel, LineOfOffset(text, pos), "raw-sync",
           std::string(token) +
               " outside src/core/sync.h; use gsketch::Mutex / "
               "MutexLock / CondVar so the capability annotations apply"});
    }
  }
}

void CheckAtomicOrder(const std::string& rel, const std::string& text,
                      std::vector<Finding>* findings) {
  static const char* kOps[] = {
      "load",          "store",
      "exchange",      "fetch_add",
      "fetch_sub",     "fetch_and",
      "fetch_or",      "fetch_xor",
      "compare_exchange_weak", "compare_exchange_strong",
  };
  for (const char* op : kOps) {
    for (size_t pos : FindToken(text, op)) {
      // Only member calls on an object: `x.load(...)` / `p->load(...)`.
      // A bare identifier (function named load, accessor store()) is not
      // an atomic op.
      if (pos == 0) continue;
      char before = text[pos - 1];
      bool member = before == '.' ||
                    (before == '>' && pos >= 2 && text[pos - 2] == '-');
      if (!member) continue;
      size_t open = pos + std::string(op).size();
      while (open < text.size() &&
             std::isspace(static_cast<unsigned char>(text[open]))) {
        ++open;
      }
      if (open >= text.size() || text[open] != '(') continue;  // not a call
      std::string args = ArgListAt(text, open);
      // `.store()` with no argument cannot be std::atomic (store takes a
      // value) — it can only be an accessor named store().
      bool empty_args = true;
      for (char c : args) {
        if (!std::isspace(static_cast<unsigned char>(c))) {
          empty_args = false;
          break;
        }
      }
      if (empty_args && std::string(op) != "load") continue;
      if (args.find("memory_order") != std::string::npos) continue;
      findings->push_back(
          {rel, LineOfOffset(text, pos), "atomic-order",
           std::string(".") + op +
               "(...) without an explicit std::memory_order argument; "
               "state the intended order (and justify it in a comment)"});
    }
  }
}

void CheckLayering(const std::string& rel, const std::string& text,
                   std::vector<Finding>* findings) {
  bool sketch_layer = rel.rfind("src/core/", 0) == 0 ||
                      rel.rfind("src/sketch/", 0) == 0 ||
                      rel.rfind("src/hash/", 0) == 0 ||
                      rel.rfind("src/graph/", 0) == 0;
  if (!sketch_layer) return;
  // Literals are stripped, so re-scan the include lines from the raw
  // text the caller passes alongside — here we just regex-free scan for
  // the include form with the path kept by the caller (see ScanFile).
  std::istringstream lines(text);
  std::string line;
  size_t lineno = 0;
  while (std::getline(lines, line)) {
    ++lineno;
    size_t hash = line.find_first_not_of(" \t");
    if (hash == std::string::npos || line[hash] != '#') continue;
    if (line.find("include", hash) == std::string::npos) continue;
    for (const char* layer : {"src/driver/", "src/session/"}) {
      if (line.find(layer) != std::string::npos) {
        findings->push_back(
            {rel, lineno, "layering",
             "sketch-layer file includes " + std::string(layer) +
                 "...: the core sketch math must not depend on the "
                 "ingestion/session machinery"});
      }
    }
  }
}

void CheckPrintf(const std::string& rel, const std::string& text,
                 std::vector<Finding>* findings) {
  if (rel == "src/driver/progress.cc") return;  // the progress bar
  struct Pattern {
    const char* token;
    bool needs_console_arg;  // only flag when stdout/stderr is an arg
  };
  static const Pattern kPatterns[] = {
      {"printf", false},   // bare printf writes stdout unconditionally
      {"puts", false},     {"putchar", false},
      {"vprintf", false},  {"fprintf", true},
      {"vfprintf", true},  {"fputs", true},
      {"fputc", true},     {"putc", true},
  };
  for (const Pattern& p : kPatterns) {
    for (size_t pos : FindToken(text, p.token)) {
      size_t open = pos + std::string(p.token).size();
      while (open < text.size() &&
             std::isspace(static_cast<unsigned char>(text[open]))) {
        ++open;
      }
      if (open >= text.size() || text[open] != '(') continue;
      if (p.needs_console_arg) {
        std::string args = ArgListAt(text, open);
        if (args.find("stdout") == std::string::npos &&
            args.find("stderr") == std::string::npos) {
          continue;  // writes a caller-provided FILE*: the sanctioned shape
        }
      }
      findings->push_back(
          {rel, LineOfOffset(text, pos), "printf",
           std::string(p.token) +
               " writing to the process console in library code; write "
               "to a caller-provided FILE*/string (Describe/PrintAnswer "
               "pattern) instead"});
    }
  }
  for (const char* stream : {"std::cout", "std::cerr", "std::clog"}) {
    for (size_t pos : FindToken(text, stream)) {
      findings->push_back({rel, LineOfOffset(text, pos), "printf",
                           std::string(stream) +
                               " in library code; library output goes to "
                               "caller-provided sinks"});
    }
  }
}

void ScanFile(const fs::path& root, const fs::path& path,
              std::vector<Finding>* findings) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buf;
  buf << in.rdbuf();
  std::string raw = buf.str();
  std::string code = StripCommentsAndLiterals(raw);
  std::string rel = fs::relative(path, root).generic_string();
  CheckRawSync(rel, code, findings);
  CheckAtomicOrder(rel, code, findings);
  // Layering looks inside #include "..." literals, so it scans the RAW
  // text (include paths live in string literals the stripper blanks).
  CheckLayering(rel, raw, findings);
  CheckPrintf(rel, code, findings);
}

}  // namespace

int main(int argc, char** argv) {
  if (argc != 2) {
    std::fprintf(stderr, "usage: gsketch_lint <repo_root>\n");
    return 2;
  }
  fs::path root(argv[1]);
  fs::path src = root / "src";
  if (!fs::is_directory(src)) {
    std::fprintf(stderr, "gsketch_lint: no src/ under %s\n", argv[1]);
    return 2;
  }
  std::vector<Finding> findings;
  size_t files = 0;
  std::vector<fs::path> paths;
  for (const auto& entry : fs::recursive_directory_iterator(src)) {
    if (!entry.is_regular_file()) continue;
    fs::path p = entry.path();
    if (p.extension() != ".h" && p.extension() != ".cc") continue;
    paths.push_back(p);
  }
  // Deterministic report order regardless of directory iteration order.
  std::sort(paths.begin(), paths.end());
  for (const auto& p : paths) {
    ++files;
    ScanFile(root, p, &findings);
  }
  for (const auto& f : findings) {
    std::fprintf(stderr, "%s:%zu: [%s] %s\n", f.file.c_str(), f.line,
                 f.rule.c_str(), f.message.c_str());
  }
  std::fprintf(stderr, "gsketch_lint: %zu file(s), %zu finding(s)\n",
               files, findings.size());
  return findings.empty() ? 0 : 1;
}
