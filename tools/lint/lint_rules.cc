/**
 * @file
 * The seven ssdcheck_lint rules. Each is a token-level check over the
 * pre-lexed (comment/literal-blanked) source; see lint.h for the
 * rationale and DESIGN.md for the rule table.
 */
#include "lint/lint.h"

#include <array>
#include <cctype>
#include <initializer_list>
#include <set>

namespace ssdcheck::lint {

namespace {

bool
identChar(char c)
{
    return std::isalnum(static_cast<unsigned char>(c)) != 0 || c == '_';
}

/** Is text[pos..pos+len) a whole identifier token? */
bool
wholeWord(const std::string &text, size_t pos, size_t len)
{
    const bool leftOk = pos == 0 || !identChar(text[pos - 1]);
    const bool rightOk =
        pos + len >= text.size() || !identChar(text[pos + len]);
    return leftOk && rightOk;
}

/** First non-space position at or after @p pos. */
size_t
skipSpaces(const std::string &text, size_t pos)
{
    while (pos < text.size() &&
           std::isspace(static_cast<unsigned char>(text[pos])) != 0)
        ++pos;
    return pos;
}

bool
underAny(const SourceFile &f, std::initializer_list<const char *> dirs)
{
    for (const char *d : dirs)
        if (f.underDir(d))
            return true;
    return false;
}

/** Dirs whose results must be a pure function of (config, seed). */
constexpr std::initializer_list<const char *> kDeterministicDirs = {
    "src/sim", "src/ssd", "src/nand", "src/core", "src/obs",
    "src/resilience"};

// -- R1: wall-clock -------------------------------------------------------

class WallClockRule : public Rule
{
  public:
    std::string id() const override { return "wall-clock"; }

    void check(const SourceFile &f, std::vector<Finding> &out) const override
    {
        if (!underAny(f, kDeterministicDirs))
            return;
        // The telemetry endpoint layer is the one obs carve-out: it
        // stamps published snapshots with wall time for /healthz
        // staleness and never feeds the simulation (like src/perf).
        // Everything else under src/obs stays sim-time-only.
        if (f.underDir("src/obs/exporter"))
            return;
        // Identifiers banned anywhere (types and functions that read
        // wall-clock time or ambient entropy).
        static const std::array<const char *, 10> banned = {
            "steady_clock",   "system_clock", "high_resolution_clock",
            "clock_gettime",  "gettimeofday", "random_device",
            "srand",          "localtime",    "gmtime",
            "mktime"};
        // Identifiers banned only as a call (common English words).
        static const std::array<const char *, 3> bannedCalls = {
            "time", "rand", "clock"};
        for (size_t li = 0; li < f.code.size(); ++li) {
            const std::string &line = f.code[li];
            const uint32_t lineNo = static_cast<uint32_t>(li + 1);
            for (const char *word : banned)
                findWord(line, word, false, lineNo, f, out);
            for (const char *word : bannedCalls)
                findWord(line, word, true, lineNo, f, out);
        }
    }

  private:
    void findWord(const std::string &line, const std::string &word,
                  bool callOnly, uint32_t lineNo, const SourceFile &f,
                  std::vector<Finding> &out) const
    {
        size_t pos = 0;
        while ((pos = line.find(word, pos)) != std::string::npos) {
            const size_t after = pos + word.size();
            if (wholeWord(line, pos, word.size()) &&
                (!callOnly || (skipSpaces(line, after) < line.size() &&
                               line[skipSpaces(line, after)] == '('))) {
                out.push_back(Finding{
                    f.relPath, lineNo, id(),
                    "`" + word +
                        "` in a deterministic dir — use virtual time "
                        "(sim::SimTime) or the seeded sim::Rng"});
            }
            pos = after;
        }
    }
};

// -- R2: unordered-iter ---------------------------------------------------

class UnorderedIterRule : public Rule
{
  public:
    std::string id() const override { return "unordered-iter"; }

    void check(const SourceFile &f, std::vector<Finding> &out) const override
    {
        if (!underAny(f, kDeterministicDirs))
            return;
        const JoinedCode j = JoinedCode::from(f);
        const std::set<std::string> names = unorderedNames(j.text);
        if (names.empty())
            return;
        flagRangeFors(j, names, f, out);
        flagBeginCalls(j, names, f, out);
    }

  private:
    /** Names declared in this file with an unordered container type
     *  (fields, locals, parameters). File-local heuristic: aliases
     *  and cross-file types are out of reach for a token scanner. */
    static std::set<std::string> unorderedNames(const std::string &text)
    {
        std::set<std::string> names;
        for (const char *type : {"unordered_map", "unordered_set"}) {
            size_t pos = 0;
            const std::string t(type);
            while ((pos = text.find(t, pos)) != std::string::npos) {
                const size_t after = pos + t.size();
                if (!wholeWord(text, pos, t.size())) {
                    pos = after;
                    continue;
                }
                size_t i = skipSpaces(text, after);
                if (i >= text.size() || text[i] != '<') {
                    pos = after;
                    continue;
                }
                // Skip balanced template arguments.
                int depth = 0;
                for (; i < text.size(); ++i) {
                    if (text[i] == '<')
                        ++depth;
                    else if (text[i] == '>' && --depth == 0) {
                        ++i;
                        break;
                    }
                }
                // Skip refs/pointers/cv, then read the declared name.
                while (i < text.size() &&
                       (std::isspace(static_cast<unsigned char>(text[i])) !=
                            0 ||
                        text[i] == '&' || text[i] == '*'))
                    ++i;
                size_t nameEnd = i;
                while (nameEnd < text.size() && identChar(text[nameEnd]))
                    ++nameEnd;
                if (nameEnd > i)
                    names.insert(text.substr(i, nameEnd - i));
                pos = after;
            }
        }
        names.erase("const"); // `unordered_map<K,V> const x` edge.
        return names;
    }

    void flagRangeFors(const JoinedCode &j, const std::set<std::string> &names,
                       const SourceFile &f, std::vector<Finding> &out) const
    {
        const std::string &text = j.text;
        size_t pos = 0;
        while ((pos = text.find("for", pos)) != std::string::npos) {
            const size_t forPos = pos;
            pos += 3;
            if (!wholeWord(text, forPos, 3))
                continue;
            size_t open = skipSpaces(text, forPos + 3);
            if (open >= text.size() || text[open] != '(')
                continue;
            // Find the matching ')' and a top-level ':'.
            int depth = 0;
            size_t colon = std::string::npos;
            size_t close = std::string::npos;
            for (size_t i = open; i < text.size(); ++i) {
                const char c = text[i];
                if (c == '(')
                    ++depth;
                else if (c == ')') {
                    if (--depth == 0) {
                        close = i;
                        break;
                    }
                } else if (c == ':' && depth == 1 &&
                           (i == 0 || text[i - 1] != ':') &&
                           (i + 1 >= text.size() || text[i + 1] != ':')) {
                    colon = i;
                }
            }
            if (colon == std::string::npos || close == std::string::npos)
                continue;
            std::string range = text.substr(colon + 1, close - colon - 1);
            // Strip decoration: *x, (x), this->x, x_ stays.
            std::string bare;
            for (char c : range)
                if (identChar(c))
                    bare += c;
                else if (!bare.empty())
                    break; // first identifier only (handles `m.keys`).
            if (names.count(bare) != 0)
                out.push_back(Finding{
                    f.relPath, j.lineAt(forPos), id(),
                    "range-for over unordered container `" + bare +
                        "` — iteration order is not deterministic"});
        }
    }

    void flagBeginCalls(const JoinedCode &j, const std::set<std::string> &names,
                        const SourceFile &f, std::vector<Finding> &out) const
    {
        const std::string &text = j.text;
        for (const char *method : {"begin", "cbegin", "rbegin"}) {
            const std::string m(method);
            size_t pos = 0;
            while ((pos = text.find(m, pos)) != std::string::npos) {
                const size_t mPos = pos;
                pos += m.size();
                if (!wholeWord(text, mPos, m.size()))
                    continue;
                const size_t paren = skipSpaces(text, mPos + m.size());
                if (paren >= text.size() || text[paren] != '(')
                    continue;
                // Require `<name>.` or `<name>->` immediately before.
                size_t i = mPos;
                if (i >= 1 && text[i - 1] == '.')
                    i -= 1;
                else if (i >= 2 && text[i - 2] == '-' && text[i - 1] == '>')
                    i -= 2;
                else
                    continue;
                size_t nameEnd = i;
                while (i > 0 && identChar(text[i - 1]))
                    --i;
                if (nameEnd == i)
                    continue;
                const std::string name = text.substr(i, nameEnd - i);
                if (names.count(name) != 0)
                    out.push_back(Finding{
                        f.relPath, j.lineAt(mPos), id(),
                        "iterator over unordered container `" + name +
                            "` — iteration order is not deterministic"});
            }
        }
    }
};

// -- R3: std-function -----------------------------------------------------

class StdFunctionRule : public Rule
{
  public:
    std::string id() const override { return "std-function"; }

    void check(const SourceFile &f, std::vector<Finding> &out) const override
    {
        if (!underAny(f, {"src/sim", "src/ssd"}))
            return;
        const std::string token = "std::function";
        for (size_t li = 0; li < f.code.size(); ++li) {
            const std::string &line = f.code[li];
            size_t pos = 0;
            while ((pos = line.find(token, pos)) != std::string::npos) {
                if (pos + token.size() >= line.size() ||
                    !identChar(line[pos + token.size()]))
                    out.push_back(Finding{
                        f.relPath, static_cast<uint32_t>(li + 1), id(),
                        "std::function on the simulator hot path — take "
                        "the callable as a template parameter or a "
                        "function pointer (no heap-allocating type "
                        "erasure in src/sim or src/ssd)"});
                pos += token.size();
            }
        }
    }
};

// -- R4: header-hygiene ---------------------------------------------------

/** std name -> headers any of which satisfies the direct include. */
struct StdName
{
    const char *token;
    std::initializer_list<const char *> headers;
};

class HeaderHygieneRule : public Rule
{
  public:
    std::string id() const override { return "header-hygiene"; }

    void check(const SourceFile &f, std::vector<Finding> &out) const override
    {
        if (!f.isHeader())
            return;
        checkPragmaOnce(f, out);
        checkStdIncludes(f, out);
    }

  private:
    void checkPragmaOnce(const SourceFile &f, std::vector<Finding> &out) const
    {
        for (size_t li = 0; li < f.code.size(); ++li) {
            const std::string &line = f.code[li];
            const size_t first = line.find_first_not_of(" \t");
            if (first == std::string::npos)
                continue;
            std::string stripped = line.substr(first);
            while (!stripped.empty() &&
                   std::isspace(static_cast<unsigned char>(
                       stripped.back())) != 0)
                stripped.pop_back();
            if (stripped == "#pragma once")
                return;
            out.push_back(Finding{
                f.relPath, static_cast<uint32_t>(li + 1), id(),
                "header must open with `#pragma once` (before any other "
                "code; include guards are not used in this repo)"});
            return;
        }
        out.push_back(Finding{f.relPath, 1, id(),
                              "header must contain `#pragma once`"});
    }

    void checkStdIncludes(const SourceFile &f,
                          std::vector<Finding> &out) const
    {
        // Curated map: common std vocabulary a header may name. A
        // header naming one must directly include a header providing
        // it — relying on transitive includes breaks the next
        // refactor. Deliberately not exhaustive: high-signal types
        // only, so the check stays quiet on fundamentals.
        static const std::array<StdName, 24> kNames = {{
            {"std::vector", {"<vector>"}},
            {"std::deque", {"<deque>"}},
            {"std::string", {"<string>"}},
            {"std::unordered_map", {"<unordered_map>"}},
            {"std::unordered_set", {"<unordered_set>"}},
            {"std::optional", {"<optional>"}},
            {"std::function", {"<functional>"}},
            {"std::unique_ptr", {"<memory>"}},
            {"std::shared_ptr", {"<memory>"}},
            {"std::make_unique", {"<memory>"}},
            {"std::mutex", {"<mutex>"}},
            {"std::lock_guard", {"<mutex>"}},
            {"std::unique_lock", {"<mutex>"}},
            {"std::condition_variable", {"<condition_variable>"}},
            {"std::condition_variable_any", {"<condition_variable>"}},
            {"std::thread", {"<thread>"}},
            {"std::atomic", {"<atomic>"}},
            {"std::array", {"<array>"}},
            {"std::pair", {"<utility>"}},
            {"std::exception_ptr", {"<exception>"}},
            {"std::ostream", {"<ostream>", "<iosfwd>", "<iostream>"}},
            {"std::istream", {"<istream>", "<iosfwd>", "<iostream>"}},
            {"std::multimap", {"<map>"}},
            {"std::map", {"<map>"}},
        }};
        std::set<std::string> includes;
        for (const auto &line : f.code) {
            const size_t hash = line.find('#');
            if (hash == std::string::npos)
                continue;
            const size_t inc = line.find("include", hash);
            if (inc == std::string::npos)
                continue;
            const size_t open = line.find('<', inc);
            const size_t close = line.find('>', open);
            if (open != std::string::npos && close != std::string::npos)
                includes.insert(line.substr(open, close - open + 1));
        }
        for (const auto &name : kNames) {
            const std::string token(name.token);
            bool satisfied = false;
            for (const char *h : name.headers)
                if (includes.count(h) != 0)
                    satisfied = true;
            if (satisfied)
                continue;
            for (size_t li = 0; li < f.code.size() && !satisfied; ++li) {
                const std::string &line = f.code[li];
                size_t pos = 0;
                while ((pos = line.find(token, pos)) != std::string::npos) {
                    if (pos + token.size() >= line.size() ||
                        !identChar(line[pos + token.size()])) {
                        out.push_back(Finding{
                            f.relPath, static_cast<uint32_t>(li + 1), id(),
                            "uses `" + token + "` but does not include " +
                                *name.headers.begin() +
                                " directly (include what you name)"});
                        satisfied = true; // report once per name.
                        break;
                    }
                    pos += token.size();
                }
            }
        }
    }
};

// -- R5: console-io -------------------------------------------------------

class ConsoleIoRule : public Rule
{
  public:
    std::string id() const override { return "console-io"; }

    void check(const SourceFile &f, std::vector<Finding> &out) const override
    {
        // The library layers must stay silent: reporting belongs to
        // tools/ and src/stats (and the obs registry/trace exports).
        // A stray printf in the device model is both a layering leak
        // and an unmeasured hot-path cost.
        if (!underAny(f, {"src/sim", "src/ssd", "src/nand", "src/core",
                          "src/blockdev", "src/obs", "src/resilience"}))
            return;
        // Stream objects banned anywhere they are named.
        static const std::array<const char *, 3> banned = {
            "cout", "cerr", "clog"};
        // stdio banned only as a call (`puts` et al. are common words;
        // snprintf-into-buffer stays legal — it does not do I/O).
        static const std::array<const char *, 5> bannedCalls = {
            "printf", "fprintf", "puts", "fputs", "putchar"};
        for (size_t li = 0; li < f.code.size(); ++li) {
            const std::string &line = f.code[li];
            const uint32_t lineNo = static_cast<uint32_t>(li + 1);
            for (const char *word : banned)
                findWord(line, word, false, lineNo, f, out);
            for (const char *word : bannedCalls)
                findWord(line, word, true, lineNo, f, out);
        }
    }

  private:
    void findWord(const std::string &line, const std::string &word,
                  bool callOnly, uint32_t lineNo, const SourceFile &f,
                  std::vector<Finding> &out) const
    {
        size_t pos = 0;
        while ((pos = line.find(word, pos)) != std::string::npos) {
            const size_t after = pos + word.size();
            if (wholeWord(line, pos, word.size()) &&
                (!callOnly || (skipSpaces(line, after) < line.size() &&
                               line[skipSpaces(line, after)] == '('))) {
                out.push_back(Finding{
                    f.relPath, lineNo, id(),
                    "`" + word +
                        "` in a library dir — console I/O belongs to "
                        "tools/ or src/stats; return data instead"});
            }
            pos = after;
        }
    }
};

// -- R6: nodiscard --------------------------------------------------------

class NodiscardRule : public Rule
{
  public:
    std::string id() const override { return "nodiscard"; }

    void check(const SourceFile &f, std::vector<Finding> &out) const override
    {
        // An IoResult carries the request's error status and an
        // ignored LoadError is a silently-swallowed restore failure —
        // both must be [[nodiscard]] on the I/O-path and recovery
        // public APIs so call sites cannot drop them.
        if (!f.isHeader() ||
            !underAny(f, {"src/blockdev", "src/resilience",
                          "src/recovery"}))
            return;
        const JoinedCode j = JoinedCode::from(f);
        for (const char *type : {"IoResult", "LoadError"})
            checkType(j, type, f, out);
    }

  private:
    void checkType(const JoinedCode &j, const std::string &type,
                   const SourceFile &f, std::vector<Finding> &out) const
    {
        const std::string &text = j.text;
        size_t pos = 0;
        while ((pos = text.find(type, pos)) != std::string::npos) {
            const size_t typePos = pos;
            pos += type.size();
            if (!wholeWord(text, typePos, type.size()))
                continue;
            // Must read as a declaration `Type name(`: an identifier
            // then '(' right after the type. Anything else (a local,
            // a parameter, a member, `= Type`, a cast) is not a
            // returning API.
            size_t i = skipSpaces(text, typePos + type.size());
            const size_t nameBegin = i;
            while (i < text.size() && identChar(text[i]))
                ++i;
            if (i == nameBegin)
                continue;
            const std::string name = text.substr(nameBegin, i - nameBegin);
            i = skipSpaces(text, i);
            if (i >= text.size() || text[i] != '(')
                continue;
            // Back up over namespace qualifiers (`blockdev::IoResult`)
            // to the start of the return-type expression.
            size_t declBegin = typePos;
            while (declBegin >= 2 && text[declBegin - 1] == ':' &&
                   text[declBegin - 2] == ':') {
                declBegin -= 2;
                while (declBegin > 0 && identChar(text[declBegin - 1]))
                    --declBegin;
            }
            // The declaration's specifier region runs from the
            // previous statement/brace boundary; [[nodiscard]] (or a
            // disqualifying token) must appear in it.
            size_t regionBegin = declBegin;
            while (regionBegin > 0 && text[regionBegin - 1] != ';' &&
                   text[regionBegin - 1] != '{' &&
                   text[regionBegin - 1] != '}')
                --regionBegin;
            const std::string region =
                text.substr(regionBegin, i - regionBegin);
            // `= IoResult(...)`, `return IoResult(...)`, `(IoResult(`:
            // expression uses of the type name, not declarations.
            const std::string prefix =
                text.substr(regionBegin, declBegin - regionBegin);
            if (prefix.find('=') != std::string::npos ||
                prefix.find('(') != std::string::npos ||
                prefix.find("return") != std::string::npos ||
                prefix.find("new") != std::string::npos)
                continue;
            if (region.find("[[nodiscard]]") != std::string::npos)
                continue;
            out.push_back(Finding{
                f.relPath, j.lineAt(typePos), id(),
                "public API `" + name + "` returns " + type +
                    " without [[nodiscard]] — dropping an I/O status "
                    "or load error must not compile silently"});
        }
    }
};

// -- R7: heap-alloc -------------------------------------------------------

class HeapAllocRule : public Rule
{
  public:
    std::string id() const override { return "heap-alloc"; }

    void check(const SourceFile &f, std::vector<Finding> &out) const override
    {
        // The SoA rework made the per-request core allocation-free:
        // arenas, flat tables and packed bitmaps only. Ban the
        // allocating vocabulary (`new`, std::make_unique/make_shared)
        // in that core so a convenience allocation cannot creep back
        // onto the hot path. Placement new (`new (`) stays legal —
        // it constructs into storage the caller already owns — and a
        // deliberate cold-path allocation can carry a reasoned allow
        // marker for this rule.
        static const std::array<const char *, 3> kHotFiles = {
            "src/ssd/page_mapper.cc", "src/ssd/garbage_collector.cc",
            "src/ssd/write_buffer.cc"};
        bool scoped = underAny(f, {"src/sim", "src/nand"});
        for (const char *p : kHotFiles)
            scoped = scoped || f.relPath == p;
        if (!scoped)
            return;
        for (size_t li = 0; li < f.code.size(); ++li) {
            const std::string &line = f.code[li];
            const uint32_t lineNo = static_cast<uint32_t>(li + 1);
            const size_t first = line.find_first_not_of(" \t");
            if (first != std::string::npos && line[first] == '#')
                continue; // preprocessor (`#include <new>`).
            findNew(line, lineNo, f, out);
            for (const char *word :
                 {"make_unique", "make_shared",
                  "make_unique_for_overwrite",
                  "make_shared_for_overwrite"})
                findMaker(line, word, lineNo, f, out);
        }
    }

  private:
    void findNew(const std::string &line, uint32_t lineNo,
                 const SourceFile &f, std::vector<Finding> &out) const
    {
        size_t pos = 0;
        while ((pos = line.find("new", pos)) != std::string::npos) {
            const size_t after = pos + 3;
            if (!wholeWord(line, pos, 3)) {
                pos = after;
                continue;
            }
            // Placement new constructs into caller-owned storage: the
            // next token is '('. A heap `new T` starts with a type
            // name (possibly cv-qualified or ::-scoped).
            const size_t next = skipSpaces(line, after);
            if (next < line.size() && line[next] == '(') {
                pos = after;
                continue;
            }
            out.push_back(Finding{
                f.relPath, lineNo, id(),
                "`new` in the allocation-free core — use an arena, a "
                "flat table, or inline storage (placement `new (` is "
                "exempt)"});
            pos = after;
        }
    }

    void findMaker(const std::string &line, const std::string &word,
                   uint32_t lineNo, const SourceFile &f,
                   std::vector<Finding> &out) const
    {
        size_t pos = 0;
        while ((pos = line.find(word, pos)) != std::string::npos) {
            const size_t after = pos + word.size();
            if (wholeWord(line, pos, word.size()))
                out.push_back(Finding{
                    f.relPath, lineNo, id(),
                    "`" + word +
                        "` in the allocation-free core — no per-"
                        "request heap allocation in src/sim, src/nand "
                        "or the FTL hot files"});
            pos = after;
        }
    }
};

} // namespace

std::vector<std::unique_ptr<Rule>>
makeDefaultRules()
{
    std::vector<std::unique_ptr<Rule>> rules;
    rules.push_back(std::make_unique<WallClockRule>());
    rules.push_back(std::make_unique<UnorderedIterRule>());
    rules.push_back(std::make_unique<StdFunctionRule>());
    rules.push_back(std::make_unique<HeaderHygieneRule>());
    rules.push_back(std::make_unique<ConsoleIoRule>());
    rules.push_back(std::make_unique<NodiscardRule>());
    rules.push_back(std::make_unique<HeapAllocRule>());
    return rules;
}

} // namespace ssdcheck::lint
