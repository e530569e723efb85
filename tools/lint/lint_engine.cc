/**
 * @file
 * ssdcheck_lint engine: file walking, comment/literal blanking,
 * suppression collection, and the rule-driving loop.
 */
#include "lint/lint.h"

#include <algorithm>
#include <cctype>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "lint/decl_index.h"
#include "perf/thread_pool.h"

namespace ssdcheck::lint {

namespace fs = std::filesystem;

std::string
Finding::format() const
{
    std::ostringstream os;
    os << file << ":" << line << ": " << rule << ": " << message;
    return os.str();
}

bool
SourceFile::isHeader() const
{
    return relPath.size() >= 2 &&
           relPath.compare(relPath.size() - 2, 2, ".h") == 0;
}

bool
SourceFile::underDir(const std::string &dir) const
{
    return relPath.size() > dir.size() + 1 &&
           relPath.compare(0, dir.size(), dir) == 0 &&
           relPath[dir.size()] == '/';
}

uint32_t
JoinedCode::lineAt(size_t offset) const
{
    // Last lineStart <= offset; lineStart is ascending.
    const auto it = std::upper_bound(lineStart.begin(), lineStart.end(),
                                     offset);
    return static_cast<uint32_t>(it - lineStart.begin());
}

JoinedCode
JoinedCode::from(const SourceFile &f)
{
    JoinedCode j;
    j.lineStart.reserve(f.code.size());
    for (const auto &line : f.code) {
        j.lineStart.push_back(j.text.size());
        j.text += line;
        j.text += '\n';
    }
    return j;
}

namespace {

bool
identChar(char c)
{
    return std::isalnum(static_cast<unsigned char>(c)) != 0 || c == '_';
}

/** A plausible rule id: kebab-case, non-empty. Anything else (e.g.
 *  the `<rule>` placeholder in documentation) is not a marker. */
bool
validRuleId(const std::string &s)
{
    if (s.empty())
        return false;
    for (char c : s)
        if (std::islower(static_cast<unsigned char>(c)) == 0 &&
            std::isdigit(static_cast<unsigned char>(c)) == 0 && c != '-')
            return false;
    return true;
}

/** Collect `lint:allow(<rule>)[: reason]` markers from one raw line. */
void
collectAllows(const std::string &raw, uint32_t lineNo,
              std::multimap<uint32_t, Allow> &out)
{
    const std::string marker = "lint:allow(";
    size_t pos = 0;
    while ((pos = raw.find(marker, pos)) != std::string::npos) {
        const size_t open = pos + marker.size();
        const size_t close = raw.find(')', open);
        if (close == std::string::npos)
            break;
        Allow a;
        a.rule = raw.substr(open, close - open);
        if (!validRuleId(a.rule)) {
            pos = close;
            continue;
        }
        size_t after = close + 1;
        if (after < raw.size() && raw[after] == ':') {
            std::string reason = raw.substr(after + 1);
            const size_t firstNonSpace = reason.find_first_not_of(" \t");
            a.hasReason = firstNonSpace != std::string::npos;
        }
        out.emplace(lineNo, a);
        pos = close;
    }
}

/** Lexer state carried across physical lines. */
enum class LexState : uint8_t
{
    Code,
    BlockComment,
    RawString,
};

/**
 * Blank comments and string/char literals in @p line (to spaces,
 * preserving columns), updating the cross-line lexer state.
 * @p rawEnd is the `)delim"` terminator while inside a raw string.
 */
std::string
blankLine(const std::string &line, LexState &st, std::string &rawEnd)
{
    std::string out = line;
    size_t i = 0;
    const size_t n = line.size();
    // Line-local literal states: a string or char literal that hits
    // end-of-line without a continuation is treated as closed.
    bool inStr = false;
    bool inChr = false;
    while (i < n) {
        const char c = line[i];
        if (st == LexState::BlockComment) {
            if (c == '*' && i + 1 < n && line[i + 1] == '/') {
                out[i] = out[i + 1] = ' ';
                i += 2;
                st = LexState::Code;
            } else {
                out[i++] = ' ';
            }
            continue;
        }
        if (st == LexState::RawString) {
            const size_t end = line.find(rawEnd, i);
            if (end == std::string::npos) {
                for (size_t k = i; k < n; ++k)
                    out[k] = ' ';
                i = n;
            } else {
                for (size_t k = i; k < end + rawEnd.size(); ++k)
                    out[k] = ' ';
                i = end + rawEnd.size();
                st = LexState::Code;
            }
            continue;
        }
        if (inStr || inChr) {
            const char quote = inStr ? '"' : '\'';
            if (c == '\\' && i + 1 < n) {
                out[i] = out[i + 1] = ' ';
                i += 2;
            } else {
                if (c == quote)
                    inStr = inChr = false;
                out[i++] = ' ';
            }
            continue;
        }
        // Plain code.
        if (c == '/' && i + 1 < n && line[i + 1] == '/') {
            for (size_t k = i; k < n; ++k)
                out[k] = ' ';
            break;
        }
        if (c == '/' && i + 1 < n && line[i + 1] == '*') {
            out[i] = out[i + 1] = ' ';
            i += 2;
            st = LexState::BlockComment;
            continue;
        }
        if (c == '"') {
            const bool rawPrefix = i > 0 && line[i - 1] == 'R' &&
                                   (i < 2 || !identChar(line[i - 2]));
            if (rawPrefix) {
                const size_t open = line.find('(', i + 1);
                if (open != std::string::npos) {
                    rawEnd = ")" + line.substr(i + 1, open - i - 1) + "\"";
                    for (size_t k = i; k <= open && k < n; ++k)
                        out[k] = ' ';
                    i = open + 1;
                    st = LexState::RawString;
                    continue;
                }
            }
            out[i++] = ' ';
            inStr = true;
            continue;
        }
        if (c == '\'' && i > 0 && identChar(line[i - 1]) &&
            i + 1 < n && std::isdigit(static_cast<unsigned char>(line[i + 1]))) {
            // C++14 digit separator (1'000'000) — not a char literal.
            ++i;
            continue;
        }
        if (c == '\'') {
            out[i++] = ' ';
            inChr = true;
            continue;
        }
        ++i;
    }
    return out;
}

} // namespace

SourceFile
loadSourceFile(const std::string &path, const std::string &relPath,
               std::string *err)
{
    SourceFile f;
    f.path = path;
    f.relPath = relPath;
    std::ifstream is(path);
    if (!is) {
        if (err != nullptr)
            *err = "cannot open " + path;
        return f;
    }
    std::string line;
    LexState st = LexState::Code;
    std::string rawEnd;
    while (std::getline(is, line)) {
        if (!line.empty() && line.back() == '\r')
            line.pop_back();
        f.raw.push_back(line);
        collectAllows(line, static_cast<uint32_t>(f.raw.size()), f.allows);
        f.code.push_back(blankLine(line, st, rawEnd));
    }
    return f;
}

namespace {

bool
lintableFile(const fs::path &p)
{
    const std::string ext = p.extension().string();
    return ext == ".h" || ext == ".cc";
}

std::string
forwardSlashes(std::string s)
{
    std::replace(s.begin(), s.end(), '\\', '/');
    return s;
}

} // namespace

std::vector<std::string>
collectFiles(const std::string &root, const std::vector<std::string> &paths,
             std::string *err)
{
    std::vector<std::string> out;
    const fs::path rootPath(root);
    for (const auto &p : paths) {
        const fs::path full = rootPath / p;
        std::error_code ec;
        if (fs::is_directory(full, ec)) {
            for (fs::recursive_directory_iterator it(full, ec), end;
                 it != end && !ec; it.increment(ec)) {
                if (it->is_regular_file() && lintableFile(it->path()))
                    out.push_back(forwardSlashes(
                        fs::relative(it->path(), rootPath).string()));
            }
            if (ec && err != nullptr)
                *err = "cannot walk " + full.string() + ": " + ec.message();
        } else if (fs::is_regular_file(full, ec)) {
            out.push_back(forwardSlashes(
                fs::relative(full, rootPath).string()));
        } else {
            if (err != nullptr)
                *err = "no such file or directory: " + full.string();
        }
    }
    std::sort(out.begin(), out.end());
    out.erase(std::unique(out.begin(), out.end()), out.end());
    return out;
}

namespace {

/** Drop findings absorbed by a reasoned `lint:allow(<rule>)` on
 *  their line; @p f is the file the findings belong to. */
void
applyAllows(const SourceFile &f, std::vector<Finding> &raw,
            std::vector<Finding> &out)
{
    for (auto &fi : raw) {
        bool suppressed = false;
        const auto range = f.allows.equal_range(fi.line);
        for (auto it = range.first; it != range.second; ++it)
            if (it->second.rule == fi.rule && it->second.hasReason)
                suppressed = true;
        if (!suppressed)
            out.push_back(std::move(fi));
    }
}

} // namespace

LintResult
runLint(const std::string &root, const std::vector<std::string> &paths,
        unsigned jobs)
{
    LintResult result;
    std::string err;
    const std::vector<std::string> files = collectFiles(root, paths, &err);
    if (!err.empty()) {
        result.ioError = true;
        result.errorText = err;
        return result;
    }

    // Stage 1 — load + pre-lex + per-file rules, sharded over the
    // pool. Every shard writes only its own slot, so the merge below
    // is path-ordered and identical at any --jobs value.
    const auto rules = makeDefaultRules();
    std::vector<SourceFile> sources(files.size());
    std::vector<std::string> loadErrs(files.size());
    std::vector<std::vector<Finding>> perFile(files.size());
    const auto scanOne = [&](size_t k) {
        sources[k] = loadSourceFile((fs::path(root) / files[k]).string(),
                                    files[k], &loadErrs[k]);
        if (!loadErrs[k].empty())
            return;
        std::vector<Finding> raw;
        for (const auto &rule : rules)
            rule->check(sources[k], raw);
        applyAllows(sources[k], raw, perFile[k]);
    };
    if (jobs > 1 && files.size() > 1) {
        perf::ThreadPool pool(
            perf::ThreadPool::workersFor(jobs, files.size()));
        for (size_t k = 0; k < files.size(); ++k)
            pool.submit([&, k]() { scanOne(k); });
        pool.wait();
    } else {
        for (size_t k = 0; k < files.size(); ++k)
            scanOne(k);
    }
    for (size_t k = 0; k < files.size(); ++k) {
        if (!loadErrs[k].empty()) {
            result.ioError = true;
            result.errorText = loadErrs[k];
            return result;
        }
        ++result.filesScanned;
        for (auto &fi : perFile[k])
            result.findings.push_back(std::move(fi));
    }

    // Stage 2 — symbol-level rules over the whole-scan declaration
    // index (serial: the index is cheap and order-dependent).
    const DeclIndex idx = DeclIndex::build(sources);
    std::vector<Finding> globalRaw;
    for (const auto &rule : makeGlobalRules())
        rule->check(idx, sources, globalRaw);
    for (size_t k = 0; k < sources.size(); ++k) {
        std::vector<Finding> mine;
        for (auto &fi : globalRaw)
            if (fi.file == sources[k].relPath)
                mine.push_back(fi);
        applyAllows(sources[k], mine, result.findings);
    }

    // A reasonless allow absorbs nothing and is itself a finding.
    for (const auto &f : sources)
        for (const auto &[line, allow] : f.allows)
            if (!allow.hasReason)
                result.findings.push_back(Finding{
                    f.relPath, line, "suppression",
                    "lint:allow(" + allow.rule +
                        ") needs a reason: `// lint:allow(" + allow.rule +
                        "): <why ordering/time cannot escape>`"});

    std::sort(result.findings.begin(), result.findings.end(),
              [](const Finding &a, const Finding &b) {
                  if (a.file != b.file)
                      return a.file < b.file;
                  if (a.line != b.line)
                      return a.line < b.line;
                  return a.rule < b.rule;
              });
    return result;
}

} // namespace ssdcheck::lint
