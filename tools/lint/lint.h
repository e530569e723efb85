/**
 * @file
 * ssdcheck_lint: repo-specific determinism & hygiene rules.
 *
 * The simulator's contract is that results are a pure function of
 * (config, seed, trace): bit-identical at any --jobs value, on any
 * machine. The type system cannot express that, and the golden tests
 * only catch a violation after it has shipped a wrong number. This
 * linter closes the gap at review time with nine rules (see DESIGN.md
 * "Static analysis & determinism invariants"):
 *
 *   wall-clock      (R1) no wall-clock or ambient-entropy sources in
 *                        deterministic dirs (src/sim, src/ssd,
 *                        src/nand, src/core) — virtual time and the
 *                        seeded sim::Rng only. src/perf is the
 *                        allowlisted timing layer.
 *   unordered-iter  (R2) no iteration over std::unordered_{map,set}
 *                        in deterministic dirs: iteration order is
 *                        implementation-defined and leaks straight
 *                        into results.
 *   std-function    (R3) no std::function in src/sim or src/ssd; a
 *                        hot-path callable is a template parameter or
 *                        a function pointer, never heap-allocating
 *                        type erasure.
 *   header-hygiene  (R4) every scanned header starts with
 *                        #pragma once and directly includes the std
 *                        headers for the std names it uses.
 *   console-io      (R5) no console I/O (std::cout/cerr/clog, printf
 *                        family) in the library dirs (src/sim,
 *                        src/ssd, src/nand, src/core, src/blockdev,
 *                        src/obs) — reporting belongs to tools/ and
 *                        src/stats; libraries return data.
 *   nodiscard       (R6) status-returning public APIs in
 *                        src/blockdev, src/resilience and
 *                        src/recovery headers must be [[nodiscard]].
 *   heap-alloc      (R7) no `new`/std::make_unique/std::make_shared
 *                        in the allocation-free core (src/sim,
 *                        src/nand, and the FTL hot files
 *                        src/ssd/{page_mapper,garbage_collector,
 *                        write_buffer}.cc). Placement `new (` is
 *                        exempt (inline-storage construction).
 *
 * R1-R7 are per-file token scans. R8/R9 are symbol-level rules over a
 * declaration index built from the same blanked text (decl_index.h):
 *
 *   snapshot-coverage (R8) every non-static data member of a class
 *                        defining saveState/loadState must be
 *                        referenced in both bodies, or carry a
 *                        reasoned `// snapshot:skip(<reason>)`.
 *   typed-ids       (R9) public signatures in src/{ssd,nand,sim,
 *                        workload} headers may not take raw
 *                        uint64_t/uint32_t where a strong id type
 *                        (core::Lpn, nand::Ppn, nand::Pbn) exists.
 *
 * Suppressions: append `// lint:allow(<rule-id>): <reason>` to the
 * offending line. The reason is mandatory — a reasonless allow is
 * itself reported (rule id "suppression").
 *
 * Deliberately token-level, not a clang plugin: it must build and run
 * in seconds on any toolchain the repo supports (incl. GCC-only
 * boxes), and the rules only need lexical context. Comments, string
 * and char literals are blanked before matching.
 */
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

namespace ssdcheck::lint {

/** One reported violation. */
struct Finding
{
    std::string file; ///< Forward-slash path relative to the scan root.
    uint32_t line = 0;
    std::string rule;
    std::string message;

    /** The canonical "file:line: rule-id: message" form. */
    std::string format() const;
};

/** A `lint:allow(<rule>)` marker found on a line. */
struct Allow
{
    std::string rule;
    bool hasReason = false;
};

/** A loaded file, pre-lexed for the rules. */
struct SourceFile
{
    std::string path;    ///< As opened (absolute or cwd-relative).
    std::string relPath; ///< Forward-slash path relative to the root.
    std::vector<std::string> raw;  ///< Original lines.
    /** Lines with comments, string and char literals blanked to
     *  spaces (columns preserved). Rules match against these. */
    std::vector<std::string> code;
    std::multimap<uint32_t, Allow> allows; ///< line -> markers.

    bool isHeader() const;
    /** True when relPath lives under @p dir ("src/sim", ...). */
    bool underDir(const std::string &dir) const;
};

/** code lines joined with '\n' plus offset->line lookup, for rules
 *  whose patterns span physical lines (declarations, for-headers). */
struct JoinedCode
{
    std::string text;
    std::vector<size_t> lineStart; ///< Offset of each line's start.

    uint32_t lineAt(size_t offset) const;
    static JoinedCode from(const SourceFile &f);
};

/** A lint rule: stateless check over one pre-lexed file. */
class Rule
{
  public:
    virtual ~Rule() = default;
    virtual std::string id() const = 0;
    virtual void check(const SourceFile &f,
                       std::vector<Finding> &out) const = 0;
};

/** The per-file repo rule set, R1..R7. */
std::vector<std::unique_ptr<Rule>> makeDefaultRules();

struct DeclIndex; // decl_index.h

/** A symbol-level rule: one check over the whole-scan declaration
 *  index (cross-file: members in headers, bodies in .cc files). */
class GlobalRule
{
  public:
    virtual ~GlobalRule() = default;
    virtual std::string id() const = 0;
    virtual void check(const DeclIndex &idx,
                       const std::vector<SourceFile> &files,
                       std::vector<Finding> &out) const = 0;
};

/** The symbol-level rule set, R8..R9. */
std::vector<std::unique_ptr<GlobalRule>> makeGlobalRules();

// -- engine ---------------------------------------------------------------

/** Load + pre-lex one file. @p relPath scopes the rules. */
SourceFile loadSourceFile(const std::string &path,
                          const std::string &relPath, std::string *err);

/**
 * Recursively collect .h/.cc files under @p root for each entry of
 * @p paths (root-relative files or directories), sorted for
 * deterministic output.
 */
std::vector<std::string> collectFiles(const std::string &root,
                                      const std::vector<std::string> &paths,
                                      std::string *err);

struct LintResult
{
    std::vector<Finding> findings; ///< Sorted by (file, line, rule).
    size_t filesScanned = 0;
    bool ioError = false;
    std::string errorText;
};

/**
 * Lint @p paths under @p root with the default per-file rules plus
 * the symbol-level rules, honouring reasoned `lint:allow`
 * suppressions and reporting reasonless ones.
 *
 * @p jobs > 1 shards file loading and the per-file rules over a
 * perf::ThreadPool. Output is deterministic at any job count: files
 * are collected sorted, per-file findings land in per-file slots
 * merged in path order, and the declaration index plus global rules
 * run serially over the already-ordered file set.
 */
LintResult runLint(const std::string &root,
                   const std::vector<std::string> &paths,
                   unsigned jobs = 1);

} // namespace ssdcheck::lint
