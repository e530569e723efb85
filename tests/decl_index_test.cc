/**
 * @file
 * Unit tests for the ssdcheck_lint declaration indexer
 * (tools/lint/decl_index.h): the lightweight scanner that recovers
 * classes, members, method signatures, inline and out-of-line bodies,
 * free functions and snapshot:skip markers from blanked source text.
 * Sources are written to a temp dir and run through the real lexer
 * (loadSourceFile), so the index sees exactly what the rules see.
 */
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "lint/decl_index.h"

namespace lint = ssdcheck::lint;
namespace fs = std::filesystem;

namespace {

lint::SourceFile
parseSource(const std::string &content, const std::string &relPath)
{
    // ctest runs every test in its own process, in parallel, against
    // one shared temp dir: the running test's name keeps the files of
    // concurrent tests apart, the counter those of one test.
    static int counter = 0;
    const ::testing::TestInfo *test =
        ::testing::UnitTest::GetInstance()->current_test_info();
    const std::string owner =
        test != nullptr
            ? std::string(test->test_suite_name()) + "." + test->name()
            : "no_test";
    const fs::path dir =
        fs::path(::testing::TempDir()) / "ssdcheck_decl_index";
    fs::create_directories(dir);
    const fs::path file =
        dir / (owner + "_" + std::to_string(counter++) + "_" +
               fs::path(relPath).filename().string());
    std::ofstream(file) << content;
    std::string err;
    lint::SourceFile f =
        lint::loadSourceFile(file.string(), relPath, &err);
    EXPECT_TRUE(err.empty()) << err;
    return f;
}

lint::DeclIndex
indexOf(const std::string &content,
        const std::string &relPath = "src/ssd/t.h")
{
    return lint::DeclIndex::build({parseSource(content, relPath)});
}

std::vector<std::string>
memberNames(const lint::ClassInfo &cls)
{
    std::vector<std::string> names;
    names.reserve(cls.members.size());
    for (const auto &m : cls.members)
        names.push_back(m.name);
    return names;
}

} // namespace

TEST(DeclIndex, MembersMethodsAndAccessOfPlainClass)
{
    const lint::DeclIndex idx = indexOf(R"(
namespace demo {
class Widget
{
  public:
    void poke(uint64_t lpn, int count);
    uint64_t size() const { return n_; }

  private:
    static constexpr uint32_t kMax = 4;
    uint64_t n_ = 0;
    double ratio_;
};
} // namespace demo
)");
    ASSERT_EQ(idx.classes.size(), 1u);
    const lint::ClassInfo &cls = idx.classes[0];
    EXPECT_EQ(cls.name, "Widget");
    EXPECT_FALSE(cls.isStruct);
    // Static data members are not snapshot state and stay out.
    EXPECT_EQ(memberNames(cls),
              (std::vector<std::string>{"n_", "ratio_"}));
    EXPECT_EQ(cls.members[0].type, "uint64_t");

    const lint::Method *poke = cls.findMethod("poke");
    ASSERT_NE(poke, nullptr);
    EXPECT_TRUE(poke->isPublic);
    EXPECT_FALSE(poke->hasBody);
    ASSERT_EQ(poke->params.size(), 2u);
    EXPECT_EQ(poke->params[0].type, "uint64_t");
    EXPECT_EQ(poke->params[0].name, "lpn");
    EXPECT_EQ(poke->params[1].name, "count");

    const lint::Method *size = cls.findMethod("size");
    ASSERT_NE(size, nullptr);
    EXPECT_TRUE(size->hasBody);
    EXPECT_TRUE(lint::containsWord(size->body, "n_"));
}

TEST(DeclIndex, StructDefaultsToPublicClassToPrivate)
{
    const lint::DeclIndex idx = indexOf(R"(
struct Open
{
    void visible(uint64_t ppn);
};
class Closed
{
    void hidden(uint64_t ppn);
};
)");
    ASSERT_EQ(idx.classes.size(), 2u);
    ASSERT_NE(idx.classes[0].findMethod("visible"), nullptr);
    EXPECT_TRUE(idx.classes[0].findMethod("visible")->isPublic);
    ASSERT_NE(idx.classes[1].findMethod("hidden"), nullptr);
    EXPECT_FALSE(idx.classes[1].findMethod("hidden")->isPublic);
}

TEST(DeclIndex, TemplatesClassAndMethod)
{
    const lint::DeclIndex idx = indexOf(R"(
template <typename T>
class Box
{
  public:
    template <typename U>
    void set(U next);

  private:
    T value_{};
    std::vector<T> history_;
};
)");
    ASSERT_EQ(idx.classes.size(), 1u);
    const lint::ClassInfo &cls = idx.classes[0];
    EXPECT_EQ(cls.name, "Box");
    EXPECT_EQ(memberNames(cls),
              (std::vector<std::string>{"value_", "history_"}));
    const lint::Method *set = cls.findMethod("set");
    ASSERT_NE(set, nullptr);
    ASSERT_EQ(set->params.size(), 1u);
    EXPECT_EQ(set->params[0].name, "next");
}

TEST(DeclIndex, NestedClassesKeepMembersApart)
{
    const lint::DeclIndex idx = indexOf(R"(
class Outer
{
  public:
    struct Inner
    {
        uint32_t tag = 0;
    };

  private:
    Inner cur_;
    uint64_t outerOnly_ = 0;
};
)");
    ASSERT_EQ(idx.classes.size(), 2u);
    const auto outer = idx.classesNamed("Outer");
    const auto inner = idx.classesNamed("Inner");
    ASSERT_EQ(outer.size(), 1u);
    ASSERT_EQ(inner.size(), 1u);
    EXPECT_EQ(memberNames(*outer[0]),
              (std::vector<std::string>{"cur_", "outerOnly_"}));
    EXPECT_EQ(memberNames(*inner[0]),
              (std::vector<std::string>{"tag"}));
}

TEST(DeclIndex, InClassInitializerForms)
{
    const lint::DeclIndex idx = indexOf(R"(
class Forms
{
    uint64_t eq_ = 5;
    std::vector<int> braced_{1, 2};
    sim::SimTime empty_{};
    std::array<uint8_t, 16> plain_;
};
)");
    ASSERT_EQ(idx.classes.size(), 1u);
    EXPECT_EQ(memberNames(idx.classes[0]),
              (std::vector<std::string>{"eq_", "braced_", "empty_",
                                        "plain_"}));
    EXPECT_EQ(idx.classes[0].members[2].type, "sim::SimTime");
}

TEST(DeclIndex, PreprocessorAndMacrosDoNotDerailTheScan)
{
    // Function-like macro definitions carry unbalanced-looking braces
    // and continuations; preprocessor lines are blanked wholesale, so
    // members on either side still index.
    const lint::DeclIndex idx = indexOf(R"(
#define MAKE_COUNTER(name) \
    uint64_t name##Count() const { return name##_; }

class Counted
{
  public:
#if defined(SSDCHECK_EXTRA)
    void extra();
#endif

  private:
    uint64_t reads_ = 0;
};
)");
    ASSERT_EQ(idx.classes.size(), 1u);
    EXPECT_EQ(idx.classes[0].name, "Counted");
    EXPECT_EQ(memberNames(idx.classes[0]),
              (std::vector<std::string>{"reads_"}));
}

TEST(DeclIndex, BracedDefaultArgumentsDoNotSplitDeclarations)
{
    // Regression: `cfg = {}` mid-parameter-list used to be taken for
    // an inline body, and the tail parameters became phantom members.
    const lint::DeclIndex idx = indexOf(R"(
class Engine
{
  public:
    static Engine diagnose(Device &dev, Config cfg = {},
                           sim::SimTime startTime = sim::kTimeZero);
    explicit Engine(Thresholds thresholds = {}, uint32_t window = 2000);

  private:
    uint64_t state_ = 0;
};
)");
    ASSERT_EQ(idx.classes.size(), 1u);
    const lint::ClassInfo &cls = idx.classes[0];
    EXPECT_EQ(memberNames(cls), (std::vector<std::string>{"state_"}));
    const lint::Method *diagnose = cls.findMethod("diagnose");
    ASSERT_NE(diagnose, nullptr);
    EXPECT_TRUE(diagnose->isStatic);
    EXPECT_FALSE(diagnose->hasBody);
    ASSERT_EQ(diagnose->params.size(), 3u);
    EXPECT_EQ(diagnose->params[2].name, "startTime");
    const lint::Method *ctor = cls.findMethod("Engine");
    ASSERT_NE(ctor, nullptr);
    ASSERT_EQ(ctor->params.size(), 2u);
    EXPECT_EQ(ctor->params[1].name, "window");
}

TEST(DeclIndex, OutOfLineBodiesAndMethodBodyText)
{
    const lint::SourceFile header = parseSource(R"(
class Meter
{
  public:
    void saveState() const;
    bool loadState();

  private:
    uint64_t count_ = 0;
};
)",
                                                "src/ssd/meter.h");
    const lint::SourceFile impl = parseSource(R"(
void
Meter::saveState() const
{
    write(count_);
}

bool
Meter::loadState()
{
    count_ = read();
    return true;
}
)",
                                              "src/ssd/meter.cc");
    const lint::DeclIndex idx = lint::DeclIndex::build({header, impl});
    ASSERT_EQ(idx.classes.size(), 1u);
    ASSERT_EQ(idx.bodies.size(), 2u);
    EXPECT_EQ(idx.bodies[0].className, "Meter");
    EXPECT_EQ(idx.bodies[0].method, "saveState");
    const std::string save =
        idx.methodBodyText(idx.classes[0], "saveState");
    const std::string load =
        idx.methodBodyText(idx.classes[0], "loadState");
    EXPECT_TRUE(lint::containsWord(save, "count_"));
    EXPECT_TRUE(lint::containsWord(load, "count_"));
}

TEST(DeclIndex, BodiesFromUnrelatedFilesDoNotAttach)
{
    // Two classes share a name across namespaces; a body in a file
    // with a different path stem must not satisfy the other class.
    const lint::SourceFile header = parseSource(R"(
class Meter
{
  public:
    void saveState() const;

  private:
    uint64_t count_ = 0;
};
)",
                                                "src/obs/meter.h");
    const lint::SourceFile other = parseSource(R"(
void
Meter::saveState() const
{
    write(count_);
}
)",
                                               "src/stats/gauge.cc");
    const lint::DeclIndex idx = lint::DeclIndex::build({header, other});
    ASSERT_EQ(idx.classes.size(), 1u);
    EXPECT_TRUE(idx.methodBodyText(idx.classes[0], "saveState").empty());
}

TEST(DeclIndex, FreeFunctionsCaptured)
{
    const lint::DeclIndex idx = indexOf(R"(
namespace demo {

uint64_t translate(uint64_t lpn, const Map &map);

inline int
clamp(int v)
{
    return v < 0 ? 0 : v;
}

} // namespace demo
)");
    ASSERT_EQ(idx.freeFunctions.size(), 2u);
    EXPECT_EQ(idx.freeFunctions[0].name, "translate");
    ASSERT_EQ(idx.freeFunctions[0].params.size(), 2u);
    EXPECT_EQ(idx.freeFunctions[0].params[0].name, "lpn");
    EXPECT_EQ(idx.freeFunctions[1].name, "clamp");
}

TEST(DeclIndex, SnapshotSkipMarkerParsing)
{
    const lint::DeclIndex idx = indexOf(R"(
class Marks
{
    uint64_t a_ = 0; // snapshot:skip(rebuilt from b_ on load)
    uint64_t b_ = 0; // snapshot:skip()
    uint64_t c_ = 0; // snapshot:skip(<reason>)
    uint64_t d_ = 0; // snapshot:skip
};
)");
    ASSERT_EQ(idx.classes.size(), 1u);
    const auto &m = idx.classes[0].members;
    ASSERT_EQ(m.size(), 4u);
    EXPECT_TRUE(m[0].skip.present);
    EXPECT_TRUE(m[0].skip.hasReason);
    EXPECT_TRUE(m[1].skip.present);
    EXPECT_FALSE(m[1].skip.hasReason);
    // `<reason>` is the documentation placeholder, not an annotation,
    // and the bare word is no marker at all.
    EXPECT_FALSE(m[2].skip.present);
    EXPECT_FALSE(m[3].skip.present);
    // Only the two real markers land in the marker list.
    EXPECT_EQ(idx.skipMarkers.size(), 2u);
}

TEST(DeclIndex, ContainsWordMatchesWholeIdentifiersOnly)
{
    EXPECT_TRUE(lint::containsWord("w.u64(lpns_);", "lpns_"));
    EXPECT_FALSE(lint::containsWord("w.u64(lpns_x);", "lpns_"));
    EXPECT_FALSE(lint::containsWord("w.u64(xlpns_);", "lpns_"));
    EXPECT_FALSE(lint::containsWord("", "lpns_"));
}
