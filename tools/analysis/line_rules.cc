#include "analysis/line_rules.h"

#include <regex>
#include <set>

namespace naspipe {
namespace analysis {

namespace {

constexpr const char *kUnorderedIteration = "unordered-iteration";
constexpr const char *kRawRandom = "raw-random";
constexpr const char *kPointerKeyContainer = "pointer-key-container";
constexpr const char *kDetSuppression = "det-suppression";
constexpr const char *kWallClock = "wall-clock";
constexpr const char *kFloatReduce = "float-reduce-outside-kernels";
constexpr const char *kLibmNumeric = "libm-in-numeric-plane";

/**
 * Variables declared as unordered containers in this file. Matches
 * `std::unordered_map<...> name` / `unordered_set<...> name{...}`;
 * the template argument match is non-greedy and single-line, which
 * covers the declaration styles this codebase uses.
 */
std::set<std::string>
unorderedVariables(const SourceLines &lines)
{
    static const std::regex decl(
        R"(unordered_(?:map|set)\s*<[^;{}()]*>\s*&?\s*(\w+)\s*[;={(])");
    std::set<std::string> names;
    for (const std::string &line : lines.code) {
        auto begin = std::sregex_iterator(line.begin(), line.end(),
                                          decl);
        for (auto it = begin; it != std::sregex_iterator(); ++it)
            names.insert((*it)[1].str());
    }
    return names;
}

/** Whether a code line is a `for` that mentions @p name as a word. */
bool
forLoopMentions(const std::string &code, const std::string &name)
{
    static const std::regex forHead(R"(\bfor\s*\()");
    if (!std::regex_search(code, forHead))
        return false;
    for (std::size_t pos = code.find(name); pos != std::string::npos;
         pos = code.find(name, pos + 1)) {
        if (wordAt(code, pos, name.size()))
            return true;
    }
    return false;
}

/** raw-random: rand()/srand()/std::random_device/time(...) calls. */
bool
hasRawRandom(const std::string &code)
{
    static const std::regex pattern(
        R"(\b(?:std\s*::\s*)?(?:rand|srand)\s*\()"
        R"(|std\s*::\s*random_device)"
        R"(|\brandom_device\s+\w)");
    if (std::regex_search(code, pattern))
        return true;
    // time(...) needs a by-hand word check: `.time(` / `->time(` /
    // `wallTime(` are methods, `time(` and `std::time(` are the
    // ambient clock.
    for (std::size_t pos = code.find("time");
         pos != std::string::npos; pos = code.find("time", pos + 1)) {
        if (!wordAt(code, pos, 4))
            continue;
        std::size_t after = pos + 4;
        while (after < code.size() &&
               (code[after] == ' ' || code[after] == '\t')) {
            after++;
        }
        if (after >= code.size() || code[after] != '(')
            continue;
        std::size_t before = pos;
        while (before > 0 && (code[before - 1] == ' ' ||
                              code[before - 1] == '\t')) {
            before--;
        }
        char prev = before > 0 ? code[before - 1] : '\0';
        if (prev == '.' || prev == '>')
            continue;  // member call, not the C library clock
        return true;
    }
    return false;
}

/**
 * Zero-initialized float variables in this file — candidate scalar
 * reduction accumulators. Matches `float name = 0;` / `= 0.f;` /
 * `= 0.0f;`; a nonzero initializer is a running value, not a
 * reduction seed, and stays out of the set.
 */
std::set<std::string>
floatAccumulatorNames(const SourceLines &lines)
{
    static const std::regex decl(
        R"(\bfloat\s+(\w+)\s*=\s*0(?:\.0*f?)?\s*[;,)])");
    std::set<std::string> names;
    for (const std::string &line : lines.code) {
        auto begin = std::sregex_iterator(line.begin(), line.end(),
                                          decl);
        for (auto it = begin; it != std::sregex_iterator(); ++it)
            names.insert((*it)[1].str());
    }
    return names;
}

/** Whether a code line feeds @p name with `+=`. */
bool
accumulatesInto(const std::string &code, const std::string &name)
{
    for (std::size_t pos = code.find(name); pos != std::string::npos;
         pos = code.find(name, pos + 1)) {
        if (!wordAt(code, pos, name.size()))
            continue;
        std::size_t after = pos + name.size();
        while (after < code.size() &&
               (code[after] == ' ' || code[after] == '\t')) {
            after++;
        }
        if (after + 1 < code.size() && code[after] == '+' &&
            code[after + 1] == '=')
            return true;
    }
    return false;
}

} // namespace

const std::vector<RuleInfo> &
lineRuleTable()
{
    static const std::vector<RuleInfo> kTable = {
        {kUnorderedIteration,
         "iteration over a std::unordered_map/unordered_set — hash "
         "order is implementation- and address-dependent, so any "
         "schedule or commit decision fed by it drifts silently"},
        {kRawRandom,
         "rand()/srand()/std::random_device/time() outside "
         "common/rng — ambient randomness breaks seed-determinism; "
         "use the seeded Philox4x32/deriveSeed instead"},
        {kPointerKeyContainer,
         "std::map/std::set keyed by a raw pointer — iteration order "
         "is allocation-address order, different every run"},
        {kDetSuppression,
         // Spelled split so the scanner never flags its own table.
         "TODO(" "det) comment — catch-all determinism deferrals are "
         "banned; fix the hazard or use a reasoned "
         "naspipe-lint: allow(rule) on the exact line"},
        {kWallClock,
         "std::chrono clock read outside src/obs/ and bench/ — "
         "wall-clock is the canonical nondeterminism source; measure "
         "through the obs::now() / obs::secondsSince() wrappers so every "
         "clock dependency stays auditable in one place"},
        {kFloatReduce,
         "sequential float accumulation (`+=` into a zero-initialized "
         "float, or std::accumulate) outside src/tensor/kernels/ — "
         "summation order is part of the bitwise numeric contract; "
         "route reductions through kernels::treeSum/treeDot so the "
         "tree shape stays specified in one place"},
        {kLibmNumeric,
         "libm transcendental (std::tanh/exp/log/pow/sin/cos/..., or "
         "C tanhf/expf/logf/...) in src/tensor/ or src/train/ outside "
         "src/tensor/kernels/ — a host libm rounds as it likes, so "
         "the trained bits would depend on it; call the library's own "
         "kernel (kernels::tanh / tanhSpan) instead"},
    };
    return kTable;
}

std::vector<Finding>
runLineRules(const SourceFile &file)
{
    const SourceLines &lines = file.lines;
    const std::set<std::string> unordered = unorderedVariables(lines);
    const std::set<std::string> accumulators =
        floatAccumulatorNames(lines);
    const bool inRngHome = pathContains(file.path, "common/rng.");
    const bool inClockHome = pathContains(file.path, "src/obs/") ||
                             pathContains(file.path, "bench/");
    const bool inKernelHome =
        pathContains(file.path, "src/tensor/kernels/");
    const bool inNumericPlane =
        !inKernelHome && (pathContains(file.path, "src/tensor/") ||
                          pathContains(file.path, "src/train/"));

    std::vector<Finding> findings;
    auto add = [&](std::size_t idx, const char *rule) {
        if (suppressed(lines, idx, rule))
            return;
        Finding f;
        f.file = file.path;
        f.line = static_cast<int>(idx) + 1;
        f.rule = rule;
        f.excerpt = trim(lines.raw[idx]);
        findings.push_back(std::move(f));
    };

    static const std::regex pointerKey(
        R"(std\s*::\s*(?:map|set)\s*<\s*[^,<>]*\*)");
    static const std::regex todoDet(R"(TODO\s*\(\s*det\s*\))");
    static const std::regex wallClock(
        R"(\b(?:steady_clock|system_clock|high_resolution_clock)\b)");
    // std::sqrt and std::fabs are correctly rounded IEEE operations,
    // not libm approximations, and stay allowed.
    static const std::regex libmCall(
        R"(\bstd\s*::\s*(?:a?(?:sin|cos|tan)h?|atan2|exp(?:2|m1)?)"
        R"(|log(?:2|10|1p)?|pow|cbrt|hypot|erfc?|[lt]gamma)[fl]?\s*\()"
        R"(|(?:^|[^\w.>])(?:a?(?:sin|cos|tan)h?|atan2|exp(?:2|m1)?)"
        R"(|log(?:2|10|1p)?|pow|cbrt|hypot|erfc?|[lt]gamma)f\s*\()");

    for (std::size_t i = 0; i < lines.code.size(); i++) {
        const std::string &code = lines.code[i];
        const std::string &raw = lines.raw[i];

        for (const std::string &name : unordered) {
            if (forLoopMentions(code, name)) {
                add(i, kUnorderedIteration);
                break;
            }
        }
        if (!inRngHome && hasRawRandom(code))
            add(i, kRawRandom);
        if (!inKernelHome) {
            for (const std::string &name : accumulators) {
                if (accumulatesInto(code, name)) {
                    add(i, kFloatReduce);
                    break;
                }
            }
            if (code.find("std::accumulate") != std::string::npos ||
                code.find("std :: accumulate") != std::string::npos)
                add(i, kFloatReduce);
        }
        if (inNumericPlane && std::regex_search(code, libmCall))
            add(i, kLibmNumeric);
        if (std::regex_search(code, pointerKey))
            add(i, kPointerKeyContainer);
        if (!inClockHome && std::regex_search(code, wallClock))
            add(i, kWallClock);
        if (std::regex_search(raw, todoDet))
            add(i, kDetSuppression);
    }
    return findings;
}

} // namespace analysis
} // namespace naspipe
