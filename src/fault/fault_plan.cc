#include "fault/fault_plan.h"

#include <algorithm>
#include <cstdlib>
#include <set>
#include <sstream>

#include "common/logging.h"
#include "common/rng.h"
#include "common/string_util.h"

namespace naspipe {

const char *
faultKindName(FaultKind kind)
{
    switch (kind) {
    case FaultKind::GpuCrash:
        return "crash";
    case FaultKind::StageStall:
        return "stall";
    case FaultKind::LinkDegrade:
        return "degrade";
    case FaultKind::LinkDrop:
        return "drop";
    }
    return "?";
}

bool
faultIsFailStop(FaultKind kind)
{
    return kind == FaultKind::GpuCrash || kind == FaultKind::LinkDrop;
}

std::string
FaultSpec::describe() const
{
    std::ostringstream oss;
    oss << faultKindName(kind) << "@" << atStep << ",stage=" << stage;
    if (kind == FaultKind::StageStall || kind == FaultKind::LinkDegrade)
        oss << ",ms=" << formatFixed(durationMs, 1);
    if (kind == FaultKind::LinkDegrade)
        oss << ",factor=" << formatFixed(factor, 1);
    return oss.str();
}

namespace {

bool
kindByName(const std::string &name, FaultKind &out)
{
    for (FaultKind kind :
         {FaultKind::GpuCrash, FaultKind::StageStall,
          FaultKind::LinkDegrade, FaultKind::LinkDrop}) {
        if (name == faultKindName(kind)) {
            out = kind;
            return true;
        }
    }
    return false;
}

bool
parseWholeDouble(const std::string &text, double &out)
{
    if (text.empty())
        return false;
    char *end = nullptr;
    out = std::strtod(text.c_str(), &end);
    return end && *end == '\0';
}

bool
fail(std::string *error, const std::string &msg)
{
    if (error)
        *error = msg;
    return false;
}

} // namespace

bool
parseFaultSpec(const std::string &text, FaultSpec &out,
               std::string *error)
{
    FaultSpec spec;
    auto at = text.find('@');
    if (at == std::string::npos)
        return fail(error, "missing '@STEP' in fault spec '" + text +
                               "'");
    if (!kindByName(text.substr(0, at), spec.kind)) {
        return fail(error, "unknown fault kind '" +
                               text.substr(0, at) +
                               "' (crash|stall|degrade|drop)");
    }
    std::vector<std::string> parts =
        splitString(text.substr(at + 1), ',');
    if (parts.empty())
        return fail(error, "missing step in fault spec '" + text + "'");
    if (!parseWholeNumber(parts[0], spec.atStep) || spec.atStep < 0)
        return fail(error, "bad fault step '" + parts[0] + "'");
    for (std::size_t i = 1; i < parts.size(); i++) {
        auto eq = parts[i].find('=');
        if (eq == std::string::npos) {
            return fail(error, "bad fault option '" + parts[i] +
                                   "' (want key=value)");
        }
        std::string key = parts[i].substr(0, eq);
        std::string value = parts[i].substr(eq + 1);
        double d = 0.0;
        if (key == "stage") {
            if (!parseWholeNumber(value, spec.stage) || spec.stage < 0)
                return fail(error, "bad stage '" + value + "'");
        } else if (key == "ms") {
            if (!parseWholeDouble(value, d) || d < 0.0)
                return fail(error, "bad duration '" + value + "'");
            spec.durationMs = d;
        } else if (key == "factor") {
            if (!parseWholeDouble(value, d) || d < 1.0) {
                return fail(error, "bad slowdown factor '" + value +
                                       "' (must be >= 1)");
            }
            spec.factor = d;
        } else {
            return fail(error, "unknown fault option '" + key + "'");
        }
    }
    out = spec;
    return true;
}

FaultInjector::FaultInjector(std::vector<FaultSpec> plan)
    : _plan(std::move(plan)), _fired(_plan.size(), false)
{
}

std::vector<FaultSpec>
FaultInjector::randomPlan(std::uint64_t seed, int count, int maxStep,
                          int numStages)
{
    NASPIPE_ASSERT(maxStep >= 1 && numStages >= 1,
                   "degenerate fault-plan bounds");
    Philox4x32 rng(deriveSeed(seed, "fault-plan"));
    std::vector<FaultSpec> plan;
    std::set<int> steps;
    std::uint64_t counter = 0;
    while (static_cast<int>(plan.size()) < count &&
           static_cast<int>(steps.size()) < maxStep) {
        FaultSpec spec;
        int step = 1 + static_cast<int>(rng.word(counter) %
                                        static_cast<unsigned>(maxStep));
        spec.kind = static_cast<FaultKind>(rng.word(counter + 1) % 4);
        spec.stage = static_cast<int>(
            rng.word(counter + 2) % static_cast<unsigned>(numStages));
        spec.durationMs =
            10.0 + 90.0 * rng.uniformFloat(counter + 3);
        spec.factor = 2.0 + 6.0 * rng.uniformFloat(counter + 3, 1);
        counter += 4;
        if (!steps.insert(step).second)
            continue;  // one fault per step keeps triggers unambiguous
        spec.atStep = step;
        plan.push_back(spec);
    }
    std::sort(plan.begin(), plan.end(),
              [](const FaultSpec &a, const FaultSpec &b) {
                  return a.atStep < b.atStep;
              });
    return plan;
}

std::vector<FaultSpec>
FaultInjector::due(int completedStep)
{
    std::vector<FaultSpec> fired;
    for (std::size_t i = 0; i < _plan.size(); i++) {
        if (!_fired[i] && _plan[i].atStep == completedStep) {
            _fired[i] = true;
            fired.push_back(_plan[i]);
        }
    }
    return fired;
}

int
FaultInjector::firedCount() const
{
    int n = 0;
    for (bool f : _fired)
        n += f ? 1 : 0;
    return n;
}

bool
FaultInjector::anyPending() const
{
    return firedCount() < static_cast<int>(_plan.size());
}

} // namespace naspipe
