#include "models/scenario.h"

#include <cstdio>

#include "common/hash.h"

namespace regate {
namespace models {

namespace {

/** Canonical (round-trip exact) double spelling. */
std::string
canonicalDouble(double v)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

}  // namespace

std::int64_t
ScenarioSpec::extraOr(const std::string &key,
                      std::int64_t fallback) const
{
    for (const auto &[k, v] : extra)
        if (k == key)
            return v;
    return fallback;
}

std::string
ScenarioSpec::identityText() const
{
    std::string out;
    out += "family=" + family;
    out += ";model=" + model;
    out += ";batch=" + std::to_string(batch);
    out += ";chips=" + std::to_string(chips);
    out += ";seq_len=" + std::to_string(seqLen);
    out += ";out_len=" + std::to_string(outLen);
    out += ";par=";
    if (parSet)
        out += std::to_string(par.dp) + "/" + std::to_string(par.tp) +
               "/" + std::to_string(par.pp);
    else
        out += "-";
    out += ";unit=" + unit;
    out += ";extra=";
    for (const auto &[k, v] : extra)
        out += k + ":" + std::to_string(v) + ",";
    out += ";gating=";
    for (const auto &[k, v] : gating)
        out += k + ":" + canonicalDouble(v) + ",";
    return out;
}

bool
ScenarioSpec::sameScenario(const ScenarioSpec &o) const
{
    return identityText() == o.identityText();
}

std::size_t
ScenarioSpec::contentHash() const
{
    auto text = identityText();
    return static_cast<std::size_t>(
        fnv1a64(text.data(), text.size()));
}

}  // namespace models
}  // namespace regate
