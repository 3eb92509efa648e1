#include "mpsim/fault.hpp"

#include <cstdio>

namespace ripples::mpsim {

namespace {

/// Splits \p text on \p separator, trimming nothing (specs contain no
/// whitespace by construction; stray spaces are a parse error the number
/// parser reports).
std::vector<std::string> split(const std::string &text, char separator) {
  std::vector<std::string> parts;
  std::size_t begin = 0;
  while (begin <= text.size()) {
    std::size_t end = text.find(separator, begin);
    if (end == std::string::npos) end = text.size();
    parts.push_back(text.substr(begin, end - begin));
    begin = end + 1;
  }
  return parts;
}

std::uint64_t parse_number(const std::string &token, const std::string &spec) {
  std::size_t consumed = 0;
  std::uint64_t value = 0;
  try {
    value = std::stoull(token, &consumed);
  } catch (const std::exception &) {
    consumed = 0;
  }
  if (consumed != token.size() || token.empty())
    throw std::invalid_argument("fault plan: bad number '" + token + "' in '" +
                                spec + "'");
  return value;
}

FaultSpec parse_one(const std::string &spec) {
  FaultSpec fault;
  bool have_rank = false;
  bool have_site = false;
  bool have_sticky = false;
  bool have_attempts = false;
  for (const std::string &field : split(spec, ',')) {
    std::size_t equals = field.find('=');
    if (equals == std::string::npos) {
      // `sticky` is the one bare modifier: corrupt-only, no value.
      if (field == "sticky") {
        fault.sticky = true;
        have_sticky = true;
        continue;
      }
      throw std::invalid_argument("fault plan: expected key=value, got '" +
                                  field + "' in '" + spec + "'");
    }
    const std::string key = field.substr(0, equals);
    const std::string value = field.substr(equals + 1);
    if (key == "rank") {
      fault.rank = static_cast<int>(parse_number(value, spec));
      have_rank = true;
    } else if (key == "site") {
      fault.site = parse_number(value, spec);
      have_site = true;
    } else if (key == "attempts") {
      fault.attempts = parse_number(value, spec);
      if (fault.attempts == 0)
        throw std::invalid_argument("fault plan: attempts must be >= 1 in '" +
                                    spec + "'");
      have_attempts = true;
    } else if (key == "kind") {
      if (value == "crash") {
        fault.kind = FaultSpec::Kind::Crash;
      } else if (value == "stall") {
        fault.kind = FaultSpec::Kind::Stall;
      } else if (value == "oom") {
        fault.kind = FaultSpec::Kind::Oom;
      } else if (value == "corrupt") {
        fault.kind = FaultSpec::Kind::Corrupt;
      } else if (value == "flaky") {
        fault.kind = FaultSpec::Kind::Flaky;
      } else {
        throw std::invalid_argument(
            "fault plan: kind must be crash|stall|oom|corrupt|flaky, got '" +
            value + "'");
      }
    } else {
      throw std::invalid_argument("fault plan: unknown key '" + key +
                                  "' in '" + spec + "'");
    }
  }
  if (!have_rank || !have_site)
    throw std::invalid_argument("fault plan: '" + spec +
                                "' must set rank= and site=");
  if (have_sticky && fault.kind != FaultSpec::Kind::Corrupt)
    throw std::invalid_argument(
        "fault plan: 'sticky' applies only to kind=corrupt in '" + spec + "'");
  if (have_attempts && fault.kind != FaultSpec::Kind::Flaky)
    throw std::invalid_argument(
        "fault plan: 'attempts' applies only to kind=flaky in '" + spec + "'");
  return fault;
}

} // namespace

FaultPlan parse_fault_plan(const std::string &spec) {
  FaultPlan plan;
  if (spec.empty()) return plan;
  for (const std::string &one : split(spec, ';')) {
    if (one.empty()) continue;
    FaultSpec fault = parse_one(one);
    // Two faults at one (rank, site) coordinate in the same counting space
    // are ambiguous: which fires first would depend on plan order, not the
    // coordinate.  Oom sites count memory reservations, every other kind
    // counts communication entries, so the two spaces never collide.
    for (const FaultSpec &existing : plan) {
      const bool same_space = (existing.kind == FaultSpec::Kind::Oom) ==
                              (fault.kind == FaultSpec::Kind::Oom);
      if (same_space && existing.rank == fault.rank &&
          existing.site == fault.site)
        throw std::invalid_argument("fault plan: duplicate (rank, site) in '" +
                                    one + "'");
    }
    plan.push_back(fault);
  }
  return plan;
}

namespace {

std::string injected_fault_message(int rank, std::uint64_t site,
                                   const char *operation) {
  char buffer[128];
  std::snprintf(buffer, sizeof(buffer),
                "mpsim: injected crash of rank %d at site %llu (%s)", rank,
                static_cast<unsigned long long>(site), operation);
  return buffer;
}

} // namespace

InjectedFault::InjectedFault(int rank, std::uint64_t site,
                             const char *operation)
    : std::runtime_error(injected_fault_message(rank, site, operation)),
      rank_(rank), site_(site) {}

} // namespace ripples::mpsim
