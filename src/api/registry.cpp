#include "api/registry.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>

#include "common/check.hpp"
#include "common/parse.hpp"

namespace gclus {

const char* param_type_name(ParamSpec::Type type) {
  switch (type) {
    case ParamSpec::Type::kU32:
      return "u32";
    case ParamSpec::Type::kU64:
      return "u64";
    case ParamSpec::Type::kDouble:
      return "double";
    case ParamSpec::Type::kBool:
      break;
  }
  return "bool";
}

AlgoParams::AlgoParams(
    std::initializer_list<std::pair<std::string, std::string>> entries) {
  for (const auto& [key, value] : entries) set(key, value);
}

AlgoParams& AlgoParams::set(const std::string& key, const std::string& value) {
  entries_[key] = value;
  return *this;
}

AlgoParams& AlgoParams::set(const std::string& key, std::uint64_t value) {
  return set(key, std::to_string(value));
}

AlgoParams& AlgoParams::set(const std::string& key, double value) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", value);
  return set(key, std::string(buf));
}

bool AlgoParams::contains(const std::string& key) const {
  return entries_.count(key) != 0;
}

namespace {

/// 1 for a true word, 0 for a false word, -1 for anything else.
int bool_word(const std::string& v) {
  if (v == "1" || v == "true" || v == "yes" || v == "on") return 1;
  if (v == "0" || v == "false" || v == "no" || v == "off") return 0;
  return -1;
}

/// The value grammar of each ParamSpec::Type, plus the ParamSpec::positive
/// bound, shared by Registry::select (which returns the Status) and the
/// AlgoParams getters (which abort; they know no bound).
Status check_value(const std::string& key, const std::string& value,
                   ParamSpec::Type type, bool positive = false) {
  const auto bad = [&](const char* what) {
    return InvalidArgumentError("parameter " + key + ": '" + value +
                                "' is not " + what);
  };
  switch (type) {
    case ParamSpec::Type::kU32:
    case ParamSpec::Type::kU64: {
      const StatusOr<std::uint64_t> v = parse_u64(value);
      if (!v.ok()) return bad("an unsigned integer");
      if (type == ParamSpec::Type::kU32 && *v > UINT32_MAX) {
        return bad("an unsigned integer below 2^32");
      }
      if (positive && *v == 0) return bad("a positive integer");
      return OkStatus();
    }
    case ParamSpec::Type::kDouble: {
      char* end = nullptr;
      const double v = std::strtod(value.c_str(), &end);
      if (end == value.c_str() || *end != '\0') return bad("a number");
      if (!std::isfinite(v)) return bad("a finite number");
      if (positive && !(v > 0)) return bad("a positive number");
      return OkStatus();
    }
    case ParamSpec::Type::kBool:
      break;
  }
  return bool_word(value) >= 0 ? OkStatus() : bad("a boolean");
}

/// The getters' common front: the value of `key` (nullptr when unset),
/// aborting with the Status message unless it parses as `type`.
const std::string* checked_value(
    const std::map<std::string, std::string>& entries, const std::string& key,
    ParamSpec::Type type) {
  const auto it = entries.find(key);
  if (it == entries.end()) return nullptr;
  const Status st = check_value(key, it->second, type);
  GCLUS_CHECK(st.ok(), st.message());
  return &it->second;
}

}  // namespace

std::uint32_t AlgoParams::get_u32(const std::string& key,
                                  std::uint32_t fallback) const {
  const std::string* v = checked_value(entries_, key, ParamSpec::Type::kU32);
  return v == nullptr ? fallback : static_cast<std::uint32_t>(*parse_u64(*v));
}

std::uint64_t AlgoParams::get_u64(const std::string& key,
                                  std::uint64_t fallback) const {
  const std::string* v = checked_value(entries_, key, ParamSpec::Type::kU64);
  return v == nullptr ? fallback : *parse_u64(*v);
}

double AlgoParams::get_double(const std::string& key, double fallback) const {
  const std::string* v =
      checked_value(entries_, key, ParamSpec::Type::kDouble);
  return v == nullptr ? fallback : std::strtod(v->c_str(), nullptr);
}

bool AlgoParams::get_bool(const std::string& key, bool fallback) const {
  const std::string* v = checked_value(entries_, key, ParamSpec::Type::kBool);
  return v == nullptr ? fallback : bool_word(*v) == 1;
}

void Registry::add(AlgoInfo info) {
  GCLUS_CHECK(!info.name.empty() && info.run != nullptr);
  const auto [it, inserted] = algos_.emplace(info.name, std::move(info));
  GCLUS_CHECK(inserted, "algorithm registered twice: ", it->first);
}

const AlgoInfo* Registry::find(const std::string& name) const {
  const auto it = algos_.find(name);
  return it == algos_.end() ? nullptr : &it->second;
}

std::vector<std::string> Registry::names() const {
  std::vector<std::string> out;
  out.reserve(algos_.size());
  for (const auto& [name, info] : algos_) out.push_back(name);
  return out;
}

/// Selection checks shared by both run overloads: resolves the algorithm,
/// rejects undeclared parameter keys and values outside their declared
/// type or bound, and rejects the empty graph, on which no decomposition
/// is defined.
StatusOr<const AlgoInfo*> Registry::select(const std::string& name,
                                           const AlgoParams& params,
                                           NodeId num_nodes) const {
  const AlgoInfo* info = find(name);
  if (info == nullptr) {
    std::string known;
    for (const auto& n : names()) known += " " + n;
    return InvalidArgumentError("unknown algorithm '" + name +
                                "'; registered:" + known);
  }
  for (const auto& [key, value] : params.entries()) {
    const auto spec =
        std::find_if(info->params.begin(), info->params.end(),
                     [&](const ParamSpec& s) { return s.key == key; });
    if (spec == info->params.end()) {
      std::string known;
      for (const ParamSpec& s : info->params) known += " " + s.key;
      return InvalidArgumentError("algorithm '" + name +
                                  "' has no parameter '" + key +
                                  "'; declared:" + known);
    }
    GCLUS_RETURN_IF_ERROR(check_value(key, value, spec->type, spec->positive));
  }
  if (num_nodes == 0) {
    return InvalidArgumentError("algorithm '" + name +
                                "' needs a graph with at least one node");
  }
  return info;
}

StatusOr<Clustering> Registry::run(const std::string& name, const Graph& g,
                                   const AlgoParams& params,
                                   RunContext& ctx) const {
  GCLUS_ASSIGN_OR_RETURN(const AlgoInfo* info,
                         select(name, params, g.num_nodes()));
  return info->run(g, params, ctx);
}

StatusOr<Clustering> Registry::run(const std::string& name,
                                   const CompressedGraph& g,
                                   const AlgoParams& params,
                                   RunContext& ctx) const {
  GCLUS_ASSIGN_OR_RETURN(const AlgoInfo* info,
                         select(name, params, g.num_nodes()));
  if (info->run_compressed) return info->run_compressed(g, params, ctx);
  // Neighbor-order-dependent algorithm: materialize the plain CSR and run
  // the ordinary adapter, which is definitionally output-identical.
  const Graph plain = g.decompress(ctx.pool_or_global());
  return info->run(plain, params, ctx);
}

Registry& registry() {
  static Registry* instance = [] {
    auto* r = new Registry();
    detail::register_builtin_algorithms(*r);
    return r;
  }();
  return *instance;
}

}  // namespace gclus
