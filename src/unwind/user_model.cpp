#include "unwind/user_model.hpp"

#include <map>

#include "common/strutil.hpp"

namespace orca::unwind {

std::string UserCallstack::render() const {
  std::string out;
  for (std::size_t i = 0; i < frames.size(); ++i) {
    out += strfmt("  #%-2zu %s\n", i, frames[i].pretty().c_str());
  }
  return out;
}

namespace {

/// IP → SymbolInfo memo for one offline pass.
using SymbolCache = std::unordered_map<const void*, SymbolInfo>;

const SymbolInfo& lookup(SymbolCache& symbols, const void* ip) {
  auto [it, fresh] = symbols.try_emplace(ip);
  if (fresh) it->second = symbolize(ip);
  return it->second;
}

UserCallstack reconstruct(std::span<const void* const> raw,
                          const void* region_fn, SymbolCache& symbols) {
  UserCallstack out;

  if (region_fn != nullptr) {
    // The pragma's own frame: what the user sees instead of `__ompdo_*`.
    const SymbolInfo& region = lookup(symbols, region_fn);
    if (region.resolution == Resolution::kRegion) out.frames.push_back(region);
  }

  for (const void* ip : raw) {
    const SymbolInfo& info = lookup(symbols, ip);
    if (is_runtime_frame(info)) continue;  // implementation-model noise
    if (info.resolution == Resolution::kRegion &&
        !out.frames.empty() &&
        out.frames.front().address == info.address) {
      continue;  // the region frame was already planted explicitly
    }
    out.frames.push_back(info);
  }
  return out;
}

}  // namespace

UserCallstack reconstruct(const std::vector<const void*>& raw,
                          const void* region_fn) {
  SymbolCache symbols;
  return reconstruct(std::span<const void* const>(raw), region_fn, symbols);
}

std::vector<std::pair<std::string, std::uint64_t>> StackTally::profile()
    const {
  SymbolCache symbols;
  std::map<std::string, std::uint64_t> by_text;
  for (const auto& [key, count] : counts_) {
    by_text[reconstruct(key.frames, key.region_fn, symbols).render()] += count;
  }
  std::vector<std::pair<std::string, std::uint64_t>> out(by_text.begin(),
                                                         by_text.end());
  std::stable_sort(out.begin(), out.end(), [](const auto& a, const auto& b) {
    return a.second > b.second;
  });
  return out;
}

}  // namespace orca::unwind
