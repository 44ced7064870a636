#include "services/storage.hpp"

#include "util/fnv.hpp"

namespace hades::svc {

std::uint64_t stable_store::checksum_of(std::uint64_t version,
                                        const std::string& value) {
  // FNV-1a over version || value.
  return fnv1a{}.mix(version).mix_bytes(value).value();
}

bool stable_store::copy::valid() const {
  return version > 0 && checksum == checksum_of(version, value);
}

const stable_store::copy* stable_store::best_of(const record& r) const {
  const copy* best = nullptr;
  if (r.a.valid()) best = &r.a;
  if (r.b.valid() && (best == nullptr || r.b.version > best->version))
    best = &r.b;
  return best;
}

std::optional<std::string> stable_store::get(const std::string& key) const {
  require(!down_, "stable_store: down (crashed); call repair_and_restart()");
  auto it = disk_.find(key);
  if (it == disk_.end()) return std::nullopt;
  const copy* best = best_of(it->second);
  if (best == nullptr) return std::nullopt;
  return best->value;
}

bool stable_store::put(const std::string& key, std::string value) {
  require(!down_, "stable_store: down (crashed); call repair_and_restart()");
  ++writes_;
  if (crash_ == crash_point::before_first_copy) {
    down_ = true;
    crash_ = crash_point::none;
    return false;
  }
  record& r = disk_[key];
  const copy* best = best_of(r);
  const std::uint64_t version = (best != nullptr ? best->version : 0) + 1;

  copy fresh;
  fresh.version = version;
  fresh.value = std::move(value);
  fresh.checksum = checksum_of(version, fresh.value);

  r.a = fresh;  // first copy
  if (crash_ == crash_point::between_copies) {
    down_ = true;
    crash_ = crash_point::none;
    return false;
  }
  r.b = fresh;  // second copy
  if (crash_ == crash_point::after_both) {
    down_ = true;
    crash_ = crash_point::none;
    return false;
  }
  return true;
}

std::size_t stable_store::repair_and_restart() {
  std::size_t repaired = 0;
  for (auto& [key, r] : disk_) {
    const copy* best = best_of(r);
    if (best == nullptr) continue;  // both torn: record never fully existed
    if (!r.a.valid() || r.a.version != best->version) {
      r.a = *best;
      ++repaired;
    }
    if (!r.b.valid() || r.b.version != best->version) {
      r.b = *best;
      ++repaired;
    }
  }
  down_ = false;
  return repaired;
}

}  // namespace hades::svc
