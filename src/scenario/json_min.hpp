// The scenario layer's name for the one JSON module (util/json.hpp).
#pragma once

#include "util/json.hpp"

namespace hades::scenario {
namespace jmin = hades::json;
}  // namespace hades::scenario
