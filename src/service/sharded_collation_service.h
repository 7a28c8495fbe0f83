// Forwarding header. The single-loop and sharded engines are one class now,
// service::CollationService (collation_service.h); these names stay for
// code written against the two-engine API.
#pragma once

#include "service/collation_service.h"

namespace wafp::service {

using CollationEngine = CollationService;
using ShardedCollationService = CollationService;

}  // namespace wafp::service
