/**
 * @file
 * Policy of the OS recovery driver (os/maple_driver.hpp). It lives apart
 * from the driver so it can travel in core::MapleParams: the Soc fills it
 * from the MAPLE_FAULT_RECOVERY* knobs (soc/knobs.hpp) and
 * core::MapleApi::attach reads it back off the device.
 */
#pragma once

#include "sim/types.hpp"

namespace maple::os {

struct RecoveryConfig {
    bool enabled = false;
    unsigned retry_budget = 3;       ///< timed-out retries before escalating
    unsigned recovery_budget = 8;    ///< recoveries per queue before degrading
    sim::Cycle backoff_base = 200;   ///< first retry backoff (doubles, capped)
    sim::Cycle backoff_cap = 10000;
    sim::Cycle op_timeout = 10000;   ///< device-side produce/consume bound
};

}  // namespace maple::os
