// Fault view of the medium, as the channel sees it.
//
// The fault injector (src/fault) lives *above* the phy layer — it also
// drives MACs and routing agents — so the channel cannot depend on it.
// Instead the channel holds an optional, non-owning pointer to this
// tiny interface and consults it per transmission, passing its own
// simulator's clock as `now`:
//
//   * node_up(id, now)  — crashed radios neither source nor receive
//                         copies (the injector also gates WifiPhy/Mac
//                         directly; the channel check just avoids
//                         scheduling deliveries that would be dropped
//                         on arrival anyway);
//   * link_loss_db(...) — extra attenuation for a directed pair at
//                         `now` (blackout windows), added on top of the
//                         propagation model before the detection-floor
//                         test.
//
// The serial fault::Injector answers from its live state; the sharded
// engine's fault::FaultTimeline answers from frozen windows at `now`,
// which is each region channel's own clock.
//
// With no overlay installed (the default) the hot path pays exactly one
// null-pointer test per transmission — faults are zero-cost when off.
#pragma once

#include <cstdint>

#include "sim/time.hpp"

namespace wmn::phy {

class FaultOverlay {
 public:
  virtual ~FaultOverlay() = default;

  // False while `node` is crashed at `now`.
  [[nodiscard]] virtual bool node_up(std::uint32_t node,
                                     sim::Time now) const = 0;

  // Additional path loss (dB, >= 0) for tx -> rx at `now`; 0 when the
  // link is healthy.
  [[nodiscard]] virtual double link_loss_db(std::uint32_t tx, std::uint32_t rx,
                                            sim::Time now) const = 0;
};

}  // namespace wmn::phy
