// Per-node execution context.
//
// A Host ties a logical node id to the shared virtual-time Engine.  It
// is the first constructor argument of every per-node layer (drivers,
// Madeleine, VLink, middleware), mirroring PadicoTM's per-process core
// module.
#pragma once

#include "core/engine.hpp"
#include "core/time.hpp"

namespace padico::core {

class Host {
 public:
  Host(Engine& engine, NodeId id) : engine_(&engine), id_(id) {}

  Engine& engine() const noexcept { return *engine_; }
  NodeId id() const noexcept { return id_; }

 private:
  Engine* engine_;
  NodeId id_;
};

}  // namespace padico::core
