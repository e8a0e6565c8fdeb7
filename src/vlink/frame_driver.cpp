#include "vlink/frame_driver.hpp"

#include <stdexcept>
#include <string>
#include <utility>

namespace padico::vlink {

// ---------------------------------------------------------------------------
// FrameLink: concrete Link bound to one slab slot of one FrameDriver.
// ---------------------------------------------------------------------------

class FrameDriver::FrameLink final : public Link {
 public:
  FrameLink(FrameDriver& drv, core::NodeId peer, core::Port local_port,
            core::Port remote_port, std::uint64_t conn_id, std::uint32_t slot,
            std::uint32_t peer_handle)
      : Link(peer, local_port, remote_port),
        drv_(&drv),
        conn_id_(conn_id),
        slot_(slot),
        peer_handle_(peer_handle) {}

  ~FrameLink() override {
    if (drv_) drv_->release(slot_);
  }

  void receive(core::ByteView data) { deliver(data); }

  /// Driver teardown: the link may outlive the driver in user hands;
  /// once detached, writes are silently dropped (the wire is gone).
  void detach() { drv_ = nullptr; }

 protected:
  void send_bytes(core::ByteView data) override {
    if (!drv_) return;
    drv_->obs_tx_frames_->add();
    drv_->obs_tx_bytes_->add(data.size());
    drv_->host_->engine().tracer().instant_arg(
        obs::Cat::vlink, "vlink.tx", data.size(), drv_->host_->id());
    wire::Header h{wire::FrameType::data, local_port(), remote_port(),
                   drv_->host_->id(), peer_handle_, conn_id_};
    drv_->emit(remote_node(), h, data, &drv_->slots_[slot_].busy_until);
  }

 private:
  FrameDriver* drv_;
  std::uint64_t conn_id_;
  std::uint32_t slot_;         // this end's slot in drv_'s slab
  std::uint32_t peer_handle_;  // the receiver's handle, sent as `peer`
};

// ---------------------------------------------------------------------------
// FrameDriver
// ---------------------------------------------------------------------------

FrameDriver::FrameDriver(core::Host& host, std::string name)
    : Driver(std::move(name)), host_(&host) {
  obs::Registry& reg = host.engine().obs();
  obs_tx_frames_ = &reg.counter("vlink.tx.frames");
  obs_tx_bytes_ = &reg.counter("vlink.tx.bytes");
  obs_rx_frames_ = &reg.counter("vlink.rx.frames");
  obs_rx_bytes_ = &reg.counter("vlink.rx.bytes");
}

FrameDriver::~FrameDriver() {
  for (Slot& s : slots_) {
    if (s.link) s.link->detach();
  }
}

void FrameDriver::listen(core::Port port, AcceptFn on_accept) {
  listeners_[port] = std::move(on_accept);
}

void FrameDriver::unlisten(core::Port port) { listeners_.erase(port); }

std::uint32_t FrameDriver::find(std::uint32_t h, std::uint64_t conn_id) const {
  const std::uint32_t s = h & kSlotMask;
  if (s >= slots_.size()) return kNoSlot;
  const Slot& slot = slots_[s];
  if (handle_of(s, slot.gen) != h || slot.conn_id != conn_id) return kNoSlot;
  return s;
}

std::uint32_t FrameDriver::alloc() {
  std::uint32_t s = free_head_;
  if (s != kNoSlot) {
    free_head_ = slots_[s].next_free;
    --free_count_;
  } else {
    if (slots_.size() > kSlotMask) {
      throw std::length_error(name() + ": connection slab full");
    }
    s = static_cast<std::uint32_t>(slots_.size());
    slots_.emplace_back();
  }
  slots_[s].busy_until = 0;
  return s;
}

void FrameDriver::release(std::uint32_t s) {
  Slot& slot = slots_[s];
  slot.link = nullptr;
  slot.pending = nullptr;
  ++slot.gen;
  slot.next_free = free_head_;
  free_head_ = s;
  ++free_count_;
}

std::uint32_t FrameDriver::find_connecting(std::uint64_t conn_id) const {
  // Only our own conn ids name originator slots.
  constexpr std::uint64_t kHandleBits = 0xFFFFFFFFull;
  const std::uint64_t origin = static_cast<std::uint64_t>(host_->id()) << 40;
  if ((conn_id & ~kHandleBits) != origin) return kNoSlot;
  const std::uint32_t s = find(static_cast<std::uint32_t>(conn_id), conn_id);
  return s != kNoSlot && slots_[s].pending ? s : kNoSlot;
}

void FrameDriver::connect(const RemoteAddr& remote, ConnectFn on_connect) {
  if (!reaches(remote.node)) {
    on_connect(core::Result<std::unique_ptr<Link>>::err(
        core::Status::unreachable, name() + ": node " +
                                       std::to_string(remote.node) +
                                       " not reachable"));
    return;
  }
  // The conn id is the origin node over this end's slot handle.
  const std::uint32_t s = alloc();
  const std::uint64_t conn_id =
      (static_cast<std::uint64_t>(host_->id()) << 40) |
      handle_of(s, slots_[s].gen);
  slots_[s].conn_id = conn_id;
  slots_[s].pending = std::move(on_connect);
  // The ephemeral counter wraps WITHIN [49152, 65535]: million-session
  // workloads must never walk it into the listener port range (frames
  // demux by slot handle, so reusing a source port is benign).
  const core::Port src_port = next_ephemeral_;
  next_ephemeral_ = next_ephemeral_ == 65535
                        ? static_cast<core::Port>(49152)
                        : static_cast<core::Port>(next_ephemeral_ + 1);
  wire::Header h{wire::FrameType::connect, src_port, remote.port,
                 host_->id(), 0, conn_id};
  emit(remote.node, h, {}, &slots_[s].busy_until);
}

void FrameDriver::handle_frame(core::NodeId src, core::ByteView frame) {
  const std::optional<wire::Header> hdr = wire::decode(frame);
  if (!hdr) {
    ++malformed_;
    return;
  }
  const wire::Header& h = *hdr;
  const core::ByteView payload =
      frame.subview(wire::kHeaderSize, frame.size() - wire::kHeaderSize);

  switch (h.type) {
    case wire::FrameType::connect: {
      auto lit = listeners_.find(h.dst_port);
      if (lit == listeners_.end()) {
        wire::Header r{wire::FrameType::refuse, h.dst_port, h.src_port,
                       host_->id(), 0, h.conn_id};
        emit(src, r, {}, nullptr);
        return;
      }
      // The originator's handle is the low half of its conn id.
      const std::uint32_t s = alloc();
      slots_[s].conn_id = h.conn_id;
      auto link = std::make_unique<FrameLink>(
          *this, src, h.dst_port, h.src_port, h.conn_id, s,
          static_cast<std::uint32_t>(h.conn_id));
      slots_[s].link = link.get();
      wire::Header a{wire::FrameType::accept, h.dst_port, h.src_port,
                     host_->id(), handle_of(s, slots_[s].gen), h.conn_id};
      emit(src, a, {}, &slots_[s].busy_until);
      lit->second(std::move(link));
      return;
    }
    case wire::FrameType::accept: {
      const std::uint32_t s = find_connecting(h.conn_id);
      if (s == kNoSlot) return;
      ConnectFn cb = std::move(slots_[s].pending);
      slots_[s].pending = nullptr;
      std::unique_ptr<Link> link = std::make_unique<FrameLink>(
          *this, src, h.dst_port, h.src_port, h.conn_id, s, h.peer);
      slots_[s].link = static_cast<FrameLink*>(link.get());
      cb(std::move(link));
      return;
    }
    case wire::FrameType::refuse: {
      const std::uint32_t s = find_connecting(h.conn_id);
      if (s == kNoSlot) return;
      ConnectFn cb = std::move(slots_[s].pending);
      release(s);
      cb(core::Result<std::unique_ptr<Link>>::err(
          core::Status::refused,
          name() + ": connection refused by node " + std::to_string(src)));
      return;
    }
    case wire::FrameType::data: {
      const std::uint32_t s = find(h.peer, h.conn_id);
      if (s == kNoSlot || !slots_[s].link) return;  // stale; drop
      obs_rx_frames_->add();
      obs_rx_bytes_->add(payload.size());
      // The rx span covers stream reassembly plus every continuation
      // the delivery resumes.
      obs::Scope scope(host_->engine().tracer(), obs::Cat::vlink, "vlink.rx",
                       host_->id());
      slots_[s].link->receive(payload);
      return;
    }
    case wire::FrameType::header:
      // MadIO-internal frame type; never valid at the connection layer.
      ++malformed_;
      return;
  }
}

}  // namespace padico::vlink
