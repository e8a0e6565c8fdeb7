#include "net/madio.hpp"

#include <memory>
#include <string>

namespace padico::net {

namespace wire = vlink::wire;

MadIO::MadIO(Arbitration& arbitration, mad::Madeleine& madeleine,
             bool header_combining)
    : arbitration_(&arbitration),
      mad_(&madeleine),
      engine_(&madeleine.host().engine()),
      combining_(header_combining) {
  channel_ = mad_->open_channel();
  mad_->set_recv_handler(*channel_,
                         [this](core::NodeId src, mad::UnpackHandle& h) {
                           on_channel_message(src, h);
                         });
  obs::Registry& reg = engine_->obs();
  obs_sends_ = &reg.counter("madio.sends");
  obs_combined_ = &reg.counter("madio.hdr.combined");
  obs_split_ = &reg.counter("madio.hdr.split");
  obs_dispatches_ = &reg.counter("madio.dispatches");
  obs_dropped_ = &reg.counter("madio.dropped");
  obs_depth_ = &reg.histogram("madio.queue_depth");
  obs_bytes_ = &reg.histogram("madio.msg_bytes");
}

obs::Gauge& MadIO::tag_pending(Tag tag) {
  auto it = tag_gauges_.find(tag);
  if (it == tag_gauges_.end()) {
    it = tag_gauges_
             .emplace(tag, &engine_->obs().gauge("madio.tag." +
                                                 std::to_string(tag) +
                                                 ".pending"))
             .first;
  }
  return *it->second;
}

void MadIO::set_handler(Tag tag, Handler handler) {
  handlers_[tag] = std::move(handler);
}

bool MadIO::reaches(core::NodeId node) const {
  return mad_->driver().reaches(node);
}

core::Bytes MadIO::make_header(Tag tag, core::NodeId dst,
                               wire::FrameType type) {
  // Per-(tag, destination) stream sequence; shared header shape with
  // the circuit layer (net/tag.hpp), shared book with it too
  // (net/seqbook.hpp).
  return wire::encode(
      tagged_header(tag, mad_->host().id(), seq_.next({tag, dst}), type));
}

mad::PackHandle MadIO::begin(Tag tag, core::NodeId dst) {
  mad::PackHandle handle = mad_->begin_packing(*channel_, dst);
  handle.set_context(tag);  // end() routes by what begin() declared
  if (combining_) {
    // Piggyback the control header onto the first data fragment: one
    // hardware message carries header + payload.
    handle.pack(make_header(tag, dst, wire::FrameType::data));
  }
  return handle;
}

void MadIO::end(mad::PackHandle handle) {
  obs_sends_->add();
  if (combining_) {
    obs_combined_->add();
  } else {
    obs_split_->add();
  }
  if (!combining_) {
    // Naive multiplexing: the control header is its own hardware
    // message, the payload follows bare.  The SAN driver's per-dst
    // FIFO keeps the pair ordered.
    mad::PackHandle header = mad_->begin_packing(*channel_, handle.dst());
    header.pack(make_header(static_cast<Tag>(handle.context()), handle.dst(),
                            wire::FrameType::header));
    mad_->end_packing(std::move(header));
  }
  mad_->end_packing(std::move(handle));
}

void MadIO::on_channel_message(core::NodeId src, mad::UnpackHandle& handle) {
  auto pit = pending_.find(src);
  if (pit != pending_.end()) {
    // Combining off: this whole message is the payload announced by the
    // detached header that preceded it.
    const Tag tag = pit->second.dst_port;
    pending_.erase(pit);
    dispatch(tag, src, std::move(handle));
    return;
  }
  const std::optional<wire::Header> h =
      wire::decode(handle.unpack(wire::kHeaderSize));
  if (!h) {
    ++dropped_;
    obs_dropped_->add();
    return;
  }
  if (h->type != wire::FrameType::header &&
      h->type != wire::FrameType::data) {
    ++dropped_;
    obs_dropped_->add();
    return;
  }
  // The sender stamps a contiguous per-(tag, destination) sequence into
  // conn_id; on a reliable SAN it must arrive gap-free.
  seq_.observe({h->dst_port, src}, h->conn_id);
  if (h->type == wire::FrameType::header) {
    pending_[src] = *h;  // payload message follows on the same FIFO
    return;
  }
  dispatch(h->dst_port, src, std::move(handle));
}

void MadIO::dispatch(Tag tag, core::NodeId src, mad::UnpackHandle handle) {
  // Hand off to the node's I/O manager; the tag handler runs when the
  // arbitration policy says so.  (shared_ptr because std::function
  // requires a copyable closure; the handle itself is move-only.)
  obs::Gauge& pending = tag_pending(tag);
  pending.add(1);
  obs_depth_->record(static_cast<std::uint64_t>(pending.value()));
  obs_bytes_->record(handle.remaining());
  const core::SimTime t_post = engine_->now();
  auto owned = std::make_shared<mad::UnpackHandle>(std::move(handle));
  arbitration_->enqueue(
      Substrate::mad,
      [this, tag, src, owned = std::move(owned), t_post, &pending] {
        pending.add(-1);
        // The queued span covers hand-off to the arbitration up to the
        // moment the tag handler starts running.
        engine_->tracer().complete(obs::Cat::madio, "madio.queued", t_post,
                                   engine_->now() - t_post);
        auto it = handlers_.find(tag);
        if (it == handlers_.end() || !it->second) {
          ++dropped_;
          obs_dropped_->add();
          return;
        }
        obs_dispatches_->add();  // only messages that reach a handler
        obs::Scope scope(engine_->tracer(), obs::Cat::madio, "madio.dispatch");
        it->second(src, *owned);
      });
}

}  // namespace padico::net
