#include "vlink/adapter.hpp"

#include <stdexcept>
#include <string>
#include <utility>

namespace padico::vlink {

AdapterDriver::AdapterDriver(core::Host& host, Driver& base, std::string name,
                             Kind kind)
    : Driver(std::move(name)),
      host_(&host),
      base_(&base),
      mask_(kRendezvousMask[static_cast<std::size_t>(kind)]) {}

void AdapterDriver::listen(core::Port port, AcceptFn on_accept) {
  if (!can_listen(port)) {
    throw std::logic_error(
        name() + ": rendezvous port " + std::to_string(rendezvous_port(port)) +
        " (for logical port " + std::to_string(port) +
        ") is already listened on via " + base_->name());
  }
  listeners_[port] = std::move(on_accept);
  std::weak_ptr<char> w = alive_;
  base_->listen(
      rendezvous_port(port), [this, w, port](std::unique_ptr<Link> link) {
        if (w.expired()) return;
        std::erase_if(accepting_,
                      [](const auto& kv) { return kv.second.done; });
        const std::uint64_t key = next_accept_key_++;
        PendingAccept& pa = accepting_[key];
        pa.link = std::move(link);
        pa.port = port;
        pa.link->set_datagram_handler([this, w, key](core::ByteView frame) {
          if (w.expired()) return;
          on_first_frame(key, frame);
        });
      });
}

void AdapterDriver::unlisten(core::Port port) {
  // An unlisten of a never-listened port must not tear down whatever
  // else lives on the mapped base port.
  if (listeners_.erase(port) == 0) return;
  base_->unlisten(rendezvous_port(port));
  std::erase_if(accepting_, [port](const auto& kv) {
    return kv.second.done || kv.second.port == port;
  });
}

void AdapterDriver::connect(const RemoteAddr& remote, ConnectFn on_connect) {
  if (!reaches(remote.node)) {
    on_connect(core::Result<std::unique_ptr<Link>>::err(
        core::Status::unreachable, name() + ": node " +
                                       std::to_string(remote.node) +
                                       " not reachable"));
    return;
  }
  dial(remote, std::move(on_connect));
}

void AdapterDriver::on_first_frame(std::uint64_t key, core::ByteView frame) {
  // The key is live: an entry leaves the book only after its first
  // frame (handler cleared below) or together with its link (unlisten).
  PendingAccept& pa = accepting_.at(key);
  pa.done = true;
  pa.link->set_datagram_handler(nullptr);
  // The hook may run a listener that unlistens, erasing `pa`: nothing
  // here touches it afterwards.
  if (!accept_hello(pa.port, pa.link, frame)) ++malformed_hellos_;
}

}  // namespace padico::vlink
