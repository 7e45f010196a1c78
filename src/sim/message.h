// The unit of communication between clients and servers.
#pragma once

#include <cstdint>
#include <vector>

#include "common/types.h"

namespace mwreg {

/// Protocol-defined message type discriminator (each protocol defines its own
/// enum and casts it into this field).
using MsgType = std::uint32_t;

struct Message {
  NodeId src = kNoNode;
  NodeId dst = kNoNode;
  MsgType type = 0;
  /// Register this request addresses in a multi-key deployment (0 for the
  /// classic single-register setup). Replies are matched by (dst, rpc_id)
  /// and need not echo it. Fills the padding hole after `type`, so the
  /// struct size — and the inline delivery-closure budget — is unchanged.
  std::uint32_t key = 0;
  /// Matches a reply to the round-trip (RPC) that solicited it.
  std::uint64_t rpc_id = 0;
  /// Protocol payload, encoded with common/codec.h.
  std::vector<std::uint8_t> payload;
};

/// The delivery-side view of one message: same header fields as Message but
/// the payload is a non-owning span. In the batched pipeline frames point
/// into a per-tick slab; in the per-message path they view the Message's
/// own buffer. Valid only for the duration of the handler call.
struct Frame {
  NodeId src = kNoNode;
  NodeId dst = kNoNode;
  MsgType type = 0;
  std::uint32_t key = 0;
  std::uint64_t rpc_id = 0;
  ByteSpan payload;
};

/// Contiguous run of frames delivered to one destination in one simulator
/// event (C++17 stand-in for std::span<const Frame>).
struct FrameSpan {
  const Frame* ptr = nullptr;
  std::size_t len = 0;

  FrameSpan() = default;
  FrameSpan(const Frame* p, std::size_t n) : ptr(p), len(n) {}

  [[nodiscard]] std::size_t size() const { return len; }
  [[nodiscard]] bool empty() const { return len == 0; }
  [[nodiscard]] const Frame& operator[](std::size_t i) const { return ptr[i]; }
  [[nodiscard]] const Frame* begin() const { return ptr; }
  [[nodiscard]] const Frame* end() const { return ptr + len; }
  [[nodiscard]] FrameSpan subspan(std::size_t off, std::size_t n) const {
    return FrameSpan{ptr + off, n};
  }
};

}  // namespace mwreg
