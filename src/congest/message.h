// CONGEST-model messages.
//
// The CONGEST model (Peleg [23]; paper §I-A) allows each node to send one
// O(log n)-bit message per incident edge per round.  We make that budget
// concrete: a message carries up to kMaxWords payload words, where one word
// is one Θ(log n)-bit field (a node id, an index, a size).  The bandwidth is
// therefore B = kMaxWords·⌈log₂ n⌉ + O(1) bits, the standard allowance; the
// network layer rejects a second message on one directed edge in one round,
// so model violations fail loudly.
#pragma once

#include <array>
#include <cstdint>
#include <initializer_list>

#include "graph/graph.h"
#include "support/require.h"

namespace dhc::congest {

using graph::NodeId;

/// Sentinel for "no node".
inline constexpr NodeId kNoNode = static_cast<NodeId>(-1);

/// Maximum payload words per message (each word ≈ one ⌈log₂ n⌉-bit field).
inline constexpr std::size_t kMaxWords = 4;

/// One CONGEST message: 28 bytes.  `tag` identifies the protocol-level
/// message type; `data[0..words)` are the payload fields.  Every payload the
/// solvers send is a node id, position, size, step count or sequence number,
/// bounded by n or the round limit, so one word is 32 bits: a wider word
/// would already break the CONGEST budget (NodeId is 32-bit and a word costs
/// ⌈log₂ n⌉ bits).  make() enforces both the word count and the word range.
///
/// `from` and `to` are stamped by the engine at send time.  `to` is
/// meaningful on the send side only: a delivered message is the sender's
/// log record itself, its receiver is the reading node (Context::self()),
/// and a multicast record's `to` reads kNoNode.
struct Message {
  NodeId from = kNoNode;
  NodeId to = kNoNode;
  std::uint16_t tag = 0;
  std::uint16_t words = 0;
  std::array<std::uint32_t, kMaxWords> data{};

  /// Convenience constructor: tag + up to kMaxWords payload words, each in
  /// [0, 2^32).  Throws support::InvariantViolation otherwise.
  static Message make(std::uint16_t tag, std::initializer_list<std::int64_t> payload = {}) {
    DHC_CHECK(payload.size() <= kMaxWords,
              "message of tag " << tag << " has " << payload.size() << " payload words (max "
                                << kMaxWords << ")");
    Message m;
    m.tag = tag;
    for (const std::int64_t w : payload) {
      DHC_CHECK((static_cast<std::uint64_t>(w) >> 32) == 0,
                "payload word " << w << " of tag " << tag << " outside [0, 2^32)");
      m.data[m.words++] = static_cast<std::uint32_t>(w);
    }
    return m;
  }
};

// Pinned: Metrics::arena_bytes_peak is in-flight messages × sizeof(Message).
static_assert(sizeof(Message) == 28, "Message layout changed; arena_bytes_peak goldens move");

/// A message in transit under the async model (DESIGN.md §8–9): the message
/// plus the reliable-delivery overlay header (congest/reliable.h).  `seq` is
/// a per-directed-link sequence number (0 = unstamped: reliability=none
/// leaves both fields at 0) and `ack` the piggybacked cumulative ack for the
/// reverse direction.  A frame with seq == 0 and ack > 0 is a standalone ack
/// (transport-only, never delivered to the protocol).  `edge` is the CSR id
/// of the directed link msg.from → msg.to, fixed when the frame is filed, so
/// nothing downstream looks the link up again.  Only the async delay
/// structures and the overlay's buffers hold frames; maturation strips the
/// header before the message reaches the inbox, so synchronous runs never
/// carry it.  The header rides free in the bit accounting: real stacks fold
/// seq/ack numbers into the O(1) framing the tag byte already stands for.
struct Frame {
  Message msg;
  std::uint32_t seq = 0;
  std::uint32_t ack = 0;
  std::uint32_t edge = 0;
};

/// Bits for a message of `words` payload words when one word costs
/// `id_bits` bits: the single definition of the CONGEST bit model, shared
/// by message_bits() and the simulator's inline send path (which hoists
/// id_bits = ⌈log₂ n⌉ out of the loop).
inline std::uint64_t message_bits_for(std::uint64_t words, std::uint64_t id_bits) {
  return words * id_bits + 8;  // payload fields + tag byte
}

/// Bits consumed by a message in a network of n nodes: words·⌈log₂ n⌉ plus a
/// constant tag byte.  Used for the bit-complexity metrics (EXP-M1).
std::uint64_t message_bits(const Message& msg, NodeId n);

}  // namespace dhc::congest
