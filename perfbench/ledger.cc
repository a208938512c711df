#include "ledger.h"

#include "net/protocol.h"

namespace perfbench {

namespace net = simdtree::net;

void RunProtocolLadder(const std::vector<uint64_t>& read_keys,
                       const std::vector<uint64_t>& lb_keys, MetricSink* out) {
  std::vector<uint8_t> frames;
  uint32_t id = 1;
  for (uint64_t k : read_keys) net::AppendGet(&frames, id++, k);
  for (uint64_t k : lb_keys) net::AppendLowerBound(&frames, id++, k);
  const size_t count = id - 1;
  if (count == 0) {
    out->Add("protocol.decode_ns_per_frame", 0, "ns");
    out->Add("protocol.encode_ns_per_reply", 0, "ns");
    return;
  }
  volatile uint64_t sink = 0;
  net::Request req;
  const double decode_ns = MedianPassNs([&] {
    size_t off = 0;
    const uint8_t* payload;
    size_t len, consumed;
    while (net::ExtractFrame(frames.data(), frames.size(), off, &payload,
                             &len, &consumed) == 1) {
      if (net::DecodeRequest(payload, len, &req) == net::DecodeResult::kOk) {
        sink = sink + req.key;
      }
      off += consumed;
    }
  });
  std::vector<uint8_t> replies;
  replies.reserve(count * 32);
  const double encode_ns = MedianPassNs([&] {
    replies.clear();
    uint32_t rid = 1;
    for (uint64_t k : read_keys) {
      net::AppendResponseFrame(&replies, net::kOpGet, net::kStatusOk, rid++, 9,
                               [k](std::vector<uint8_t>* o) {
                                 net::PutU8(o, 1);
                                 net::PutU64(o, k);
                               });
    }
    for (uint64_t k : lb_keys) {
      net::AppendResponseFrame(&replies, net::kOpLowerBound, net::kStatusOk,
                               rid++, 17, [k](std::vector<uint8_t>* o) {
                                 net::PutU8(o, 1);
                                 net::PutU64(o, k);
                                 net::PutU64(o, k);
                               });
    }
    sink = sink + replies.size();
  });
  out->Add("protocol.decode_ns_per_frame",
           decode_ns / static_cast<double>(count), "ns", count);
  out->Add("protocol.encode_ns_per_reply",
           encode_ns / static_cast<double>(count), "ns", count);
}

}  // namespace perfbench
