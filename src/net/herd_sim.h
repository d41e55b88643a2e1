// HERD-style networked KV simulation. Clients submit batches; the server
// answers from the wrapped index or the service, and every
// request/response is charged against a shared serial-link model (a token
// bucket expressed as a "link busy until" timestamp). With a 100 Gb/s link
// the index is the bottleneck for short keys and the wire for 1 KB keys,
// reproducing the paper's Fig. 12 crossover.
//
//   SerialLink       the shared wire model
//   HerdStore        point-lookup batches against a bare index (Fig. 12)
//   HerdServiceLink  full Request/Response batches against the Service
//                    (templated so src/net stays independent of
//                    src/server)
#ifndef WH_SRC_NET_HERD_SIM_H_
#define WH_SRC_NET_HERD_SIM_H_

#include <chrono>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "src/common/sync.h"

namespace wh {

struct HerdConfig {
  size_t batch_size = 800;
  double link_gbps = 100.0;
  // Per-message wire overhead approximating UD send/recv headers + GRH.
  size_t request_header_bytes = 40;
  size_t response_header_bytes = 40;
  size_t value_bytes = 8;
};

// The token-bucket serial link: Charge(bytes) blocks the caller until the
// modeled wire has carried them, queueing behind concurrent chargers.
class SerialLink {
 public:
  explicit SerialLink(double gbps)
      : bytes_per_sec_(gbps * 1e9 / 8.0), link_free_at_(Clock::now()) {}

  void Charge(uint64_t bytes) {
    const auto cost = std::chrono::duration_cast<Clock::duration>(
        std::chrono::duration<double>(static_cast<double>(bytes) /
                                      bytes_per_sec_));
    Clock::time_point wait_until;
    {
      ScopedLock g(mu_);
      const auto now = Clock::now();
      if (link_free_at_ < now) {
        link_free_at_ = now;  // idle link: no queueing delay accrued
      }
      link_free_at_ += cost;
      wait_until = link_free_at_;
    }
    std::this_thread::sleep_until(wait_until);
  }

 private:
  using Clock = std::chrono::steady_clock;

  double bytes_per_sec_;
  Mutex mu_;
  Clock::time_point link_free_at_ GUARDED_BY(mu_);
};

template <typename Index>
class HerdStore {
 public:
  HerdStore(Index* index, const HerdConfig& config)
      : index_(index), config_(config), link_(config.link_gbps) {}

  const HerdConfig& config() const { return config_; }

  // Executes one client batch; blocks until the modeled link has carried the
  // batch's bytes. Returns the number of hits.
  size_t LookupBatch(const std::vector<const std::string*>& batch) {
    std::string value;
    size_t hits = 0;
    uint64_t wire_bytes = 0;
    for (const std::string* key : batch) {
      if (index_->Get(*key, &value)) {
        hits++;
        wire_bytes += config_.value_bytes;
      }
      wire_bytes += key->size() + config_.request_header_bytes +
                    config_.response_header_bytes;
    }
    link_.Charge(wire_bytes);
    return hits;
  }

 private:
  Index* index_;
  HerdConfig config_;
  SerialLink link_;
};

// The simulated client link for the service: executes one batch of
// Get/Put/Delete/Scan requests and charges the wire for what actually moved —
// keys and Put payloads inbound, hit values and scan items outbound, one
// header each way per request.
template <typename ServiceT>
class HerdServiceLink {
 public:
  using RequestT = typename ServiceT::RequestType;
  using ResponseT = typename ServiceT::ResponseType;

  HerdServiceLink(ServiceT* service, const HerdConfig& config)
      : service_(service), config_(config), link_(config.link_gbps) {}

  const HerdConfig& config() const { return config_; }

  void ExecuteBatch(const std::vector<RequestT>& batch,
                    std::vector<ResponseT>* responses) {
    service_->Execute(batch, responses);
    uint64_t wire_bytes = 0;
    for (const RequestT& req : batch) {
      wire_bytes += req.key.size() + req.value.size() +
                    config_.request_header_bytes + config_.response_header_bytes;
    }
    for (const ResponseT& resp : *responses) {
      wire_bytes += resp.value.size();
      for (const auto& [k, v] : resp.items) {
        wire_bytes += k.size() + v.size();
      }
    }
    link_.Charge(wire_bytes);
  }

 private:
  ServiceT* service_;
  HerdConfig config_;
  SerialLink link_;
};

}  // namespace wh

#endif  // WH_SRC_NET_HERD_SIM_H_
