// AXI bus / SDRAM transfer-cost model.
//
// The ORB Extractor and BRIEF Matcher stream data to and from SDRAM over
// AXI (paper Figure 3).  We model a 64-bit data bus at the accelerator
// clock with burst transfers: a burst of B beats costs
// `address_latency + B` cycles, and sequential bursts to consecutive
// addresses pipeline so that sustained throughput is 8 bytes/cycle.
#pragma once

#include <cstdint>

#include "geometry/assert.h"

namespace eslam {

struct AxiConfig {
  int bus_bytes = 8;        // 64-bit AXI data width
  int burst_beats = 16;     // beats per burst (AXI4 INCR)
  int address_latency = 8;  // cycles from AR/AW to first beat (SDRAM CAS+)
};

class AxiBusModel {
 public:
  explicit AxiBusModel(const AxiConfig& config = {}) : config_(config) {
    ESLAM_ASSERT(config.bus_bytes > 0 && config.burst_beats > 0,
                 "bad AXI configuration");
  }

  // Cycles to read `bytes` sequential bytes (pipelined bursts: one address
  // setup, then back-to-back beats; a new address phase every burst is
  // hidden behind the data phase after the first).
  std::uint64_t read_cycles(std::uint64_t bytes) {
    const std::uint64_t beats = beats_for(bytes);
    bytes_read_ += bytes;
    ++read_transactions_;
    return static_cast<std::uint64_t>(config_.address_latency) + beats;
  }

  std::uint64_t write_cycles(std::uint64_t bytes) {
    const std::uint64_t beats = beats_for(bytes);
    bytes_written_ += bytes;
    ++write_transactions_;
    return static_cast<std::uint64_t>(config_.address_latency) + beats;
  }

  std::uint64_t bytes_read() const { return bytes_read_; }
  std::uint64_t bytes_written() const { return bytes_written_; }
  std::uint64_t read_transactions() const { return read_transactions_; }
  std::uint64_t write_transactions() const { return write_transactions_; }
  const AxiConfig& config() const { return config_; }

 private:
  std::uint64_t beats_for(std::uint64_t bytes) const {
    return (bytes + static_cast<std::uint64_t>(config_.bus_bytes) - 1) /
           static_cast<std::uint64_t>(config_.bus_bytes);
  }

  AxiConfig config_;
  std::uint64_t bytes_read_ = 0;
  std::uint64_t bytes_written_ = 0;
  std::uint64_t read_transactions_ = 0;
  std::uint64_t write_transactions_ = 0;
};

}  // namespace eslam
