#include <gtest/gtest.h>

#include "hw/axi.h"
#include "hw/clock.h"
#include "hw/energy_model.h"
#include "hw/resource_model.h"

namespace eslam {
namespace {

TEST(Clock, CycleMsConversions) {
  EXPECT_DOUBLE_EQ(cycles_to_ms(100000), 1.0);  // 100k cycles @ 100 MHz
  EXPECT_EQ(ms_to_cycles(1.0), 100000u);
  EXPECT_DOUBLE_EQ(cycles_to_ms(767000, kArmClockMhz), 1.0);
  CycleCounter c;
  c.add(50000);
  c.add(50000);
  EXPECT_DOUBLE_EQ(c.total_ms(), 1.0);
  c.reset();
  EXPECT_EQ(c.total(), 0u);
}

TEST(Axi, BurstCycleModel) {
  AxiBusModel axi;  // 8B bus, addr latency 8
  // 64 bytes = 8 beats + 8 addr cycles.
  EXPECT_EQ(axi.read_cycles(64), 16u);
  // Partial beat rounds up.
  EXPECT_EQ(axi.read_cycles(65), 8u + 9u);
  EXPECT_EQ(axi.write_cycles(8), 8u + 1u);
  EXPECT_EQ(axi.bytes_read(), 129u);
  EXPECT_EQ(axi.bytes_written(), 8u);
  EXPECT_EQ(axi.read_transactions(), 2u);
  EXPECT_EQ(axi.write_transactions(), 1u);
}

TEST(Axi, SustainedBandwidthApproachesBusWidth) {
  AxiBusModel axi;
  const std::uint64_t bytes = 1 << 20;
  const std::uint64_t cycles = axi.read_cycles(bytes);
  const double bytes_per_cycle = static_cast<double>(bytes) / cycles;
  EXPECT_GT(bytes_per_cycle, 7.99);
  EXPECT_LE(bytes_per_cycle, 8.0);
}

TEST(ResourceModel, TotalsMatchPaperTable1) {
  const auto inventory = eslam_resource_inventory();
  const ResourceUsage total = total_resources(inventory);
  const ResourceUsage paper = paper_table1_totals();
  EXPECT_EQ(total.lut, paper.lut);
  EXPECT_EQ(total.ff, paper.ff);
  EXPECT_EQ(total.dsp, paper.dsp);
  EXPECT_EQ(total.bram, paper.bram);
}

TEST(ResourceModel, UtilizationMatchesPaperPercentages) {
  const DeviceCapacity dev;
  const ResourceUsage paper = paper_table1_totals();
  EXPECT_NEAR(utilization_pct(paper.lut, dev.lut), 26.0, 0.1);
  EXPECT_NEAR(utilization_pct(paper.ff, dev.ff), 15.5, 0.1);
  EXPECT_NEAR(utilization_pct(paper.dsp, dev.dsp), 12.3, 0.1);
  EXPECT_NEAR(utilization_pct(paper.bram, dev.bram), 14.3, 0.1);
}

TEST(ResourceModel, EveryModuleHasJustification) {
  for (const ModuleResources& m : eslam_resource_inventory()) {
    EXPECT_FALSE(m.name.empty());
    EXPECT_FALSE(m.basis.empty());
    EXPECT_GE(m.usage.lut, 0);
    EXPECT_GE(m.usage.bram, 0);
  }
}

TEST(ResourceModel, MatcherBramScalesWithMapWindow) {
  const auto small = total_resources(eslam_resource_inventory(1024));
  const auto large = total_resources(eslam_resource_inventory(8192));
  EXPECT_LT(small.bram, large.bram);
  EXPECT_EQ(small.lut, large.lut);  // logic unaffected
}

TEST(EnergyModel, PaperConstants) {
  EXPECT_DOUBLE_EQ(kPowerArm.watts, 1.574);
  EXPECT_DOUBLE_EQ(kPowerEslam.watts, 1.936);
  EXPECT_DOUBLE_EQ(kPowerIntelI7.watts, 47.0);
  // Paper: accelerator adds ~23% to ARM power.
  EXPECT_NEAR(accelerator_power_overhead_w() / kPowerArm.watts, 0.23, 0.003);
}

TEST(EnergyModel, EnergyPerFrameReproducesTable3) {
  // eSLAM: 17.9 ms -> ~35 mJ; 31.8 ms -> ~62 mJ.
  EXPECT_NEAR(energy_mj(kPowerEslam, 17.9), 35.0, 0.7);
  EXPECT_NEAR(energy_mj(kPowerEslam, 31.8), 62.0, 0.7);
  // ARM: 555.7 ms -> ~875 mJ; 565.6 -> ~890 mJ.
  EXPECT_NEAR(energy_mj(kPowerArm, 555.7), 875.0, 1.0);
  EXPECT_NEAR(energy_mj(kPowerArm, 565.6), 890.0, 1.0);
  // i7: 53.6 ms -> ~2519 mJ; 54.8 -> ~2575 mJ.
  EXPECT_NEAR(energy_mj(kPowerIntelI7, 53.6), 2519.0, 1.0);
  EXPECT_NEAR(energy_mj(kPowerIntelI7, 54.8), 2575.0, 1.0);
}

}  // namespace
}  // namespace eslam
