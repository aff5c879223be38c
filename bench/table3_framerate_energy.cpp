// Regenerates Table 3: frame rate and energy per frame for normal (N) and
// key (K) frames on ARM, Intel i7-class host and eSLAM, using the Figure 7
// pipeline arithmetic and the calibrated power constants.
#include "bench_util.h"
#include "hw/energy_model.h"

int main() {
  using namespace eslam;
  using namespace eslam::bench;
  print_header("Table 3: frame rate and energy efficiency", "Table 3");

  SequenceOptions opts;
  opts.frames = 24;
  const SyntheticSequence seq(SequenceId::kFr1Desk, opts);
  const auto frames = render_all(seq);

  BackendConfig sw_backend;
  sw_backend.platform = Platform::kSoftware;
  Tracker sw(seq.camera(), make_feature_backend(sw_backend));
  const StageDurations host = mean_stage_times(process_all(sw, frames));

  BackendConfig hw_backend;
  hw_backend.platform = Platform::kAccelerated;
  Tracker hw(seq.camera(), make_feature_backend(hw_backend));
  const std::vector<TrackResult> hw_results = process_all(hw, frames);
  const StageDurations accel = mean_stage_times(hw_results);
  // eSLAM hybrid: FE/FM simulated on fabric, PE/PO/MU on the ARM -> model
  // the ARM-side stages from host measurements.
  StageDurations eslam_stages = arm_from_host(host);
  eslam_stages.feature_extraction = accel.feature_extraction;
  eslam_stages.feature_matching = accel.feature_matching;

  const StageDurations arm = arm_from_host(host);

  struct Platform_ {
    const char* name;
    double n_ms, k_ms;
    PlatformPower power;
  };
  const Platform_ rows[] = {
      {"ARM model", software_normal_frame_ms(arm),
       software_key_frame_ms(arm), kPowerArm},
      {"host meas", software_normal_frame_ms(host),
       software_key_frame_ms(host), kPowerIntelI7},
      {"eSLAM sim", eslam_normal_frame_ms(eslam_stages),
       eslam_key_frame_ms(eslam_stages), kPowerEslam},
      // The paper's own numbers for comparison:
      {"paper ARM", 555.7, 565.6, kPowerArm},
      {"paper i7", 53.6, 54.8, kPowerIntelI7},
      {"paper eSLAM", 17.9, 31.8, kPowerEslam},
  };

  Table t({"platform", "N-frame", "K-frame", "N fps", "K fps", "power",
           "N energy", "K energy"});
  for (std::size_t i = 0; i < std::size(rows); ++i) {
    const auto& r = rows[i];
    if (i == 3) t.add_separator();
    t.add_row({r.name, ms(r.n_ms), ms(r.k_ms),
               Table::fmt(1000.0 / r.n_ms, 2) + " fps",
               Table::fmt(1000.0 / r.k_ms, 2) + " fps",
               Table::fmt(r.power.watts, 3) + " W",
               Table::fmt(energy_mj(r.power, r.n_ms), 0) + " mJ",
               Table::fmt(energy_mj(r.power, r.k_ms), 0) + " mJ"});
  }
  t.print();

  const double eslam_n = eslam_normal_frame_ms(eslam_stages);
  const double eslam_k = eslam_key_frame_ms(eslam_stages);
  Table s({"ratio (measured/model)", "N-frame", "K-frame", "paper claims"});
  s.add_row({"speedup vs ARM model",
             Table::fmt_ratio(software_normal_frame_ms(arm) / eslam_n),
             Table::fmt_ratio(software_key_frame_ms(arm) / eslam_k),
             "17.8x - 31x"});
  s.add_row({"speedup vs host",
             Table::fmt_ratio(software_normal_frame_ms(host) / eslam_n),
             Table::fmt_ratio(software_key_frame_ms(host) / eslam_k),
             "1.7x - 3x (vs i7)"});
  s.add_row(
      {"energy vs ARM model",
       Table::fmt_ratio(energy_mj(kPowerArm, software_normal_frame_ms(arm)) /
                        energy_mj(kPowerEslam, eslam_n)),
       Table::fmt_ratio(energy_mj(kPowerArm, software_key_frame_ms(arm)) /
                        energy_mj(kPowerEslam, eslam_k)),
       "14x - 25x"});
  s.add_row(
      {"energy vs i7-power host",
       Table::fmt_ratio(
           energy_mj(kPowerIntelI7, software_normal_frame_ms(host)) /
           energy_mj(kPowerEslam, eslam_n)),
       Table::fmt_ratio(energy_mj(kPowerIntelI7,
                                  software_key_frame_ms(host)) /
                        energy_mj(kPowerEslam, eslam_k)),
       "41x - 71x"});
  s.print();

  const auto key_frames =
      std::count_if(hw_results.begin(), hw_results.end(),
                    [](const TrackResult& r) { return r.keyframe; });
  std::printf("\nkey-frame share in this run: %td / %zu frames\n",
              key_frames, hw_results.size());
  return 0;
}
