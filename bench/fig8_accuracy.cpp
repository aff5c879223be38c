// Regenerates Figure 8: average trajectory error of the SLAM system with
// RS-BRIEF vs the original ORB descriptor across the five evaluation
// sequences (synthetic stand-ins for the TUM recordings; see DESIGN.md).
//
//   ./fig8_accuracy [frames_per_sequence]   (default 60)
#include <cstdlib>

#include "bench_util.h"
#include "eval/ate.h"

namespace {

using namespace eslam;

double run_mode(const SyntheticSequence& seq,
                const std::vector<FrameInput>& frames, DescriptorMode mode) {
  BackendConfig backend;
  backend.platform = Platform::kSoftware;
  backend.descriptor = mode;
  Tracker tracker(seq.camera(), make_feature_backend(backend));
  std::vector<SE3> poses;
  for (const TrackResult& r : bench::process_all(tracker, frames))
    poses.push_back(r.pose_wc);
  std::vector<SE3> gt(seq.ground_truth().begin(),
                      seq.ground_truth().begin() +
                          static_cast<std::ptrdiff_t>(frames.size()));
  return absolute_trajectory_error(poses, gt).mean;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace eslam;
  using namespace eslam::bench;
  print_header("Figure 8: average trajectory error, RS-BRIEF vs original ORB",
               "Figure 8");

  SequenceOptions opts;
  opts.frames = argc > 1 ? std::atoi(argv[1]) : 60;
  if (opts.frames < 10) opts.frames = 10;
  std::printf("%d frames per sequence, software pipeline, synthetic"
              " sequences\n\n", opts.frames);

  // Paper's Figure 8 values (cm), read from the bar chart.
  struct PaperRef {
    const char* name;
    double rs, orb;
  };
  const PaperRef paper[] = {{"fr1/xyz", 2.5, 1.5},
                            {"fr2/xyz", 2.0, 1.2},
                            {"fr1/desk", 3.0, 3.7},
                            {"fr1/room", 10.5, 10.0},
                            {"fr2/rpy", 3.5, 4.5}};

  Table t({"sequence", "RS-BRIEF (cm)", "original ORB (cm)",
           "paper RS (cm)", "paper ORB (cm)"});
  double sum_rs = 0, sum_orb = 0;
  const auto& ids = evaluation_sequences();
  for (std::size_t i = 0; i < ids.size(); ++i) {
    const SyntheticSequence seq(ids[i], opts);
    const auto frames = render_all(seq);  // render once, run both modes
    const double rs = run_mode(seq, frames, DescriptorMode::kRsBrief) * 100;
    const double orb = run_mode(seq, frames, DescriptorMode::kOrbLut) * 100;
    sum_rs += rs;
    sum_orb += orb;
    t.add_row({seq.name(), Table::fmt(rs, 2), Table::fmt(orb, 2),
               Table::fmt(paper[i].rs, 1), Table::fmt(paper[i].orb, 1)});
    std::printf("  %s done\n", seq.name().c_str());
  }
  t.add_separator();
  t.add_row({"AVERAGE", Table::fmt(sum_rs / 5, 2), Table::fmt(sum_orb / 5, 2),
             "4.3", "4.16"});
  std::printf("\n");
  t.print();

  std::printf(
      "\nShape to check (paper section 4.2): RS-BRIEF accuracy is\n"
      "*comparable* to the original ORB descriptor — each wins on some\n"
      "sequences, and the averages sit within a fraction of a cm.\n"
      "Absolute values differ from the paper because the sequences are\n"
      "synthetic stand-ins for TUM (see DESIGN.md).\n");
  return 0;
}
