// pagen_bench: one workload of the repository benchmark per process, so
// peak RSS belongs to that workload alone. run.py builds this binary and
// drives it; see README.md in this directory.
//
//   pagen_bench --workload=pipeline-x1 --seed=1 --seconds=30 --trace=0
//       --work-dir=.bench_work/w --out-dir=.bench_reports
//
// Writes <out-dir>/<workload>.json ("pagen.bench.v1") and prints every
// metric with its unit. Exits 0 when the report was written, whether or
// not the checks passed (the report says), and 1 when the run itself
// failed.
#include <exception>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iostream>
#include <map>
#include <string>

#include "bench_util.h"
#include "util/cli.h"

int main(int argc, char** argv) {
  using namespace pagen;
  using Workload = std::function<void(const bench::Args&, bench::Report&)>;
  const std::map<std::string, Workload> workloads = {
      {"pipeline-x1", bench::run_pipeline_x1},
      {"commfree-x6", bench::run_commfree_x6},
      {"mps-x6", bench::run_mps_x6},
      {"svc-mixed", bench::run_svc_mixed}};
  try {
    const Cli cli(argc, argv,
                  {"workload", "seed", "seconds", "trace", "smoke", "work-dir",
                   "out-dir"});
    if (cli.help()) {
      std::cout << cli.usage("pagen_bench") << "\n";
      return 0;
    }
    bench::Args args;
    args.start_ns = now_ns();
    args.workload = cli.get_str("workload", "");
    args.seed = cli.get_u64("seed", 1);
    args.seconds = cli.get_double("seconds", 30.0);
    args.trace = cli.get_bool("trace", false);
    args.smoke = cli.get_bool("smoke", false);
    args.work_dir = cli.get_str("work-dir", ".bench_work");
    args.out_dir = cli.get_str("out-dir", ".");
    const auto it = workloads.find(args.workload);
    if (it == workloads.end()) {
      std::cerr << "unknown --workload '" << args.workload
                << "' (pipeline-x1, commfree-x6, mps-x6, svc-mixed)\n";
      return 1;
    }
    std::filesystem::create_directories(args.work_dir);
    std::filesystem::create_directories(args.out_dir);

    bench::Report report(args);
    it->second(args, report);

    const std::string path = args.out_dir + "/" + args.workload + ".json";
    std::ofstream os(path, std::ios::trunc);
    report.write_json(os);
    os.close();
    if (!os) {
      std::cerr << "cannot write " << path << "\n";
      return 1;
    }
    report.print(std::cout);
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "pagen_bench: " << e.what() << "\n";
    return 1;
  }
}
