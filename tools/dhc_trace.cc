// dhc_trace — inspector for flight-recorder traces (src/trace/).
//
// Modes (pick exactly one):
//   --summarize=TRACE        per-phase rounds/messages/bits table + totals
//   --diff=TRACE_A,TRACE_B   phase- and counter-level comparison; exit 1
//                            when any non-wall counter differs (the
//                            determinism / shard-invariance check as a tool)
//   --imbalance=TRACE        per-shard active/wall split and imbalance
//                            factors (traces recorded with DHC_SHARDS>1)
//   --chrome=TRACE           convert to Chrome trace_event JSON
//                            (--out=PATH, default TRACE.chrome.json); load
//                            in chrome://tracing or ui.perfetto.dev
// Unknown flags are rejected (exit 2).
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <stdexcept>
#include <string>

#include "support/cli.h"
#include "trace/chrome.h"
#include "trace/reader.h"
#include "trace/summary.h"

int main(int argc, char** argv) {
  using namespace dhc;
  try {
    const support::Cli cli(argc, argv);
    cli.reject_unknown({"help", "summarize", "diff", "imbalance", "chrome", "out"});
    if (cli.has("help") || argc == 1) {
      std::cout << "usage: dhc_trace --summarize=TRACE | --diff=A,B | --imbalance=TRACE | "
                   "--chrome=TRACE [--out=PATH]\n"
                   "See the header of tools/dhc_trace.cc for details.\n";
      return EXIT_SUCCESS;
    }

    if (cli.has("summarize")) {
      const auto data = trace::read_trace_file(cli.get_string("summarize", ""));
      trace::print_summary(data, std::cout);
      return EXIT_SUCCESS;
    }

    if (cli.has("diff")) {
      const auto paths = cli.get_string_list("diff", {});
      if (paths.size() != 2) {
        throw std::invalid_argument("--diff needs exactly two traces: --diff=A,B");
      }
      const auto a = trace::read_trace_file(paths[0]);
      const auto b = trace::read_trace_file(paths[1]);
      return trace::print_diff(a, b, std::cout) == 0 ? EXIT_SUCCESS : EXIT_FAILURE;
    }

    if (cli.has("imbalance")) {
      const auto data = trace::read_trace_file(cli.get_string("imbalance", ""));
      trace::print_imbalance(data, std::cout);
      return EXIT_SUCCESS;
    }

    if (cli.has("chrome")) {
      const std::string in_path = cli.get_string("chrome", "");
      const auto data = trace::read_trace_file(in_path);
      const std::string out_path = cli.get_string("out", in_path + ".chrome.json");
      std::ofstream os(out_path, std::ios::binary | std::ios::trunc);
      if (!os) throw std::runtime_error("cannot open '" + out_path + "'");
      trace::write_chrome_trace(data, os);
      os.flush();
      if (!os) throw std::runtime_error("failed writing '" + out_path + "'");
      std::cout << "chrome trace: " << out_path << "\n";
      return EXIT_SUCCESS;
    }

    throw std::invalid_argument("pick a mode: --summarize, --diff, --imbalance, or --chrome");
  } catch (const std::invalid_argument& e) {
    std::cerr << "dhc_trace: " << e.what() << "\n(run with --help for usage)\n";
    return 2;
  } catch (const std::exception& e) {
    std::cerr << "dhc_trace: " << e.what() << "\n";
    return EXIT_FAILURE;
  }
}
