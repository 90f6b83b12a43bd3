// perfbench: runs one benchmark workload and prints its metrics, the result
// JSON last.  See perfbench/README.md.
#include <iostream>
#include <string>
#include <vector>

#include "harness.h"

int main(int argc, char** argv) {
  const std::vector<std::string> args(argv + 1, argv + argc);
  return perfbench::run_main(args, std::cout, std::cerr);
}
