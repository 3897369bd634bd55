// paper_tables — prints the paper's tables (E1-E9) on stdout.
//
//   paper_tables                # takes no arguments
//
// The output is deterministic: tests/golden/paper_tables.txt holds it, and
// `./test_golden --regen` rewrites that file after an intentional change.
#include <cstdio>
#include <iostream>

#include "core/paper_tables.h"

int main(int argc, char**) {
  if (argc > 1) {
    std::fprintf(stderr, "usage: paper_tables (takes no arguments)\n");
    return 2;
  }
  fastdiag::core::print_paper_tables(std::cout);
  std::cout.flush();
  return std::cout ? 0 : 1;
}
