// The paper's tables: diagnosis time without and with DRFs (Eq. (1)-(4)),
// coverage (Sec. 4.1), area (Sec. 4.3), serial fault masking (Fig. 2),
// heterogeneous wrap-around (Sec. 3.1), DRF diagnosis cost (Sec. 3.4), the
// March complexities and this reproduction's ablations (E1-E9).
#pragma once

#include <ostream>

namespace fastdiag::core {

/// Prints E1-E9, each a banner and its tables followed by a blank line.
/// The output is deterministic; tests/golden/paper_tables.txt holds it.
void print_paper_tables(std::ostream& out);

}  // namespace fastdiag::core
