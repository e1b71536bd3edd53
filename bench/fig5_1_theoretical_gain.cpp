// Reproduces Figure 5-1: theoretical performance gain of H-ORAM over
// Path ORAM (Eqs 5-2 .. 5-4) as a function of the storage/memory ratio
// N/n, for several values of c, with Z = 4 and the measured HDD
// read/write asymmetry (102.7 / 55.2 MB/s).
//
// Paper claims: gains shrink as N/n grows; around 8x in its example
// point; "the best performance is 12 times or 16 times faster". Note
// that the prose's 8x at (c=4, N/n=8) is not reproducible from the
// paper's own equations (they give ~3.8x with equal weights); we
// plot the equations faithfully.
#include <iostream>

#include "analysis/theoretical.h"
#include "util/table.h"

int main() {
  using namespace horam;

  constexpr double z = 4.0;
  constexpr double read_bps = 102.7e6;
  constexpr double write_bps = 55.2e6;
  const std::vector<double> c_values = {1, 2, 4, 8, 16};
  const std::vector<double> ratios = {2, 4, 8, 16, 32, 64};

  std::cout << "=== Figure 5-1: theoretical gain over Path ORAM "
               "(overhead reduction factor) ===\n";
  std::vector<std::string> header = {"N/n ratio"};
  for (const double c : c_values) {
    header.push_back("c = " + util::format_double(c, 0));
  }
  util::text_table table(header);
  double best = 0.0;
  for (const double ratio : ratios) {
    std::vector<std::string> row = {util::format_double(ratio, 0)};
    for (const double c : c_values) {
      const double gain =
          analysis::theoretical_gain(ratio, c, z, read_bps, write_bps);
      best = std::max(best, gain);
      row.push_back(util::format_double(gain, 2));
    }
    table.add_row(row);
  }
  table.print(std::cout);
  std::cout << "Best gain across the sweep: "
            << util::format_double(best, 1)
            << "x   [paper prose: \"12 times or 16 times\"]\n";

  // CSV series for plotting.
  std::cout << "\nCSV: ratio";
  for (const double c : c_values) {
    std::cout << ",c" << c;
  }
  std::cout << "\n";
  for (const double ratio : ratios) {
    std::cout << "CSV: " << ratio;
    for (const double c : c_values) {
      std::cout << ","
                << analysis::theoretical_gain(ratio, c, z, read_bps,
                                              write_bps);
    }
    std::cout << "\n";
  }
  return 0;
}
