#include "analysis/report.hpp"

#include <cmath>
#include <sstream>

#include "util/file_util.hpp"
#include "util/table.hpp"

namespace tdt::analysis {

std::string set_table(const SetActivityCollector& collector,
                      const std::vector<std::string>& variables,
                      bool skip_empty_sets) {
  std::vector<std::string> header{"set"};
  for (const std::string& v : variables) {
    header.push_back(v + ":hits");
    header.push_back(v + ":misses");
  }
  TextTable t(std::move(header));
  for (std::uint64_t s = 0; s < collector.num_sets(); ++s) {
    std::vector<std::string> row{std::to_string(s)};
    bool any = false;
    for (const std::string& v : variables) {
      const SetCell& cell = collector.series(v)[s];
      any = any || cell.hits != 0 || cell.misses != 0;
      row.push_back(std::to_string(cell.hits));
      row.push_back(std::to_string(cell.misses));
    }
    if (any || !skip_empty_sets) t.add_row(std::move(row));
  }
  return t.render();
}

std::string set_csv(const SetActivityCollector& collector,
                    const std::vector<std::string>& variables) {
  std::string out = "set";
  for (const std::string& v : variables) {
    out += "," + v + "_hits," + v + "_misses";
  }
  out += '\n';
  for (std::uint64_t s = 0; s < collector.num_sets(); ++s) {
    out += std::to_string(s);
    for (const std::string& v : variables) {
      const SetCell& cell = collector.series(v)[s];
      out += ',' + std::to_string(cell.hits) + ',' +
             std::to_string(cell.misses);
    }
    out += '\n';
  }
  return out;
}

void write_gnuplot(const SetActivityCollector& collector,
                   const std::vector<std::string>& variables,
                   const std::string& prefix, const std::string& title) {
  write_file(prefix + ".dat",
             "# " + title + '\n' + set_csv(collector, variables));
  std::ostringstream gp;
  gp << "set title '" << title << "'\n"
     << "set datafile separator ','\n"
     << "set xlabel 'Cache Sets'\n"
     << "set logscale y\n"
     << "set key outside\n"
     << "set multiplot layout 2,1\n"
     << "set ylabel 'Hits'\n"
     << "plot ";
  for (std::size_t i = 0; i < variables.size(); ++i) {
    if (i != 0) gp << ", ";
    gp << "'" << prefix << ".dat' using 1:" << (2 + 2 * i)
       << " with linespoints title '" << variables[i] << "'";
  }
  gp << "\nset ylabel 'Misses'\nplot ";
  for (std::size_t i = 0; i < variables.size(); ++i) {
    if (i != 0) gp << ", ";
    gp << "'" << prefix << ".dat' using 1:" << (3 + 2 * i)
       << " with linespoints title '" << variables[i] << "'";
  }
  gp << "\nunset multiplot\n";
  write_file(prefix + ".gp", gp.str());
}

namespace {

std::string bar(std::uint64_t value, std::uint64_t max_value,
                std::size_t width) {
  if (value == 0 || max_value == 0) return "";
  // Log scale like the paper's figures: 1 access still shows one tick.
  const double scale =
      std::log2(static_cast<double>(max_value) + 1.0);
  const double frac =
      scale == 0 ? 1.0 : std::log2(static_cast<double>(value) + 1.0) / scale;
  const std::size_t n =
      std::max<std::size_t>(1, static_cast<std::size_t>(frac * static_cast<double>(width)));
  return std::string(n, '#');
}

}  // namespace

std::string ascii_chart(const SetActivityCollector& collector,
                        const std::string& variable, std::size_t max_width) {
  const std::vector<SetCell>& cells = collector.series(variable);
  std::uint64_t max_hits = 0, max_misses = 0;
  for (const SetCell& c : cells) {
    max_hits = std::max(max_hits, c.hits);
    max_misses = std::max(max_misses, c.misses);
  }
  std::string out = variable + " — hits per set (log scale, max " +
                    std::to_string(max_hits) + ")\n";
  for (std::uint64_t s = 0; s < cells.size(); ++s) {
    if (cells[s].hits == 0 && cells[s].misses == 0) continue;
    out += "  set " + std::to_string(s) + "\t" +
           std::to_string(cells[s].hits) + "\t" +
           bar(cells[s].hits, max_hits, max_width) + '\n';
  }
  out += variable + " — misses per set (log scale, max " +
         std::to_string(max_misses) + ")\n";
  for (std::uint64_t s = 0; s < cells.size(); ++s) {
    if (cells[s].hits == 0 && cells[s].misses == 0) continue;
    out += "  set " + std::to_string(s) + "\t" +
           std::to_string(cells[s].misses) + "\t" +
           bar(cells[s].misses, max_misses, max_width) + '\n';
  }
  return out;
}

}  // namespace tdt::analysis
