// Table 4: the Zipfian-generated update traces. Materializes traces at the
// table's corner settings and reports their measured characteristics.
#include "bench/bench_util.h"
#include "trace/stats.h"

using namespace tickpoint;

int main(int argc, char** argv) {
  bench::BenchContext ctx(argc, argv, "bench_table4_zipf_traces",
                          "Paper Table 4: Zipf trace parameter settings and "
                          "the traces they generate");
  const uint64_t ticks = ctx.flags().GetInt64("ticks", 100);
  char params[96];
  std::snprintf(params, sizeof(params), "%llu ticks per trace (paper: 1000)",
                static_cast<unsigned long long>(ticks));
  ctx.PrintHeader(params);

  TablePrinter settings({"parameter", "setting"});
  settings.AddRow({"number of ticks", "1,000"});
  settings.AddRow({"number of table cells", "10,000,000"});
  settings.AddRow(
      {"number of updates per tick", "1,000 ... 64,000 ... 256,000"});
  settings.AddRow({"skew of update distribution", "0 ... 0.8 ... 0.99"});
  std::printf("\nTable 4 (paper settings; bold defaults 64,000 / 0.8)\n");
  bench::Emit(settings, ctx.csv());

  struct Config {
    uint64_t rate;
    double skew;
  };
  const std::vector<Config> configs = {
      {1000, 0.8}, {64000, 0.0}, {64000, 0.8}, {64000, 0.99}, {256000, 0.8}};

  TablePrinter table({"updates/tick", "skew", "total updates",
                      "distinct cells", "distinct objects",
                      "top-1% object share"});
  for (const Config& config : configs) {
    ZipfTraceConfig trace;
    trace.layout = StateLayout::Paper();
    trace.num_ticks = ticks;
    trace.updates_per_tick = config.rate;
    trace.theta = config.skew;
    ZipfUpdateSource source(trace);
    const TraceStats stats = ComputeTraceStats(&source);
    table.AddRow({std::to_string(config.rate),
                  TablePrinter::Num(config.skew, 2),
                  std::to_string(stats.total_updates),
                  std::to_string(stats.distinct_cells),
                  std::to_string(stats.distinct_objects),
                  TablePrinter::Num(stats.hottest_percentile_share, 3)});
  }
  std::printf("\nMeasured trace characteristics\n");
  bench::Emit(table, ctx.csv());

  std::printf(
      "\n# paper: rows and columns drawn independently from Zipf(theta); "
      "higher skew concentrates updates on hot objects (compare distinct "
      "objects and top-1%% share across skews)\n");
  ctx.Finish();
  return 0;
}
