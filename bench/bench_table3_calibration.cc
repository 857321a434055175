// Table 3: parameters for cost estimation. Runs the paper's Section 4.3
// micro-benchmark suite on this host and prints measured values next to the
// paper's lab-server values.
#include "bench/bench_util.h"
#include "calib/microbench.h"

using namespace tickpoint;

int main(int argc, char** argv) {
  bench::BenchContext ctx(argc, argv, "bench_table3_calibration",
                          "Paper Table 3: hardware parameters, measured on "
                          "this host vs the paper's lab server");
  CalibrationOptions options;
  options.disk_dir = ctx.flags().GetString("disk-dir", "/tmp");
  options.disk_write_bytes = static_cast<uint64_t>(
      ctx.flags().GetInt64("disk-mb", 128)) << 20;
  if (ctx.flags().GetBool("quick", false)) {
    options.mem_iterations = 3;
    options.small_copy_count = 50000;
    options.lock_ops = 200000;
    options.bit_ops = 2000000;
    options.disk_write_bytes = 32ull << 20;
  }
  char params[160];
  std::snprintf(params, sizeof(params), "disk scratch: %s (%llu MB)",
                options.disk_dir.c_str(),
                static_cast<unsigned long long>(options.disk_write_bytes >>
                                                20));
  ctx.PrintHeader(params);

  auto result_or = RunCalibration(options);
  TP_CHECK_OK(result_or.status());
  const CalibrationResult& m = *result_or;
  const HardwareParams paper = HardwareParams::Paper();

  TablePrinter table({"parameter", "notation", "paper setting",
                      "measured here"});
  table.AddRow({"Tick Frequency", "Ftick", "30 Hz", "30 Hz (configured)"});
  table.AddRow({"Atomic Object Size", "Sobj", "512 bytes",
                "512 bytes (configured)"});
  table.AddRow({"Memory Bandwidth", "Bmem",
                TablePrinter::Num(paper.mem_bandwidth / 1e9, 1) + " GB/s",
                TablePrinter::Num(m.mem_bandwidth / 1e9, 2) + " GB/s"});
  table.AddRow({"Memory Latency", "Omem",
                TablePrinter::Num(paper.mem_latency * 1e9, 0) + " ns",
                TablePrinter::Num(m.mem_latency * 1e9, 0) + " ns"});
  table.AddRow({"Lock overhead", "Olock",
                TablePrinter::Num(paper.lock_overhead * 1e9, 0) + " ns",
                TablePrinter::Num(m.lock_overhead * 1e9, 0) + " ns"});
  table.AddRow({"Bit test/set overhead", "Obit",
                TablePrinter::Num(paper.bit_overhead * 1e9, 0) + " ns",
                TablePrinter::Num(m.bit_overhead * 1e9, 1) + " ns"});
  table.AddRow({"Disk Bandwidth", "Bdisk",
                TablePrinter::Num(paper.disk_bandwidth / 1e6, 0) + " MB/s",
                TablePrinter::Num(m.disk_bandwidth / 1e6, 0) + " MB/s"});
  bench::Emit(table, ctx.csv());

  std::printf(
      "\n# paper: measured on a 2008-era lab server with a dedicated 7200rpm"
      " SATA disk;\n"
      "# this host's filesystem (page cache) usually reports far higher "
      "Bdisk -- pass the\n"
      "# measured values to the fig6 validation harness or interpret "
      "ratios, not absolutes.\n");
  ctx.Finish();
  return 0;
}
