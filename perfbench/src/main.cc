/// @file
/// The benchmark binary: runs one workload for a fixed time and prints
/// every metric it measured plus one PERFBENCH_RESULT line. Exits 1 when
/// any output failed its correctness check. perfbench/run.py builds and
/// drives it; see perfbench/METRICS.md for the metric reference.

#include <cstdio>

#include "common/cli.hh"
#include "workloads.hh"

int
main(int argc, char **argv)
{
    using namespace nlfm;
    using namespace nlfm::perfbench;

    CliParser cli("repo benchmark: batch_ds2 | serve_imdb | fleet_sessions");
    cli.addString("workload", "", "workload to run");
    cli.addInt("seed", 1, "input seed");
    cli.addDouble("seconds", 10.0, "measurement window");
    cli.addInt("trace", 0, "1 = traced run (per-layer metrics)");
    cli.addBool("corrupt", false,
                "flip one bit of one checked output (self-test)");
    if (!cli.parse(argc, argv))
        return 0;

    RunConfig config;
    config.workload = cli.getString("workload");
    config.seed = static_cast<std::uint64_t>(cli.getInt("seed"));
    config.seconds = cli.getDouble("seconds");
    config.trace = cli.getInt("trace") != 0;
    config.corrupt = cli.getBool("corrupt");

    Report report;
    CorrectnessLedger ledger(config.corrupt);
    if (config.workload == "batch_ds2") {
        runBatchDs2(config, report, ledger);
    } else if (config.workload == "serve_imdb") {
        runServeImdb(config, report, ledger);
    } else if (config.workload == "fleet_sessions") {
        runFleetSessions(config, report, ledger);
    } else {
        std::fprintf(stderr, "unknown workload '%s'\n",
                     config.workload.c_str());
        return 2;
    }
    printResult(config, report, ledger);
    return ledger.failed() == 0 && ledger.attempted() > 0 ? 0 : 1;
}
