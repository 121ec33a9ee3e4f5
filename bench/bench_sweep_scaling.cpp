/**
 * @file
 * Sweep-engine scaling bench: one 8-job grid (FA/DCT pair, static WL64
 * policy, reservation windows 300..475) swept on 1, 2, 4 and 8 job
 * workers (`SweepOptions::threads`).  Every job steps the serial cycle
 * loop; only the number of jobs in flight changes.
 *
 * Two clocks per sweep: process CPU time (getrusage, covers all worker
 * threads — the total compute burned) and monotonic wall time (what a
 * user waits; workers can only win here, and only up to the physical
 * core count).  Each worker count runs PEARL_BENCH_REPS times and keeps
 * the best wall rep.  Every rep's canonical CSV rows are byte-compared
 * against the serial rows — a rep that is not bit-identical is a fatal
 * error, so the committed numbers can never come from a diverged
 * simulation.
 *
 * Results land in BENCH_sweep.json with the host fingerprint
 * (bench::hostJson()): the speedup column is only meaningful relative
 * to the recorded CPU count.
 *
 * Knobs: PEARL_BENCH_CYCLES (20000; each job measures a quarter),
 * PEARL_BENCH_WARMUP (4000; each job warms a quarter), PEARL_BENCH_REPS
 * (3), PEARL_BENCH_JSON (BENCH_sweep.json).
 */

#include <chrono>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "metrics/csv.hpp"

namespace pearl {
namespace bench {
namespace {

constexpr unsigned kWorkerCounts[] = {1, 2, 4, 8};
constexpr int kJobs = 8;
constexpr std::uint64_t kSeed = 1;

struct SweepScalingResult
{
    unsigned workers = 0; //!< job workers the runner actually used
    double cpuSec = 0.0;
    double wallSec = 0.0;
    double speedupVsSerialWall = 0.0;
};

double
wallSeconds()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

void
writeJson(const std::string &path,
          const std::vector<SweepScalingResult> &sweeps,
          std::uint64_t warmup, std::uint64_t cycles, std::uint64_t reps)
{
    std::ofstream out(path);
    if (!out)
        fatal("cannot write ", path);
    out << "{\n"
        << "  \"bench\": \"sweep_scaling\",\n"
        << "  \"host\": " << hostJson() << ",\n"
        << "  \"clock\": \"process_cpu_time + monotonic_wall\",\n"
        << "  \"pair\": \"FA/DCT\",\n"
        << "  \"seed\": " << kSeed << ",\n"
        << "  \"jobs\": " << kJobs << ",\n"
        << "  \"job_warmup_cycles\": " << warmup << ",\n"
        << "  \"job_measure_cycles\": " << cycles << ",\n"
        << "  \"reps\": " << reps << ",\n"
        << "  \"sweeps\": [\n";
    for (std::size_t i = 0; i < sweeps.size(); ++i) {
        const SweepScalingResult &r = sweeps[i];
        out << "    {\"workers\": " << r.workers
            << ", \"cpu_sec\": " << r.cpuSec
            << ", \"wall_sec\": " << r.wallSec
            << ", \"speedup_vs_serial_wall\": " << r.speedupVsSerialWall
            << ", \"identical_to_serial\": true}"
            << (i + 1 < sweeps.size() ? "," : "") << "\n";
    }
    out << "  ]\n"
        << "}\n";
}

/** Minimal self-check that the emitted file is sane JSON with live
 *  numbers — this is what the ctest smoke run asserts. */
void
validateJson(const std::string &path)
{
    std::ifstream in(path);
    if (!in)
        fatal("cannot reopen ", path);
    std::stringstream buf;
    buf << in.rdbuf();
    const std::string text = buf.str();
    for (const char *key :
         {"\"bench\": \"sweep_scaling\"", "\"host\"", "\"cpu_model\"",
          "\"sweeps\"", "\"wall_sec\"", "\"identical_to_serial\""}) {
        if (text.find(key) == std::string::npos)
            fatal(path, ": missing key ", key);
    }
    long depth = 0;
    for (char c : text) {
        if (c == '{' || c == '[')
            ++depth;
        else if (c == '}' || c == ']')
            --depth;
        if (depth < 0)
            fatal(path, ": unbalanced brackets");
    }
    if (depth != 0)
        fatal(path, ": unbalanced brackets");
}

int
run()
{
    banner("sweep engine — host throughput vs job workers",
           "simulator engineering; tracks SweepRunner's job pool");

    const std::uint64_t cycles = envU64("PEARL_BENCH_CYCLES", 20000) / 4;
    const std::uint64_t warmup = envU64("PEARL_BENCH_WARMUP", 4000) / 4;
    const std::uint64_t reps = envU64("PEARL_BENCH_REPS", 3);
    const std::string json_path = []() {
        const char *p = std::getenv("PEARL_BENCH_JSON");
        return std::string(p ? p : "BENCH_sweep.json");
    }();

    traffic::BenchmarkSuite suite;
    const traffic::BenchmarkPair pair{suite.find("FA"),
                                      suite.find("DCT")};
    std::vector<metrics::RunSpec> jobs;
    for (int i = 0; i < kJobs; ++i) {
        metrics::RunSpec job;
        job.configName = "sweep";
        job.pair = pair;
        job.options.warmupCycles = warmup;
        job.options.measureCycles = cycles;
        job.pearl.reservationWindow = 300 + 25 * i;
        job.makePolicy = [] {
            return std::make_unique<core::StaticPolicy>(
                photonic::WlState::WL64);
        };
        jobs.push_back(std::move(job));
    }

    TextTable table({"workers", "wall s", "cpu s", "speedup"});
    std::vector<SweepScalingResult> sweeps;
    std::vector<std::string> serial_rows;
    double serial_wall = 0.0;
    for (unsigned workers : kWorkerCounts) {
        metrics::SweepOptions so;
        so.baseSeed = kSeed;
        so.threads = workers;
        SweepScalingResult best;
        for (std::uint64_t rep = 0; rep < reps; ++rep) {
            const double w0 = wallSeconds();
            const double c0 = cpuSeconds();
            const metrics::SweepResult res =
                metrics::SweepRunner(so).run(jobs);
            const double cpu = cpuSeconds() - c0;
            const double wall = wallSeconds() - w0;
            std::vector<std::string> rows;
            for (const metrics::RunMetrics &m : res.metricsOrThrow()) {
                if (m.deliveredPackets == 0)
                    fatal("a sweep job delivered zero packets");
                rows.push_back(metrics::csvRow({m.pairLabel}, m));
            }
            // Bit-identity gate: diverged numbers never get committed
            // as performance data.
            if (workers == 1 && serial_rows.empty())
                serial_rows = rows;
            if (rows != serial_rows)
                fatal("sweep rows on ", workers,
                      " workers differ from the serial sweep");
            if (best.wallSec == 0.0 || wall < best.wallSec) {
                best.workers = res.summary.threads;
                best.wallSec = wall;
                best.cpuSec = cpu;
            }
        }
        if (workers == 1)
            serial_wall = best.wallSec;
        best.speedupVsSerialWall = serial_wall / best.wallSec;
        table.addRow({std::to_string(best.workers),
                      TextTable::num(best.wallSec, 3),
                      TextTable::num(best.cpuSec, 3),
                      TextTable::num(best.speedupVsSerialWall, 2) + "x"});
        sweeps.push_back(best);
    }
    emit(table);

    writeJson(json_path, sweeps, warmup, cycles, reps);
    validateJson(json_path);
    std::cout << "\n[sweep_scaling] wrote " << json_path << "\n";
    return 0;
}

} // namespace
} // namespace bench
} // namespace pearl

int
main()
{
    return pearl::bench::run();
}
