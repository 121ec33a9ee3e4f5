/**
 * @file
 * pearl_perfbench: the host-speed benchmark of the PEARL simulator.
 *
 *   pearl_perfbench --workload <chip16_ml|scale128_hub|fig9_sweep>
 *                   [--seed N] [--seconds S] [--trace 0|1]
 *                   [--git-sha SHA] [--source-id ID] [--report PATH]
 *                   [--smoke] [--perturb-digest]
 *
 * Every run first re-derives the fcfs, reactive and cmesh rows of
 * tests/golden/ and trains the ML model in-process from one fixed
 * small pipeline config, then repeats the workload until --seconds have
 * passed.  With --trace 0 the repetitions go through the public entry
 * points (metrics::Runner::run / Runner::sweep, i.e. metrics::runPearl
 * and metrics::runCmesh) and the end-to-end metrics are printed.  With
 * --trace 1 untraced and traced repetitions alternate; the traced ones
 * rebuild the same simulation with the network and the power policy
 * wrapped in the timing decorators of timed_layers.hpp, and the
 * per-layer metrics are printed.  Every repetition, traced or not, must
 * reproduce the same digest of its simulated results.
 *
 * The last line of standard output is one JSON object:
 *   {"correct": .., "attempted": .., "failed": .., "metrics": {..}}
 * perfbench/run.py builds this binary and is the command to run; see
 * perfbench/README.md for the workloads and metrics.
 */

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <limits>
#include <malloc.h>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <time.h>
#include <vector>

#include "core/network.hpp"
#include "core/system.hpp"
#include "core/topology.hpp"
#include "electrical/cmesh.hpp"
#include "metrics/csv.hpp"
#include "metrics/runner.hpp"
#include "ml/pipeline.hpp"
#include "ml/policy.hpp"
#include "photonic/power_model.hpp"
#include "timed_layers.hpp"
#include "common/rng.hpp"
#include "traffic/suite.hpp"
#include "verify/invariants.hpp"

extern char **environ;

namespace perfbench {
namespace {

using namespace pearl;

// ---------------------------------------------------------------------
// Small helpers

/** Process CPU time, all threads, from the scheduler's nanosecond
 *  accounting (getrusage can be tick-granular, too coarse for the
 *  millisecond-scale set-up). */
double
cpuSeconds()
{
    timespec ts{};
    clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
    return double(ts.tv_sec) + double(ts.tv_nsec) * 1e-9;
}

double
wallSeconds()
{
    return double(nowNs()) * 1e-9;
}

/** Start a new peak-memory window: hand freed heap back to the system,
 *  then reset the kernel's resident high-water mark (VmHWM) to the
 *  current resident size.  Returns false if the mark could not be
 *  reset (the peak then spans the whole process). */
bool
resetPeakRss()
{
#ifdef __GLIBC__
    malloc_trim(0);
#endif
    std::ofstream clear("/proc/self/clear_refs");
    clear << "5";
    clear.close();
    return !clear.fail();
}

/** The kernel's resident high-water mark of this process, in MB. */
double
peakRssMb()
{
    std::ifstream in("/proc/self/status");
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind("VmHWM:", 0) == 0)
            return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
    return 0.0;
}

/** Linear-interpolated quantile of an unsorted sample, q in [0, 1]. */
double
quantile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const double pos = q * double(v.size() - 1);
    const std::size_t lo = static_cast<std::size_t>(std::floor(pos));
    const std::size_t hi = std::min(lo + 1, v.size() - 1);
    return v[lo] + (v[hi] - v[lo]) * (pos - double(lo));
}

double
median(const std::vector<double> &v)
{
    return quantile(v, 0.5);
}

/** The highest of a fixed set of percentiles that leaves at least ten
 *  samples beyond it (the median when no percentile does). */
double
tailPercentile(std::size_t samples)
{
    for (double p : {99.9, 99.0, 95.0, 90.0, 75.0}) {
        if (double(samples) * (1.0 - p / 100.0) >= 10.0)
            return p;
    }
    return 50.0;
}

std::uint64_t
fnv1a(const std::string &s, std::uint64_t h = 0xcbf29ce484222325ull)
{
    for (unsigned char c : s) {
        h ^= c;
        h *= 0x100000001b3ull;
    }
    return h;
}

std::string
hex64(std::uint64_t v)
{
    std::ostringstream os;
    os << std::hex << std::setw(16) << std::setfill('0') << v;
    return os.str();
}

std::string
jsonString(const std::string &s)
{
    std::string out = "\"";
    for (char c : s) {
        if (c == '"' || c == '\\') {
            out += '\\';
            out += c;
        } else if (static_cast<unsigned char>(c) < 0x20) {
            out += ' ';
        } else {
            out += c;
        }
    }
    return out + "\"";
}

std::string
jsonNumber(double v)
{
    if (!std::isfinite(v))
        return "null";
    std::ostringstream os;
    os << std::setprecision(17) << v;
    return os.str();
}

/** Digest of a run's simulated results: its canonical CSV rows. */
std::string
digestOf(const std::vector<metrics::RunMetrics> &runs)
{
    std::uint64_t h = 0xcbf29ce484222325ull;
    for (const metrics::RunMetrics &m : runs)
        h = fnv1a(metrics::csvRow({m.configName, m.pairLabel}, m) + "\n",
                  h);
    return hex64(h);
}

// ---------------------------------------------------------------------
// Command line

struct Args
{
    std::string workload;
    std::uint64_t seed = 0;
    bool seedGiven = false;
    double seconds = 10.0;
    bool trace = false;
    bool smoke = false;
    bool perturbDigest = false;
    std::string gitSha = "unknown";
    std::string sourceId = "unknown";
    std::string reportPath;
};

[[noreturn]] void
usage(const std::string &why)
{
    std::cerr << "pearl_perfbench: " << why << "\n"
              << "usage: pearl_perfbench --workload "
                 "<chip16_ml|scale128_hub|fig9_sweep> [--seed N] "
                 "[--seconds S] [--trace 0|1] [--git-sha SHA] "
                 "[--source-id ID] [--report PATH] [--smoke] "
                 "[--perturb-digest]\n";
    std::exit(2);
}

std::uint64_t
parseU64Arg(const std::string &flag, const std::string &v)
{
    if (v.empty() || v.find_first_not_of("0123456789") != std::string::npos)
        usage(flag + " needs a non-negative integer, got '" + v + "'");
    errno = 0;
    const unsigned long long n = std::strtoull(v.c_str(), nullptr, 10);
    if (errno == ERANGE)
        usage(flag + " is out of range: '" + v + "'");
    return n;
}

Args
parseArgs(int argc, char **argv)
{
    Args a;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (flag == "--smoke") {
            a.smoke = true;
            continue;
        }
        if (flag == "--perturb-digest") {
            a.perturbDigest = true;
            continue;
        }
        if (i + 1 >= argc)
            usage("missing value for " + flag);
        const std::string v = argv[++i];
        if (flag == "--workload") {
            a.workload = v;
        } else if (flag == "--seed") {
            a.seed = parseU64Arg(flag, v);
            a.seedGiven = true;
        } else if (flag == "--seconds") {
            const std::uint64_t s = parseU64Arg(flag, v);
            if (s < 1 || s > 3600)
                usage("--seconds must be in [1, 3600]");
            a.seconds = double(s);
        } else if (flag == "--trace") {
            if (v != "0" && v != "1")
                usage("--trace must be 0 or 1");
            a.trace = v == "1";
        } else if (flag == "--git-sha") {
            a.gitSha = v;
        } else if (flag == "--source-id") {
            a.sourceId = v;
        } else if (flag == "--report") {
            a.reportPath = v;
        } else {
            usage("unknown argument " + flag);
        }
    }
    if (a.workload.empty())
        usage("--workload is required");
    return a;
}

// ---------------------------------------------------------------------
// Workloads

struct Workload
{
    const char *name;
    std::uint64_t defaultSeed;
    bool sweep;      //!< a Runner::sweep grid (else Runner::run calls)
    bool usesMl;     //!< needs the trained ridge model
    /** Independent runs per repetition (single-run workloads), seeded
     *  deriveSeed(seed, k). */
    int subRuns;
    sim::Cycle warmup;
    sim::Cycle measure;
    /**
     * Multiplier on both transition rates of every profile's global
     * ON/OFF burst process (same ON fraction, phases this many times
     * shorter); 0 holds the profiles in their ON phase, 1 keeps the
     * paper's profiles.  The paper's phases last thousands of cycles,
     * so a run's host cost can depend on the bursts its seed draws: at
     * 128 clusters whether the hub saturates at all (1.7 s vs 8 s CPU
     * for the same 15 000 cycles), on the Figure 9 grid ~25% between
     * base seeds, and on the 16-cluster chip up to 5x between runs of
     * 50 000 cycles (0.11 to 0.57 s CPU), even with 10x shorter phases.
     * Every workload shortens or pins the phases.
     */
    double phaseScale;
};

// Why each workload exists, and the layer it stresses, is recorded in
// BENCHMARK.json and perfbench/README.md.
constexpr Workload kWorkloads[] = {
    {"chip16_ml", 100, false, true, 8, 2000, 10500, 0.0},
    {"scale128_hub", 1, false, false, 1, 3000, 3000, 0.0},
    {"fig9_sweep", 100, true, true, 1, 2000, 20000, 10.0},
};

void
scalePhases(traffic::BenchmarkProfile &p, double scale)
{
    if (scale == 0.0) {
        p.pOnToOff = 0.0;
        p.pOffToOn = 1.0;
    } else {
        p.pOnToOff *= scale;
        p.pOffToOn *= scale;
    }
}

const Workload &
findWorkload(const std::string &name)
{
    for (const Workload &w : kWorkloads) {
        if (name == w.name)
            return w;
    }
    usage("unknown workload '" + name + "'");
}

/** Job workers: one process and one lane for the single-run
 *  workloads; min(4, nproc) sweep workers for the grid. */
unsigned
threadsFor(const Workload &w)
{
    if (!w.sweep)
        return 1;
    const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
    return std::min(4u, hw);
}

/** The one fixed ML training config: small enough to repeat in set-up,
 *  the same as the golden suite's (tests/test_golden_metrics.cpp). */
ml::PipelineConfig
trainingConfig()
{
    ml::PipelineConfig cfg;
    cfg.reservationWindow = 500;
    cfg.simCycles = 4000;
    cfg.maxTrainPairs = 2;
    cfg.maxValPairs = 1;
    cfg.secondPass = false;
    cfg.lambdaGrid = {0.1, 10.0};
    return cfg;
}

std::unique_ptr<core::PowerPolicy>
staticWl64()
{
    return std::make_unique<core::StaticPolicy>(photonic::WlState::WL64);
}

/** The workload's run specs, in submission order. */
std::vector<metrics::RunSpec>
workloadSpecs(const Workload &w, const traffic::BenchmarkSuite &suite,
              const ml::RidgeRegression *model, std::uint64_t seed,
              double cycle_scale)
{
    metrics::RunOptions opts;
    opts.warmupCycles = std::max<sim::Cycle>(
        100, sim::Cycle(double(w.warmup) * cycle_scale));
    opts.measureCycles = std::max<sim::Cycle>(
        500, sim::Cycle(double(w.measure) * cycle_scale));
    opts.seed = seed;

    std::vector<metrics::RunSpec> specs;
    const std::string name = w.name;
    if (name == "chip16_ml") {
        for (int k = 0; k < w.subRuns; ++k) {
            metrics::RunSpec s;
            s.configName = name;
            s.pair = {suite.find("Rad"), suite.find("QRS")};
            s.options = opts;
            s.pearl.reservationWindow = 500;
            s.makePolicy = [model] {
                return std::make_unique<ml::MlPowerPolicy>(model);
            };
            s.explicitSeed = deriveSeed(seed, std::uint64_t(k));
            specs.push_back(std::move(s));
        }
    } else if (name == "scale128_hub") {
        core::TopologySpec topo;
        topo.clusters = 128;
        metrics::RunSpec s;
        s.configName = name;
        s.pair = {suite.find("FA"), suite.find("DCT")};
        s.options = opts;
        s.options.system = core::makeSystemConfig(topo);
        s.pearl = topo.pearlConfig();
        s.makePolicy = staticWl64;
        s.explicitSeed = seed;
        specs.push_back(std::move(s));
    } else {
        // A reduced Figure 9 grid: every other test pair, so each CPU
        // and GPU benchmark of the test set appears.
        const auto all = suite.testPairs();
        std::vector<traffic::BenchmarkPair> pairs;
        for (std::size_t i = 0; i < all.size(); i += 2)
            pairs.push_back(all[i]);
        const auto add = [&specs](std::vector<metrics::RunSpec> grid) {
            for (metrics::RunSpec &s : grid)
                specs.push_back(std::move(s));
        };
        core::PearlConfig cfg64;
        core::DbaConfig dba;
        core::DbaConfig fcfs;
        fcfs.mode = core::DbaConfig::Mode::Fcfs;
        core::PearlConfig rw500;
        rw500.reservationWindow = 500;
        ml::MlPolicyConfig no8wl;
        no8wl.enable8Wl = false;
        add(metrics::pearlGrid("PEARL-Dyn", pairs, cfg64, dba, staticWl64,
                               opts));
        add(metrics::pearlGrid("PEARL-FCFS", pairs, cfg64, fcfs,
                               staticWl64, opts));
        add(metrics::pearlGrid("Dyn RW500", pairs, rw500, dba,
                               [] {
                                   return std::make_unique<
                                       core::ReactivePolicy>();
                               },
                               opts));
        add(metrics::pearlGrid("ML RW500", pairs, rw500, dba,
                               [model, no8wl] {
                                   return std::make_unique<
                                       ml::MlPowerPolicy>(model, no8wl);
                               },
                               opts));
        add(metrics::cmeshGrid("CMESH", pairs, electrical::CmeshConfig{},
                               opts));
    }
    if (w.phaseScale != 1.0) {
        for (metrics::RunSpec &s : specs) {
            scalePhases(s.pair.cpu, w.phaseScale);
            scalePhases(s.pair.gpu, w.phaseScale);
        }
    }
    return specs;
}

metrics::Runner
makeRunner(unsigned threads, std::uint64_t base_seed)
{
    // Built explicitly, not from the environment: no trace, no dump,
    // no journal, no retries.
    metrics::RunnerOptions ro;
    ro.sweep.threads = threads;
    ro.sweep.baseSeed = base_seed;
    return metrics::Runner(ro);
}

// ---------------------------------------------------------------------
// Environment and build pinning

/** Knobs the simulator reads from the environment; all are cleared and
 *  PEARL_THREADS is set, so a user's shell cannot change the program
 *  being measured.  Returns the names that were cleared. */
std::vector<std::string>
pinEnvironment(unsigned threads)
{
    std::vector<std::string> names;
    for (char **e = environ; e && *e; ++e) {
        const std::string kv = *e;
        if (kv.rfind("PEARL_", 0) == 0)
            names.push_back(kv.substr(0, kv.find('=')));
    }
    for (const std::string &n : names)
        ::unsetenv(n.c_str());
    ::setenv("PEARL_THREADS", std::to_string(threads).c_str(), 1);
    names.erase(std::remove(names.begin(), names.end(), "PEARL_THREADS"),
                names.end());
    return names;
}

/** A Debug build installs the per-step invariant auditor and is a
 *  different program: refuse anything but an optimised Release build. */
void
checkBuild()
{
    bool ok = std::string(PERFBENCH_BUILD_TYPE) == "Release";
#ifndef NDEBUG
    ok = false;
#endif
    if (verify::runtimeChecksEnabled())
        ok = false;
    if (!ok) {
        std::cerr << "pearl_perfbench: refusing to measure a '"
                  << PERFBENCH_BUILD_TYPE
                  << "' build (needs CMAKE_BUILD_TYPE=Release, NDEBUG, "
                     "runtime invariant checks off)\n";
        std::exit(2);
    }
}

std::string
cpuModel()
{
    std::ifstream in("/proc/cpuinfo");
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind("model name", 0) == 0) {
            const auto colon = line.find(':');
            if (colon != std::string::npos)
                return line.substr(line.find_first_not_of(" ", colon + 1));
        }
    }
    return "unknown";
}

// ---------------------------------------------------------------------
// Golden rows

struct GoldenOutcome
{
    std::size_t rows = 0;
    std::size_t mismatches = 0;
    std::vector<std::string> messages;
};

bool
goldenDoubleMatches(double golden, double actual)
{
    // Same rule as tests/test_golden_metrics.cpp: exact up to a
    // printf/strtod last-ulp asymmetry.
    if (golden == actual)
        return true;
    const double scale = std::max(std::abs(golden), std::abs(actual));
    return std::abs(golden - actual) <= 1e-12 * scale;
}

void
compareGoldenFile(const std::string &stem,
                  const std::vector<metrics::RunMetrics> &runs,
                  GoldenOutcome &out)
{
    const std::string path =
        std::string(PERFBENCH_GOLDEN_DIR) + "/" + stem + ".csv";
    std::ifstream in(path);
    std::string line;
    if (!in || !std::getline(in, line)) {
        ++out.mismatches;
        out.messages.push_back("missing golden file " + path);
        return;
    }
    const std::vector<std::string> header = metrics::splitCsvLine(line);
    for (const metrics::RunMetrics &m : runs) {
        ++out.rows;
        const std::string where = stem + "/" + m.pairLabel;
        if (!std::getline(in, line)) {
            ++out.mismatches;
            out.messages.push_back(where + ": row missing in " + path);
            continue;
        }
        const std::vector<std::string> cells = metrics::splitCsvLine(line);
        const std::vector<metrics::MetricField> fields =
            metrics::metricFields(m);
        bool row_ok = cells.size() == fields.size() + 1 &&
                      header.size() == cells.size() &&
                      cells[0] == m.pairLabel;
        for (std::size_t i = 0; row_ok && i < fields.size(); ++i) {
            const metrics::MetricField &f = fields[i];
            if (header[i + 1] != f.name) {
                row_ok = false;
            } else if (f.isInteger) {
                row_ok = cells[i + 1] == std::to_string(f.u);
            } else {
                row_ok = goldenDoubleMatches(
                    std::strtod(cells[i + 1].c_str(), nullptr), f.d);
            }
            if (!row_ok) {
                out.messages.push_back(
                    where + " field " + f.name + ": golden " +
                    cells[i + 1] + " vs actual " +
                    metrics::formatMetricValue(f));
            }
        }
        if (!row_ok) {
            ++out.mismatches;
            if (out.messages.empty())
                out.messages.push_back(where + ": row shape differs");
        }
    }
}

/** Re-derive the fcfs, reactive and cmesh golden rows in-process with
 *  the settings of tests/test_golden_metrics.cpp. */
GoldenOutcome
checkGoldenRows(const traffic::BenchmarkSuite &suite)
{
    const std::vector<traffic::BenchmarkPair> pairs = {
        {suite.find("Rad"), suite.find("QRS")},
        {suite.find("FA"), suite.find("Reduc")},
        {suite.find("x264"), suite.find("DCT")},
    };
    metrics::RunOptions opts;
    opts.warmupCycles = 400;
    opts.measureCycles = 2500;
    core::PearlConfig rw500;
    rw500.reservationWindow = 500;
    core::DbaConfig fcfs;
    fcfs.mode = core::DbaConfig::Mode::Fcfs;

    const std::vector<std::pair<std::string, std::vector<metrics::RunSpec>>>
        grids = {
            {"fcfs",
             metrics::pearlGrid("fcfs", pairs, rw500, fcfs, staticWl64,
                                opts)},
            {"reactive",
             metrics::pearlGrid("reactive", pairs, rw500,
                                core::DbaConfig{},
                                [] {
                                    return std::make_unique<
                                        core::ReactivePolicy>();
                                },
                                opts)},
            {"cmesh", metrics::cmeshGrid("cmesh", pairs,
                                         electrical::CmeshConfig{}, opts)},
        };
    GoldenOutcome out;
    const metrics::Runner runner = makeRunner(1, 100);
    for (const auto &[stem, specs] : grids) {
        try {
            compareGoldenFile(stem, runner.runAll(specs), out);
        } catch (const std::exception &e) {
            out.rows += specs.size();
            out.mismatches += specs.size();
            out.messages.push_back(stem + ": " + e.what());
        }
    }
    return out;
}

// ---------------------------------------------------------------------
// Set-up: train the model, construct every distinct configuration

/** Set-up samples of one run.  The set-up takes milliseconds, so it is
 *  sampled a few times before the first repetition and again before
 *  every repetition: its median then spans the same stretch of host
 *  time as the repetitions do. */
struct SetupOutcome
{
    ml::PipelineResult trained; //!< the first training's model
    std::string modelText;      //!< ... saved, to compare later ones
    std::vector<double> trainS;
    std::vector<double> buildS;
    std::vector<double> setupS;
    bool deterministic = true;
};

std::string
modelText(const ml::RidgeRegression &model)
{
    std::ostringstream os;
    model.save(os);
    return os.str();
}

/** Construct the network and system of `spec` (as the run does) and
 *  tear them down again. */
void
constructOnly(const metrics::RunSpec &spec)
{
    core::SystemConfig sys = spec.options.system;
    sys.seed = spec.options.seed;
    if (spec.fabric == metrics::RunSpec::Fabric::Pearl) {
        std::unique_ptr<core::PowerPolicy> policy = spec.makePolicy();
        const photonic::PowerModel power;
        core::PearlNetwork net(spec.pearl, power, spec.dba, policy.get());
        core::HeteroSystem system(
            net, spec.pair, sys,
            [&net](int node) { return &net.telemetryOf(node); });
    } else {
        electrical::CmeshNetwork net(spec.cmesh);
        core::HeteroSystem system(net, spec.pair, sys);
    }
}

/** Train the model (ML workloads) and construct every distinct
 *  configuration `iterations` times, appending the timings to `out`. */
template <typename BuildAll>
void
runSetup(const Workload &w, const traffic::BenchmarkSuite &suite,
         int iterations, BuildAll &&build_all, SetupOutcome &out)
{
    for (int k = 0; k < iterations; ++k) {
        const double t0 = cpuSeconds();
        if (w.usesMl) {
            ml::PipelineResult r =
                ml::TrainingPipeline(suite, trainingConfig()).run();
            const std::string text = modelText(r.model);
            if (out.trainS.empty()) {
                out.modelText = text;
                out.trained = std::move(r);
            } else if (text != out.modelText) {
                out.deterministic = false;
            }
        }
        const double t1 = cpuSeconds();
        build_all(out.trained.model);
        const double t2 = cpuSeconds();
        out.trainS.push_back(t1 - t0);
        out.buildS.push_back(t2 - t1);
        out.setupS.push_back(t2 - t0);
    }
}

// ---------------------------------------------------------------------
// Untraced repetitions (the public entry points)

struct RepResult
{
    bool ok = false;
    std::string error;
    std::string digest;
    double cpuS = 0.0;
    double wallS = 0.0;
    double jobS = 0.0; //!< wall time summed over jobs
    std::uint64_t cycles = 0;  //!< simulated cycles, warmup included
    std::uint64_t packets = 0; //!< delivered packets, warmup included
    metrics::SweepSummary summary; //!< sweep workloads only
    std::vector<double> jobWallS;
    std::vector<double> cmeshJobWallS;
};

RepResult
untracedRep(const Workload &w, const metrics::Runner &runner,
            std::vector<metrics::RunSpec> specs)
{
    RepResult r;
    std::vector<obs::MetricsRegistry> registries(specs.size());
    for (std::size_t i = 0; i < specs.size(); ++i) {
        specs[i].options.registry = &registries[i];
        r.cycles += specs[i].options.warmupCycles +
                    specs[i].options.measureCycles;
    }
    std::vector<metrics::RunMetrics> runs;
    const double c0 = cpuSeconds();
    const double t0 = wallSeconds();
    try {
        if (w.sweep) {
            const metrics::SweepResult res = runner.sweep(specs);
            r.wallS = wallSeconds() - t0;
            r.cpuS = cpuSeconds() - c0;
            runs = res.metricsOrThrow();
            r.summary = res.summary;
            for (std::size_t i = 0; i < res.jobs.size(); ++i) {
                r.jobS += res.jobs[i].wallSeconds;
                r.jobWallS.push_back(res.jobs[i].wallSeconds);
                if (specs[i].fabric == metrics::RunSpec::Fabric::Cmesh)
                    r.cmeshJobWallS.push_back(res.jobs[i].wallSeconds);
            }
        } else {
            for (const metrics::RunSpec &s : specs)
                runs.push_back(runner.run(s));
            r.wallS = wallSeconds() - t0;
            r.cpuS = cpuSeconds() - c0;
            r.jobS = r.wallS;
        }
    } catch (const std::exception &e) {
        r.error = e.what();
        return r;
    }
    for (const obs::MetricsRegistry &reg : registries) {
        const auto it = reg.counters().find("net.delivered_packets");
        r.packets += it == reg.counters().end() ? 0 : it->second;
    }
    r.digest = digestOf(runs);
    r.ok = r.packets > 0;
    if (!r.ok)
        r.error = "no packets delivered";
    return r;
}

// ---------------------------------------------------------------------
// Traced repetitions (decorated layers)

/** Everything one traced job records. */
struct JobTrace
{
    LayerClock clock;
    bool photonic = false;
    std::vector<WindowSpan> spans;
    std::int64_t runNs = 0;   //!< wall time of the HeteroSystem::run loop
    std::int64_t buildNs = 0;
    cache::L3Stats l3;
    cache::ClusterStats cluster;
};

/** Drive HeteroSystem::run in reservation-window chunks, one span per
 *  chunk.  `sample` fills the span's population fields after it ends. */
template <typename Sample>
void
runWindows(core::HeteroSystem &system, sim::Network &net, sim::Cycle rw,
           sim::Cycle cycles, JobTrace &out, Sample &&sample)
{
    const std::int64_t t_run = nowNs();
    for (sim::Cycle done = 0; done < cycles;) {
        const sim::Cycle chunk =
            std::min<sim::Cycle>(rw - net.cycle() % rw, cycles - done);
        const LayerClock before = out.clock;
        WindowSpan s;
        s.startNs = nowNs();
        system.run(chunk);
        s.durNs = nowNs() - s.startNs;
        s.stepNs = out.clock.stepNs - before.stepNs;
        s.injectNs = out.clock.injectNs - before.injectNs;
        s.policyNs = out.clock.policyNs - before.policyNs;
        s.photonic = out.photonic;
        sample(s);
        for (int n = 0; n < net.numNodes(); ++n)
            s.outboxDepth += system.outboxDepth(n);
        out.spans.push_back(s);
        done += chunk;
    }
    out.runNs += nowNs() - t_run;
}

/** Counter snapshot after warmup, mirroring metrics::runPearl. */
struct WarmSnapshot
{
    std::uint64_t packets = 0, flits = 0, bits = 0, cpu = 0, gpu = 0;
    double energyJ = 0.0, laserJ = 0.0;
    std::uint64_t corrupted = 0, resDrops = 0, retransmitted = 0,
                  timeouts = 0, dropped = 0, unlocked = 0;

    static WarmSnapshot
    of(const sim::NetworkStats &s, double energy, double laser)
    {
        WarmSnapshot w;
        w.packets = s.deliveredPackets();
        w.flits = s.deliveredFlits();
        w.bits = s.deliveredBits();
        w.cpu = s.cpuDeliveredPackets();
        w.gpu = s.gpuDeliveredPackets();
        w.energyJ = energy;
        w.laserJ = laser;
        w.corrupted = s.corruptedPackets();
        w.resDrops = s.reservationDrops();
        w.retransmitted = s.retransmittedPackets();
        w.timeouts = s.ackTimeouts();
        w.dropped = s.droppedPackets();
        w.unlocked = s.thermalUnlockedCycles();
        return w;
    }
};

/** The canonical-CSV fields of RunMetrics, computed exactly as
 *  metrics::runPearl / runCmesh compute them, so that the traced
 *  replica's digest can be compared with the untraced run's. */
metrics::RunMetrics
collectMetrics(const metrics::RunSpec &spec, const sim::NetworkStats &stats,
               const WarmSnapshot &warm, double cycle_seconds,
               double total_energy)
{
    const sim::Cycle measure = spec.options.measureCycles;
    metrics::RunMetrics m;
    m.configName = spec.configName;
    m.pairLabel = spec.pair.label();
    m.cycles = measure;
    m.deliveredPackets = stats.deliveredPackets() - warm.packets;
    m.deliveredFlits = stats.deliveredFlits() - warm.flits;
    m.deliveredBits = stats.deliveredBits() - warm.bits;
    m.cpuPackets = stats.cpuDeliveredPackets() - warm.cpu;
    m.gpuPackets = stats.gpuDeliveredPackets() - warm.gpu;
    m.throughputFlitsPerCycle =
        measure ? static_cast<double>(m.deliveredFlits) /
                      static_cast<double>(measure)
                : 0.0;
    m.throughputGbps = measure ? static_cast<double>(m.deliveredBits) /
                                     (measure * cycle_seconds) * 1e-9
                               : 0.0;
    m.avgLatencyCycles = stats.avgLatency();
    m.cpuLatencyCycles = stats.avgLatency(sim::CoreType::CPU);
    m.gpuLatencyCycles = stats.avgLatency(sim::CoreType::GPU);
    m.totalEnergyJ = total_energy - warm.energyJ;
    m.energyPerBitPj =
        m.deliveredBits
            ? m.totalEnergyJ / static_cast<double>(m.deliveredBits) * 1e12
            : 0.0;
    m.corruptedPackets = stats.corruptedPackets() - warm.corrupted;
    m.reservationDrops = stats.reservationDrops() - warm.resDrops;
    m.retransmittedPackets =
        stats.retransmittedPackets() - warm.retransmitted;
    m.ackTimeouts = stats.ackTimeouts() - warm.timeouts;
    m.droppedPackets = stats.droppedPackets() - warm.dropped;
    m.thermalUnlockedCycles = stats.thermalUnlockedCycles() - warm.unlocked;
    return m;
}

/** One job rebuilt with decorated layers (a RunSpec::custom runner). */
metrics::RunMetrics
tracedJob(const metrics::RunSpec &spec, std::uint64_t seed, JobTrace &out)
{
    core::SystemConfig sys = spec.options.system;
    sys.seed = seed;
    const sim::Cycle warmup = spec.options.warmupCycles;
    const sim::Cycle measure = spec.options.measureCycles;
    metrics::RunMetrics m;

    if (spec.fabric == metrics::RunSpec::Fabric::Pearl) {
        out.photonic = true;
        std::unique_ptr<core::PowerPolicy> policy = spec.makePolicy();
        TimedPolicy timed_policy(*policy, out.clock);
        const std::int64_t t_build = nowNs();
        const photonic::PowerModel power;
        core::PearlNetwork net(spec.pearl, power, spec.dba, &timed_policy);
        TimedNetwork timed(net, out.clock);
        core::HeteroSystem system(
            timed, spec.pair, sys,
            [&net](int node) { return &net.telemetryOf(node); });
        out.buildNs = nowNs() - t_build;

        const auto sample = [&net](WindowSpan &s) {
            const core::AuditCounts c = net.auditCounts();
            s.inFlight = c.inFlight;
            s.buffered = c.buffered;
        };
        const sim::Cycle rw = spec.pearl.reservationWindow;
        runWindows(system, timed, rw, warmup, out, sample);
        const WarmSnapshot warm = WarmSnapshot::of(
            net.stats(), net.totalEnergyJ(), net.laserEnergyJ());
        runWindows(system, timed, rw, measure, out, sample);

        m = collectMetrics(spec, net.stats(), warm, spec.pearl.cycleSeconds,
                           net.totalEnergyJ());
        m.laserPowerW = (net.laserEnergyJ() - warm.laserJ) /
                        (static_cast<double>(measure) *
                         spec.pearl.cycleSeconds);
        for (int s = 0; s < photonic::kNumWlStates; ++s) {
            m.residency[static_cast<std::size_t>(s)] =
                net.residency(photonic::stateFromIndex(s));
        }
        out.l3 = system.aggregateL3Stats();
        out.cluster = system.aggregateClusterStats();
    } else {
        const std::int64_t t_build = nowNs();
        electrical::CmeshNetwork net(spec.cmesh);
        TimedNetwork timed(net, out.clock);
        core::HeteroSystem system(timed, spec.pair, sys);
        out.buildNs = nowNs() - t_build;

        const auto sample = [](WindowSpan &) {};
        const double dt = sys.arch.networkCycleSeconds();
        runWindows(system, timed, 500, warmup, out, sample);
        const WarmSnapshot warm =
            WarmSnapshot::of(net.stats(), net.totalEnergyJ(dt), 0.0);
        runWindows(system, timed, 500, measure, out, sample);
        m = collectMetrics(spec, net.stats(), warm, dt,
                           net.totalEnergyJ(dt));
        out.l3 = system.aggregateL3Stats();
        out.cluster = system.aggregateClusterStats();
    }
    return m;
}

/** Per-layer totals of one traced repetition. */
struct TraceRep
{
    bool ok = false;
    std::string error;
    std::string digest;
    double cpuS = 0.0;

    LayerClock pearl;  //!< summed over PEARL jobs
    LayerClock cmesh;  //!< summed over CMESH jobs
    double systemSelfS = 0.0;
    double layerSumS = 0.0; //!< sum of all layers' self times
    double runS = 0.0;      //!< traced HeteroSystem::run time
    double spanS = 0.0;     //!< sum of the window spans' durations
    bool negativeSelf = false;
    std::vector<double> windowUs;
    double inFlightSum = 0.0, bufferedSum = 0.0;
    std::uint64_t inFlightMax = 0, photonicSamples = 0;
    double outboxSum = 0.0;
    std::uint64_t samples = 0;
    double buildS = 0.0;
    std::vector<std::vector<WindowSpan>> jobSpans; //!< kept for the file

    std::uint64_t deliveredPackets = 0; //!< PEARL jobs, measure window
    double latencySum = 0.0, laserSum = 0.0, energyPerBitSum = 0.0;
    int photonicJobs = 0;
    std::uint64_t l3Hits = 0, l3Misses = 0, clusterAccesses = 0;
};

TraceRep
tracedRep(const Workload &w, const metrics::Runner &runner,
          std::vector<metrics::RunSpec> specs)
{
    TraceRep r;
    // One slot per job, written only by the job's own worker.
    std::vector<JobTrace> slots(specs.size());
    for (std::size_t i = 0; i < specs.size(); ++i) {
        JobTrace *slot = &slots[i];
        specs[i].custom = [slot](const metrics::RunSpec &s,
                                 std::uint64_t seed) {
            return tracedJob(s, seed, *slot);
        };
    }
    std::uint64_t cycles = 0;
    for (const metrics::RunSpec &s : specs)
        cycles += s.options.warmupCycles + s.options.measureCycles;
    std::vector<metrics::RunMetrics> runs;
    const double c0 = cpuSeconds();
    try {
        if (w.sweep) {
            runs = runner.sweep(specs).metricsOrThrow();
        } else {
            for (const metrics::RunSpec &s : specs)
                runs.push_back(runner.run(s));
        }
    } catch (const std::exception &e) {
        r.error = e.what();
        return r;
    }
    r.cpuS = cpuSeconds() - c0;
    r.digest = digestOf(runs);

    for (std::size_t i = 0; i < slots.size(); ++i) {
        JobTrace &j = slots[i];
        LayerClock &sum = j.photonic ? r.pearl : r.cmesh;
        sum.stepNs += j.clock.stepNs;
        sum.injectNs += j.clock.injectNs;
        sum.policyNs += j.clock.policyNs;
        sum.steps += j.clock.steps;
        sum.idleCycles += j.clock.idleCycles;
        sum.injectAttempts += j.clock.injectAttempts;
        sum.injectAccepted += j.clock.injectAccepted;
        sum.decisions += j.clock.decisions;
        r.runS += double(j.runNs) * 1e-9;
        r.buildS += double(j.buildNs) * 1e-9;
        for (const WindowSpan &s : j.spans) {
            const std::int64_t system_self = s.durNs - s.stepNs - s.injectNs;
            const std::int64_t step_self = s.stepNs - s.policyNs;
            if (system_self < 0 || step_self < 0)
                r.negativeSelf = true;
            r.systemSelfS += double(system_self) * 1e-9;
            r.layerSumS += double(system_self + step_self + s.policyNs +
                                  s.injectNs) *
                           1e-9;
            r.spanS += double(s.durNs) * 1e-9;
            r.windowUs.push_back(double(s.durNs) * 1e-3);
            r.outboxSum += double(s.outboxDepth);
            ++r.samples;
            if (s.photonic) {
                r.inFlightSum += double(s.inFlight);
                r.bufferedSum += double(s.buffered);
                r.inFlightMax = std::max(r.inFlightMax, s.inFlight);
                ++r.photonicSamples;
            }
        }
        r.l3Hits += j.l3.hits;
        r.l3Misses += j.l3.misses;
        for (int t = 0; t < sim::kNumCoreTypes; ++t)
            r.clusterAccesses += j.cluster.accesses[t];
        if (j.photonic) {
            const metrics::RunMetrics &m = runs[i];
            r.deliveredPackets += m.deliveredPackets;
            r.latencySum += m.avgLatencyCycles;
            r.laserSum += m.laserPowerW;
            r.energyPerBitSum += m.energyPerBitPj;
            ++r.photonicJobs;
        }
        r.jobSpans.push_back(std::move(j.spans));
    }
    // Every simulated cycle must pass through the decorated network,
    // stepped or skipped idle, or the layer times miss part of the run.
    const std::uint64_t seen = r.pearl.steps + r.pearl.idleCycles +
                               r.cmesh.steps + r.cmesh.idleCycles;
    if (seen != cycles) {
        r.error = "decorated network saw " + std::to_string(seen) +
                  " cycles, the jobs simulate " + std::to_string(cycles);
        return r;
    }
    r.ok = true;
    return r;
}

/** Write the window spans of one traced repetition as a Chrome trace
 *  (one track per job; the children are carried as arguments because
 *  they are aggregates, not positioned calls). */
void
writeSpans(const std::string &path, const TraceRep &rep)
{
    std::ofstream os(path);
    if (!os) {
        std::cerr << "pearl_perfbench: cannot write " << path << "\n";
        return;
    }
    std::int64_t origin = std::numeric_limits<std::int64_t>::max();
    for (const auto &job : rep.jobSpans) {
        if (!job.empty())
            origin = std::min(origin, job.front().startNs);
    }
    os << "{\"traceEvents\": [";
    bool first = true;
    for (std::size_t j = 0; j < rep.jobSpans.size(); ++j) {
        for (const WindowSpan &s : rep.jobSpans[j]) {
            os << (first ? "\n" : ",\n") << "{\"name\": \"HeteroSystem::run "
               << "window\", \"ph\": \"X\", \"pid\": 1, \"tid\": " << j
               << ", \"ts\": " << jsonNumber(double(s.startNs - origin) * 1e-3)
               << ", \"dur\": " << jsonNumber(double(s.durNs) * 1e-3)
               << ", \"args\": {\"network_step_us\": "
               << jsonNumber(double(s.stepNs) * 1e-3)
               << ", \"network_inject_us\": "
               << jsonNumber(double(s.injectNs) * 1e-3)
               << ", \"policy_us\": " << jsonNumber(double(s.policyNs) * 1e-3)
               << ", \"photonic\": " << (s.photonic ? "true" : "false")
               << ", \"in_flight\": " << s.inFlight
               << ", \"buffered\": " << s.buffered
               << ", \"outbox_depth\": " << s.outboxDepth << "}}";
            first = false;
        }
    }
    os << "\n]}\n";
}

// ---------------------------------------------------------------------
// Report

struct Metric
{
    std::string name;
    double value;
    std::string unit;
};

/** Span coverage: the window spans must cover the traced
 *  HeteroSystem::run time to within 5% (population sampling between
 *  spans is the only time outside them), and no self time may be
 *  negative.  The self times add up to the spans by construction, so
 *  this checks coverage, not attribution. */
constexpr double kLayerSumMin = 0.95;
constexpr double kLayerSumMax = 1.0 + 1e-9;
/** The spans' total plus construction against the wall time of an
 *  untraced run of the same jobs: at least 0.8 of it, at most 1.2 times
 *  it scaled by the measured trace overhead. */
constexpr double kSpanUntracedMin = 0.8;
constexpr double kSpanUntracedSlack = 1.2;

int
run(const Args &args)
{
    const Workload &w = findWorkload(args.workload);
    const unsigned threads = threadsFor(w);
    const std::vector<std::string> cleared = pinEnvironment(threads);
    checkBuild();

    const std::uint64_t seed = args.seedGiven ? args.seed : w.defaultSeed;
    const double cycle_scale = args.smoke ? 0.02 : 1.0;
    const int setup_first = args.smoke ? 1 : 5;
    const int setup_per_rep = args.smoke ? 1 : 2;

    std::ostringstream fp;
    fp << "{\"workload\": " << jsonString(w.name)
       << ", \"seed\": " << seed << ", \"seed_default\": " << w.defaultSeed
       << ", \"seconds\": " << jsonNumber(args.seconds)
       << ", \"trace\": " << (args.trace ? 1 : 0)
       << ", \"smoke\": " << (args.smoke ? "true" : "false")
       << ", \"cpu_model\": " << jsonString(cpuModel())
       << ", \"nproc\": " << std::thread::hardware_concurrency()
       << ", \"compiler\": " << jsonString(PERFBENCH_COMPILER)
       << ", \"build_type\": " << jsonString(PERFBENCH_BUILD_TYPE)
       << ", \"git_sha\": " << jsonString(args.gitSha)
       << ", \"source_id\": " << jsonString(args.sourceId)
       << ", \"threads\": " << threads << ", \"cleared_env\": [";
    for (std::size_t i = 0; i < cleared.size(); ++i)
        fp << (i ? ", " : "") << jsonString(cleared[i]);
    fp << "]}";
    std::cout << "# fingerprint " << fp.str() << "\n" << std::flush;

    std::size_t attempted = 0;
    std::size_t failed = 0;
    bool correct = true;
    std::vector<std::string> problems;

    traffic::BenchmarkSuite suite;

    // 1. Golden rows: the simulator must still be the one the goldens
    //    pin before any of its timings are trusted.
    const GoldenOutcome golden = checkGoldenRows(suite);
    attempted += golden.rows;
    failed += golden.mismatches;
    if (golden.mismatches) {
        correct = false;
        for (const std::string &m : golden.messages)
            problems.push_back("golden: " + m);
    }
    std::cout << "# golden rows checked: " << golden.rows
              << ", mismatches: " << golden.mismatches << "\n";

    // 2. Set-up, repeated; the median is reported.
    const auto build_all = [&](const ml::RidgeRegression &model) {
        const std::vector<metrics::RunSpec> all =
            workloadSpecs(w, suite, &model, seed, cycle_scale);
        std::vector<std::string> seen;
        for (const metrics::RunSpec &s : all) {
            if (std::find(seen.begin(), seen.end(), s.configName) !=
                seen.end())
                continue;
            seen.push_back(s.configName);
            constructOnly(s);
        }
    };
    SetupOutcome setup;
    runSetup(w, suite, setup_first, build_all, setup);
    const std::vector<metrics::RunSpec> specs =
        workloadSpecs(w, suite, &setup.trained.model, seed, cycle_scale);
    const metrics::Runner runner = makeRunner(threads, seed);

    // 3. Repetitions until --seconds have passed.
    std::vector<RepResult> reps;
    std::vector<TraceRep> traced;
    std::string reference;
    const auto check_digest = [&](std::string digest, bool ok,
                                  const std::string &error,
                                  std::size_t index) {
        ++attempted;
        // Self-test of this check: corrupt the second rep's digest.
        if (args.perturbDigest && index == 1 && !digest.empty())
            digest[0] = digest[0] == '0' ? '1' : '0';
        if (!ok) {
            ++failed;
            correct = false;
            problems.push_back("rep failed: " + error);
            return;
        }
        if (reference.empty())
            reference = digest;
        if (digest != reference) {
            ++failed;
            correct = false;
            problems.push_back("digest " + digest + " differs from " +
                               reference);
        }
    };
    const std::size_t min_reps = args.smoke ? 1 : (args.trace ? 2 : 3);
    // Peak memory of the workload's own repetitions: the high-water
    // mark is reset after the golden check and every set-up, and read
    // after every untraced repetition.  Traced repetitions start from
    // the same reset, so that both kinds pay the same page faults and
    // trace overhead compares like with like.
    double peak_rss_mb = 0.0;
    bool rss_reset = true;
    const double t_start = wallSeconds();
    for (std::size_t i = 0;; ++i) {
        const bool enough = reps.size() >= min_reps &&
                            (!args.trace || traced.size() >= min_reps);
        if (enough && wallSeconds() - t_start >= args.seconds)
            break;
        runSetup(w, suite, setup_per_rep, build_all, setup);
        rss_reset = resetPeakRss() && rss_reset;
        if (!args.trace || i % 2 == 0) {
            reps.push_back(untracedRep(w, runner, specs));
            peak_rss_mb = std::max(peak_rss_mb, peakRssMb());
            const RepResult &r = reps.back();
            check_digest(r.digest, r.ok, r.error, i);
            std::cout << "# rep " << i << " untraced: cpu_s "
                      << jsonNumber(r.cpuS) << ", wall_s "
                      << jsonNumber(r.wallS) << ", packets " << r.packets
                      << "\n";
        } else {
            traced.push_back(tracedRep(w, runner, specs));
            const TraceRep &t = traced.back();
            check_digest(t.digest, t.ok, t.error, i);
            std::cout << "# rep " << i << " traced: cpu_s "
                      << jsonNumber(t.cpuS) << "\n";
        }
    }

    if (!setup.deterministic) {
        correct = false;
        problems.push_back("ML training is not deterministic");
    }

    if (!rss_reset) {
        std::cout << "# warning: /proc/self/clear_refs not writable; "
                     "peak_rss_mb is the whole process's peak\n";
    }

    std::vector<double> cps, nspp, wall, cpu, job;
    for (const RepResult &r : reps) {
        if (!r.ok)
            continue;
        cps.push_back(double(r.cycles) / r.cpuS);
        nspp.push_back(r.cpuS * 1e9 / double(r.packets));
        wall.push_back(r.wallS);
        cpu.push_back(r.cpuS);
        job.push_back(r.jobS);
    }

    std::vector<Metric> out;
    if (!args.trace) {
        out.push_back({"sim_cycles_per_cpu_s", median(cps), "cycles/s"});
        out.push_back({"host_ns_per_packet", median(nspp), "ns"});
        out.push_back({"sweep_wall_s", median(wall), "s"});
        out.push_back({"setup_s", median(setup.setupS), "s"});
        out.push_back({"peak_rss_mb", peak_rss_mb, "MB"});
    } else {
        std::vector<TraceRep> good;
        for (const TraceRep &t : traced) {
            if (t.ok)
                good.push_back(t);
        }
        const auto med = [&good](auto get) {
            std::vector<double> v;
            for (const TraceRep &t : good)
                v.push_back(get(t));
            return median(v);
        };
        const auto ratio = [](double a, double b) {
            return b > 0.0 ? a / b : 0.0;
        };
        std::vector<double> windows;
        for (const TraceRep &t : good)
            windows.insert(windows.end(), t.windowUs.begin(),
                           t.windowUs.end());
        const double tail_pct = tailPercentile(windows.size());
        const TraceRep last = good.empty() ? TraceRep{} : good.back();

        bool negative = false;
        for (const TraceRep &t : good)
            negative = negative || t.negativeSelf;
        const double layer_sum = med([&](const TraceRep &t) {
            return ratio(t.layerSumS, t.runS);
        });
        if (good.empty() || negative || layer_sum < kLayerSumMin ||
            layer_sum > kLayerSumMax) {
            correct = false;
            problems.push_back("window spans do not cover the traced "
                               "run time (ratio " +
                               jsonNumber(layer_sum) + ")");
        }
        // The spans must also account for the time an untraced run of
        // the same jobs takes, give or take the trace overhead: spans
        // that miss or double-count work fail here.
        const double overhead = ratio(
            med([](const TraceRep &t) { return t.cpuS; }), median(cpu));
        const double span_untraced = ratio(
            med([](const TraceRep &t) { return t.spanS + t.buildS; }),
            median(job));
        if (span_untraced < kSpanUntracedMin ||
            span_untraced > kSpanUntracedSlack * std::max(1.0, overhead)) {
            correct = false;
            problems.push_back("window spans total " +
                               jsonNumber(span_untraced) +
                               "x the untraced job time, trace overhead " +
                               jsonNumber(overhead));
        }

        // Sweep-layer figures come from the untraced Runner::sweep.
        std::vector<double> job_p50, job_p75, busy, retries, build, runp,
            cmesh_p50;
        for (const RepResult &r : reps) {
            if (!r.ok || !w.sweep)
                continue;
            job_p50.push_back(quantile(r.jobWallS, 0.5));
            job_p75.push_back(quantile(r.jobWallS, 0.75));
            busy.push_back(ratio(r.summary.aggregateJobSeconds,
                                 double(r.summary.threads) *
                                     r.summary.wallSeconds));
            retries.push_back(double(r.summary.retries));
            build.push_back(r.summary.phaseSeconds.buildSeconds);
            runp.push_back(r.summary.phaseSeconds.runSeconds);
            cmesh_p50.push_back(quantile(r.cmeshJobWallS, 0.5));
        }

        const double ns = 1e-9;
        out = {
            {"core.system.self_s",
             med([](const TraceRep &t) { return t.systemSelfS; }), "s"},
            {"core.system.window_us_p50", median(windows), "us"},
            {"core.system.window_us_tail",
             quantile(windows, tail_pct / 100.0), "us"},
            {"core.system.window_tail_pct", tail_pct, "%"},
            {"core.system.windows", double(windows.size()), "count"},
            {"core.system.outbox_depth_mean",
             med([&](const TraceRep &t) {
                 return ratio(t.outboxSum, double(t.samples));
             }),
             "packets"},
            {"core.network.step_self_s", med([&](const TraceRep &t) {
                 return double(t.pearl.stepNs - t.pearl.policyNs) * ns;
             }),
             "s"},
            {"core.network.steps", double(last.pearl.steps), "count"},
            {"core.network.inflight_mean", med([&](const TraceRep &t) {
                 return ratio(t.inFlightSum, double(t.photonicSamples));
             }),
             "packets"},
            {"core.network.inflight_max", double(last.inFlightMax),
             "packets"},
            {"core.network.buffered_mean", med([&](const TraceRep &t) {
                 return ratio(t.bufferedSum, double(t.photonicSamples));
             }),
             "packets"},
            {"core.network.inject_s", med([&](const TraceRep &t) {
                 return double(t.pearl.injectNs) * ns;
             }),
             "s"},
            {"core.network.inject_attempts",
             double(last.pearl.injectAttempts), "count"},
            {"core.network.inject_accept_ratio",
             ratio(double(last.pearl.injectAccepted),
                   double(last.pearl.injectAttempts)),
             "ratio"},
            {"core.policy.decide_s", med([&](const TraceRep &t) {
                 return double(t.pearl.policyNs) * ns;
             }),
             "s"},
            {"core.policy.decisions", double(last.pearl.decisions),
             "count"},
            {"ml.train_s", w.usesMl ? median(setup.trainS) : 0.0, "s"},
            {"core.build_s", median(setup.buildS), "s"},
            {"metrics.sweep.job_s_p50", median(job_p50), "s"},
            {"metrics.sweep.job_s_p75", median(job_p75), "s"},
            {"metrics.sweep.lane_busy_ratio", median(busy), "ratio"},
            {"metrics.sweep.retries", median(retries), "count"},
            {"metrics.sweep.phase_build_s", median(build), "s"},
            {"metrics.sweep.phase_run_s", median(runp), "s"},
            {"electrical.cmesh.step_s", med([&](const TraceRep &t) {
                 return double(t.cmesh.stepNs) * ns;
             }),
             "s"},
            {"electrical.cmesh.job_s_p50", median(cmesh_p50), "s"},
            {"core.network.delivered_packets",
             double(last.deliveredPackets), "count"},
            {"core.network.avg_latency_cycles",
             ratio(last.latencySum, double(last.photonicJobs)), "cycles"},
            {"photonic.laser_power_w",
             ratio(last.laserSum, double(last.photonicJobs)), "W"},
            {"photonic.energy_per_bit_pj",
             ratio(last.energyPerBitSum, double(last.photonicJobs)),
             "pJ/bit"},
            {"cache.l3.hit_rate",
             ratio(double(last.l3Hits),
                   double(last.l3Hits + last.l3Misses)),
             "ratio"},
            {"cache.cluster.accesses", double(last.clusterAccesses),
             "count"},
            {"bench.trace_overhead_ratio", overhead, "ratio"},
            {"bench.layer_sum_ratio", layer_sum, "ratio"},
            {"bench.span_untraced_ratio", span_untraced, "ratio"},
        };
    }

    for (const std::string &p : problems)
        std::cout << "# problem: " << p << "\n";
    std::cout << "# reps: untraced " << reps.size() << ", traced "
              << traced.size() << ", digest " << reference << "\n";
    for (const Metric &m : out) {
        std::cout << "# metric " << m.name << " = " << jsonNumber(m.value)
                  << " " << m.unit << "\n";
    }

    std::ostringstream result;
    result << "{\"correct\": " << (correct ? "true" : "false")
           << ", \"attempted\": " << attempted << ", \"failed\": " << failed
           << ", \"metrics\": {";
    for (std::size_t i = 0; i < out.size(); ++i) {
        result << (i ? ", " : "") << jsonString(out[i].name)
               << ": {\"value\": " << jsonNumber(out[i].value)
               << ", \"unit\": " << jsonString(out[i].unit) << "}";
    }
    result << "}}";

    if (!args.reportPath.empty()) {
        std::ofstream rep(args.reportPath);
        rep << "{\"fingerprint\": " << fp.str() << ", \"digest\": "
            << jsonString(reference) << ", \"untraced_reps\": "
            << reps.size() << ", \"traced_reps\": " << traced.size()
            << ", \"problems\": [";
        for (std::size_t i = 0; i < problems.size(); ++i)
            rep << (i ? ", " : "") << jsonString(problems[i]);
        rep << "], \"result\": " << result.str() << "}\n";
        if (!traced.empty())
            writeSpans(args.reportPath + ".spans.json", traced.back());
    }
    std::cout << result.str() << std::endl;
    return 0;
}

} // namespace
} // namespace perfbench

int
main(int argc, char **argv)
{
    return perfbench::run(perfbench::parseArgs(argc, argv));
}
