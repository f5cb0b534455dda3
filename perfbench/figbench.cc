/**
 * @file
 * One measured repetition of a figure-reproduction workload.
 *
 *   figbench --workload W --seed N --root DIR --golden FILE
 *            [--trace] [--setup-only | --cold-only] [--slice N]
 *            [--emit-golden FILE]
 *
 * perfbench/run.py starts this program in a fresh process per
 * repetition, so ru_maxrss and the process-wide checkpoint memory tier
 * start empty. Everything it writes lives under --root, which the caller
 * creates empty and removes afterwards.
 *
 * The program only calls the public g5art API — Workspace items,
 * Gem5Run::createFSRun, SweepJournal::submit, Tasks::waitAll, reopening
 * the Database, GpuModel::run — and times those calls itself. Every
 * cell's outcome is compared with a frozen golden; a mismatch counts as
 * a failed cell. With --trace it also records the program's spans and
 * reduces them, with metrics::snapshot() deltas, to a per-layer table.
 *
 * The last stdout line is one JSON object: phase times, the attempted
 * and failed cell counts, the host record, and (traced) the layers.
 */

#include <sys/resource.h>
#include <sys/statfs.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <fstream>
#include <map>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "art/sweep.hh"
#include "art/tasks.hh"
#include "art/workspace.hh"
#include "base/logging.hh"
#include "base/md5.hh"
#include "base/metrics.hh"
#include "base/tracing.hh"
#include "base/wallclock.hh"
#include "resources/catalog.hh"
#include "scheduler/worker_pool.hh"
#include "sim/fs/known_issues.hh"
#include "sim/gpu/gpu.hh"
#include "workloads/gpu_apps.hh"
#include "workloads/parsec.hh"

#ifndef G5_BUILD_TYPE
#define G5_BUILD_TYPE "unknown"
#endif

namespace stdfs = std::filesystem;
using namespace g5;
using namespace g5::art;

namespace
{

/** Fixed thread (and G5_WORKERS process) count: at the host default
 *  the figures swing with whatever else the machine runs. */
constexpr unsigned threads = 2;

/**
 * boot-census relaunches the archived sweep this many times, growing
 * the runs collection to 5,280 documents: where index cost shows. The
 * other workloads are cold only (parsec-timing's relaunch is ~7 ms, GPU
 * runs have no run cache yet).
 */
constexpr int bootRelaunches = 10;

struct Options
{
    std::string workload;
    std::uint64_t seed = 1;
    std::string root;
    std::string golden;
    std::string emitGolden;
    bool trace = false;
    bool setupOnly = false;
    bool coldOnly = false;
    std::size_t slice = 0; ///< 0 = every cell
};

/** One cell of a figure: a data point the golden pins. */
struct Cell
{
    std::string name;
    std::string cpu;    ///< FS cells: CPU model
    std::string kernel; ///< FS cells: item key of the kernel
    std::string disk;   ///< FS cells: item key of the disk image
    Json params;        ///< FS cells: run-script parameters
    const workloads::GpuAppEntry *app = nullptr; ///< GPU cells
    sim::gpu::RegAllocPolicy policy = sim::gpu::RegAllocPolicy::Simple;
};

/** Times named calls into the program and, while tracing, records a
 *  span around each so the trace shows the benchmark's own boundaries. */
struct Ledger
{
    std::map<std::string, double> seconds;

    class Timed
    {
      public:
        Timed(Ledger &l, const std::string &key)
            : acc(l.seconds[key]), start(monotonicSeconds())
        {
            if (tracing::enabled())
                span.emplace("bench:" + key, "bench");
        }
        ~Timed() { acc += monotonicSeconds() - start; }

        Timed(const Timed &) = delete;
        Timed &operator=(const Timed &) = delete;

      private:
        double &acc;
        double start;
        std::optional<tracing::Span> span;
    };
};

std::uint64_t
splitmix64(std::uint64_t &state)
{
    std::uint64_t z = (state += 0x9E3779B97F4A7C15ull);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
}

/** Seeded Fisher-Yates: the seed picks the submission order only. */
void
permute(std::vector<Cell> &cells, std::uint64_t seed)
{
    std::uint64_t state = seed;
    for (std::size_t i = cells.size(); i > 1; --i)
        std::swap(cells[i - 1], cells[splitmix64(state) % i]);
}

/** Every N-th cell of the canonical order (the self-test's slice). */
void
sliceCells(std::vector<Cell> &cells, std::size_t n)
{
    if (n == 0 || n >= cells.size())
        return;
    std::vector<Cell> kept;
    for (std::size_t i = 0; i < n; ++i)
        kept.push_back(cells[i * cells.size() / n]);
    cells = std::move(kept);
}

std::vector<Cell>
bootCells()
{
    std::vector<Cell> cells;
    for (const char *cpu : {"kvm", "atomic", "timing", "o3"})
        for (const char *mem : {"classic", "MI_example", "MESI_Two_Level"})
            for (int cores : {1, 2, 4, 8})
                for (const auto &kernel : sim::fs::fig8Kernels())
                    for (const char *boot : {"init", "systemd"}) {
                        Cell c;
                        c.name = std::string(cpu) + "-" + mem + "-" +
                                 std::to_string(cores) + "-" + kernel +
                                 "-" + boot;
                        c.cpu = cpu;
                        c.kernel = "kernel:" + kernel;
                        c.disk = "disk:boot-exit";
                        c.params = Json::object();
                        c.params["cpu"] = cpu;
                        c.params["num_cpus"] = cores;
                        c.params["mem_system"] = mem;
                        c.params["boot_type"] = boot;
                        c.params["max_ticks"] =
                            std::int64_t(200'000'000'000);
                        cells.push_back(std::move(c));
                    }
    return cells;
}

const std::map<std::string, std::string> parsecKernels = {
    {"18.04", "4.15.18"}, {"20.04", "5.4.51"}};

std::vector<Cell>
parsecCells()
{
    std::vector<Cell> cells;
    for (const auto &[release, kernel] : parsecKernels)
        for (const auto &app : workloads::parsecSuite())
            for (int cores : {1, 2, 8}) {
                Cell c;
                c.name = "parsec-" + app.name + "-ubuntu" + release +
                         "-" + std::to_string(cores) + "cpu";
                c.cpu = "timing";
                c.kernel = "kernel:" + kernel;
                c.disk = "disk:parsec-ubuntu-" + release;
                c.params = Json::object();
                c.params["cpu"] = "timing";
                c.params["num_cpus"] = cores;
                c.params["mem_system"] =
                    cores == 1 ? "classic" : "MESI_Two_Level";
                c.params["boot_type"] = "init";
                c.params["workload"] = "/parsec/bin/" + app.name;
                c.params["workload_arg"] = cores;
                c.params["max_ticks"] = std::int64_t(300'000'000'000'000);
                cells.push_back(std::move(c));
            }
    return cells;
}

std::vector<Cell>
gpuCells()
{
    std::vector<Cell> cells;
    for (const auto &app : workloads::gpuApps())
        for (auto policy : {sim::gpu::RegAllocPolicy::Simple,
                            sim::gpu::RegAllocPolicy::Dynamic}) {
            Cell c;
            c.name = app.kernel.name + "/" + sim::gpu::regAllocName(policy);
            c.app = &app;
            c.policy = policy;
            cells.push_back(std::move(c));
        }
    return cells;
}

std::map<std::string, std::string>
readGolden(const std::string &path)
{
    std::map<std::string, std::string> out;
    std::ifstream in(path);
    if (!in)
        fatal("figbench: cannot read golden '" + path + "'");
    std::string line;
    while (std::getline(in, line)) {
        auto tab = line.find('\t');
        if (tab != std::string::npos)
            out[line.substr(0, tab)] = line.substr(tab + 1);
    }
    return out;
}

/** User+system CPU seconds of this process and its reaped children. */
double
cpuSeconds()
{
    double total = 0;
    for (int who : {RUSAGE_SELF, RUSAGE_CHILDREN}) {
        rusage ru{};
        getrusage(who, &ru);
        total += double(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
                 1e-6 * double(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec);
    }
    return total;
}

/** Peak resident KiB of a live process (VmHWM), 0 when unreadable. */
std::int64_t
peakRssKib(int pid)
{
    std::ifstream in("/proc/" + std::to_string(pid) + "/status");
    std::string key;
    while (in >> key) {
        if (key == "VmHWM:") {
            std::int64_t kib = 0;
            in >> kib;
            return kib;
        }
        in.ignore(1 << 12, '\n');
    }
    return 0;
}

std::string
fsTypeName(const std::string &path)
{
    struct statfs sf{};
    if (statfs(path.c_str(), &sf) != 0)
        return "unknown";
    switch (static_cast<unsigned long>(sf.f_type)) {
      case 0xEF53: return "ext4";
      case 0x01021994: return "tmpfs";
      case 0x58465342: return "xfs";
      case 0x9123683E: return "btrfs";
      case 0x794C7630: return "overlayfs";
      default: {
        char buf[32];
        std::snprintf(buf, sizeof buf, "0x%lx",
                      static_cast<unsigned long>(sf.f_type));
        return buf;
      }
    }
}

/** Files and bytes under @p dir. */
std::pair<std::int64_t, std::int64_t>
treeSize(const std::string &dir)
{
    std::int64_t files = 0, bytes = 0;
    for (const auto &e : stdfs::recursive_directory_iterator(dir))
        if (e.is_regular_file()) {
            ++files;
            bytes += std::int64_t(e.file_size());
        }
    return {files, bytes};
}

/** Counter/gauge delta, or the "sum" delta of a histogram. */
double
metricDelta(const Json &before, const Json &after, const std::string &key)
{
    auto value = [&](const Json &snap) {
        if (!snap.contains(key))
            return 0.0;
        const Json &v = snap.at(key);
        return v.isNumber() ? v.asDouble() : v.getDouble("sum");
    };
    return value(after) - value(before);
}

/** What one workload run measured. */
struct Result
{
    double setupS = 0;
    double coldS = 0;
    double warmS = 0;
    double figureS = 0; ///< main .. last phase checked
    double coldCpuS = 0;
    std::int64_t workerPeakKib = 0;
    std::int64_t attempted = 0;
    std::int64_t failed = 0;
    std::vector<std::string> failures; ///< first few, for the log
    std::map<std::string, std::string> actual; ///< cold: cell -> value
    Json layers = Json::object();
};

class Bench
{
  public:
    Bench(const Options &o, double main_start)
        : opt(o), mainStart(main_start)
    {}

    Result run();

  private:
    void setupFs();
    void setupGpu();
    std::vector<Gem5Run> createRuns(ArtifactDb &adb, int pass);
    /** Launch @p runs, wait, and check every cell; @return cache hits. */
    std::int64_t launch(ArtifactDb &adb, std::vector<Gem5Run> &runs,
                        int pass);
    void runGpu();
    void check(const std::string &cell, const std::string &value);
    void reduceTrace(const Json &trace);

    const Options &opt;
    double mainStart;
    std::vector<Cell> cells;
    std::map<std::string, std::string> golden;
    Ledger ledger;
    Result res;

    bool journaled = false; ///< SweepJournal + on-disk DB
    std::string wsRoot, dbDir;
    std::optional<Workspace> ws;
    std::map<std::string, Workspace::Item> items;
    std::map<std::string, std::string> appHash; ///< GPU app artifacts
    Json blobBytesAtSetup;

    /** Per run name: CPU model, guest instructions of simulated runs. */
    std::map<std::string, std::string> cpuOf;
    std::map<std::string, std::int64_t> instsOf;
    std::int64_t gpuCycles = 0;
};

void
Bench::check(const std::string &cell, const std::string &value)
{
    ++res.attempted;
    if (!opt.emitGolden.empty())
        return; // writing the golden, not checking against one
    auto it = golden.find(cell);
    if (it != golden.end() && it->second == value)
        return;
    ++res.failed;
    if (res.failures.size() < 5)
        res.failures.push_back(
            cell + ": expected '" +
            (it == golden.end() ? std::string("<none>") : it->second) +
            "', got '" + value + "'");
}

void
Bench::setupFs()
{
    bool parsec = opt.workload == "parsec-timing";
    journaled = !parsec;
    {
        Ledger::Timed t(ledger, "art.register_s");
        ws.emplace(wsRoot, journaled ? dbDir : "");
    }
    Json blob0 = metrics::snapshot();
    auto addItem = [&](const std::string &key, auto &&make) {
        Ledger::Timed t(ledger, "art.register_s");
        items.emplace(key, make());
    };
    if (parsec) {
        addItem("binary", [&] { return ws->gem5Binary("20.1.0.4"); });
        addItem("script", [&] {
            return ws->runScript("launch_parsec_tests.py",
                                 "PARSEC run script (use-case 1)");
        });
        for (const auto &[release, kernel] : parsecKernels) {
            addItem("kernel:" + kernel, [&] { return ws->kernel(kernel); });
            sim::fs::DiskImagePtr image;
            {
                Ledger::Timed t(ledger, "resources.image_build_s");
                image = resources::buildParsecImage(release);
            }
            std::string name = "parsec-ubuntu-" + release;
            addItem("disk:" + name, [&] { return ws->disk(name, image); });
        }
    } else {
        addItem("binary", [&] { return ws->gem5Binary("20.1.0.4"); });
        sim::fs::DiskImagePtr image;
        {
            Ledger::Timed t(ledger, "resources.image_build_s");
            image = resources::buildBootExitImage();
        }
        addItem("disk:boot-exit",
                [&] { return ws->disk("boot-exit", image); });
        addItem("script", [&] {
            return ws->runScript("run_exit.py",
                                 "boot-exit run script (Fig 8)");
        });
        for (const auto &v : sim::fs::fig8Kernels())
            addItem("kernel:" + v, [&] { return ws->kernel(v); });
    }
    blobBytesAtSetup = Json(metricDelta(blob0, metrics::snapshot(),
                                        "db.blob.bytesHashed"));
}

std::vector<Gem5Run>
Bench::createRuns(ArtifactDb &adb, int pass)
{
    const auto &bin = items.at("binary");
    const auto &script = items.at("script");
    double timeout = opt.workload == "parsec-timing" ? 3600.0 : 600.0;
    std::vector<Gem5Run> runs;
    runs.reserve(cells.size());
    Ledger::Timed t(ledger, "art.create_s");
    for (const Cell &c : cells) {
        std::string name =
            pass == 1 ? c.name : c.name + "#" + std::to_string(pass);
        cpuOf[name] = c.cpu;
        const auto &k = items.at(c.kernel);
        const auto &d = items.at(c.disk);
        runs.push_back(Gem5Run::createFSRun(
            adb, name, bin.path, script.path, wsRoot + "/results/" + name,
            bin.artifact, bin.repoArtifact, script.repoArtifact, k.path,
            d.path, k.artifact, d.artifact, c.params, timeout));
    }
    return runs;
}

std::int64_t
Bench::launch(ArtifactDb &adb, std::vector<Gem5Run> &runs, int pass)
{
    Json before = metrics::snapshot();
    {
        std::optional<SweepJournal> sweep;
        if (journaled)
            sweep.emplace(adb, opt.workload + "-" + std::to_string(pass));
        Tasks tasks(adb, threads);
        {
            Ledger::Timed t(ledger, journaled ? "art.journal_submit_s"
                                              : "art.submit_s");
            if (sweep)
                sweep->submit(tasks, runs);
            else
                tasks.applyAsyncBatch(runs);
        }
        tasks.waitAll();
        // Workers are reaped with the Tasks: read their peaks first.
        if (auto pool = tasks.workerPool()) {
            std::int64_t kib = 0;
            for (int pid : pool->workerPids())
                kib += peakRssKib(pid);
            res.workerPeakKib = std::max(res.workerPeakKib, kib);
        }
        if (journaled)
            adb.db().save();
    }
    Json after = metrics::snapshot();

    for (Gem5Run &run : runs) {
        Json doc = run.document(adb);
        std::string value = runOutcomeName(Gem5Run::classify(doc));
        if (opt.workload == "parsec-timing")
            value = doc.getString("status") + " " +
                    std::to_string(doc.getInt("roiTicks")) + " " +
                    std::to_string(doc.getInt("totalInsts"));
        std::string cell = run.name().substr(0, run.name().find('#'));
        check(cell, value);
        if (pass == 1)
            res.actual[cell] = value;
        if (!doc.getBool("cached", false))
            instsOf[run.name()] = doc.getInt("totalInsts");
    }
    // A lost worker or an expired lease fails the figure even when the
    // retry recovered the cell.
    std::int64_t lost =
        std::int64_t(metricDelta(before, after, "scheduler.workers.lost") +
                     metricDelta(before, after, "scheduler.lease.expiries"));
    res.failed += lost;
    if (lost > 0 && res.failures.size() < 5)
        res.failures.push_back(std::to_string(lost) +
                               " lost workers / expired leases");
    return std::int64_t(
        metricDelta(before, after, "art.runCache.hits"));
}

void
Bench::setupGpu()
{
    {
        Ledger::Timed t(ledger, "art.register_s");
        ws.emplace(wsRoot);
    }
    Json blob0 = metrics::snapshot();
    Ledger::Timed t(ledger, "art.register_s");
    Artifact::Params docker;
    docker.typ = "docker environment";
    docker.name = "gcn-gpu";
    docker.command = "docker pull gcr.io/gem5-test/gcn-gpu";
    docker.gitUrl = "https://gem5.googlesource.com/public/gem5";
    docker.gitHash = "2a4357bfd0c688a19cfd6b1c600bb2d2d6fa6151";
    docker.documentation =
        "ROCm 1.6 + GCC 5.4 environment for the GCN3 GPU model";
    Artifact docker_artifact = Artifact::registerArtifact(ws->adb(), docker);
    items.emplace("binary", ws->gem5Binary("21.0", "GCN3_X86"));
    for (const auto &app : workloads::gpuApps()) {
        Artifact::Params prog;
        prog.typ = "gpu binary";
        prog.name = app.kernel.name;
        prog.command = "docker run gcn-gpu make " + app.kernel.name;
        prog.gitUrl = "https://gem5.googlesource.com/public/gem5-resources";
        prog.gitHash =
            Md5::hashString(app.kernel.toJson().dump()).substr(0, 20);
        prog.inputs = {docker_artifact.hash()};
        prog.documentation = app.group + " / " + app.inputSize;
        appHash[app.kernel.name] =
            Artifact::registerArtifact(ws->adb(), prog).hash();
    }
    blobBytesAtSetup = Json(metricDelta(blob0, metrics::snapshot(),
                                        "db.blob.bytesHashed"));
}

/**
 * The GPU cells on the fixed thread count, as the other workloads run
 * theirs: each thread takes the next cell of the permuted order, runs
 * it and archives it. The cells are checked once both threads are done.
 */
void
Bench::runGpu()
{
    sim::gpu::GpuConfig cfg;
    db::Collection &results = ws->adb().db().collection("gpu_runs");
    const std::string gem5 = items.at("binary").artifact.hash();
    std::vector<sim::gpu::GpuRunResult> out(cells.size());
    std::vector<Ledger> own(threads); // Ledger is not thread-safe
    std::vector<std::exception_ptr> errors(threads);
    std::atomic<std::size_t> next{0};
    auto work = [&](unsigned t) {
        try {
            Ledger::Timed span(own[t], "gpu_thread");
            for (std::size_t i; (i = next++) < cells.size();) {
                const Cell &c = cells[i];
                {
                    Ledger::Timed r(own[t], c.app->group == "heterosync"
                                                ? "sim.gpu_heterosync_s"
                                                : "sim.gpu_other_s");
                    sim::gpu::GpuModel model(cfg, c.policy);
                    out[i] = model.run(c.app->kernel);
                }
                Json doc = Json::object();
                doc["app"] = c.app->kernel.name;
                doc["allocator"] = sim::gpu::regAllocName(c.policy);
                doc["binary"] = appHash.at(c.app->kernel.name);
                doc["gem5"] = gem5;
                doc["result"] = out[i].toJson();
                Ledger::Timed a(own[t], "db.archive_s");
                results.insertOne(std::move(doc));
            }
        } catch (...) {
            errors[t] = std::current_exception();
        }
    };
    {
        std::vector<std::jthread> pool; // joined on every way out
        for (unsigned t = 0; t < threads; ++t)
            pool.emplace_back(work, t);
    }
    for (const std::exception_ptr &e : errors)
        if (e)
            std::rethrow_exception(e);
    for (const Ledger &l : own)
        for (const auto &[key, secs] : l.seconds)
            ledger.seconds[key] += secs;

    for (std::size_t i = 0; i < cells.size(); ++i) {
        gpuCycles += std::int64_t(out[i].shaderCycles);
        std::string value = std::to_string(out[i].shaderCycles);
        check(cells[i].name, value);
        res.actual[cells[i].name] = value;
    }
}

Result
Bench::run()
{
    wsRoot = opt.root + "/ws";
    dbDir = opt.root + "/db";
    golden = opt.emitGolden.empty() ? readGolden(opt.golden)
                                    : std::map<std::string, std::string>{};
    bool gpu = opt.workload == "gpu-regalloc";
    if (opt.workload == "boot-census" ||
        opt.workload == "boot-census-workers")
        cells = bootCells();
    else if (opt.workload == "parsec-timing")
        cells = parsecCells();
    else if (gpu)
        cells = gpuCells();
    else
        fatal("figbench: unknown workload '" + opt.workload + "'");
    sliceCells(cells, opt.slice);
    permute(cells, opt.seed);
    // The GPU threads take the long HeteroSync cells (92% of the time)
    // first and the short ones fill the tail, so both threads finish
    // together whatever the order the seed picked.
    if (gpu)
        std::stable_partition(cells.begin(), cells.end(),
                              [](const Cell &c) {
                                  return c.app->group == "heterosync";
                              });

    Json snap0 = metrics::snapshot();
    if (gpu)
        setupGpu();
    else
        setupFs();
    res.setupS = monotonicSeconds() - mainStart;
    if (opt.setupOnly)
        return res;

    // Cold: first cell created .. last result committed and checked.
    double cpu0 = cpuSeconds();
    double cold0 = monotonicSeconds();
    {
        Ledger::Timed t(ledger, "cold");
        if (gpu) {
            runGpu();
        } else {
            std::vector<Gem5Run> runs = createRuns(ws->adb(), 1);
            launch(ws->adb(), runs, 1);
        }
    }
    res.coldS = monotonicSeconds() - cold0;
    res.coldCpuS = cpuSeconds() - cpu0;

    // Warm (boot-census): relaunch the archived figure. Each relaunch
    // reopens the database in a fresh handle, as a new process would,
    // and submits the same cells under a new sweep name: the run cache
    // serves every deterministic cell and the tick-limit cells
    // re-simulate.
    if (opt.workload == "boot-census" && !opt.coldOnly) {
        ws.reset(); // closes the database handle
        std::int64_t cacheable = 0;
        for (const auto &[cell, value] : res.actual)
            cacheable += value != "timeout";
        double warm0 = monotonicSeconds();
        Ledger::Timed t(ledger, "warm");
        for (int pass = 2; pass <= bootRelaunches + 1; ++pass) {
            std::shared_ptr<db::Database> database;
            {
                Ledger::Timed r(ledger, "db.reopen_s");
                database = std::make_shared<db::Database>(dbDir);
            }
            ArtifactDb adb(database);
            double c0 = ledger.seconds["art.create_s"];
            std::vector<Gem5Run> runs = createRuns(adb, pass);
            double created = ledger.seconds["art.create_s"] - c0;
            if (pass == 2)
                res.layers["art.create_first_s"] = created;
            res.layers["art.create_last_s"] = created;
            std::int64_t hits = launch(adb, runs, pass);
            if (hits != cacheable) {
                ++res.failed;
                if (res.failures.size() < 5)
                    res.failures.push_back(
                        "relaunch " + std::to_string(pass - 1) + ": " +
                        std::to_string(hits) + " cache hits, expected " +
                        std::to_string(cacheable));
            }
        }
        res.warmS = monotonicSeconds() - warm0;
    }
    res.figureS = monotonicSeconds() - mainStart;

    if (opt.trace) {
        Json snap1 = metrics::snapshot();
        auto d = [&](const char *key) {
            return metricDelta(snap0, snap1, key);
        };
        Json &l = res.layers;
        l["art.register_s"] = ledger.seconds["art.register_s"];
        l["art.create_s"] = ledger.seconds["art.create_s"];
        if (!l.contains("art.create_first_s")) {
            l["art.create_first_s"] = 0.0;
            l["art.create_last_s"] = 0.0;
        }
        l["art.journal_submit_s"] = ledger.seconds["art.journal_submit_s"];
        l["art.cache_hits"] = d("art.runCache.hits");
        l["art.cache_misses"] = d("art.runCache.misses");
        l["art.ckpt_boots"] = d("art.ckpt.misses");
        l["art.ckpt_hits"] = d("art.ckpt.hits");
        auto [files, bytes] = treeSize(wsRoot);
        l["art.output_files"] = files;
        l["art.output_bytes"] = bytes;
        l["scheduler.tasks"] = d("scheduler.tasks.submitted");
        l["scheduler.retries"] = d("scheduler.tasks.retries");
        l["scheduler.ipc_bytes"] = d("scheduler.ipc.bytes");
        l["scheduler.workers_lost"] = d("scheduler.workers.lost");
        l["scheduler.lease_expiries"] = d("scheduler.lease.expiries");
        l["db.reopen_s"] = ledger.seconds["db.reopen_s"];
        l["db.runs_inserts"] = d("db.runs.inserts");
        l["db.runs_updates"] = d("db.runs.updates");
        l["db.runs_queries"] = d("db.runs.queries");
        l["db.commit_s"] = d("db.wal.commitSeconds");
        l["db.group_commits"] = d("db.wal.groupCommits");
        l["db.wal_bytes"] = d("db.wal.bytesAppended");
        l["db.blob_bytes"] = blobBytesAtSetup;
        l["sim.eventq_fired"] = d("sim.eventq.fired");
        l["sim.fastpath_insts"] = d("sim.fastpath.insts");
        std::int64_t insts = 0;
        for (const auto &kv : instsOf)
            insts += kv.second;
        l["sim.guest_insts"] = insts;
        double gpu_s = ledger.seconds["sim.gpu_heterosync_s"] +
                       ledger.seconds["sim.gpu_other_s"];
        l["sim.gpu_s"] = gpu_s;
        l["sim.gpu_heterosync_s"] = ledger.seconds["sim.gpu_heterosync_s"];
        l["sim.gpu_mcycles_per_s"] =
            gpu_s > 0 ? double(gpuCycles) / gpu_s / 1e6 : 0.0;
        l["resources.image_build_s"] =
            ledger.seconds["resources.image_build_s"];
        reduceTrace(tracing::stop());
    }
    return res;
}

/** A complete ("X") span on one thread. */
struct SpanRec
{
    std::string name;
    double ts = 0, dur = 0; ///< seconds since recording start
    int tid = 0;
    int attempt = 0;
    double childDur = 0;    ///< covered by direct children
    double commitDur = 0;   ///< direct run:*:commit children
    bool hasCommit = false;
};

bool
startsWith(const std::string &s, const char *p)
{
    return s.rfind(p, 0) == 0;
}

bool
endsWith(const std::string &s, const char *p)
{
    std::size_t n = std::char_traits<char>::length(p);
    return s.size() >= n && s.compare(s.size() - n, n, p) == 0;
}

/**
 * Reduce the chrome trace to the per-layer table: self time of each
 * span (its duration minus what its direct children on the same thread
 * cover), totals per span family, and the cold phase's scheduler view.
 */
void
Bench::reduceTrace(const Json &trace)
{
    std::vector<SpanRec> spans;
    for (const Json &ev : trace.at("traceEvents").asArray()) {
        if (ev.getString("ph") != "X")
            continue;
        SpanRec s;
        s.name = ev.getString("name");
        s.ts = ev.getDouble("ts") * 1e-6;
        s.dur = ev.getDouble("dur") * 1e-6;
        s.tid = int(ev.getInt("tid"));
        if (ev.contains("args"))
            s.attempt = int(ev.at("args").getInt("attempt"));
        spans.push_back(std::move(s));
    }
    // Parents first: by thread, then start, then longest.
    std::sort(spans.begin(), spans.end(),
              [](const SpanRec &a, const SpanRec &b) {
                  if (a.tid != b.tid)
                      return a.tid < b.tid;
                  if (a.ts != b.ts)
                      return a.ts < b.ts;
                  return a.dur > b.dur;
              });
    std::vector<std::size_t> stack;
    for (std::size_t i = 0; i < spans.size(); ++i) {
        while (!stack.empty() &&
               (spans[stack.back()].tid != spans[i].tid ||
                spans[i].ts >= spans[stack.back()].ts +
                                   spans[stack.back()].dur))
            stack.pop_back();
        if (!stack.empty()) {
            SpanRec &parent = spans[stack.back()];
            parent.childDur += spans[i].dur;
            if (startsWith(spans[i].name, "run:") &&
                endsWith(spans[i].name, ":commit")) {
                parent.commitDur += spans[i].dur;
                parent.hasCommit = true;
            }
        }
        stack.push_back(i);
    }

    double cold0 = 0, cold1 = 0, submit1 = 0;
    for (const SpanRec &s : spans) {
        if (s.name == "bench:cold") {
            cold0 = s.ts;
            cold1 = s.ts + s.dur;
        }
    }
    for (const SpanRec &s : spans)
        if (s.ts >= cold0 && s.ts < cold1 &&
            (s.name == "bench:art.journal_submit_s" ||
             s.name == "bench:art.submit_s"))
            submit1 = s.ts + s.dur;

    double run_self = 0, commit = 0, boot = 0, restore = 0;
    std::map<std::string, double> selfByCpu;
    double busy = 0, task_self = 0, wait = 0, dispatch = 0;
    double gpu_self = 0, gpu_dur = 0;
    std::map<int, double> lastEnd;
    double tasksEnd = cold0;
    for (const SpanRec &s : spans) {
        double self = s.dur - s.childDur;
        bool in_cold = s.ts >= cold0 && s.ts < cold1;
        if (startsWith(s.name, "run:")) {
            if (endsWith(s.name, ":commit")) {
                commit += s.dur;
            } else {
                run_self += self;
                std::string run = s.name.substr(4);
                auto it = cpuOf.find(run);
                if (it != cpuOf.end() && instsOf.count(run))
                    selfByCpu[it->second] += self;
            }
        } else if (s.name == "ckpt:boot") {
            boot += s.dur;
        } else if (s.name == "ckpt:restore") {
            restore += s.dur;
        } else if (startsWith(s.name, "task:") && in_cold) {
            busy += s.dur;
            task_self += self;
            if (s.attempt <= 1)
                wait += std::max(0.0, s.ts - submit1);
            if (s.hasCommit)
                dispatch += s.dur - s.commitDur;
            lastEnd[s.tid] = std::max(lastEnd[s.tid], s.ts + s.dur);
            tasksEnd = std::max(tasksEnd, s.ts + s.dur);
        } else if (s.name == "bench:gpu_thread") {
            gpu_self += self;
            gpu_dur += s.dur;
        }
    }

    Json &l = res.layers;
    l["art.run_s"] = run_self;
    l["art.commit_s"] = commit;
    l["art.ckpt_boot_s"] = boot;
    l["art.ckpt_restore_s"] = restore;
    double phase = cold1 - cold0;
    l["scheduler.busy_s"] = busy;
    l["scheduler.utilization"] =
        phase > 0 ? busy / (double(threads) * phase) : 0.0;
    l["scheduler.queue_wait_s"] = wait;
    double first_idle = tasksEnd;
    for (const auto &kv : lastEnd)
        first_idle = std::min(first_idle, kv.second);
    l["scheduler.idle_tail_s"] = tasksEnd - first_idle;
    l["scheduler.dispatch_s"] = dispatch;
    for (const char *cpu : {"kvm", "atomic", "timing", "o3"}) {
        std::int64_t insts = 0;
        for (const auto &[run, n] : instsOf)
            if (cpuOf[run] == cpu)
                insts += n;
        double secs = selfByCpu[cpu];
        l[std::string("sim.mips_") + cpu] =
            secs > 0 ? double(insts) / secs / 1e6 : 0.0;
    }
    // Thread-time no span explains: task self time where the scheduler
    // runs cells, else the self time of the GPU threads' spans.
    l["base.unattributed_frac"] =
        busy > 0 ? task_self / busy
                 : (gpu_dur > 0 ? gpu_self / gpu_dur : 0.0);
}

Json
hostRecord(const std::string &root)
{
    Json h = Json::object();
    h["nproc"] = std::int64_t(sysconf(_SC_NPROCESSORS_ONLN));
    h["compiler"] = std::string("g++ ") + __VERSION__;
    h["build_type"] = G5_BUILD_TYPE;
    h["fs_type"] = fsTypeName(root);
    h["threads"] = std::int64_t(threads);
    return h;
}

[[noreturn]] void
usage(const char *msg)
{
    std::fprintf(stderr,
                 "figbench: %s\nusage: figbench --workload W --seed N "
                 "--root DIR --golden FILE [--trace] "
                 "[--setup-only | --cold-only] [--slice N] "
                 "[--emit-golden FILE]\n",
                 msg);
    std::exit(2);
}

} // anonymous namespace

int
main(int argc, char **argv)
{
    double main_start = monotonicSeconds();
    Options opt;
    for (int i = 1; i < argc; ++i) {
        std::string a = argv[i];
        auto next = [&]() -> std::string {
            if (i + 1 >= argc)
                usage(("missing value for " + a).c_str());
            return argv[++i];
        };
        if (a == "--workload")
            opt.workload = next();
        else if (a == "--seed")
            opt.seed = std::stoull(next());
        else if (a == "--root")
            opt.root = next();
        else if (a == "--golden")
            opt.golden = next();
        else if (a == "--emit-golden")
            opt.emitGolden = next();
        else if (a == "--slice")
            opt.slice = std::stoul(next());
        else if (a == "--trace")
            opt.trace = true;
        else if (a == "--setup-only")
            opt.setupOnly = true;
        else if (a == "--cold-only")
            opt.coldOnly = true;
        else
            usage(("unknown argument " + a).c_str());
    }
    if (opt.workload.empty() || opt.root.empty() ||
        (opt.golden.empty() && opt.emitGolden.empty()))
        usage("--workload, --root and --golden are required");

    setQuiet(true); // failed cells are data, not log noise
    if (opt.workload == "boot-census-workers")
        setenv("G5_WORKERS", std::to_string(threads).c_str(), 1);
    else
        unsetenv("G5_WORKERS");
    if (opt.trace)
        tracing::start("");

    Result res;
    try {
        Bench bench(opt, main_start);
        res = bench.run();
    } catch (const std::exception &e) {
        std::fprintf(stderr, "figbench: %s\n", e.what());
        return 1;
    }

    if (!opt.emitGolden.empty()) {
        std::ofstream out(opt.emitGolden);
        for (const auto &[cell, value] : res.actual)
            out << cell << '\t' << value << '\n';
    }

    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    Json out = Json::object();
    out["workload"] = opt.workload;
    out["seed"] = std::int64_t(opt.seed);
    out["setup_s"] = res.setupS;
    out["cold_s"] = res.coldS;
    out["warm_s"] = res.warmS;
    out["figure_s"] = res.figureS;
    out["cold_cpu_s"] = res.coldCpuS;
    out["peak_rss_mb"] =
        double(std::int64_t(ru.ru_maxrss) + res.workerPeakKib) / 1024.0;
    out["attempted"] = res.attempted;
    out["failed"] = res.failed;
    Json failures = Json::array();
    for (const auto &f : res.failures)
        failures.push(Json(f));
    out["failures"] = std::move(failures);
    out["host"] = hostRecord(opt.root);
    if (opt.trace)
        out["layers"] = res.layers;
    std::printf("%s\n", out.dump().c_str());
    return 0;
}
